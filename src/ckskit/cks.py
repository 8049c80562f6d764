"""The trigraded complex mixing wedge powers of cycles and cocycles.

Basis elements are triples (S, w, a): a face S of size p, an increasing
q-tuple w from C(S) (wedge of fundamental cycles) and an increasing
r-tuple a from C(S) (wedge of cocycle classes).  The differential is the
edgewise sum of interior products on the cycle factor tensored with the
cocycle projection on the cochain factor; it preserves the stripes
(k, ℓ) = (p + q, r), and each stripe is an honest subcomplex whose Euler
characteristic fills the e(k, ℓ) table.  The generating polynomial of
that table is a Tutte specialization, verified against exact cohomology.
"""

import itertools

from .activity import CoherentCotree, coherent_cotree, tutte
from .ht import HTComplex
from .intlinalg import CochainComplex, matmul, rank, zeros
from .polynomials import Poly2

# base value for the Tutte specialization: the loop graph's generating
# polynomial, -(x + y + x*y)
LOOP_VALUE = Poly2({(1, 0): -1, (0, 1): -1, (1, 1): -1})


class CKSComplex:
    """Lazily materialized trigraded complex over a coherent cotree."""

    def __init__(self, graph, cc):
        # reuse the interior-product machinery; raises MismatchedGraph
        # when cc was built from a different graph
        self.ht = HTComplex(graph, cc)
        self.graph = graph
        self.cc = cc
        self.faces = cc.faces
        self.genus = cc.faces.genus
        self._basis = {}
        self._index = {}
        self._proj = {}

    # -- bases ------------------------------------------------------------

    def basis(self, p, q, r):
        key = (p, q, r)
        if key not in self._basis:
            out = []
            if 0 <= p <= self.genus and q >= 0 and r >= 0:
                for s in self.faces.levels[p]:
                    cot = self.graph.sort_edges(self.cc.C(s))
                    for w in itertools.combinations(cot, q):
                        for a in itertools.combinations(cot, r):
                            out.append((s, w, a))
            self._basis[key] = out
            self._index[key] = {b: i for i, b in enumerate(out)}
        return self._basis[key]

    def index(self, p, q, r):
        self.basis(p, q, r)
        return self._index[(p, q, r)]

    def dim(self, p, q, r):
        return len(self.basis(p, q, r))

    # -- cocycle projection -----------------------------------------------

    def proj_matrix(self, s, e):
        """Matrix of the cocycle projection H¹(Γ∖S) -> H¹(Γ∖S∖e) in the
        cotree coordinate bases: column x ∈ C(S) expands the class [x] as
        Σ_y <γ_y, x> [y] over y ∈ C(S∪e), via the cycles of Γ∖S∖e."""
        key = (s, e)
        if key not in self._proj:
            src = self.graph.sort_edges(self.cc.C(s))
            tgt = self.graph.sort_edges(self.cc.C(s | {e}))
            cyc = self.cc.cycles(s | {e})
            self._proj[key] = {
                "src": src,
                "tgt": tgt,
                "mat": [[cyc.rows[y].get(x, 0) for x in src] for y in tgt],
            }
        return self._proj[key]

    def proj_wedge(self, s, e, a):
        """Wedge power of the projection applied to a basis r-wedge a,
        returned as a sparse dict over increasing r-tuples of C(S∪e)."""
        info = self.proj_matrix(s, e)
        src_index = {x: i for i, x in enumerate(info["src"])}
        cols = [src_index[x] for x in a]
        r = len(a)
        out = {}
        if r == 0:
            return {(): 1}
        mat = info["mat"]
        tgt = info["tgt"]
        for rows in itertools.combinations(range(len(tgt)), r):
            minor = [[mat[i][j] for j in cols] for i in rows]
            dd = _small_det(minor)
            if dd:
                out[tuple(tgt[i] for i in rows)] = dd
        return out

    # -- differential -----------------------------------------------------

    def d_element(self, s, w, a):
        out = {}
        for e in self.graph.sort_edges(self.graph.eids - s):
            if (s | {e}) not in self.faces:
                continue
            wpart = self.ht.iota(s, e, {w: 1})
            if not wpart:
                continue
            apart = self.proj_wedge(s, e, a)
            if not apart:
                continue
            for w2, cw in wpart.items():
                for a2, ca in apart.items():
                    key = (s | {e}, w2, a2)
                    out[key] = out.get(key, 0) + cw * ca
        return {k: v for k, v in out.items() if v}

    def d_matrix(self, p, q, r):
        """Matrix of d: (2p, q, r) -> (2p+2, q-1, r)."""
        src = self.basis(p, q, r)
        tgt_index = self.index(p + 1, q - 1, r)
        m = zeros(len(tgt_index), len(src))
        for j, (s, w, a) in enumerate(src):
            for key, c in self.d_element(s, w, a).items():
                m[tgt_index[key]][j] = c
        return m

    # -- graded stripes ---------------------------------------------------

    def stripe(self, k, ell):
        """The (k, ℓ) stripe as a CochainComplex indexed by p."""
        bases = {}
        diffs = {}
        for p in range(0, min(k, self.genus) + 1):
            q = k - p
            b = self.basis(p, q, ell)
            if b:
                bases[p] = b
        for p in sorted(bases):
            m = self.d_matrix(p, k - p, ell)
            if m and m[0]:
                diffs[p] = m
        return CochainComplex(bases, diffs)


def build_cks(graph, cc=None):
    if cc is None:
        cc = coherent_cotree(graph)
    return CKSComplex(graph, cc)


def _small_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _small_det(minor)
    return total


# ---------------------------------------------------------------------------
# cohomology, Euler table, generating polynomial

def cks_cohomology(graph, cc=None):
    """Free rank and torsion per tridegree (2p, q, r), as a dict."""
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph, cc)
    d = cks.genus
    out = {}
    for k in range(0, 2 * d + 1):
        for ell in range(0, d + 1):
            stripe = cks.stripe(k, ell)
            if not stripe.bases:
                continue
            for p, (free, torsion) in stripe.cohomology().items():
                if free or torsion:
                    out[(2 * p, k - p, ell)] = (free, torsion)
    return out


def euler_table(graph, cc=None, cross_check=False):
    """e(k, ℓ) = alternating sum over p of the stripe dimensions.

    With cross_check=True the same number is recomputed from cohomology
    ranks (χ is invariant) and both are asserted equal.
    """
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph, cc)
    d = cks.genus
    table = {}
    for k in range(0, 2 * d + 1):
        for ell in range(0, d + 1):
            val = 0
            nonzero = False
            for p in range(0, min(k, d) + 1):
                dim = cks.dim(p, k - p, ell)
                if dim:
                    nonzero = True
                val += (-1) ** p * dim
            if nonzero or val:
                table[(k, ell)] = val
    if cross_check:
        assert_euler_matches(table, cks_cohomology(cks))
    return table


def assert_euler_matches(table, coh):
    """Assert that an Euler table equals the alternating sum over p of
    the free ranks in `coh`, a cks_cohomology result (χ is invariant)."""
    alt = {}
    for (two_p, q, r), (free, _) in coh.items():
        key = (two_p // 2 + q, r)
        alt[key] = alt.get(key, 0) + (-1) ** (two_p // 2) * free
    for key in set(table) | set(alt):
        assert table.get(key, 0) == alt.get(key, 0), \
            f"Euler characteristic mismatch at {key}"


def h_hat(graph, cc=None):
    """Generating polynomial (−1)^d Σ e(k,ℓ) x^{d−k} y^ℓ of the table."""
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph, cc)
    d = cks.genus
    sign = -1 if d % 2 else 1
    table = euler_table(cks)
    return Poly2({(d - k, ell): sign * v for (k, ell), v in table.items() if v})


def tutte_loop_specialization(graph):
    """Substitute the loop-graph base value −(x+y+xy) into the loop slot
    (second argument) of the Tutte polynomial; the bridge slot gets 1.

    By Tutte universality this equals the h_hat generating polynomial for
    every graph (bridge: T = x ↦ 1; loop: T = y ↦ the base value).
    """
    return tutte(graph).substitute(Poly2.const(1), LOOP_VALUE)


def tutte_specialization_literal(graph):
    """The other argument order: x ← −(x+y+xy), y ← 1.  Kept only so the
    two readings can be compared; it disagrees with h_hat already on the
    theta graph (it lacks the x^d term that e(0,0)=1 forces)."""
    return tutte(graph).substitute(LOOP_VALUE, Poly2.const(1))


# ---------------------------------------------------------------------------
# deletion-contraction

class DelConCKS:
    """Short exact sequence of complexes at a non-loop, non-bridge edge.

    Takes the deletion-contraction setup of that edge (an ht.DelConR):
    with the edge ordered last and induced cotrees on both sides, the
    middle basis splits literally: triples with e ∈ S come from the
    deleted graph (degree shift +2, stripe shift (k,ℓ) -> (k+1,ℓ)) and
    triples with e ∉ S project to the contracted graph.
    """

    def __init__(self, setup):
        self.edge = setup.edge
        # fresh views of the setup's cotree tables: the cycle bases the
        # complexes cache are freed with this sequence instead of being
        # kept alive by the setup, which outlives it
        self.mid, self.sub, self.quo = (
            CKSComplex(cc.graph, CoherentCotree(cc.graph, cc.faces, cc.table))
            for cc in (setup.cc, setup.cc_del, setup.cc_con))

    def include_matrix(self, p, q, r):
        """Inclusion (2p,q,r) of the deleted complex into (2p+2,q,r) of
        the middle one: (S, w, a) ↦ (S ∪ e, w, a)."""
        src = self.sub.basis(p, q, r)
        tgt_index = self.mid.index(p + 1, q, r)
        m = zeros(len(tgt_index), len(src))
        for j, (s, w, a) in enumerate(src):
            m[tgt_index[(s | {self.edge}, w, a)]][j] = 1
        return m

    def project_matrix(self, p, q, r):
        """Projection of the middle (2p,q,r) onto the contracted complex:
        kill triples whose face contains e."""
        src = self.mid.basis(p, q, r)
        tgt_index = self.quo.index(p, q, r)
        m = zeros(len(tgt_index), len(src))
        for j, (s, w, a) in enumerate(src):
            if self.edge not in s:
                m[tgt_index[(s, w, a)]][j] = 1
        return m

    def check_exact(self, p, q, r):
        """Degreewise exactness 0 → sub → mid → quo → 0 at (2p, q, r)."""
        inc = self.include_matrix(p - 1, q, r) if p >= 1 else \
            zeros(self.mid.dim(p, q, r), 0)
        prj = self.project_matrix(p, q, r)
        dim_mid = self.mid.dim(p, q, r)
        dim_sub = self.sub.dim(p - 1, q, r) if p >= 1 else 0
        dim_quo = self.quo.dim(p, q, r)
        if dim_sub + dim_quo != dim_mid:
            return False
        r_inc = rank(inc) if dim_sub else 0
        r_prj = rank(prj) if dim_mid and dim_quo else 0
        if r_inc != dim_sub or r_prj != dim_quo:
            return False
        if dim_sub and dim_quo:
            comp = [[sum(prj[i][t] * inc[t][j] for t in range(dim_mid))
                     for j in range(dim_sub)] for i in range(dim_quo)]
            if any(any(row) for row in comp):
                return False
        return True

    def check_chain_maps(self, p, q, r):
        """Both squares with the differentials commute at (2p, q, r)."""

        def mul(a, b, rows, cols):
            out = matmul(a, b)
            return out if out else zeros(rows, cols)

        def norm(m, rows, cols):
            return m if (rows and cols and m) else zeros(rows, cols)

        ok = True
        # inclusion square: d_mid ∘ inc = inc ∘ d_sub
        rows = self.mid.dim(p + 2, q - 1, r)
        cols = self.sub.dim(p, q, r)
        if cols:
            inc1 = self.include_matrix(p, q, r)
            left = mul(norm(self.mid.d_matrix(p + 1, q, r), rows,
                            self.mid.dim(p + 1, q, r)), inc1, rows, cols)
            inc2 = self.include_matrix(p + 1, q - 1, r)
            right = mul(inc2, self.sub.d_matrix(p, q, r), rows, cols)
            ok = ok and norm(left, rows, cols) == norm(right, rows, cols)
        # projection square: d_quo ∘ prj = prj ∘ d_mid
        rows = self.quo.dim(p + 1, q - 1, r)
        cols = self.mid.dim(p, q, r)
        if cols:
            prj1 = self.project_matrix(p, q, r)
            left = mul(self.quo.d_matrix(p, q, r), prj1, rows, cols)
            prj2 = self.project_matrix(p + 1, q - 1, r)
            right = mul(prj2, self.mid.d_matrix(p, q, r), rows, cols)
            ok = ok and norm(left, rows, cols) == norm(right, rows, cols)
        return ok


def euler_recurrence_holds(dc):
    """e_Γ(k,ℓ) = e_{Γ/e}(k,ℓ) − e_{Γ∖e}(k−1,ℓ) on the complexes of a
    DelConCKS at a non-loop non-bridge edge e."""
    mid = euler_table(dc.mid)
    sub = euler_table(dc.sub)
    quo = euler_table(dc.quo)
    keys = set(mid) | set(quo) | {(k + 1, l) for (k, l) in sub}
    return all(
        mid.get((k, l), 0) == quo.get((k, l), 0) - sub.get((k - 1, l), 0)
        for (k, l) in keys
    )
