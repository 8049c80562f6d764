"""The trigraded complex mixing wedge powers of cycles and cocycles.

Basis elements are triples (S, w, a): a face S of size p, an increasing
q-tuple w from C(S) (wedge of fundamental cycles) and an increasing
r-tuple a from C(S) (wedge of cocycle classes, a basis of H^r(Λ_S) for
Λ_S = H_1(Γ∖S; Z)).  The differential is the edgewise sum of interior
products on the cycle factor tensored with the restriction
H¹(Λ_S) -> H¹(Λ_{S∪e}) on the cocycle factor, both in closed form through
the cotree edge x0 that C(S) loses to C(S ∪ e) (CoherentCotree.lost and
CoherentCotree.restrict).  It preserves the stripes
(k, ℓ) = (p + q, r), and each stripe is an honest subcomplex whose Euler
characteristic fills the e(k, ℓ) table.  The generating polynomial of
that table is a Tutte specialization, verified against exact cohomology.
"""

from .activity import CoherentCotree, coherent_cotree, tutte
from .ht import HTComplex
from .intlinalg import is_zero_matrix, map_matrix, matmul, rank
from .polynomials import Poly2

# base value for the Tutte specialization: the loop graph's generating
# polynomial, -(x + y + x*y)
LOOP_VALUE = Poly2({(1, 0): -1, (0, 1): -1, (1, 1): -1})


class CKSComplex(HTComplex):
    """Lazily materialized trigraded complex over a coherent cotree.

    Bases (p, q, r), index maps, stripes (k, ℓ) and the differential
    come from HTComplex, generic over the third grading.
    """

    # a name of its own, so that perfbench's tracer times the CKS
    # differentials apart from the HT ones
    d_matrix = HTComplex.d_matrix

    def stripe_keys(self):
        """The (k, ℓ) of every stripe that can be nonzero."""
        return [(k, ell) for k in range(2 * self.genus + 1)
                for ell in range(self.genus + 1)]


def build_cks(graph, cc=None):
    if cc is None:
        cc = coherent_cotree(graph)
    return CKSComplex(graph, cc)


# ---------------------------------------------------------------------------
# cohomology, Euler table, generating polynomial

def cks_cohomology(graph, cc=None):
    """Free rank and torsion per tridegree (2p, q, r), as a dict."""
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph, cc)
    return by_tridegree({key: cks.stripe(*key).cohomology()
                         for key in cks.stripe_keys()})


def by_tridegree(stripes):
    """Flatten per-stripe cohomology {(k, ℓ): {p: (free, torsion)}} into
    {(2p, q, r): (free, torsion)}, leaving out the zero groups."""
    return {(2 * p, k - p, ell): (free, torsion)
            for (k, ell), coh in stripes.items()
            for p, (free, torsion) in coh.items() if free or torsion}


def euler_table(graph, cc=None):
    """e(k, ℓ) = alternating sum over p of the stripe dimensions."""
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph, cc)
    d = cks.genus
    table = {}
    for k, ell in cks.stripe_keys():
        dims = [cks.dim(p, k - p, ell) for p in range(min(k, d) + 1)]
        if any(dims):
            table[(k, ell)] = sum((-1) ** p * n for p, n in enumerate(dims))
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
        return map_matrix(self.sub.basis(p, q, r), self.mid.index(p + 1, q, r),
                          lambda b: {(b[0] | {self.edge}, b[1], b[2]): 1})

    def project_matrix(self, p, q, r):
        """Projection of the middle (2p,q,r) onto the contracted complex:
        kill triples whose face contains e."""
        return map_matrix(self.mid.basis(p, q, r), self.quo.index(p, q, r),
                          lambda b: {} if self.edge in b[0] else {b: 1})

    def check_exact(self, p, q, r):
        """Degreewise exactness 0 → sub → mid → quo → 0 at (2p, q, r)."""
        inc = self.include_matrix(p - 1, q, r)
        prj = self.project_matrix(p, q, r)
        dim_mid = self.mid.dim(p, q, r)
        dim_sub = self.sub.dim(p - 1, q, r)
        dim_quo = self.quo.dim(p, q, r)
        if dim_sub + dim_quo != dim_mid:
            return False
        r_inc = rank(inc) if dim_sub else 0
        r_prj = rank(prj) if dim_mid and dim_quo else 0
        if r_inc != dim_sub or r_prj != dim_quo:
            return False
        if dim_sub and dim_quo:
            return is_zero_matrix(matmul(prj, inc))
        return True

    def split(self, p, q, r):
        """Positions in the middle basis (2p, q, r) of the triples with e ∉ S
        and e ∈ S; None unless they are the contracted (2p, q, r) and deleted
        (2p−2, q, r) bases in order, the latter moved by S ↦ S ∪ e."""
        mid = self.mid.basis(p, q, r)
        con = [i for i, b in enumerate(mid) if self.edge not in b[0]]
        dl = [i for i, b in enumerate(mid) if self.edge in b[0]]
        if ([mid[i] for i in con] != self.quo.basis(p, q, r)
                or [(mid[i][0] - {self.edge}, *mid[i][1:]) for i in dl]
                != self.sub.basis(p - 1, q, r)):
            return None
        return con, dl

    def check_chain_maps(self, p, q, r):
        """Both squares with the differentials commute at the middle
        source piece (2p, q, r): in the split of the middle bases,
        d_mid = [[d_quo, 0], [*, d_sub]]."""
        src, tgt = self.split(p, q, r), self.split(p + 1, q - 1, r)
        if src is None or tgt is None:
            return False
        if not self.mid.dim(p, q, r):
            return True
        d = self.mid.d_matrix(p, q, r)

        def block(rows, cols):
            return [[d[i][j] for j in cols] for i in rows]

        return ((not src[0] or block(tgt[0], src[0]) == self.quo.d_matrix(p, q, r))
                and (not src[1] or block(tgt[1], src[1])
                     == self.sub.d_matrix(p - 1, q, r))
                and is_zero_matrix(block(tgt[0], src[1])))


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
