"""The trigraded complex mixing wedge powers of cycles and cocycles.

Basis elements are triples (S, w, a): a face S of size p, an increasing
q-tuple w from C(S) (wedge of fundamental cycles) and an increasing
r-tuple a from C(S) (wedge of cocycle classes, a basis of H^r(Λ_S) for
Λ_S = H_1(Γ∖S; Z)).  The differential is the edgewise sum of interior
products on the cycle factor tensored with the restriction
H¹(Λ_S) -> H¹(Λ_{S∪e}) on the cocycle factor, both in closed form through
the cotree edge x0 that C(S) loses to C(S ∪ e), read off the edge
records of d (HTComplex.records).  It preserves the stripes
(k, ℓ) = (p + q, r), and each stripe is an honest subcomplex whose Euler
characteristic fills the e(k, ℓ) table; the stripes' cohomology is
computed one stripe at a time (HTComplex.stripe_cohomology), and
cks_cohomology reads d² = 0 off the squares of the edge records
(HTComplex.squares_vanish), where the checks multiply.  Since C(S)
has genus − |S| edges on every face, the piece sizes and the table read
only the face counts, and so does its deletion-contraction recurrence.
The generating polynomial of that table is a Tutte specialization,
verified against exact cohomology.
"""

import math
from operator import itemgetter

from .activity import CoherentCotree, coherent_cotree
from .errors import CksKitError, OutsideBasis
from .graphs import face_complex
from .ht import HTComplex, _add_path, _restrict_factor
from .intlinalg import is_zero_matrix, is_zero_product, rank
from .polynomials import Poly2

# base value for the Tutte specialization: the loop graph's generating
# polynomial, -(x + y + x*y)
LOOP_VALUE = Poly2({(1, 0): -1, (0, 1): -1, (1, 1): -1})


class CKSComplex(HTComplex):
    """Lazily materialized trigraded complex over a coherent cotree.

    Stripes (k, ℓ) and the differential come from HTComplex, generic over
    the third grading; its labelled bases serve only the tests' references.
    """

    # a name of its own, so that perfbench's tracer times the CKS
    # differentials apart from the HT ones
    d_matrix = HTComplex.d_matrix

    def d_columns(self, p, q, r):
        # not kept: each piece is read once, and theta8's pieces hold 389,648 nonzeros
        return self._assemble(p, q, r)

    def stripe_keys(self):
        """The (k, ℓ) of every stripe that can be nonzero."""
        return [(k, ell) for k in range(2 * self.genus + 1)
                for ell in range(self.genus + 1)]

    def _square_vanishes(self, m, one, two):
        """HTComplex._square_vanishes, and the two paths' restrictions
        agree on the 1-wedges of C(S) (HTComplex.squares_vanish)."""
        restriction = {}
        for sign, ((x0, a), (x1, b)) in zip((1, -1), (one, two)):
            _add_path(restriction, _restrict_factor(m, 1, x0, a),
                      _restrict_factor(m - 1, 1, x1, b), sign)
        return super()._square_vanishes(m, one, two) and not any(restriction.values())


def build_cks(graph, cc=None):
    if cc is None:
        cc = coherent_cotree(graph)
    return CKSComplex(graph, cc)


# ---------------------------------------------------------------------------
# cohomology, Euler table, generating polynomial

def cks_cohomology(graph):
    """Free rank and torsion per tridegree (2p, q, r), as a dict.  d² = 0
    is decided from the squares of the edge records, and each stripe is
    multiplied only if a square fails (HTComplex.stripe_cohomology)."""
    cks = graph if isinstance(graph, CKSComplex) else build_cks(graph)
    return by_tridegree(cks.stripe_cohomology(squares=True))


def by_tridegree(stripes):
    """Flatten per-stripe cohomology {(k, ℓ): {p: (free, torsion)}} into
    {(2p, q, r): (free, torsion)}, leaving out the zero groups.  Raises
    the error of the first stripe that is not a complex."""
    for coh in stripes.values():
        if isinstance(coh, CksKitError):
            raise coh
    return {(2 * p, k - p, ell): (free, torsion)
            for (k, ell), coh in stripes.items()
            for p, (free, torsion) in coh.items() if free or torsion}


def euler_table(graph):
    """e(k, ℓ) = alternating sum over p of the stripe dimensions, read
    from the face counts of a graph or of a complex (see _counts_table)."""
    return _faces_and_table(graph)[1]


def _faces_and_table(graph):
    """The face complex of a graph or of a complex, and its Euler table."""
    faces = graph.faces if isinstance(graph, HTComplex) else face_complex(graph)
    return faces, _counts_table([len(level) for level in faces.levels], faces.genus)


def _counts_table(counts, genus):
    """The Euler table of a CKS complex whose faces of size p number
    counts[p]: C(S) has genus − p edges on every such face S, so the
    (2p, q, r) piece has dimension counts[p]·C(genus − p, q)·C(genus − p, r)
    (ht.piece_size, as in HTComplex.dim), and it adds (−1)^p times that
    to e(p + q, r).  Only the levels with a face are walked, over
    q, r ≤ genus − p.  A stripe with no nonzero piece has no entry, and
    one whose pieces cancel has the entry 0.  The first level with a face
    writes every key, in sorted order: a later level p's (p + q, r) is
    also (p0 + q', r) with q', r ≤ genus − p0."""
    table = {}
    for p, f in enumerate(counts[:genus + 1]):
        if f:
            signed = -f if p % 2 else f
            binom = [math.comb(genus - p, n) for n in range(genus - p + 1)]
            for q, bq in enumerate(binom):
                for ell, bl in enumerate(binom):
                    key = (p + q, ell)
                    table[key] = table.get(key, 0) + signed * bq * bl
    return table


def euler_mismatch(table, coh):
    """The first (k, ℓ), in sorted order, at which an Euler table differs
    from the alternating sum over p of the free ranks in `coh`, a
    cks_cohomology result (χ is invariant); None when they agree."""
    alt = {}
    for (two_p, q, r), (free, _) in coh.items():
        key = (two_p // 2 + q, r)
        alt[key] = alt.get(key, 0) + (-1) ** (two_p // 2) * free
    return next((key for key in sorted(set(table) | set(alt))
                 if table.get(key, 0) != alt.get(key, 0)), None)


def h_hat(graph):
    """Generating polynomial (−1)^d Σ e(k,ℓ) x^{d−k} y^ℓ of euler_table."""
    faces, table = _faces_and_table(graph)
    d = faces.genus
    sign = -1 if d % 2 else 1
    return Poly2({(d - k, ell): sign * v for (k, ell), v in table.items() if v})


def tutte_loop_specialization(t):
    """Substitute the loop-graph base value −(x+y+xy) into the loop slot
    (second argument) of a graph's Tutte polynomial t; the bridge slot
    gets 1.

    By Tutte universality this equals the h_hat generating polynomial for
    every graph (bridge: T = x ↦ 1; loop: T = y ↦ the base value).
    """
    return t.substitute(Poly2.const(1), LOOP_VALUE)


# ---------------------------------------------------------------------------
# deletion-contraction

class DelConCKS:
    """Short exact sequence of complexes at a non-loop, non-bridge edge.

    Takes the deletion-contraction setup of that edge (an ht.DelConR):
    with the edge ordered last and induced cotrees on both sides, the
    middle basis splits literally: triples with e ∈ S come from the
    deleted graph (degree shift +2, stripe shift (k,ℓ) -> (k+1,ℓ)) and
    triples with e ∉ S project to the contracted graph.  split reads it off
    the faces; labelled bases serve only the tests' references.

    The split is face-level.  On a face of size p all three complexes
    have cotrees of m = g − p edges (Γ∖e has genus g − 1 and its faces one
    edge fewer), so in the (2p, q, r) piece, q, r ≤ m, each face holds one
    block of w = C(m, q)·C(m, r) > 0 triples, the same w on all three
    sides.  The inclusion and the projection at that piece are then
    F_p ⊗ I_w and G_p ⊗ I_w, where F_p and G_p are the 0/1 maps of the
    faces (_face_maps), the maps at (2p, 0, 0).  So the sequence is
    checked one face level at a time (check_exact, check_chain_maps), and
    each level's partner table (_partners) is found once, kept here and
    freed with the sequence.
    """

    def __init__(self, setup):
        self.edge = setup.edge
        # fresh views of the setup's cotree tables: the cycle bases the
        # complexes cache are freed with this sequence instead of being
        # kept alive by the setup, which outlives it
        self.mid, self.sub, self.quo = (
            CKSComplex(cc.graph, CoherentCotree(cc.graph, cc.faces, cc.table))
            for cc in (setup.cc, setup.cc_del, setup.cc_con))
        # level p -> its partner table (_partners)
        self._levels = {}

    def check_exact(self, p):
        """Degreewise exactness 0 → sub → mid → quo → 0 on every piece
        (2p, q, r) of level p.  rank(F ⊗ I_w) = w·rank(F),
        (G·F) ⊗ I_w = 0 exactly when G·F = 0, and the dimensions are w
        times the face counts, so every piece of the level is exact
        exactly when its faces are: the dimensions add up, the inclusion
        has full column rank and the projection full row rank
        (intlinalg.rank), and the composite is zero, tested exactly from
        the nonzero entries of both maps (intlinalg.is_zero_product).  A
        face without its partner raises before the dimensions are
        compared, unless the middle level is empty."""
        n = self.mid.dim(p, 0, 0)
        if n:
            inc, prj = self._face_maps(p)
        n_sub, n_quo = self.sub.dim(p - 1, 0, 0), self.quo.dim(p, 0, 0)
        if n_sub + n_quo != n:
            return False
        return ((not n_sub or rank(inc) == n_sub)
                and (not n_quo or rank(prj) == n_quo)
                and (not (n_sub and n_quo) or is_zero_product(prj, inc)))

    def _face_maps(self, p):
        """F_p and G_p: the inclusion of the deleted faces of size p − 1
        (S ↦ S ∪ e) into the middle's faces of size p and the projection
        of those onto the contracted faces (killing the faces that
        contain e), as sparse 0/1 columns, from the level's partner
        table.  No labelled basis or dense row is formed."""
        con, dl = self._partners(p)
        inc = {j: {i: 1} for j, i in enumerate(dl)}
        prj = {j: {} for j in range(len(self.mid.faces.levels[p]))}
        for i, j in enumerate(con):
            prj[j] = {i: 1}
        return inc, prj

    def split(self, p, q, r):
        """Positions in the middle (2p, q, r) of the contracted (2p, q, r)
        and deleted (2p−2, q, r) triples, each side in its own order.  The
        triples of a face fill the block of width w of its partner in the
        middle, where _assemble writes d, so the level's partner table is
        expanded by the piece's width."""
        n = self.mid.dim(p, q, r)
        if not n:
            return [], []
        width = n // len(self.mid.faces.levels[p])
        return tuple([k for i in faces for k in range(i * width, i * width + width)]
                     for faces in self._partners(p))

    def _partners(self, p):
        """The positions in the middle's level p of the partners of the
        contracted faces of size p (S itself) and of the deleted faces of
        size p − 1 (S ∪ e), each side in its own order; built once per
        level.  A partner must be a middle face with the same cotree, else
        OutsideBasis; then the face's triples are the partner's."""
        if p in self._levels:
            return self._levels[p]
        mid = self.mid

        def partners(side, level, added):
            out = []
            for s in level:
                t = s | added
                i = mid.faces.position.get(t)
                if i is None or side._cotree(s) != mid._cotree(t):
                    raise OutsideBasis(s, t)
                out.append(i)
            return out

        table = self._levels[p] = (
            partners(self.quo, self.quo.faces.levels[p], frozenset()),
            partners(self.sub, self.sub.faces.levels[p - 1] if p else (), {self.edge}))
        return table

    def check_chain_maps(self, p):
        """None when both squares with the differentials commute on every
        middle source piece (2p, q, r) of level p, else the first (q, r),
        in (q, r) order, where one does not: in the split of the middle
        bases, d_mid = [[d_quo, 0], [*, d_sub]].  A piece with q = 0 or
        r = m (m = g − p) has no target, and a level whose middle has no
        face of size p or none of size p + 1 has no square.

        The level is decided from its 2m − 1 generator pieces (2p, q, 0),
        q = 1..m, and (2p, 1, r), r = 1..m − 1.  In the piece (2p, q, r),
        the block of d from S to S ∪ f is I_q ⊗ R_r, the factors of the
        record ρ of (S, f) (_assemble): R_0 is the 1×1 identity, I_1 the
        row a = ρ.iota, and every entry of I_q is ± an entry of a.  The
        squares compare the blocks face pair by face pair (each face's
        records go to distinct targets), a missing record being a zero
        block.  Equal blocks at every (q, 0) give I_q = I′_q, and at every
        (1, r) then a ⊗ R_r = a ⊗ R′_r, so R_r = R′_r unless a = 0, when
        both I_q are 0; either way the blocks agree at every (q, r), and
        the block (e ∈ S, e ∉ T) is zero likewise.  Only a level whose
        generators fail is scanned piece by piece (_piece_commutes), which
        splits a piece's source and target before building its d: the
        first generator builds the partner table of level p + 1."""
        if not self.mid.dim(p, 0, 0) or not self.mid.dim(p + 1, 0, 0):
            return None
        m = self.mid.genus - p
        generators = [(1, r) for r in range(m)] + [(q, 0) for q in range(2, m + 1)]
        if all(self._piece_commutes(p, *key) for key in generators):
            return None
        return next((q, r) for q in range(1, m + 1) for r in range(m)
                    if not self._piece_commutes(p, q, r))

    def _piece_commutes(self, p, q, r):
        """Both squares at the nonempty middle source piece (2p, q, r),
        compared on the dense rows of the three differentials."""
        src, tgt = self.split(p, q, r), self.split(p + 1, q - 1, r)
        d = self.mid.d_matrix(p, q, r)

        def block(rows, cols):
            # itemgetter needs a column and returns a bare entry for one
            get = (itemgetter(*cols) if len(cols) > 1
                   else lambda row: [row[j] for j in cols])
            return [list(get(d[i])) for i in rows]

        return ((not src[0] or block(tgt[0], src[0]) == self.quo.d_matrix(p, q, r))
                and (not src[1] or block(tgt[1], src[1])
                     == self.sub.d_matrix(p - 1, q, r))
                and is_zero_matrix(block(tgt[0], src[1])))


def euler_recurrences(faces, edges):
    """{e: whether e_Γ(k,ℓ) = e_{Γ/e}(k,ℓ) − e_{Γ∖e}(k−1,ℓ)} over `edges`,
    non-loop non-bridge edges, in their order, from the face counts of the
    three sides.  They split Γ's face levels at e: the faces of Γ∖e are
    those of Γ that contain e, minus e, at genus g − 1; those of Γ/e are
    the faces of Γ that avoid e, at genus g (the faces of
    induced_deletion_cotree and induced_contraction_cotree).  One pass over
    Γ's face levels counts the faces of each size that contain each edge,
    and Γ's own table is built once for all of them, unless there are
    none; each edge then builds the tables of its two sides, deletion
    first.

    This is an identity of the face split, so it holds for any face lists
    and cannot fail: each level's count is the sum of its two split
    counts, and a face of size p that contains e leaves a face of size
    p − 1 at genus g − 1, whose cotrees have g − p edges as in Γ.  `cks`
    still reports it under "recurrence_checks", and `delcon_cks` runs it."""
    g = faces.genus
    containing = {e: [0] * len(faces.levels) for e in edges}
    if not containing:
        return {}
    for p, level in enumerate(faces.levels):
        for s in level:
            for x in s:
                counts = containing.get(x)
                if counts is not None:
                    counts[p] += 1
    mid = _counts_table([len(level) for level in faces.levels], g)
    out = {}
    for e, with_e in containing.items():
        sub = _counts_table(with_e[1:], g - 1)
        quo = _counts_table([len(level) - n for level, n in zip(faces.levels, with_e)], g)
        keys = set(mid) | set(quo) | {(k + 1, l) for (k, l) in sub}
        out[e] = all(mid.get((k, l), 0) == quo.get((k, l), 0) - sub.get((k - 1, l), 0)
                     for (k, l) in keys)
    return out
