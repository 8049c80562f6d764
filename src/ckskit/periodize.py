"""Finite-level periodization: each edge becomes a chain of 2n+1 segments.

An edge e of the base graph turns into segments (e, -n), ..., (e, n)
strung through fresh interior vertices (i, e); segment (e, n) keeps the
original head and (e, -n) the original tail.  Any two distinct segments of
one base edge form a bond, so the faces of the periodized graph are
exactly the S_I: one segment (e, I(e)) per base edge e of a base face S.
The periodized coherent cotree puts every chosen cotree edge in its middle
segment: C(S_I) = {(x, 0) : x in C(S)}.

Only periodized_cotree builds the periodized graph and every lifted face;
the formulas read the base cotree alone, and the basis formula keeps the
lifts of each base face as a product of index ranges (ProductBasis).
"""

import itertools
import math

from .activity import CoherentCotree
from .graphs import FaceComplex, Graph, face_complex

# native_face_check enumerates the faces of periodized graphs this small
NATIVE_MAX_EDGES = 12


class PeriodizedGraph:
    """The level-n periodization of a base graph."""

    def __init__(self, base, n):
        if n < 0:
            raise ValueError("level must be >= 0")
        verts = list(base.vertices) + [
            (i, e) for e in base.order for i in range(-n, n)
        ]
        heads, tails, order = {}, {}, []
        for e in base.sort_edges(base.eids):
            for i in range(-n, n + 1):
                seg = (e, i)
                heads[seg] = base.head[e] if i == n else (i, e)
                tails[seg] = base.tail[e] if i == -n else (i - 1, e)
                order.append(seg)
        self.graph = Graph(verts, heads, tails, order)


def lifts(members, ranges):
    """The lifts S_I of the base face with edges members, in edge order: one
    per index map I with I(e) in the range of e, in lexicographic order of
    I along members."""
    for index in itertools.product(*ranges):
        yield frozenset(zip(members, index))


def periodized_cotree(cc, n):
    """(periodized graph, coherent cotree) at level n: C(S_I) = C(S) placed
    on the middle segments.  The table is keyed by the face complex's own
    sets, so each periodized face is held once."""
    pg = PeriodizedGraph(cc.graph, n)
    full = range(-n, n + 1)
    table = {}
    for s in cc.faces.faces():
        cot = frozenset((x, 0) for x in cc.C(s))
        for lifted in lifts(cc.graph.sort_edges(s), [full] * len(s)):
            table[lifted] = cot
    faces = FaceComplex.from_faces(pg.graph, table, genus=cc.faces.genus)
    return pg, CoherentCotree(pg.graph, faces, table)


def in_by_formula(cc, lifted):
    """In(S_I) predicted from base data: the middle segments (e, 0) of the
    lifted face S_I whose base edge e is in In(S)."""
    base_in = cc.in_set(frozenset(e for e, _ in lifted))
    return frozenset((e, i) for e, i in lifted if i == 0 and e in base_in)


def _same_lifts(a, b):
    """Whether two products in ProductBasis.ranges form (face -> {edge:
    range}) hold the same lifted faces.  A lifted face determines its base
    face, so they do exactly when they do face by face; two products over
    one face are equal iff their ranges agree edge by edge or both are
    empty, and a face that one side lacks holds no lift there."""

    def empty(ranges):
        return ranges is None or not all(ranges.values())

    return all(a.get(s) == b.get(s) or (empty(a.get(s)) and empty(b.get(s)))
               for s in a.keys() | b.keys())


class ProductBasis:
    """A set of lifted faces in product form: ranges maps each base face S
    to {e: the indices I(e) taken} in edge order, and the set holds every
    S_I with each I(e) in its range.

    Length and counts by face size are read off the ranges, and membership
    off the lifted face's own index map, so none of them builds a lifted
    face.  Iteration builds them (lifts): face by face in the order of
    ranges, each face's lifts in lexicographic order of I.
    """

    def __init__(self, ranges, genus):
        self.ranges = ranges
        self.genus = genus

    def counts(self):
        """The number of lifted faces of each size 0, ..., genus."""
        out = [0] * (self.genus + 1)
        for s, ranges in self.ranges.items():
            out[len(s)] += math.prod(map(len, ranges.values()))
        return out

    def __len__(self):
        return sum(self.counts())

    def __contains__(self, lifted):
        index = dict(lifted)
        ranges = self.ranges.get(frozenset(index))
        return (ranges is not None and len(index) == len(lifted)
                and all(i in ranges[e] for e, i in index.items()))

    def __iter__(self):
        for ranges in self.ranges.values():
            yield from lifts(tuple(ranges), ranges.values())


def basis_by_formula(cc, n):
    """B of the level-n periodization of the coherent cotree cc, predicted
    from base data: S_I is a basis face iff I(e) ≠ 0 on In(S).  So the lifts
    of a base face S in B are a product of index ranges, [−n, n] on the
    edges of S outside In(S) and [−n, n] ∖ {0} on In(S), and the basis is
    returned in that form (ProductBasis, faces in cc's order), which builds
    no graph and no lifted face.  Per face it holds (2n)^|In(S)| ·
    (2n+1)^(|S|−|In(S)|) lifts; iterating it gives the lifted basis faces
    in the order of cc's faces, each face's lifts in lexicographic order of
    I along the edge order."""
    full = tuple(range(-n, n + 1))
    punctured = tuple(i for i in full if i)
    ranges = {}
    for s in cc.faces.faces():
        base_in = cc.in_set(s)
        ranges[s] = {e: punctured if e in base_in else full
                     for e in cc.graph.sort_edges(s)}
    return ProductBasis(ranges, cc.faces.genus)


def check_in_lemma(cc, pcc):
    """Compare the formula for In on the periodization against the direct
    definition on the periodized coherent cotree pcc, as returned by
    periodized_cotree.  Returns (ok, witness)."""
    for lifted in pcc.faces.faces():
        direct = pcc.in_set(lifted)
        predicted = in_by_formula(cc, lifted)
        if direct != predicted:
            return False, (lifted, direct, predicted)
    return True, None


def check_basis_formula(pcc, predicted):
    """Compare a basis predicted by basis_by_formula against the basis of
    the periodized coherent cotree pcc, as returned by periodized_cotree.
    The direct basis holds distinct faces, so it equals the predicted set
    exactly when each of its faces is predicted and the lengths agree.
    Returns (ok, (|direct|, |predicted|))."""
    direct = pcc.basis()
    ok = len(direct) == len(predicted) and all(s in predicted for s in direct)
    return ok, (len(direct), len(predicted))


def check_contraction_compatibility(outer, inner, n):
    """The collapse from level n+1 to level n (contracting the outermost
    segments) restricts to a bijection of basis faces with inner support.
    outer and inner are the basis_by_formula bases at levels n+1 and n:
    outer's ranges restricted to [−n, n] are compared with inner's, face by
    face.  Returns (ok, (|outer restricted|, |inner|)).

    When both bases come from one cotree's formula this cannot fail: both
    take In(S) from the same cotree, and [−(n+1), n+1] and its puncture at
    0, restricted to [−n, n], are [−n, n] and its puncture, so the
    restricted level-(n+1) basis is the level-n basis by construction."""
    kept = {s: {e: tuple(i for i in r if abs(i) <= n) for e, r in ranges.items()}
            for s, ranges in outer.ranges.items()}
    return (_same_lifts(kept, inner.ranges),
            (len(ProductBasis(kept, outer.genus)), len(inner)))


def delcon_grade_mismatch(mid, dl, cn, c=1):
    """First grade k of graded dimension lists with mid[k] ≠ c·dl[k−1] +
    cn[k] (c copies of the deleted side, shifted up one grade), or None."""

    def get(v, k):
        return v[k] if 0 <= k < len(v) else 0

    return next((k for k in range(max(len(mid), len(dl) + 1, len(cn)))
                 if get(mid, k) != c * get(dl, k - 1) + get(cn, k)), None)


def delcon_r_periodized(setup, n):
    """Level-n deletion-contraction report for the non-loop non-bridge edge
    of a deletion-contraction setup (an ht.DelConR: edge ordered last,
    induced tables on the deleted and contracted sides).

    The dimension identity is dim R^{2k}(mid_n) = (2n+1) dim R^{2k-2}(del_n)
    + dim R^{2k}(con_n); the basis partition is B(mid_n) = {S_I ∪ (e, i)}
    over S_I in B(del_n) and all i, disjoint union B(con_n).  Level 0 is
    the split of R for Γ itself, each edge x relabeled (x, 0).

    Both sides of the partition are read from the three sides' product
    forms (basis_by_formula), and no lifted face is built.  On the right,
    the lifts on a base face T are the deleted side's product on T ∖ e
    times [−n, n] at e when e ∈ T, and the contracted side's product on T
    when e ∉ T.  The two never share a T, so their union is disjoint, and
    distinct lifts make its size the sum of the two lengths.  The union is
    B(mid_n) exactly when it holds the same lifts face by face
    (_same_lifts): every middle face's ranges agree with its side
    partner's edge by edge, or both products are empty, and no side face
    with a nonempty product lacks a middle partner.
    """
    e = setup.edge
    mid, dl, cn = (basis_by_formula(cc, n)
                   for cc in (setup.cc, setup.cc_del, setup.cc_con))
    full = tuple(range(-n, n + 1))
    right = {s | {e}: {**ranges, e: full} for s, ranges in dl.ranges.items()}
    right.update(cn.ranges)
    mid_dims, dl_dims, cn_dims = mid.counts(), dl.counts(), cn.counts()
    return {
        "edge": e,
        "level": n,
        "dimension_identity": delcon_grade_mismatch(
            mid_dims, dl_dims, cn_dims, 2 * n + 1) is None,
        "dims": {"middle": mid_dims, "deleted": dl_dims, "contracted": cn_dims},
        "basis_partition": _same_lifts(mid.ranges, right),
        "partition_sizes": ((2 * n + 1) * sum(dl_dims), sum(cn_dims), sum(mid_dims)),
    }


def native_face_check(pcc):
    """Cross-check the product description of the periodized faces of pcc,
    as returned by periodized_cotree, against exhaustive enumeration; None
    when the periodized graph has more than NATIVE_MAX_EDGES edges."""
    if pcc.graph.n_edges > NATIVE_MAX_EDGES:
        return None
    return set(face_complex(pcc.graph).faces()) == set(pcc.faces.faces())


def level_checks(cc, n, basis, setups):
    """The level-n periodization checks of a coherent cotree cc, given its
    level-n basis_by_formula and the deletion-contraction setups (ht.DelConR)
    of its admissible edges.

    Returns (pcc, report): the periodized coherent cotree, and the In
    formula, basis formula and face product verdicts, the periodized genus,
    and one delcon_r_periodized report per setup.  The face product verdict
    is None when native_face_check did not run (more than NATIVE_MAX_EDGES
    periodized edges).
    """
    delcon = [delcon_r_periodized(setup, n) for setup in setups]
    _, pcc = periodized_cotree(cc, n)
    return pcc, {
        "in_formula": check_in_lemma(cc, pcc)[0],
        "basis_formula": check_basis_formula(pcc, basis)[0],
        "faces_product": native_face_check(pcc),
        "genus": pcc.graph.genus(),
        "delcon": delcon,
    }
