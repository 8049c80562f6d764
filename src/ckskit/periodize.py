"""Finite-level periodization: each edge becomes a chain of 2n+1 segments.

An edge e of the base graph turns into segments (e, -n), ..., (e, n)
strung through fresh interior vertices (i, e); segment (e, n) keeps the
original head and (e, -n) the original tail.  Any two distinct segments of
one base edge form a bond, so the faces of the periodized graph are
exactly the S_I: one segment (e, I(e)) per base edge e of a base face S.
The periodized coherent cotree puts every chosen cotree edge in its middle
segment: C(S_I) = {(x, 0) : x in C(S)}.
"""

import itertools

from .activity import CoherentCotree
from .graphs import FaceComplex, Graph, face_complex
from .ht import delcon_grade_mismatch


class PeriodizedGraph:
    """The level-n periodization together with its labeling maps."""

    def __init__(self, base, n):
        if n < 0:
            raise ValueError("level must be >= 0")
        self.base = base
        self.n = n
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

    def lift_face(self, s, index):
        """S_I for a base face s and an index map e -> i."""
        return frozenset((e, index[e]) for e in s)

    def face_indices(self, s):
        """All index maps for a base face, in lexicographic order."""
        members = self.base.sort_edges(s)
        for combo in itertools.product(range(-self.n, self.n + 1),
                                       repeat=len(members)):
            yield dict(zip(members, combo))


def periodized_faces(pg, base_faces):
    """Face complex of the periodized graph by the product description."""
    faces = []
    for s in base_faces.faces():
        for index in pg.face_indices(s):
            faces.append(pg.lift_face(s, index))
    return FaceComplex.from_faces(pg.graph, faces, genus=base_faces.genus)


def periodized_cotree(cc, n):
    """Coherent cotree on the level-n periodization: C(S_I) = C(S) placed
    on the middle segments."""
    pg = PeriodizedGraph(cc.graph, n)
    faces = periodized_faces(pg, cc.faces)
    table = {}
    for s in cc.faces.faces():
        cot = frozenset((x, 0) for x in cc.C(s))
        for index in pg.face_indices(s):
            table[pg.lift_face(s, index)] = cot
    return pg, CoherentCotree(pg.graph, faces, table)


def in_by_formula(cc, pg, s, index):
    """In(S_I) predicted from base data: middle segments of base edges
    that are in In(S) and carry index 0."""
    base_in = cc.in_set(s)
    return frozenset((e, 0) for e in base_in if index[e] == 0)


def basis_by_formula(cc, pg):
    """B of the periodized graph predicted from base data: S_I is a basis
    face iff In(S) is contained in the support of I."""
    out = []
    for s in cc.faces.faces():
        base_in = cc.in_set(s)
        for index in pg.face_indices(s):
            if all(index[e] != 0 for e in base_in):
                out.append(pg.lift_face(s, index))
    return out


def check_in_lemma(cc, pg, pcc):
    """Compare the formula for In on the periodization against the direct
    definition on the periodized coherent cotree (pg, pcc), as returned by
    periodized_cotree.  Returns (ok, witness)."""
    for s in cc.faces.faces():
        for index in pg.face_indices(s):
            lifted = pg.lift_face(s, index)
            direct = pcc.in_set(lifted)
            predicted = in_by_formula(cc, pg, s, index)
            if direct != predicted:
                return False, (s, dict(index), direct, predicted)
    return True, None


def check_basis_formula(pcc, predicted):
    """Compare a basis predicted by basis_by_formula against the basis of
    the periodized coherent cotree pcc, as returned by periodized_cotree."""
    direct = set(pcc.basis())
    predicted = set(predicted)
    return direct == predicted, (direct, predicted)


def check_contraction_compatibility(outer, inner, n):
    """The collapse from level n+1 to level n (contracting the outermost
    segments) restricts to a bijection of basis faces with inner support.
    outer and inner are the basis_by_formula bases at levels n+1 and n."""
    kept = {s for s in outer if all(abs(i) <= n for (_, i) in s)}
    return kept == set(inner), (len(kept), len(inner))


class DelConPeriodized:
    """Level-n deletion-contraction report for a non-loop non-bridge edge.

    Takes the deletion-contraction setup of that edge (an ht.DelConR:
    edge ordered last, induced tables on the deleted/contracted sides),
    periodizes all three graphs, and exposes the dimension identity and
    the set-theoretic basis partition.
    """

    def __init__(self, setup, n):
        self.edge = setup.edge
        self.n = n
        # (cotree, periodized basis) of the middle, deleted, contracted graphs
        self.sides = [(cc, basis_by_formula(cc, PeriodizedGraph(cc.graph, n)))
                      for cc in (setup.cc, setup.cc_del, setup.cc_con)]

    def dimension_identity(self):
        """dim R^{2k}(mid_n) = (2n+1) dim R^{2k-2}(del_n) + dim R^{2k}(con_n)."""
        mid, dl, cn = ([sum(1 for s in basis if len(s) == k)
                        for k in range(cc.faces.genus + 1)]
                       for cc, basis in self.sides)
        ok = delcon_grade_mismatch(mid, dl, cn, 2 * self.n + 1) is None
        return ok, {"middle": mid, "deleted": dl, "contracted": cn}

    def basis_partition(self):
        """B(mid_n) = {S_I ∪ (e,i)} over B(del_n) and all i, ⊔ B(con_n)."""
        (_, mid), (_, dl), (_, cn) = self.sides
        from_del = {
            s | {(self.edge, i)}
            for s in dl for i in range(-self.n, self.n + 1)
        }
        from_con = set(cn)
        ok = (from_del.isdisjoint(from_con)
              and from_del | from_con == set(mid)
              and len(from_del) + len(from_con) == len(mid))
        return ok, (len(from_del), len(from_con), len(mid))


def delcon_r_periodized(setup, n):
    """Dimension report for the level-n deletion-contraction sequence of
    a deletion-contraction setup (an ht.DelConR)."""
    dc = DelConPeriodized(setup, n)
    ok_dim, dims = dc.dimension_identity()
    ok_part, sizes = dc.basis_partition()
    return {
        "edge": dc.edge,
        "level": n,
        "dimension_identity": ok_dim,
        "dims": dims,
        "basis_partition": ok_part,
        "partition_sizes": sizes,
    }


def native_face_check(cc, n, max_edges=12):
    """Cross-check the product description of the periodized faces against
    exhaustive enumeration, when the periodized graph is small enough."""
    pg = PeriodizedGraph(cc.graph, n)
    if pg.graph.n_edges > max_edges:
        return None
    direct = {frozenset(s) for s in face_complex(pg.graph).faces()}
    predicted = {frozenset(s) for s in periodized_faces(pg, cc.faces).faces()}
    return direct == predicted
