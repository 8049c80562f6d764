"""Finite-level periodization: each edge becomes a chain of 2n+1 segments.

An edge e of the base graph turns into segments (e, -n), ..., (e, n)
strung through fresh interior vertices (i, e); segment (e, n) keeps the
original head and (e, -n) the original tail.  Any two distinct segments of
one base edge form a bond, so the faces of the periodized graph are
exactly the S_I: one segment (e, I(e)) per base edge e of a base face S.
The periodized coherent cotree puts every chosen cotree edge in its middle
segment: C(S_I) = {(x, 0) : x in C(S)}.

Only periodized_cotree builds the periodized graph; the formulas read the
base cotree and the lifted faces alone.
"""

import itertools

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


def lifts(graph, s, n):
    """The level-n lifts S_I of a base face s of graph, one per index map
    I: s -> [-n, n], in lexicographic order of I along the edge order."""
    members = graph.sort_edges(s)
    for index in itertools.product(range(-n, n + 1), repeat=len(members)):
        yield frozenset(zip(members, index))


def periodized_cotree(cc, n):
    """(periodized graph, coherent cotree) at level n: C(S_I) = C(S) placed
    on the middle segments.  The table is keyed by the face complex's own
    sets, so each periodized face is held once."""
    pg = PeriodizedGraph(cc.graph, n)
    table = {}
    for s in cc.faces.faces():
        cot = frozenset((x, 0) for x in cc.C(s))
        for lifted in lifts(cc.graph, s, n):
            table[lifted] = cot
    faces = FaceComplex.from_faces(pg.graph, table, genus=cc.faces.genus)
    return pg, CoherentCotree(pg.graph, faces, table)


def in_by_formula(cc, lifted):
    """In(S_I) predicted from base data: the middle segments (e, 0) of the
    lifted face S_I whose base edge e is in In(S)."""
    base_in = cc.in_set(frozenset(e for e, _ in lifted))
    return frozenset((e, i) for e, i in lifted if i == 0 and e in base_in)


def basis_by_formula(cc, n):
    """B of the level-n periodization predicted from base data: S_I is a
    basis face iff In(S) is contained in the support of I."""
    out = []
    for s in cc.faces.faces():
        base_in = cc.in_set(s)
        out.extend(lifted for lifted in lifts(cc.graph, s, n)
                   if all((e, 0) not in lifted for e in base_in))
    return out


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
    """
    e = setup.edge
    sides = [(cc, basis_by_formula(cc, n))
             for cc in (setup.cc, setup.cc_del, setup.cc_con)]
    mid, dl, cn = ([sum(1 for s in basis if len(s) == k)
                    for k in range(cc.faces.genus + 1)]
                   for cc, basis in sides)
    (_, b_mid), (_, b_del), (_, b_con) = sides
    from_del = {s | {(e, i)} for s in b_del for i in range(-n, n + 1)}
    from_con = set(b_con)
    return {
        "edge": e,
        "level": n,
        "dimension_identity": delcon_grade_mismatch(mid, dl, cn, 2 * n + 1) is None,
        "dims": {"middle": mid, "deleted": dl, "contracted": cn},
        "basis_partition": (from_del.isdisjoint(from_con)
                            and from_del | from_con == set(b_mid)
                            and len(from_del) + len(from_con) == len(b_mid)),
        "partition_sizes": (len(from_del), len(from_con), len(b_mid)),
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
