"""Trigraded complex: cohomology, Euler tables, Tutte specialization."""

import collections
import copy
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit import checks, cli, corpus, ht, intlinalg
from ckskit import cks as cks_mod
from ckskit.activity import CoherentCotree, coherent_cotree, tutte
from ckskit.cks import (
    CKSComplex,
    DelConCKS,
    LOOP_VALUE,
    build_cks,
    cks_cohomology,
    euler_mismatch,
    euler_recurrences,
    euler_table,
    h_hat,
    tutte_loop_specialization,
)
from ckskit.checks import GraphContext, check_cks_d2, check_euler, run_checks
from ckskit.errors import (
    CksKitError,
    IncoherentCotree,
    MismatchedGraph,
    NotAComplex,
    OutsideBasis,
)
from ckskit.graphs import FaceComplex, Graph, build_graph, face_complex, graph_from_dsl
from ckskit.ht import DelConR, HTComplex
from ckskit.intlinalg import (
    CochainComplex,
    _columns,
    _rank_and_torsion,
    dense,
    det,
    is_zero_matrix,
    is_zero_product,
    map_matrix,
    matmul,
    smith_normal_form,
)
from ckskit.polynomials import Poly2
import element_wise
from element_wise import d_element, iota, lost, pair, restrict
from test_intlinalg import assert_rank_mod_p_identity

THETA = corpus.theta_graph()
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
THETA6 = build_graph([(0, 1)] * 6)
THETA7 = build_graph([(0, 1)] * 7)
K5 = build_graph(list(itertools.combinations(range(5), 2)))
# the wheel with hub 0 and rim 1-2-3-4-5, genus 5
W5 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                  (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
# K4 with the edges 0-1 and 2-3 doubled, genus 5
K4PP = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)])


def tutte_specialization_literal(graph):
    """The other argument order: x ← −(x+y+xy), y ← 1.  It disagrees with
    h_hat already on the theta graph (it lacks the x^d term that e(0,0)=1
    forces), which the strict-xfail tests record."""
    return tutte(graph).substitute(LOOP_VALUE, Poly2.const(1))


def ranks(graph):
    return {k: free for k, (free, _) in cks_cohomology(graph).items() if free}


def test_loop_cohomology_ranks():
    assert ranks(corpus.loop_graph()) == {
        (0, 0, 0): 1,
        (0, 0, 1): 1,
        (0, 1, 1): 1,
    }


def test_loop_generating_polynomial():
    assert h_hat(corpus.loop_graph()) == LOOP_VALUE
    assert LOOP_VALUE == Poly2({(1, 0): -1, (0, 1): -1, (1, 1): -1})


def test_bridge_generating_polynomial():
    assert h_hat(corpus.bridge_graph()) == Poly2.const(1)


def test_loop_stripe_rollup():
    # summing stripe cohomology ranks along p + l = n + k reproduces the
    # degree-n cohomology of weight 2k: rank 1 at (0,0), (1,0), (0,1)
    coh = cks_cohomology(corpus.loop_graph())
    table = {}
    for (two_p, q, r), (free, _) in coh.items():
        p = two_p // 2
        k = p + q
        n = p + r - k
        table[(n, k)] = table.get((n, k), 0) + free
    assert {key: v for key, v in table.items() if v} == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_theta_generating_polynomial_matches_specialization():
    hh = h_hat(THETA)
    assert hh == tutte_loop_specialization(tutte(THETA))
    # 1 + w + w^2 with w = -(x + y + xy)
    w = LOOP_VALUE
    assert hh == Poly2.const(1) + w + w * w
    assert hh.coeff(2, 0) == 1  # the top corner forced by e(0,0) = 1


@pytest.mark.xfail(strict=True, reason="substituting the one-edge values "
                   "into the other argument slot loses the x^d corner term")
def test_theta_literal_slot_order():
    assert h_hat(THETA) == tutte_specialization_literal(THETA)


def test_euler_table_theta_cross_check():
    table = euler_table(THETA)
    assert euler_mismatch(table, cks_cohomology(THETA)) is None
    assert table[(0, 0)] == 1
    # evaluating the generating polynomial at x = y = -1 counts spanning trees
    assert h_hat(THETA)(-1, -1) == 3


def test_euler_check_reports_a_corrupted_rank(monkeypatch, capsys):
    # one free rank off by one in the (0, 0) stripe: the check fails with
    # the stripe as witness, and `cks` exits 1 with a message
    ctx = GraphContext(THETA)
    free, torsion = ctx.cks_stripes[(0, 0)][0]
    ctx.cks_stripes[(0, 0)][0] = (free + 1, torsion)
    assert check_euler(ctx) == (False, {"stripe": (0, 0),
                                        "reason": "Euler characteristic mismatch"})
    original = CKSComplex.stripe_cohomology

    def corrupted(self, **kwargs):
        stripes = original(self, **kwargs)
        free, torsion = stripes[(0, 0)][0]
        stripes[(0, 0)][0] = (free + 1, torsion)
        return stripes

    monkeypatch.setattr(CKSComplex, "stripe_cohomology", corrupted)
    assert cli.main(["cks", "--inline", "v0-v1 v0-v1 v0-v1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: Euler characteristic mismatch at stripe (0, 0)\n"


def test_h_hat_counts_spanning_trees_at_minus_one():
    for g in (corpus.loop_graph(), corpus.bridge_graph(), corpus.k4_graph()):
        from ckskit.graphs import spanning_tree_count
        assert h_hat(g)(-1, -1) == spanning_tree_count(g)


def test_k4_specialization():
    k4 = corpus.k4_graph()
    assert h_hat(k4) == tutte_loop_specialization(tutte(k4))


def test_h_hat_builds_no_coherent_cotree(monkeypatch):
    k4 = corpus.k4_graph()
    spec = tutte_loop_specialization(tutte(k4))
    for module in (cks_mod, ht):
        monkeypatch.setattr(module, "coherent_cotree",
                            lambda *_: pytest.fail("built a coherent cotree"))
    assert h_hat(k4) == spec


def test_delcon_exactness_theta():
    dc = DelConCKS(DelConR(face_complex(THETA), 0))
    for p in range(3):
        assert dc.check_exact(p), p
        assert dc.check_chain_maps(p) is None, p
    assert euler_recurrences(face_complex(THETA), [0])[0]
    assert recurrence_by_delcon_complexes(dc)


def test_an_image_outside_the_stripe_reaches_only_the_element_wise_reference(monkeypatch):
    ctx = GraphContext(THETA)
    c = ctx.cks
    original = element_wise.iota

    def leaky(cc, s, e, w):
        # also send (∅, w) to the q-wedge w over C({e}), where d needs
        # (q − 1)-wedges: a (1, q, r) label, one step off the stripe
        out = original(cc, s, e, w)
        if not s and w:
            out[w] = 1
        return out

    monkeypatch.setattr(element_wise, "iota", leaky)
    # the stripes read the edge records, which read the cycle basis and
    # not the oracle iota, so d stays inside its stripe and cks_d2 passes
    assert ctx.cks_stripes == GraphContext(THETA).cks_stripes
    assert check_cks_d2(ctx) == (True, None)
    with pytest.raises(OutsideBasis) as exc:
        d_by_elements(c, 0, 1, 0)
    assert str(exc.value) == ("the image of (frozenset(), (0,), ()) has "
                              "(frozenset({0}), (0,), ()) outside the target basis")


def test_cks_d2_reports_the_piece_where_d_squared_is_not_zero():
    ctx = GraphContext(THETA)
    c = ctx.cks
    # d sends each basis element to the sum of its target basis
    c.d_columns = lambda p, q, r: {j: dict.fromkeys(range(c.dim(p + 1, q - 1, r)), 1)
                                   for j in range(c.dim(p, q, r))}
    ok, witness = check_cks_d2(ctx)
    assert not ok
    assert witness == {"piece": (0, 2, 0), "reason": "d^2 != 0"}


def test_d2_and_euler_build_each_differential_once(monkeypatch):
    g = corpus.k4_graph()
    assert g.genus() == 3
    built = []
    original = HTComplex._assemble

    def counting(self, p, q, *r):
        built.append((p, q, *r))
        return original(self, p, q, *r)

    # the one assembly routine, which both complexes' d_columns call
    monkeypatch.setattr(HTComplex, "_assemble", counting)
    report = run_checks(g, ["cks_d2", "euler"])
    assert all(r["passed"] for r in report.values()), report
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_cks_keeps_no_differential(monkeypatch, g):
    # each CKS piece is assembled per call and dropped after its stripe
    built = []
    original = HTComplex._assemble

    def counting(self, p, q, *r):
        built.append((p, q, *r))
        return original(self, p, q, *r)

    monkeypatch.setattr(HTComplex, "_assemble", counting)
    c = build_cks(g)
    first = c.stripe_cohomology()
    assert built and not c._columns
    n = len(built)
    assert c.stripe_cohomology() == first and len(built) == 2 * n


def with_rows(basis, rows):
    """A copy of the cycle basis `basis` with the rows `rows`; the cached
    basis keeps its own."""
    out = copy.copy(basis)
    out.rows = rows
    return out


def raise_pairing(cc, s, x, e, by=1):
    """Make the cycle rows of cc at the face s read ⟨γ_x, e⟩ higher by
    `by`, on copies (with_rows)."""
    original = cc.cycles

    def cycles(s2):
        basis = original(s2)
        if s2 != s:
            return basis
        row = basis.rows[x]
        return with_rows(basis, {**basis.rows, x: {**row, e: row.get(e, 0) + by}})

    cc.cycles = cycles


def counting_products(monkeypatch):
    """A list that gains an entry at each is_zero_product call."""
    calls = []
    original = intlinalg.is_zero_product
    monkeypatch.setattr(intlinalg, "is_zero_product",
                        lambda a, b: calls.append(1) or original(a, b))
    return calls


def stripes_one_by_one(c):
    """Per-stripe reference for HTComplex.stripe_cohomology: each stripe
    built on its own, its bases first and then d at every p with a source,
    checked and factored.  A stripe that fails gives (position, reason,
    message)."""
    out = {}
    for key in c.stripe_keys():
        k, *r = key
        bases = {p: c.basis(p, k - p, *r) for p in range(min(k, c.genus) + 1)}
        try:
            out[key] = CochainComplex(bases, {
                p: _columns(c.d_matrix(p, k - p, *r))
                for p, b in bases.items() if b}).cohomology()
        except NotAComplex as exc:
            out[key] = (exc.degree, "d^2 != 0", str(exc))
    return out


def as_reference(stripes):
    """A stripe_cohomology result with its errors written as in
    stripes_one_by_one."""
    return {key: (checks._stripe_failure({key: coh})[1:] + (str(coh),)
                  if isinstance(coh, Exception) else coh)
            for key, coh in stripes.items()}


def test_stripe_walk_reports_the_stripe_the_reference_reports(monkeypatch, capsys):
    # the cycle rows at level 0 double across the last edge, and so do the
    # edge records and the pairings ⟨γ_x, e⟩ read from them, so d² ≠ 0 at
    # position 0 in every stripe (k, ℓ) with k = 2, 3, 4, which the walk
    # sees when the stripe ends
    inline = "v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1"
    original_cycles = CoherentCotree.cycles

    def faulty(self, s):
        basis = original_cycles(self, s)
        if s:
            return basis
        last = self.graph.order[-1]
        return with_rows(basis, {
            x: {y: 2 * c if y == last else c for y, c in row.items()}
            for x, row in basis.rows.items()})

    monkeypatch.setattr(CoherentCotree, "cycles", faulty)
    g = graph_from_dsl(inline)
    reference = stripes_one_by_one(build_cks(g))
    failed = {key: coh[:2] for key, coh in reference.items() if isinstance(coh, tuple)}
    assert failed == {(k, ell): (0, "d^2 != 0") for k in (2, 3, 4) for ell in range(3)}
    ctx = GraphContext(g)
    assert as_reference(ctx.cks_stripes) == reference
    assert reference[(2, 0)][2] == "d^2 != 0 at degree 0"
    assert check_cks_d2(ctx) == (False, {"piece": (0, 2, 0), "reason": "d^2 != 0"})
    assert check_euler(ctx) == (False, {"stripe": (2, 0), "position": 0,
                                        "reason": "d^2 != 0"})
    # `cks` sees the fault in the squares of the edge records and falls
    # back to the product, which reports the witness
    assert build_cks(g).squares_vanish() is not None
    calls = counting_products(monkeypatch)
    assert cli.main(["cks", "--inline", inline]) == 1
    assert capsys.readouterr() == ("", "error: d^2 != 0 at degree 0\n")
    assert calls


def include_rows(dc, p, q, r, columns=None):
    """labelled_include(dc, p, q, r), or columns of its shape, as dense rows."""
    if columns is None:
        columns = labelled_include(dc, p, q, r)
    return dense(columns, dc.mid.dim(p + 1, q, r), dc.sub.dim(p, q, r))


def project_rows(dc, p, q, r, columns=None):
    """labelled_project(dc, p, q, r), or columns of its shape, as dense rows."""
    if columns is None:
        columns = labelled_project(dc, p, q, r)
    return dense(columns, dc.quo.dim(p, q, r), dc.mid.dim(p, q, r))


def chain_maps_by_matmul(dc, p, q, r):
    """Slow oracle for DelConCKS.check_chain_maps: both squares as
    products with the inclusion and projection matrices, at the middle
    source piece (2p, q, r)."""

    def same(a, b):
        # matmul gives [] for a product through a zero-dimensional piece
        return a == b or (is_zero_matrix(a) and is_zero_matrix(b))

    # inclusion square: d_mid ∘ inc = inc ∘ d_sub
    if dc.sub.dim(p - 1, q, r):
        left = matmul(dc.mid.d_matrix(p, q, r), include_rows(dc, p - 1, q, r))
        right = matmul(include_rows(dc, p, q - 1, r),
                       dc.sub.d_matrix(p - 1, q, r))
        if not same(left, right):
            return False
    # projection square: d_quo ∘ prj = prj ∘ d_mid
    if dc.mid.dim(p, q, r):
        left = matmul(dc.quo.d_matrix(p, q, r), project_rows(dc, p, q, r))
        right = matmul(project_rows(dc, p + 1, q - 1, r),
                       dc.mid.d_matrix(p, q, r))
        if not same(left, right):
            return False
    return True


def chain_maps_by_pieces(dc, p, q, r):
    """Per-piece reference for DelConCKS.check_chain_maps: the splits of
    the piece's source and target and an empty-piece test, then
    DelConCKS._piece_commutes on the piece itself, with no verdict shared
    between the pieces of a level."""
    dc.split(p, q, r), dc.split(p + 1, q - 1, r)
    if not dc.mid.dim(p, q, r) or not dc.mid.dim(p + 1, q - 1, r):
        return True
    return dc._piece_commutes(p, q, r)


def pieces(dc):
    """Every piece (p, q, r) of the middle complex, in the order of the
    levels and, within a level, of (q, r)."""
    d = dc.mid.genus
    return [(p, q, r) for p in range(d + 1)
            for q in range(d - p + 1) for r in range(d - p + 1)]


def levels_of(dc):
    """The face levels p of the middle complex."""
    return range(dc.mid.genus + 1)


def first_rejected(dc, verdicts):
    """Per level p of dc, the first (q, r) whose verdict in `verdicts`,
    one per piece of pieces(dc), is False; None where there is none."""
    out = [None for _ in levels_of(dc)]
    for (p, q, r), ok in zip(pieces(dc), verdicts):
        if not ok and out[p] is None:
            out[p] = (q, r)
    return out


def delcon_sequences(bound):
    for _, g in corpus.corpus_graphs(bound=bound):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            yield DelConCKS(ctx.delcon(e))


def test_chain_maps_agree_with_the_matmul_oracle_on_the_corpus():
    edges = 0
    for dc in delcon_sequences(4):
        edges += 1
        for p in levels_of(dc):
            assert dc.check_chain_maps(p) is None, (dc.edge, p)
        for key in pieces(dc):
            assert chain_maps_by_matmul(dc, *key), (dc.edge, key)
    assert edges == 62


def test_chain_maps_and_the_oracle_detect_the_same_perturbations():
    # add one to the entry of d at a target and a source basis element,
    # first or last in each, of one piece of one complex; the block
    # (e ∈ T, e ∉ S) of d_mid is free, so some perturbations of the middle
    # go unseen
    cases = detected = 0
    for dc in delcon_sequences(4):
        if dc.mid.genus > 2:
            continue
        for c, key, (i, j) in [(c, key, ij) for c in (dc.mid, dc.sub, dc.quo)
                               for key in pieces(dc)
                               for ij in ((0, 0), (0, -1), (-1, 0))]:
            p, q, r = key
            src, tgt = c.basis(*key), c.basis(p + 1, q - 1, r)
            if not src or not tgt:
                continue
            original = c.d_matrix

            def perturbed(*k, original=original, key=key, i=i, j=j):
                m = original(*k)
                if k == key:
                    m[j][i] += 1
                return m

            c.d_matrix = perturbed
            # no edge record gives d this fault, which the generator pieces
            # of check_chain_maps need not see: the per-piece reference
            # compares it
            new = [chain_maps_by_pieces(dc, *k) for k in pieces(dc)]
            old = [chain_maps_by_matmul(dc, *k) for k in pieces(dc)]
            del c.d_matrix
            assert new == old, (dc.edge, key)
            cases += 1
            detected += not all(new)
    assert cases and 0 < detected < cases


def labelled_include(dc, p, q, r):
    """The inclusion (2p,q,r) of the deleted complex into (2p+2,q,r) of
    the middle one, (S, w, a) ↦ (S ∪ e, w, a), over the labelled bases
    (map_matrix): the reference for DelConCKS._face_maps at q = r = 0."""
    return map_matrix(dc.sub.basis(p, q, r), dc.mid.index(p + 1, q, r),
                      lambda b: {(b[0] | {dc.edge}, b[1], b[2]): 1})


def labelled_project(dc, p, q, r):
    """The projection of the middle (2p,q,r) onto the contracted complex,
    killing the middle triples whose face contains e, over the labelled
    bases (map_matrix): the reference for DelConCKS._face_maps at
    q = r = 0."""
    return map_matrix(dc.mid.basis(p, q, r), dc.quo.index(p, q, r),
                      lambda b: {} if dc.edge in b[0] else {b: 1})


def labelled_split(dc, p, q, r):
    """Reference for DelConCKS.split: a scan of the middle triples, None
    unless the two sides are the contracted and deleted bases in order."""
    mid = dc.mid.basis(p, q, r)
    sides = [], []
    for i, b in enumerate(mid):
        sides[dc.edge in b[0]].append(i)
    con, dl = sides
    if ([mid[i] for i in con] != dc.quo.basis(p, q, r)
            or [(mid[i][0] - {dc.edge}, *mid[i][1:]) for i in dl]
            != dc.sub.basis(p - 1, q, r)):
        return None
    return con, dl


def test_the_face_split_agrees_with_the_labelled_bases():
    # every piece check_chain_maps reads and the face maps of every level,
    # which check_exact reads, over each graph in its edge order and in
    # reverse
    graphs = [g for _, g in corpus.corpus_graphs(bound=4)] + [THETA6, W4]
    seen = 0
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            ctx = GraphContext(Graph(g.vertices, g.head, g.tail, list(order)))
            for e in ctx.admissible_edges():
                dc = DelConCKS(ctx.delcon(e))
                for p, q, r in pieces(dc):
                    for key in ((p, q, r), (p + 1, q - 1, r)):
                        assert dc.split(*key) == labelled_split(dc, *key), (g, e, key)
                    seen += 1
                for p in levels_of(dc):
                    assert dc._face_maps(p) == (labelled_include(dc, p - 1, 0, 0),
                                                labelled_project(dc, p, 0, 0)), (g, e, p)
    assert seen


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_delcon_cks_builds_no_basis(monkeypatch, g):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(HTComplex, "basis", counted("basis", HTComplex.basis))
    monkeypatch.setattr(HTComplex, "index", counted("index", HTComplex.index))
    report = run_checks(g, ["delcon_cks"])
    assert report["delcon_cks"]["passed"], report
    assert calls == {}


def with_side(dc, side, levels=None, table=None):
    """dc with a fresh contracted, deleted or middle complex over other
    face levels or another cotree table; the other two keep their own."""
    c = getattr(dc, side)
    faces = FaceComplex(c.graph, levels) if levels is not None else c.faces
    setattr(dc, side, CKSComplex(c.graph, CoherentCotree(
        c.graph, faces, table if table is not None else c.cc.table)))
    return dc


def with_other_cotree(dc, side, level):
    """dc whose contracted or deleted side gives its first face of `level`
    the complement of its cotree in the edges outside the face, which
    the middle's cotree at the partner face differs from."""
    c = getattr(dc, side)
    s = c.faces.levels[level][0]
    other = c.graph.eids - s - c.cc.C(s)
    assert other != c.cc.C(s)
    return with_side(dc, side, table={**c.cc.table, s: other})


# (side, its level with the changed face, middle source level)
COTREE_FAULTS = {"contracted": ("quo", 1, 1), "deleted": ("sub", 0, 1)}


@pytest.mark.parametrize("side", list(COTREE_FAULTS))
def test_chain_maps_reject_a_cotree_the_middle_does_not_share(side):
    attr, level, p = COTREE_FAULTS[side]
    setup = DelConR(face_complex(THETA), 0)
    assert DelConCKS(setup).check_chain_maps(p) is None
    dc = with_other_cotree(DelConCKS(setup), attr, level)
    with pytest.raises(OutsideBasis):
        dc.check_chain_maps(p)


# the chain maps of level p split their first piece's source and target,
# levels p and p + 1, before building its d; so a face of level 0 or 1
# without its partner fails the chain maps of level 0 where no d is
# built (the deleted side's faces of size 0 are partnered in the
# middle's level 1)
EMPTY_TARGET_FAULTS = {"contracted": ("quo", 0, 0), "deleted": ("sub", 0, 0)}


@pytest.mark.parametrize("side", list(EMPTY_TARGET_FAULTS))
def test_chain_maps_reject_a_cotree_the_middle_does_not_share_where_d_has_no_target(
        monkeypatch, side):
    attr, level, p = EMPTY_TARGET_FAULTS[side]
    setup = DelConR(face_complex(THETA), 0)
    assert DelConCKS(setup).check_chain_maps(p) is None
    dc = with_other_cotree(DelConCKS(setup), attr, level)
    monkeypatch.setattr(CKSComplex, "d_matrix", lambda *_: pytest.fail("built d"))
    with pytest.raises(OutsideBasis):
        dc.check_chain_maps(p)


@pytest.mark.parametrize("side", ["quo", "sub"], ids=["contracted", "deleted"])
def test_check_exact_rejects_a_side_that_lacks_a_face(side):
    # a sequence builds each level's partner table once, so the fault goes
    # into a fresh one
    setup = DelConR(face_complex(W4), W4.order[0])
    dc = DelConCKS(setup)
    p = exact_level(dc, deleted=1)
    assert dc.check_exact(p)
    dc = DelConCKS(setup)
    level = p if side == "quo" else p - 1
    levels = [list(faces) for faces in getattr(dc, side).faces.levels]
    del levels[level][0]
    with_side(dc, side, levels=levels)
    assert not dc.check_exact(p)


def test_delcon_cks_builds_each_differential_once(monkeypatch):
    built = []
    original = CKSComplex.d_matrix

    def counting(self, p, q, r):
        # keep the complex itself so that its id is not reused
        built.append((self, p, q, r))
        return original(self, p, q, r)

    monkeypatch.setattr(CKSComplex, "d_matrix", counting)
    report = run_checks(W4, ["delcon_cks"])
    assert report["delcon_cks"]["passed"], report
    keys = [(id(c), p, q, r) for c, p, q, r in built]
    assert built and len(keys) == len(set(keys))


def d_pieces(c):
    """Every (p, q) piece of an HT complex, or (p, q, r) piece of a CKS
    complex, with p from −1, the empty source of check_splitting."""
    d = c.genus
    if isinstance(c, CKSComplex):
        return [(p, q, r) for p in range(-1, d + 1)
                for q in range(d - p + 2) for r in range(d - p + 1)]
    return [(p, q) for p in range(-1, d + 1) for q in range(d - p + 2)]


def d_by_elements(c, p, q, *r):
    """The element-wise oracle for d_columns: the columns map_matrix writes
    from d_element, less the empty ones."""
    columns = map_matrix(c.basis(p, q, *r), c.index(p + 1, q - 1, *r),
                         lambda b: d_element(c, *b))
    return {j: col for j, col in columns.items() if col}


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=4)], [THETA6], [W4], [THETA7], [K5],
], ids=["corpus4", "theta6", "w4", "theta7", "k5"])
def test_d_matrix_agrees_with_the_element_wise_oracle(graphs):
    # both complexes of each graph, every piece in the order check_delcon_cks
    # walks them (level outermost), so edge records built for one piece are
    # reused by the next; d_columns holds exactly the nonzero entries
    pieces_seen = 0
    for g in graphs:
        cks = build_cks(g)
        for c in (HTComplex(g, cks.cc), cks):
            for key in d_pieces(c):
                p, q, *r = key
                expected = d_by_elements(c, *key)
                assert c.d_columns(*key) == expected, (g, key)
                assert c.d_matrix(*key) == dense(
                    expected, c.dim(p + 1, q - 1, *r), c.dim(*key)), (g, key)
                pieces_seen += 1
    assert pieces_seen


def assemble_by_records(c, p, q, *r):
    """Record-by-record oracle for HTComplex._assemble: the face block of
    each edge record is built from the templates where it is placed, so
    no block is shared between records."""
    n_src, n_tgt = c.dim(p, q, *r), c.dim(p + 1, q - 1, *r)
    columns = {}
    if not (n_src and n_tgt):
        return columns
    width = n_src // len(c.faces.levels[p])
    height = n_tgt // len(c.faces.levels[p + 1])
    m = c.genus - p
    n = r[0] if r else 0
    na, size = math.comb(m, n), math.comb(m - 1, n)
    identity = [(0, [(0, 1)])]
    for s_pos, _, t_pos, x0, a in c.records(p):
        j = s_pos * width
        aop = identity
        if n:
            b = [-a[x0] * v for v in a]
            b[x0] = 1
            aop = [(ja, arow) for ja, arow in enumerate(
                [(y, sign * b[k]) for y, sign, k in row if b[k]]
                for row in ht._restrict_template(m, x0, n)) if arow]
        i = t_pos * height
        for col, row in zip(range(j, j + width, na), ht._iota_template(m, x0, q)):
            bases = [(i + x * size, sign * a[k]) for x, sign, k in row if a[k]]
            if bases:
                for ja, arow in aop:
                    columns.setdefault(col + ja, {}).update(
                        [(base + y, v * v2) for base, v in bases for y, v2 in arow])
    return columns


def in_both_orders(graphs):
    """Each graph in its own edge order and in the reverse order."""
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            yield Graph(g.vertices, g.head, g.tail, list(order))


def filled(columns):
    """Columns with the order their entries were filled in."""
    return [(j, list(col.items())) for j, col in columns.items()]


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [THETA6], [W4], [K5],
], ids=["corpus5", "theta6", "w4", "k5"])
def test_assembly_agrees_with_the_record_by_record_oracle(graphs):
    # a block built once per distinct record and shifted into place fills
    # the same entries, in the same order, as a block built per record
    pieces_seen = 0
    for g in in_both_orders(graphs):
        cks = build_cks(g)
        for c in (HTComplex(g, cks.cc), cks):
            for key in d_pieces(c):
                assert filled(c.d_columns(*key)) == filled(assemble_by_records(c, *key)), \
                    (g.order, key)
                pieces_seen += 1
    assert pieces_seen


def uncleared_cohomology(cx):
    """CochainComplex.cohomology without clearing: the oracle factors every
    differential in full."""
    facts = {n: intlinalg._factor(cols)[:2] for n, cols in cx._columns.items()}
    return {n: (cx.dim(n) - facts.get(n, (0, []))[0] - facts.get(n - 1, (0, []))[0],
                facts.get(n - 1, (0, []))[1])
            for n in cx.degrees()}


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [THETA7], [K5], [W5],
], ids=["corpus5", "theta7", "k5", "w5"])
def test_cleared_cohomology_agrees_with_the_uncleared_factorization(monkeypatch, graphs):
    # clearing drops columns of d_(n+1) at d_n's pivot rows; every HT and
    # CKS stripe must keep the free ranks and torsion of full factoring
    seen = []

    class Compared(CochainComplex):
        def cohomology(self):
            got = super().cohomology()
            assert got == uncleared_cohomology(self)
            seen.append(got)
            return got

    monkeypatch.setattr(ht, "CochainComplex", Compared)
    for g in in_both_orders(graphs):
        cks = build_cks(g)
        for c in (HTComplex(g, cks.cc), cks):
            assert not any(isinstance(coh, Exception)
                           for coh in c.stripe_cohomology().values()), g.order
    assert seen


@pytest.mark.parametrize("g, factored", [(THETA6, 1981), (W4, 677), (K5, 18877)],
                         ids=["theta6", "w4", "k5"])
def test_clearing_pins_the_columns_the_cks_stripes_factor(monkeypatch, g, factored):
    # of 3,241, 917 and 31,493 nonzero columns: a change that stops
    # clearing passes every other test.  Clearing leaves out rank(d_n)
    # positions of d_(n+1) in any pivot order, but how many of them hold
    # a zero column, which is not counted here, depends on which rows
    # _factor pivots on
    widths = []
    original = intlinalg._factor

    def counting(columns):
        widths.append(len(columns))
        return original(columns)

    monkeypatch.setattr(intlinalg, "_factor", counting)
    build_cks(g).stripe_cohomology()
    assert sum(widths) == factored


def test_no_stripe_of_the_bound_5_corpus_leaves_a_residual_core(monkeypatch):
    # unit pivots alone factor every HT and CKS differential there, in
    # both edge orders, so no Smith form runs and clearing never stops
    factored = []
    original = intlinalg._factor

    def recording(columns):
        out = original(columns)
        factored.append(out[2] is not None)
        return out

    monkeypatch.setattr(intlinalg, "_factor", recording)
    for g in in_both_orders(g for _, g in corpus.corpus_graphs(bound=5)):
        cks = build_cks(g)
        for c in (HTComplex(g, cks.cc), cks):
            c.stripe_cohomology()
    assert factored and all(factored)


def record_keys(c, p):
    """The distinct (x0 place, iota) of the edge records of level p."""
    return {(x0, tuple(a)) for _, _, _, x0, a in c.records(p)}


def first_shared_record(c):
    """(p, S, e) of the first edge record, in the order _assemble walks
    them, whose (x0 place, iota) an earlier record of level p has."""
    for p, level in enumerate(c.faces.levels):
        seen = set()
        for s_pos, e, _, x0, a in c.records(p):
            if (x0, a) in seen:
                return p, level[s_pos], e
            seen.add((x0, a))


def test_a_block_is_keyed_by_every_value_of_its_record():
    # one pairing ⟨γ_x, e⟩ of a record that shares its block with an
    # earlier one, the coefficient of e in the cycle row of x at S, is
    # raised by one, value by value: that changes its iota and keeps its
    # x0 place, so a key that left the value out would place the earlier
    # record's block for it
    c = HTComplex(W4, coherent_cotree(W4))
    p, s, e = first_shared_record(c)
    xs = W4.sort_edges(c.cc.C(s))
    clean = c.d_columns(p, 1)
    for x in xs:
        cc = coherent_cotree(W4)
        raise_pairing(cc, s, x, e)
        cks = build_cks(W4, cc)
        faulty = HTComplex(W4, cc)
        assert faulty.d_columns(p, 1) != clean
        # the restriction d_element reads comes from the cycles of Γ∖(S ∪ e),
        # not from the pairings, so the CKS pieces are compared at r = 0
        for complex_, rs in ((faulty, ()), (cks, (0,))):
            for q in range(1, c.genus - p + 1):
                key = (p, q, *rs)
                assert complex_.d_columns(*key) == d_by_elements(complex_, *key), \
                    (x, key)


FACTORS = (ht._iota_factor, ht._restrict_factor)


def clear_factors():
    for factor in FACTORS:
        factor.cache_clear()


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_each_factor_is_built_once_per_distinct_record(g):
    # each cache misses once per distinct (x0 place, iota) of the level's
    # records and is hit by every other record; the factors outlive the
    # call, so assembling the piece again builds none
    cks = build_cks(g)
    for c in (HTComplex(g, cks.cc), cks):
        for p, q, *r in d_pieces(c):
            records = distinct = 0
            if c.dim(p, q, *r) and c.dim(p + 1, q - 1, *r):
                records = len(c.records(p))
                distinct = len(record_keys(c, p))
            clear_factors()
            for run in (1, 2):
                c._assemble(p, q, *r)
                assert [(f.cache_info().misses, f.cache_info().hits) for f in FACTORS] == \
                    [(distinct, run * records - distinct)] * 2, (p, q, r, run)


def coherent_cotrees(g):
    """g's coherent cotree, and that of g's reverse edge order read in g's
    order.  With the first, x0 is the last place in C(S) with a_x ≠ 0 on
    every edge record of the bound-6 corpus, theta7 and K5, in both edge
    orders; with the second it is not always, so only the two together
    tell a factor key without the x0 place from one with it."""
    reverse = Graph(g.vertices, g.head, g.tail, list(g.order[::-1]))
    return [coherent_cotree(g),
            CoherentCotree(g, face_complex(g), coherent_cotree(reverse).table)]


def test_assembly_does_not_depend_on_what_the_factor_caches_hold():
    # each graph's pieces with both caches cleared before it (checked by
    # the record-by-record oracle), then with the caches filled by the
    # graphs after it, then by every graph: a factor keyed by less than it
    # reads would be handed to a record of another graph, cotree or piece
    cases = [(g, cc) for g in in_both_orders(
        [g for _, g in corpus.corpus_graphs(bound=4)] + [THETA6, W4])
        for cc in coherent_cotrees(g)]

    def assembled(g, cc, oracle=False):
        out = []
        for c in (HTComplex(g, cc), build_cks(g, cc)):
            for key in d_pieces(c):
                out.append(filled(c.d_columns(*key)))
                if oracle:
                    assert out[-1] == filled(assemble_by_records(c, *key)), (g.order, key)
        return out

    cleared = []
    for case in cases:
        clear_factors()
        cleared.append(assembled(*case, oracle=True))
    clear_factors()
    for k in reversed(range(len(cases))):
        assert assembled(*cases[k]) == cleared[k], cases[k][0].order
    for case, expected in zip(cases, cleared):
        assert assembled(*case) == expected, case[0].order
    assert all(f.cache_info().hits for f in FACTORS)


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=4)], [THETA6], [W4],
], ids=["corpus4", "theta6", "w4"])
def test_dim_counts_each_basis_without_building_it(graphs):
    # every HT and CKS piece, with p from −1 and q, r up to genus + 1, of
    # each graph and of the three complexes of each of its DelConCKS
    pieces_seen = 0
    for g in graphs:
        cks = build_cks(g)
        ctx = GraphContext(g)
        complexes = [HTComplex(g, cks.cc), cks]
        for e in ctx.admissible_edges():
            dc = DelConCKS(ctx.delcon(e))
            complexes += [dc.mid, dc.sub, dc.quo]
        for c in complexes:
            ns = range(c.genus + 2)
            keys = [(p, *rest) for p in range(-1, c.genus + 2) for rest in
                    itertools.product(ns, repeat=2 if isinstance(c, CKSComplex) else 1)]
            dims = [c.dim(*key) for key in keys]
            assert not c._basis
            assert dims == [len(c.basis(*key)) for key in keys], g
            # again, with the bases built
            assert dims == [c.dim(*key) for key in keys]
            pieces_seen += len(keys)
    assert pieces_seen


def counting_reads(monkeypatch):
    """Wrap CoherentCotree.cycles and the lost-edge test that ht reads
    (activity.lost_edge): asserts that no (cotree, S) cycle basis is
    requested twice and counts both kinds of call."""
    seen = set()
    calls = {"cycles": 0, "lost_edge": 0}
    original_cycles, original_lost = CoherentCotree.cycles, ht.lost_edge

    def cycles(self, s):
        key = (self, s)
        assert key not in seen, key
        seen.add(key)
        calls["cycles"] += 1
        return original_cycles(self, s)

    def lost_edge(*args):
        calls["lost_edge"] += 1
        return original_lost(*args)

    monkeypatch.setattr(CoherentCotree, "cycles", cycles)
    monkeypatch.setattr(ht, "lost_edge", lost_edge)
    return calls


def test_delcon_cks_computes_each_operator_once_per_level(monkeypatch):
    # each complex builds the edge records of a face once, for all levels,
    # so no cycle basis of one cotree is requested twice; d reads both of
    # its operators off the records, which read the cycle rows, and takes
    # x0 once per record.  A complex is named by its cotree, which
    # DelConCKS gives each complex its own of
    calls = counting_reads(monkeypatch)
    for g in (THETA6, W4):
        report = run_checks(g, ["delcon_cks"])
        assert report["delcon_cks"]["passed"], report
    # the 8,046 edge records of the three complexes at every admissible
    # edge read one cycle basis per face S below the top level, and from
    # it the 15,660 pairings of their C(S)
    assert calls == {"cycles": 2108, "lost_edge": 8046}


@pytest.mark.parametrize("stripes", ["cks_stripes", "ht_stripes"])
def test_stripe_walk_computes_each_operator_once(monkeypatch, stripes):
    # no cycle basis of one complex is requested twice, and x0 is taken
    # once per edge record: the records read the pairings of the 1-wedges
    # off the cycle rows, and the restriction of the lost edge x0 is read
    # off them (the exchange identity)
    calls = counting_reads(monkeypatch)
    for g in (THETA6, W4):
        coh = getattr(GraphContext(g), stripes)
        assert not any(isinstance(c, Exception) for c in coh.values())
    # 586 edge records on the two graphs, whose 1,172 pairings come from
    # one cycle basis per face S below the top level
    assert calls == {"cycles": 146, "lost_edge": 586}


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_cks_stripes_build_no_basis(monkeypatch, g):
    # the piece sizes and each face's block come from the face counts
    monkeypatch.setattr(HTComplex, "basis", lambda *args: pytest.fail("built a basis"))
    coh = GraphContext(g).cks_stripes
    assert coh and not any(isinstance(c, Exception) for c in coh.values())


@pytest.mark.parametrize("stripes", ["cks_stripes", "ht_stripes"])
@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_stripes_read_no_dense_rows(monkeypatch, g, stripes):
    # each stripe hands d_columns straight to CochainComplex
    for cls in (HTComplex, CKSComplex):
        monkeypatch.setattr(cls, "d_matrix", lambda *args: pytest.fail("built dense rows"))
    coh = getattr(GraphContext(g), stripes)
    assert coh and not any(isinstance(c, Exception) for c in coh.values())


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_each_stripe_is_complete_before_the_next_begins(monkeypatch, g):
    # the stripes are built one at a time: every assembly of d between two
    # CochainComplex builds belongs to one stripe, and no stripe comes back
    events = []
    original = HTComplex._assemble

    def assemble(self, p, q, r):
        events.append((p + q, r))
        return original(self, p, q, r)

    class Recording(CochainComplex):
        def __init__(self, *args):
            events.append(None)
            super().__init__(*args)

    monkeypatch.setattr(HTComplex, "_assemble", assemble)
    monkeypatch.setattr(ht, "CochainComplex", Recording)
    c = build_cks(g)
    c.stripe_cohomology()
    segments, current = [], []
    for event in events:
        if event is None:
            segments.append(current)
            current = []
        else:
            current.append(event)
    assert not current and len(segments) == len(c.stripe_keys())
    segments = [segment for segment in segments if segment]
    assert all(set(segment) == {segment[0]} for segment in segments), segments
    stripes = [segment[0] for segment in segments]
    assert stripes and len(stripes) == len(set(stripes))


def dims_euler_table(c):
    """Euler table of a CKS complex from its dims, the face-count table's
    oracle."""
    table = {}
    for k, ell in c.stripe_keys():
        dims = [c.dim(p, k - p, ell) for p in range(min(k, c.genus) + 1)]
        if any(dims):
            table[(k, ell)] = sum((-1) ** p * n for p, n in enumerate(dims))
    return table


def recurrence_by_delcon_complexes(dc):
    """Oracle for euler_recurrences: e_Γ(k,ℓ) = e_{Γ/e}(k,ℓ) −
    e_{Γ∖e}(k−1,ℓ) on the dims of the three complexes of a DelConCKS."""
    mid, sub, quo = map(dims_euler_table, (dc.mid, dc.sub, dc.quo))
    keys = set(mid) | set(quo) | {(k + 1, l) for (k, l) in sub}
    return all(mid.get((k, l), 0) == quo.get((k, l), 0) - sub.get((k - 1, l), 0)
               for (k, l) in keys)


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=4)], [THETA6], [W4],
], ids=["corpus4", "theta6", "w4"])
def test_face_count_recurrence_agrees_with_the_delcon_oracle(graphs):
    edges = 0
    for g in graphs:
        ctx = GraphContext(g)
        assert euler_table(g) == dims_euler_table(ctx.cks)
        for e in ctx.admissible_edges():
            dc = DelConCKS(ctx.delcon(e))
            # each side's table from its face counts equals the one from dims
            for c in (dc.mid, dc.sub, dc.quo):
                assert euler_table(c) == dims_euler_table(c), (g, e)
            assert euler_recurrences(ctx.faces, [e])[e] \
                == recurrence_by_delcon_complexes(dc) is True, (g, e)
            edges += 1
    assert edges


@pytest.mark.parametrize("side", [0, 1, 2], ids=["middle", "deleted", "contracted"])
def test_a_corrupted_face_count_fails_the_recurrence(monkeypatch, side):
    # one more empty face on one of the three sides, in the order
    # euler_recurrences counts them
    faces = face_complex(W4)
    e = W4.order[0]
    assert euler_recurrences(faces, [e])[e]
    original = cks_mod._counts_table
    calls = []

    def corrupted(counts, genus):
        if len(calls) == side:
            counts = [counts[0] + 1] + counts[1:]
        calls.append(genus)
        return original(counts, genus)

    monkeypatch.setattr(cks_mod, "_counts_table", corrupted)
    assert not euler_recurrences(faces, [e])[e]
    assert calls == [4, 3, 4]


def test_recurrences_count_the_faces_once_for_all_edges(monkeypatch):
    # Γ's own table once, then the deleted and contracted tables per edge
    faces = face_complex(K4PP)
    each = {e: euler_recurrences(faces, [e])[e] for e in K4PP.order}
    original = cks_mod._counts_table
    genera = []
    monkeypatch.setattr(cks_mod, "_counts_table", lambda counts, genus: (
        genera.append(genus), original(counts, genus))[1])
    both = euler_recurrences(faces, K4PP.order)
    assert both == each and all(both.values())
    assert tuple(both) == K4PP.order
    assert genera == [5] + [4, 5] * len(K4PP.order)


@st.composite
def face_splits(draw):
    """A genus g and, per level p, how many faces avoid the edge e and
    how many contain it (none at p = 0), as a stand-in face complex whose
    faces are the empty set and {e}: the recurrence reads only the counts."""
    g = draw(st.integers(0, 6))
    counts = st.integers(0, 40)
    avoid = draw(st.lists(counts, min_size=g + 1, max_size=g + 1))
    contain = [0] + draw(st.lists(counts, min_size=g, max_size=g))
    return FaceComplex(None, [[frozenset()] * a + [frozenset("e")] * c
                              for a, c in zip(avoid, contain)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(face_splits())
def test_the_face_count_recurrence_is_an_identity_of_the_split(faces):
    # each level's count is the sum of its two split counts, and the
    # deleted side's C(g − 1 − (p − 1), ·) is the middle's C(g − p, ·), so
    # the recurrence holds for any counts, not only those of a graph
    assert euler_recurrences(faces, ["e"])["e"]


def counts_table_by_piece_size(counts, genus):
    """Slow oracle for cks._counts_table: every stripe's alternating sum
    of ht.piece_size, the size HTComplex.dim gives each piece."""
    table = {}
    for k in range(2 * genus + 1):
        for ell in range(genus + 1):
            dims = [ht.piece_size(f, genus - p, (k - p, ell))
                    for p, f in enumerate(counts[:min(k, genus) + 1])]
            if any(dims):
                table[(k, ell)] = sum((-1) ** p * n for p, n in enumerate(dims))
    return table


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.just(0) | st.integers(0, 60), max_size=g + 2))))
def test_the_counts_table_sums_the_piece_sizes(case):
    # any counts, also empty levels and fewer or more levels than
    # genus + 1: the same keys in the same order, those whose pieces
    # cancel to 0 included, and the same values
    genus, counts = case
    table = cks_mod._counts_table(counts, genus)
    assert list(table.items()) == list(counts_table_by_piece_size(counts, genus).items())


def test_cks_reports_a_corrupted_deletion_count(monkeypatch, capsys):
    # the deleted side is the one table at genus g − 1
    original = cks_mod._counts_table
    monkeypatch.setattr(cks_mod, "_counts_table", lambda counts, genus: original(
        [counts[0] + (genus == 3)] + counts[1:], genus))
    assert cli.main(["cks", "--inline", "v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1"]) == 1
    assert set(json.loads(capsys.readouterr().out)["recurrence_checks"].values()) == {False}
    assert run_checks(W4, ["delcon_cks"])["delcon_cks"]["payload"] == {
        "edge": "0", "reason": "Euler recurrence failed"}


def exact_level(dc, deleted=2, contracted=1):
    """The first level p with at least `deleted` deleted faces and
    `contracted` contracted ones."""
    return next(p for p in levels_of(dc)
                if dc.sub.dim(p - 1, 0, 0) >= deleted and dc.quo.dim(p, 0, 0) >= contracted)


def with_face_maps(dc, p, inc=None, prj=None):
    """dc whose inclusion into and projection from the middle's faces of
    level p, the maps check_exact decides that level from, are `inc` and
    `prj` where given; every other level keeps its own maps."""
    face_maps = dc._face_maps

    def patched(k):
        if k != p:
            return face_maps(k)
        own_inc, own_prj = face_maps(k)
        return (own_inc if inc is None else inc), (own_prj if prj is None else prj)

    dc._face_maps = patched
    return dc


def test_check_exact_rejects_a_non_injective_inclusion():
    dc = DelConCKS(DelConR(face_complex(W4), W4.order[0]))
    p = exact_level(dc)
    assert dc.check_exact(p)
    inc, _ = dc._face_maps(p)
    # the second deleted face goes where the first one does
    inc[1] = dict(inc[0])
    assert not with_face_maps(dc, p, inc=inc).check_exact(p)


def test_check_exact_rejects_a_projection_that_is_not_onto():
    setup = DelConR(face_complex(W4), W4.order[0])
    dc = DelConCKS(setup)
    p = exact_level(dc, deleted=1, contracted=2)
    assert with_face_maps(dc, p, prj=dc._face_maps(p)[1]).check_exact(p)
    dc = DelConCKS(setup)
    _, prj = dc._face_maps(p)
    # nothing projects onto the first contracted face
    for col in prj.values():
        col.pop(0, None)
    assert not with_face_maps(dc, p, prj=prj).check_exact(p)


def test_check_exact_rejects_a_nonzero_composite():
    setup = DelConR(face_complex(W4), W4.order[0])
    dc = DelConCKS(setup)
    p = exact_level(dc, deleted=1, contracted=2)
    inc, prj = dc._face_maps(p)
    assert with_face_maps(dc, p, inc=inc).check_exact(p)
    dc = DelConCKS(setup)
    # the image of the first deleted face also projects onto the first
    # contracted face; both maps keep their full rank
    [j] = inc[0]
    prj[j][0] = 1
    assert not with_face_maps(dc, p, prj=prj).check_exact(p)


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=4)], [THETA6], [W4],
], ids=["corpus4", "theta6", "w4"])
def test_zero_product_agrees_with_the_dense_composite(graphs):
    # on every piece, and with the first deleted triple's image also
    # projected onto the first contracted triple, as in the test above
    composites = 0
    for g in graphs:
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc = DelConCKS(ctx.delcon(e))
            for p, q, r in pieces(dc):
                inc, prj = labelled_include(dc, p - 1, q, r), labelled_project(dc, p, q, r)

                def dense_composite():
                    return matmul(project_rows(dc, p, q, r, prj),
                                  include_rows(dc, p - 1, q, r, inc))

                assert is_zero_product(prj, inc) == is_zero_matrix(dense_composite()) is True
                if not (dc.sub.dim(p - 1, q, r) and dc.quo.dim(p, q, r)):
                    continue
                [j] = inc[0]
                prj[j][0] = 1
                assert is_zero_product(prj, inc) == is_zero_matrix(dense_composite()) is False
                composites += 1
    assert composites


def test_check_exact_accepts_a_composite_whose_terms_cancel():
    dc = DelConCKS(DelConR(face_complex(W4), W4.order[0]))
    p = exact_level(dc)
    con = dc.split(p, 0, 0)[0]
    inc, prj = dc._face_maps(p)
    # the first deleted face's image also takes in the first contracted
    # face, which the projection meets with +1 and its own image with
    # −1: the composite's entry is 1 − 1, and both maps keep full rank
    [d0] = inc[0]
    inc[0][con[0]] = 1
    prj[d0][0] = -1
    assert [prj[k][0] * inc[0][k] for k in (d0, con[0])] == [-1, 1]
    assert is_zero_matrix(matmul(project_rows(dc, p, 0, 0, prj),
                                 include_rows(dc, p - 1, 0, 0, inc)))
    assert with_face_maps(dc, p, inc, prj).check_exact(p)
    # with the projection's term alone the composite is not zero
    dc = DelConCKS(DelConR(face_complex(W4), W4.order[0]))
    assert not with_face_maps(dc, p, prj=prj).check_exact(p)


def test_check_exact_forms_no_dense_row(monkeypatch):
    # rank and the zero product read the columns map_matrix writes: inside
    # check_exact nothing fills zero rows or scans rows into columns
    calls = collections.Counter()
    inside = []

    def counted(name, fn):
        def wrapper(*args):
            if inside:
                calls[name] += 1
            return fn(*args)
        return wrapper

    # d_matrix reads dense through ht's own name for it
    monkeypatch.setattr(intlinalg, "dense", counted("dense", intlinalg.dense))
    monkeypatch.setattr(ht, "dense", counted("dense", ht.dense))
    monkeypatch.setattr(intlinalg, "_columns", counted("_columns", intlinalg._columns))
    monkeypatch.setattr(cks_mod, "rank", counted("rank", cks_mod.rank))
    check_exact = DelConCKS.check_exact

    def traced(self, *key):
        inside.append(key)
        try:
            return check_exact(self, *key)
        finally:
            inside.pop()

    monkeypatch.setattr(DelConCKS, "check_exact", traced)
    assert run_checks(W4, ["delcon_cks"])["delcon_cks"]["passed"]
    assert calls["rank"] > 0
    assert (calls["dense"], calls["_columns"]) == (0, 0)


def check_exact_by_pieces(dc, p, q, r):
    """Oracle for DelConCKS.check_exact: the same test on the maps of the
    piece (2p, q, r) itself, over the labelled bases (labelled_include,
    labelled_project), with no verdict shared between the pieces of one
    face level.  The piece's split is read first, so a face without its
    partner raises as there; a triple that a map sends outside the other
    side's basis leaves the piece not exact."""
    dc.split(p, q, r)
    dim_mid = dc.mid.dim(p, q, r)
    dim_sub = dc.sub.dim(p - 1, q, r)
    dim_quo = dc.quo.dim(p, q, r)
    if dim_sub + dim_quo != dim_mid:
        return False
    try:
        inc = labelled_include(dc, p - 1, q, r)
        prj = labelled_project(dc, p, q, r)
    except OutsideBasis:
        return False
    r_inc = intlinalg.rank(inc) if dim_sub else 0
    r_prj = intlinalg.rank(prj) if dim_mid and dim_quo else 0
    if r_inc != dim_sub or r_prj != dim_quo:
        return False
    if dim_sub and dim_quo:
        return is_zero_product(prj, inc)
    return True


def outcome(fn, *args):
    """fn(*args), or the type and arguments of the error it raises."""
    try:
        return fn(*args)
    except CksKitError as err:
        return type(err), err.args


def with_face_fault(dc, fault, side, level):
    """dc whose contracted, deleted or middle complex has a fault in its
    faces of `level`, whose partners make the middle's level (level + 1
    on the deleted side):
    - "lacks a face": its first face is missing;
    - "two faces with one partner": its second face is its first one;
    - "a partner outside the middle": its first face is every edge of
      the middle's graph;
    - "overlapping position lists": on the contracted side, its first
      face is the middle's partner of the deleted side's first face;
    - "an empty level": it has no face at all, on the middle's last level."""
    c = getattr(dc, side)
    levels = [list(faces) for faces in c.faces.levels]
    faces, table = levels[level], None
    if fault == "lacks a face":
        del faces[0]
    elif fault == "two faces with one partner":
        faces[1] = faces[0]
    elif fault == "a partner outside the middle":
        faces[0] = frozenset(dc.mid.graph.eids)
    elif fault == "overlapping position lists":
        t = dc.sub.faces.levels[level - 1][0] | {dc.edge}
        faces[0] = t
        table = {**c.cc.table, t: dc.mid.cc.C(t)}
    else:
        assert fault == "an empty level"
        faces.clear()
    return with_side(dc, side, levels=levels, table=table)


FACE_FAULTS = [
    ("lacks a face", "quo", 0), ("lacks a face", "quo", 1),
    ("lacks a face", "sub", 0), ("lacks a face", "sub", 1),
    ("two faces with one partner", "quo", 1), ("two faces with one partner", "sub", 1),
    ("a partner outside the middle", "quo", 1), ("a partner outside the middle", "sub", 1),
    ("overlapping position lists", "quo", 1), ("overlapping position lists", "quo", 2),
    ("an empty level", "mid", -1),
]


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=4)], [THETA6], [W4],
], ids=["corpus4", "theta6", "w4"])
def test_check_exact_agrees_with_the_piece_by_piece_oracle(graphs):
    # every piece of every admissible edge, each graph in its edge order
    # and in reverse; the oracle reads a sequence of its own
    seen = 0
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            ctx = GraphContext(Graph(g.vertices, g.head, g.tail, list(order)))
            for e in ctx.admissible_edges():
                dc, ref = DelConCKS(ctx.delcon(e)), DelConCKS(ctx.delcon(e))
                by_level = [dc.check_exact(p) for p in levels_of(dc)]
                verdicts = [by_level[p] for p, _, _ in pieces(dc)]
                assert verdicts == [check_exact_by_pieces(ref, *key)
                                    for key in pieces(ref)], (g, e)
                seen += len(verdicts)
    assert seen


@pytest.mark.parametrize("fault", FACE_FAULTS, ids=lambda f: f"{f[0]}-{f[1]}{f[2]}")
def test_check_exact_agrees_with_the_oracle_under_a_face_fault(fault):
    # a verdict or the error raised, on every piece, the new check and
    # the oracle each on a faulted sequence of its own
    rejected = 0
    for g in (THETA6, W4):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc, ref = (with_face_fault(DelConCKS(ctx.delcon(e)), *fault) for _ in "ab")
            by_level = [outcome(dc.check_exact, p) for p in levels_of(dc)]
            verdicts = [by_level[p] for p, _, _ in pieces(dc)]
            assert verdicts == [outcome(check_exact_by_pieces, ref, *key)
                                for key in pieces(ref)], (g, e)
            rejected += any(v is not True for v in verdicts)
    assert rejected


def delcon_cks_by_pieces(g):
    """Reference for run_checks(g, ["delcon_cks"]): check_delcon_cks's
    loop over the edges and pieces, with each piece's exactness decided by
    check_exact_by_pieces and its chain maps by chain_maps_by_pieces."""
    ctx = GraphContext(g)
    edges = ctx.admissible_edges()
    recurrences = euler_recurrences(ctx.faces, edges)
    for e in edges:
        dc = DelConCKS(ctx.delcon(e))
        for p, q, r in pieces(dc):
            for check, reason in ((check_exact_by_pieces, "not short-exact"),
                                  (chain_maps_by_pieces, "chain maps do not commute")):
                if not check(dc, p, q, r):
                    return {"passed": False, "payload": {
                        "edge": str(e), "piece": (2 * p, q, r), "reason": reason}}
        if not recurrences[e]:
            return {"passed": False,
                    "payload": {"edge": str(e), "reason": "Euler recurrence failed"}}
    return {"passed": True, "payload": None}


def test_delcon_cks_reports_a_face_fault_as_the_piece_by_piece_loop(monkeypatch):
    # each fault is seeded into the sequence of every admissible edge; it
    # fails the check, and some fault fails it as "not short-exact", not
    # only through the chain maps or an error
    init = DelConCKS.__init__
    reasons = set()
    for fault in FACE_FAULTS:
        def faulted(self, setup, fault=fault):
            init(self, setup)
            with_face_fault(self, *fault)

        monkeypatch.setattr(DelConCKS, "__init__", faulted)
        for g in (THETA6, W4):
            report = outcome(lambda: run_checks(g, ["delcon_cks"])["delcon_cks"])
            assert report == outcome(delcon_cks_by_pieces, g), (fault, g)
            if isinstance(report, dict):
                assert not report["passed"], (fault, g)
                reasons.add(report["payload"]["reason"])
    assert reasons == {"not short-exact", "chain maps do not commute"}


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_delcon_cks_decides_each_level_once(monkeypatch, g):
    # rank runs at most twice per (admissible edge, level), on the
    # inclusion and the projection of the level's faces, and each level's
    # partner table is built once, so the cotree of each face of the three
    # complexes is compared once per edge
    sequences, ranks, compared, inside = [], collections.Counter(), collections.Counter(), []
    init, check_exact, partners = (
        DelConCKS.__init__, DelConCKS.check_exact, DelConCKS._partners)
    rank, cotree = cks_mod.rank, HTComplex._cotree

    def kept(self, setup):
        # keep each sequence, so that the ids of its complexes are not reused
        init(self, setup)
        sequences.append(self)

    def traced(method):
        def wrapper(self, p, *rest):
            inside.append((id(self), method.__name__, p))
            try:
                return method(self, p, *rest)
            finally:
                inside.pop()
        return wrapper

    def counted_rank(a):
        _, name, p = key = inside[-1]
        assert name == "check_exact", key
        ranks[key] += 1
        return rank(a)

    def counted_cotree(self, s):
        if inside and inside[-1][1] == "_partners":
            compared[(id(self), s)] += 1
        return cotree(self, s)

    monkeypatch.setattr(DelConCKS, "__init__", kept)
    monkeypatch.setattr(DelConCKS, "check_exact", traced(check_exact))
    monkeypatch.setattr(DelConCKS, "_partners", traced(partners))
    monkeypatch.setattr(cks_mod, "rank", counted_rank)
    monkeypatch.setattr(HTComplex, "_cotree", counted_cotree)
    report = run_checks(g, ["delcon_cks"])
    assert report["delcon_cks"]["passed"], report
    assert len(sequences) == len(GraphContext(g).admissible_edges())
    levels = {(id(dc), p) for dc in sequences for p in range(g.genus() + 1)}
    assert ranks and set(ranks) <= {(i, "check_exact", p) for i, p in levels}
    assert max(ranks.values()) <= 2
    assert compared == collections.Counter(
        (id(c), s) for dc in sequences for c in (dc.mid, dc.sub, dc.quo)
        for s in c.faces.faces())


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_delcon_cks_checks_each_level_once(monkeypatch, g):
    # check_exact and check_chain_maps run once per (admissible edge,
    # level), and split runs only inside _piece_commutes, once on the
    # piece's source and once on its target
    sequences, calls, inside = [], collections.Counter(), []
    init, piece_commutes, split = (
        DelConCKS.__init__, DelConCKS._piece_commutes, DelConCKS.split)

    def kept(self, setup):
        # keep each sequence, so that its id is not reused
        init(self, setup)
        sequences.append(self)

    def counted(method):
        def wrapper(self, p):
            calls[(id(self), method.__name__, p)] += 1
            return method(self, p)
        return wrapper

    def traced(self, *key):
        calls["_piece_commutes"] += 1
        inside.append(key)
        try:
            return piece_commutes(self, *key)
        finally:
            inside.pop()

    def split_inside(self, *key):
        assert inside, key
        calls["split"] += 1
        return split(self, *key)

    monkeypatch.setattr(DelConCKS, "__init__", kept)
    for name in ("check_exact", "check_chain_maps"):
        monkeypatch.setattr(DelConCKS, name, counted(getattr(DelConCKS, name)))
    monkeypatch.setattr(DelConCKS, "_piece_commutes", traced)
    monkeypatch.setattr(DelConCKS, "split", split_inside)
    report = run_checks(g, ["delcon_cks"])
    assert report["delcon_cks"]["passed"], report
    assert len(sequences) == len(GraphContext(g).admissible_edges())
    assert calls.pop("split") == 2 * calls.pop("_piece_commutes") > 0
    assert calls == collections.Counter(
        (id(dc), name, p) for dc in sequences
        for name in ("check_exact", "check_chain_maps") for p in range(g.genus() + 1))


# ---------------------------------------------------------------------------
# chain maps decided from the generator pieces of each level

def record_faults(record):
    """Faulted copies of an edge record: each iota entry plus one, each
    other x0 place, iota negated and iota zeroed."""
    s_pos, e, t_pos, x0, a = record
    for k in range(len(a)):
        yield s_pos, e, t_pos, x0, a[:k] + (a[k] + 1,) + a[k + 1:]
    for other in range(len(a)):
        if other != x0:
            yield s_pos, e, t_pos, other, a
    yield s_pos, e, t_pos, x0, tuple(-c for c in a)
    yield s_pos, e, t_pos, x0, (0,) * len(a)


class FactorFault(tuple):
    """An edge record's iota whose interior product (kind "iota", at q =
    n) or restriction (kind "restrict", at r = n) has the first entry of
    its factor negated, where with_factor_faults reads it: no record of
    values gives that, but it leaves the block of d a Kronecker product,
    so the generator pieces must see it."""

    def __new__(cls, a, kind, n):
        self = super().__new__(cls, a)
        self.kind, self.n = kind, n
        return self


def with_factor_faults(monkeypatch):
    """Let ht's two factors read FactorFault (see there)."""
    for kind, name in (("iota", "_iota_factor"), ("restrict", "_restrict_factor")):
        def faulted(m, n, x0, a, kind=kind, factor=getattr(ht, name)):
            out = factor(m, n, x0, a)
            if isinstance(a, FactorFault) and (a.kind, a.n) == (kind, n):
                (w, ((t, v), *terms)), *rows = out
                out = ((w, ((t, -v), *terms)), *rows)
            return out

        monkeypatch.setattr(ht, name, faulted)


def factor_faults(record):
    """Copies of an edge record whose interior product at one q ≥ 1 or
    restriction at one r ≥ 1 is faulted (FactorFault)."""
    *head, a = record
    return [(*head, FactorFault(a, kind, n))
            for kind, ns in (("iota", range(1, len(a) + 1)), ("restrict", range(1, len(a))))
            for n in ns]


def with_record(dc, side, p, k, record):
    """dc whose contracted, deleted or middle complex has `record` as the
    k-th row of its level-p record table; every other record is its own."""
    getattr(dc, side).records(p)[k] = record
    return dc


# the kinds of record record_kinds sorts: "free" are the middle's records
# that add the sequence's edge e, whose blocks (e ∉ S, e ∈ S ∪ e) of d_mid
# the squares leave free
RECORD_KINDS = ("mid", "sub", "quo", "free")


def record_kinds(dc):
    """{kind: [(side, p, k), ...]} over every edge record of the three
    complexes, the k-th row of level p, by RECORD_KINDS; a kind with no
    record is left out."""
    kinds = collections.defaultdict(list)
    for side in ("mid", "sub", "quo"):
        c = getattr(dc, side)
        for p in range(len(c.faces.levels)):
            for k, (_, e, _, _, _) in enumerate(c.records(p)):
                free = side == "mid" and e == dc.edge
                kinds["free" if free else side].append((side, p, k))
    return kinds


@pytest.mark.parametrize("graphs, edges", [
    ([g for _, g in corpus.corpus_graphs(bound=4)], None), ([THETA6, W4], 2),
], ids=["corpus4", "theta6-w4"])
def test_chain_maps_agree_with_both_oracles_under_a_record_fault(monkeypatch, graphs, edges):
    # each sequence, of each graph in its edge order and in reverse (at
    # `edges` admissible edges drawn per order, or at all), has one record
    # drawn, of each kind in turn, and faulted in every way of
    # record_faults and factor_faults, each fault in fresh sequences.  Each
    # level's check_chain_maps returns the first piece the per-piece
    # reference rejects, whose verdicts are, under a record fault, the
    # product ones; only a fault in the free block goes unseen
    with_factor_faults(monkeypatch)
    rng = random.Random(32)
    cases = detected = 0
    unseen = set()
    turn = itertools.cycle(RECORD_KINDS)
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            ctx = GraphContext(Graph(g.vertices, g.head, g.tail, list(order)))
            admissible = ctx.admissible_edges()
            for e in admissible if edges is None else rng.sample(admissible, edges):
                setup = ctx.delcon(e)
                probe = DelConCKS(setup)
                kinds = record_kinds(probe)
                kind = next(k for k in turn if k in kinds)
                side, p, k = rng.choice(kinds[kind])
                record = getattr(probe, side).records(p)[k]
                faults = [(bad, True) for bad in record_faults(record)]
                faults += [(bad, False) for bad in factor_faults(record)]
                for bad, by_matmul in faults:
                    dc, ref = (with_record(DelConCKS(setup), side, p, k, bad) for _ in "ab")
                    verdicts = [chain_maps_by_pieces(ref, *key) for key in pieces(ref)]
                    failed = [dc.check_chain_maps(p) for p in levels_of(dc)]
                    assert failed == first_rejected(ref, verdicts), (g, e, kind, bad)
                    assert not by_matmul or verdicts == [chain_maps_by_matmul(ref, *key)
                                                         for key in pieces(ref)], (g, e, kind, bad)
                    cases += 1
                    if all(verdicts):
                        unseen.add(kind)
                    else:
                        detected += 1
    assert 0 < detected < cases
    assert unseen == {"free"}


# (side, level, record of the level's first face, fault), the fault an
# index into record_faults: 0 and 1 add one to an iota entry, −3 moves
# the x0 place to the last other place, −2 negates iota and −1 zeroes it.  The
# last record of the middle's first face adds the sequence's edge: the
# free block.
RECORD_FAULTS = [
    ("mid", 1, 0, 0), ("mid", 2, 0, -2), ("sub", 0, 0, -1), ("sub", 1, -1, 1),
    ("quo", 0, 0, -3), ("quo", 2, 0, 2), ("mid", 0, -1, -1),
]


def test_delcon_cks_reports_a_record_fault_as_the_piece_by_piece_loop(monkeypatch):
    # each fault is seeded into the sequence of every admissible edge:
    # the check gives the payload of the per-piece loop, and the fault in
    # the free block alone passes
    init = DelConCKS.__init__
    passed = set()
    for fault in RECORD_FAULTS:
        side, level, k, which = fault

        def faulted(self, setup, side=side, level=level, k=k, which=which):
            init(self, setup)
            table = getattr(self, side).records(level)
            row = [i for i, (s_pos, *_) in enumerate(table) if s_pos == 0][k]
            with_record(self, side, level, row, list(record_faults(table[row]))[which])

        monkeypatch.setattr(DelConCKS, "__init__", faulted)
        for g in (THETA6, W4):
            report = run_checks(g, ["delcon_cks"])["delcon_cks"]
            assert report == delcon_cks_by_pieces(g), (fault, g)
            if report["passed"]:
                passed.add(fault)
    assert passed == {("mid", 0, -1, -1)}


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [THETA6, W4],
], ids=["corpus5", "theta6-w4"])
def test_the_generator_argument_holds_on_every_record(graphs):
    # what check_chain_maps's argument reads of _assemble's factors, on
    # every record of the three complexes of every sequence: R_0 is the
    # 1×1 identity, I_1 the nonzero entries of a = iota, every value of
    # I_q is ± an entry of a, and a face's records go to distinct targets
    records = 0
    for g in graphs:
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc = DelConCKS(ctx.delcon(e))
            for c in (dc.mid, dc.sub, dc.quo):
                for p in range(len(c.faces.levels)):
                    m = c.genus - p
                    rows = c.records(p)
                    assert len({(s_pos, t_pos) for s_pos, _, t_pos, _, _ in rows}) \
                        == len(rows), (g, e, p)
                    for _, _, _, x0, a in rows:
                        assert ht._restrict_factor(m, 0, x0, a) == ((0, ((0, 1),)),)
                        assert ht._iota_factor(m, 1, x0, a) == tuple(
                            (x, ((0, v),)) for x, v in enumerate(a) if v)
                        entries = {v for v in a} | {-v for v in a}
                        for q in range(1, m + 1):
                            for _, terms in ht._iota_factor(m, q, x0, a):
                                assert {v for _, v in terms} <= entries
                        records += 1
    assert records


def generator_pieces(m):
    """The (q, r) of the generator pieces of a level whose cotrees have m
    edges, in check_chain_maps's order."""
    return [(1, r) for r in range(m)] + [(q, 0) for q in range(2, m + 1)]


@pytest.mark.parametrize("g", [THETA6, W4], ids=["theta6", "w4"])
def test_chain_maps_build_d_only_at_the_generator_pieces(monkeypatch, g):
    # on an honest graph, each of the three complexes of a sequence builds
    # d at no piece but its level's generators, at most 2m − 1 per level
    built = []
    original = CKSComplex.d_matrix

    def counting(self, p, q, r):
        built.append((self, p, q, r))
        return original(self, p, q, r)

    monkeypatch.setattr(CKSComplex, "d_matrix", counting)
    report = run_checks(g, ["delcon_cks"])
    assert report["delcon_cks"]["passed"], report
    per_level = collections.Counter()
    for c, p, q, r in built:
        m = c.genus - p
        assert (q, r) in generator_pieces(m), (p, q, r)
        per_level[(id(c), p)] += 1
        assert per_level[(id(c), p)] <= 2 * m - 1
    # theta6 and W4 build them all: each generator piece of a level with
    # faces on both sides of d has nonempty source and target
    assert built


# ---------------------------------------------------------------------------
# the cocycle restriction H¹(Λ_S) -> H¹(Λ_{S∪e})

def restriction_cases():
    """(cotree, S, e) for every face S and edge e with S ∪ e a face, over
    the bound-4 corpus, theta6, W4 and K4PP in their own edge order and
    its reverse."""
    graphs = [g for _, g in corpus.corpus_graphs(bound=4)] + [THETA6, W4, K4PP]
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            cc = coherent_cotree(Graph(g.vertices, g.head, g.tail, list(order)))
            for s in cc.faces.faces():
                for e in cc.graph.sort_edges(cc.graph.eids - s):
                    if s | {e} in cc.faces:
                        yield cc, s, e


def restrict_by_minors(cc, s, e, a):
    """Slow oracle for element_wise.restrict: the r-th wedge power of the
    restriction matrix, whose column x ∈ C(S) is Σ_y ⟨γ_y, x⟩ [y] over the
    cycles γ_y of Γ∖(S ∪ e), taken as its r×r minors on the columns a."""
    rows = cc.cycles(s | {e}).rows
    out = {}
    for ys in itertools.combinations(cc.graph.sort_edges(rows), len(a)):
        d = det([[rows[y].get(x, 0) for x in a] for y in ys])
        if d:
            out[ys] = d
    return out


def solve_exact(a, b):
    """Solve a·x = b over Q for square nonsingular a by Gauss–Jordan
    elimination on Fractions; returns Fractions.  Raises ValueError when
    the system is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c]
        for j in range(c, n + 1):
            m[c][j] /= inv
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                for j in range(c, n + 1):
                    m[i][j] -= f * m[c][j]
    return [m[i][n] for i in range(n)]


def test_solve_exact():
    assert solve_exact([[2, 1], [1, 1]], [3, 2]) == [1, 1]
    assert solve_exact([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4]], [1, 1])


def cycles_in_cycle_basis(cc, s, e):
    """Each cycle γ'_y of Γ∖(S ∪ e), y ∈ C(S ∪ e), solved exactly from edge
    vectors in the basis γ_x, x ∈ C(S), of H_1(Γ∖S): {y: {x: coefficient}}.
    Asserts that the combination reproduces γ'_y and is integral."""
    g = cc.graph
    edges = g.sort_edges(g.eids - s)
    xs = g.sort_edges(cc.C(s))
    vec = {x: [cc.cycles(s).rows[x].get(t, 0) for t in edges] for x in xs}

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    gram = [[dot(vec[x1], vec[x2]) for x2 in xs] for x1 in xs]
    out = {}
    for y, cycle in cc.cycles(s | {e}).rows.items():
        target = [cycle.get(t, 0) for t in edges]
        coeffs = solve_exact(gram, [dot(vec[x], target) for x in xs])
        assert [sum(c * vec[x][k] for c, x in zip(coeffs, xs))
                for k in range(len(edges))] == target
        assert all(c.denominator == 1 for c in coeffs)
        out[y] = {x: int(c) for x, c in zip(xs, coeffs)}
    return out


def test_restriction_agrees_with_the_determinant_minors():
    wedges = 0
    for cc, s, e in restriction_cases():
        cot = cc.graph.sort_edges(cc.C(s))
        for r in range(len(cot) + 1):
            for a in itertools.combinations(cot, r):
                assert restrict(cc, s, e, a) == restrict_by_minors(cc, s, e, a), \
                    (cc.graph.order, s, e, a)
                wedges += 1
    assert wedges > 10_000


def test_restriction_is_the_transpose_of_the_cycle_lattice_inclusion():
    # Λ_{S∪e} = H_1(Γ∖S∖e) sits in Λ_S = H_1(Γ∖S); restricting cocycle
    # classes is the transpose of that inclusion, and it is onto because
    # Λ_{S∪e} is saturated in Λ_S
    for cc, s, e in restriction_cases():
        incl = cycles_in_cycle_basis(cc, s, e)
        xs = cc.graph.sort_edges(cc.C(s))
        for x in xs:
            assert restrict(cc, s, e, (x,)) == {
                (y,): col[x] for y, col in incl.items() if col[x]}
        assert _rank_and_torsion([[col[x] for x in xs] for col in incl.values()]) \
            == (len(incl), [])


def test_the_lost_edge_restricts_by_the_exchange_identity():
    # a_x = ⟨γ_x, e⟩ over C(S) are the edge record's iota values; x0 leaves
    # the cotree, so a_x0 = ±1, and [x0] restricts to −a_x0 Σ_y a_y [y]
    # over C(S ∪ e)
    complexes = {}
    for cc, s, e in restriction_cases():
        htc = complexes.setdefault(cc, HTComplex(cc.graph, cc))
        s_pos = htc.faces.position[s]
        (iota,) = [a for i, e2, _, _, a in htc.records(len(s)) if (i, e2) == (s_pos, e)]
        xs = cc.graph.sort_edges(cc.C(s))
        assert iota == tuple(pair(cc, s, x, e) for x in xs)
        a = dict(zip(xs, iota))
        x0 = lost(cc, s, e)
        assert a[x0] in (1, -1)
        assert restrict(cc, s, e, (x0,)) == {
            (y,): -a[y] * a[x0] for y in cc.graph.sort_edges(cc.C(s | {e})) if a[y]}, \
            (cc.graph.order, s, e)


def test_edge_records_are_the_interior_products_of_the_1_wedges():
    # oracle for records: its rows go by S in level order, then e in edge
    # order, over the e with S ∪ e a face, and hold the places of S and
    # S ∪ e (faces.position) and of x0 = lost(S, e) in the sorted C(S);
    # iota, the wedge-by-wedge reference, removes the only edge of a
    # 1-wedge (x), so its image is ⟨γ_x, e⟩ times the empty wedge, and
    # that coefficient is the record's value at x
    records = 0
    for g in [g for _, g in corpus.corpus_graphs(bound=5)] + [THETA6, W4, K4PP]:
        for order in (g.order, g.order[::-1]):
            g2 = Graph(g.vertices, g.head, g.tail, list(order))
            htc = HTComplex(g2, coherent_cotree(g2))
            position = htc.faces.position
            for p, level in enumerate(htc.faces.levels):
                rows = htc.records(p)
                assert [row[:3] for row in rows] == [
                    (position[s], e, position[s | {e}]) for s in level
                    for e in g2.sort_edges(g2.eids - s) if s | {e} in htc.faces], (order, p)
                for s_pos, e, _, x0, a in rows:
                    s = level[s_pos]
                    xs = g2.sort_edges(htc.cc.C(s))
                    assert xs[x0] == lost(htc.cc, s, e), (order, s, e)
                    images = [iota(htc.cc, s, e, (x,)) for x in xs]
                    assert all(set(image) <= {()} for image in images), (order, s)
                    assert a == tuple(image.get((), 0) for image in images)
                    records += 1
    assert records == 6310


def test_lost_rejects_an_incoherent_table():
    cc = coherent_cotree(THETA)
    assert [lost(cc, frozenset(), e) for e in THETA.order] == [0, 1, 1]
    # C({0}) = {2} is a cotree of Γ∖0, but not inside C(∅) = {0, 1}
    table = dict(cc.table)
    table[frozenset({0})] = frozenset({2})
    bad = CoherentCotree(THETA, cc.faces, table)
    assert not bad.validate()
    assert lost(bad, frozenset(), 1) == 1
    with pytest.raises(IncoherentCotree):
        lost(bad, frozenset(), 0)
    with pytest.raises(IncoherentCotree):
        restrict(bad, frozenset(), 0, (1,))


def test_edge_records_reject_an_incoherent_table():
    # the records take x0 from C(S) and C(S ∪ e) themselves, not through
    # the oracle lost, and fail with its message
    cc = coherent_cotree(THETA)
    table = dict(cc.table)
    table[frozenset({0})] = frozenset({2})
    bad = CoherentCotree(THETA, cc.faces, table)
    with pytest.raises(IncoherentCotree) as oracle:
        lost(bad, frozenset(), 0)
    with pytest.raises(IncoherentCotree) as records:
        HTComplex(THETA, bad).records(0)
    assert str(records.value) == str(oracle.value) == \
        "C(S ∪ {0}) is not C(S) less one edge at S = []"


def test_cks_complex_rejects_cotree_of_another_graph():
    other = coherent_cotree(corpus.k4_graph())
    with pytest.raises(MismatchedGraph):
        CKSComplex(THETA, other)


def test_kunneth_wedge_of_loops():
    # cohomology of a one-point union is the graded convolution of the parts
    two = corpus.loop_wedge_loop()
    single = ranks(corpus.loop_graph())
    expected = {}
    for (p1, q1, r1), c1 in single.items():
        for (p2, q2, r2), c2 in single.items():
            key = (p1 + p2, q1 + q2, r1 + r2)
            expected[key] = expected.get(key, 0) + c1 * c2
    assert ranks(two) == {k: v for k, v in expected.items() if v}
    coh = cks_cohomology(two)
    assert all(not torsion for _, torsion in coh.values())


# ---------------------------------------------------------------------------
# the first torsion: the 4-cycle with every edge doubled (genus 5), the one
# graph of the bound-8 corpus whose CKS cohomology has torsion

C4_DOUBLED = "v1-v0 v1-v0 v2-v0 v2-v0 v3-v1 v3-v1 v3-v2 v3-v2"


@pytest.mark.parametrize("order", [[], ["--order", "7,6,5,4,3,2,1,0"]],
                         ids=["own", "reversed"])
def test_cks_reports_the_first_torsion(capsys, order):
    assert cli.main(["cks", "--inline", C4_DOUBLED, *order]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["torsion"] == {"4,1,2": [2]}
    assert report["ranks_by_tridegree"]["4,1,2"] == 20


def peel_unit_pivots(a):
    """(pivots, core) of the dense rows a: while some entry is ±1, clear
    its column by adding multiples of its row to the other rows, then drop
    its row and column (column operations clear the rest of the row, and
    touch no other row).  Every step is unimodular, so a's invariant
    factors are one 1 per pivot and those of the core, the rows left with
    no unit entry, less their zero rows and columns."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    pivots = 0
    while True:
        found = next(((i, j) for i, row in enumerate(rows) for j, x in row.items()
                      if x in (1, -1)), None)
        if found is None:
            break
        pivot = rows.pop(found[0])
        for row in rows:
            f = row.get(found[1], 0) * pivot[found[1]]
            if f:
                for k, x in pivot.items():
                    v = row.get(k, 0) - f * x
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        pivots += 1
    columns = sorted({j for row in rows for j in row})
    return pivots, [[row.get(j, 0) for j in columns] for row in rows if row]


@pytest.mark.parametrize("reverse", [False, True], ids=["own", "reversed"])
def test_the_first_torsion_agrees_with_the_dense_snf(reverse):
    # stripe (3, 2) at p = 1, d: (2, 2, 2) -> (4, 1, 2), has rank 182 and
    # one invariant factor 2, which is the Z/2 at (4, 1, 2).  The whole
    # 252 × 288 matrix takes minutes in smith_normal_form, so its unit
    # pivots are peeled first, in the dense rows and in another order than
    # the sparse engine's, and the core goes to smith_normal_form
    g = graph_from_dsl(C4_DOUBLED)
    order = g.order[::-1] if reverse else g.order
    c = build_cks(Graph(g.vertices, g.head, g.tail, list(order)))
    m = c.d_matrix(1, 2, 2)
    assert (len(m), len(m[0])) == (252, 288)
    pivots, core = peel_unit_pivots(m)
    snf = smith_normal_form(core)
    assert snf.verify(core)
    assert (pivots + snf.rank, [x for x in snf.invariant_factors if x > 1]) == (182, [2])
    assert _rank_and_torsion(m) == (182, [2])
    # over F_2 the factor 2 vanishes, over a large prime nothing does
    assert_rank_mod_p_identity(m, 182, [2])
    assert c.stripe_cohomology()[(3, 2)][2] == (20, [2])


# ---------------------------------------------------------------------------
# two vertices joined by six edges, with a loop at each (8 edges, genus 7);
# its CKS cohomology has no torsion.  It left the second residual core of
# the bound-8 corpus while the heap alone ordered the pivots; taking every
# ±1 alone in its row first leaves it none

CORE_GRAPH = "v0-v0 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v1-v1"
CORE_GRAPH_RANKS = {
    "0,0,0": 1, "0,0,1": 7, "0,0,2": 21, "0,0,3": 35, "0,0,4": 35, "0,0,5": 21,
    "0,0,6": 7, "0,0,7": 1, "0,1,1": 3, "0,1,2": 28, "0,1,3": 85, "0,1,4": 125,
    "0,1,5": 99, "0,1,6": 41, "0,1,7": 7, "0,2,2": 4, "0,2,3": 56, "0,2,4": 155,
    "0,2,5": 181, "0,2,6": 99, "0,2,7": 21, "0,3,3": 4, "0,3,4": 70, "0,3,5": 155,
    "0,3,6": 125, "0,3,7": 35, "0,4,4": 4, "0,4,5": 56, "0,4,6": 85, "0,4,7": 35,
    "0,5,5": 4, "0,5,6": 28, "0,5,7": 21, "0,6,6": 3, "0,6,7": 7, "0,7,7": 1,
    "10,0,0": 1, "10,0,1": 2, "10,0,2": 1, "10,1,1": 2, "10,1,2": 2, "10,2,2": 1,
    "2,0,0": 1, "2,0,1": 2, "2,0,2": 1, "2,1,1": 3, "2,1,2": 4, "2,1,3": 1,
    "2,2,2": 4, "2,2,3": 4, "2,2,4": 1, "2,3,3": 4, "2,3,4": 4, "2,3,5": 1,
    "2,4,4": 4, "2,4,5": 4, "2,4,6": 1, "2,5,5": 3, "2,5,6": 2, "2,6,6": 1,
    "4,0,0": 1, "4,0,1": 2, "4,0,2": 1, "4,1,1": 3, "4,1,2": 4, "4,1,3": 1,
    "4,2,2": 4, "4,2,3": 4, "4,2,4": 1, "4,3,3": 4, "4,3,4": 4, "4,3,5": 1,
    "4,4,4": 3, "4,4,5": 2, "4,5,5": 1, "6,0,0": 1, "6,0,1": 2, "6,0,2": 1,
    "6,1,1": 3, "6,1,2": 4, "6,1,3": 1, "6,2,2": 4, "6,2,3": 4, "6,2,4": 1,
    "6,3,3": 3, "6,3,4": 2, "6,4,4": 1, "8,0,0": 1, "8,0,1": 2, "8,0,2": 1,
    "8,1,1": 3, "8,1,2": 4, "8,1,3": 1, "8,2,2": 3, "8,2,3": 2, "8,3,3": 1,
}


@pytest.mark.parametrize("reverse", [False, True], ids=["own", "reversed"])
def test_the_second_core_agrees_with_the_dense_snf(monkeypatch, capsys, reverse):
    # the edge order is the graph's least form in the corpus.  Stripe
    # (6, 4) factors its d at p = 2 (224 × 700) without the columns that
    # d at p = 1 cleared, 224 × 223, and no differential of the stripe
    # leaves a residual core; peeling the unit pivots of the same columns
    # in the dense rows, in another order, and taking the Smith form of
    # what is left must give the same rank and no torsion, and the
    # stripe's cohomology must be the one the full differentials give
    # that way
    g = graph_from_dsl(CORE_GRAPH)
    order = g.order[::-1] if reverse else g.order
    args = ["--order", ",".join(map(str, order))] if reverse else []
    assert cli.main(["cks", "--inline", CORE_GRAPH, *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ranks_by_tridegree"] == CORE_GRAPH_RANKS
    assert report["torsion"] == {}
    c = build_cks(Graph(g.vertices, g.head, g.tail, list(order)))
    original = intlinalg._factor
    calls = []

    def recording(columns):
        out = original(columns)
        calls.append((columns, out))
        return out

    monkeypatch.setattr(intlinalg, "_factor", recording)
    stripe = c._stripe(6, 4)
    assert stripe == {0: (0, []), 1: (0, []), 2: (3, []), 3: (2, [])}
    assert [out[2] is None for _, out in calls] == [False] * 3
    columns, found = calls[-1]
    keys = sorted(columns)
    m = dense({n: columns[j] for n, j in enumerate(keys)}, c.dim(3, 3, 4), len(keys))
    assert (len(m), len(m[0]), found[:2]) == (224, 223, (222, []))
    pivots, core = peel_unit_pivots(m)
    snf = smith_normal_form(core)
    assert snf.verify(core)
    assert (pivots + snf.rank, [x for x in snf.invariant_factors if x > 1]) == found[:2]
    monkeypatch.undo()
    facts = {}
    for p in range(3):
        pivots, core = peel_unit_pivots(c.d_matrix(p, 6 - p, 4))
        snf = smith_normal_form(core)
        facts[p] = pivots + snf.rank, [x for x in snf.invariant_factors if x > 1]
    assert stripe == {p: (c.dim(p, 6 - p, 4) - facts.get(p, (0, []))[0]
                          - facts.get(p - 1, (0, []))[0], facts.get(p - 1, (0, []))[1])
                      for p in range(4)}
