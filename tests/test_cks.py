"""Trigraded complex: cohomology, Euler tables, Tutte specialization."""

import pytest

from ckskit import corpus
from ckskit.activity import coherent_cotree
from ckskit.cks import (
    CKSComplex,
    DelConCKS,
    LOOP_VALUE,
    assert_euler_matches,
    build_cks,
    cks_cohomology,
    euler_recurrence_holds,
    euler_table,
    h_hat,
    tutte_loop_specialization,
    tutte_specialization_literal,
)
from ckskit.checks import GraphContext, check_cks_d2, run_checks
from ckskit.errors import MismatchedGraph
from ckskit.graphs import build_graph
from ckskit.ht import DelConR
from ckskit.intlinalg import is_zero_matrix, matmul
from ckskit.polynomials import Poly2

THETA = corpus.theta_graph()
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])


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
    assert hh == tutte_loop_specialization(THETA)
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
    assert_euler_matches(table, cks_cohomology(THETA))
    assert table[(0, 0)] == 1
    # evaluating the generating polynomial at x = y = -1 counts spanning trees
    assert h_hat(THETA)(-1, -1) == 3


def test_h_hat_counts_spanning_trees_at_minus_one():
    for g in (corpus.loop_graph(), corpus.bridge_graph(), corpus.k4_graph()):
        from ckskit.graphs import spanning_tree_count
        assert h_hat(g)(-1, -1) == spanning_tree_count(g)


def test_k4_specialization():
    assert h_hat(corpus.k4_graph()) == tutte_loop_specialization(corpus.k4_graph())


def test_delcon_exactness_theta():
    dc = DelConCKS(DelConR(THETA, 0))
    for p in range(3):
        for q in range(3 - p):
            for r in range(3 - p):
                assert dc.check_exact(p, q, r), (p, q, r)
                assert dc.check_chain_maps(p, q, r), (p, q, r)
    assert euler_recurrence_holds(dc)


def test_cks_d2_reports_an_image_outside_the_stripe():
    ctx = GraphContext(THETA)
    c = ctx.cks
    original = c.d_element

    def leaky(s, w, a):
        # also send (∅, w, a) to a (1, q, r) label, one step off the stripe
        out = original(s, w, a)
        if not s and w:
            out[(frozenset({w[0]}), w, a)] = 1
        return out

    c.d_element = leaky
    ok, witness = check_cks_d2(ctx)
    assert not ok
    assert witness == {"piece": (0, 1, 0), "reason": "d leaves the stripe"}


def test_cks_d2_reports_the_piece_where_d_squared_is_not_zero():
    ctx = GraphContext(THETA)
    c = ctx.cks
    # d sends each basis element to the sum of its target basis
    c.d_element = lambda s, w, a: {
        b: 1 for b in c.basis(len(s) + 1, len(w) - 1, len(a))}
    ok, witness = check_cks_d2(ctx)
    assert not ok
    assert witness == {"piece": (0, 2, 0), "reason": "d^2 != 0"}


def test_d2_and_euler_build_each_differential_once(monkeypatch):
    g = corpus.k4_graph()
    assert g.genus() == 3
    built = []
    original = CKSComplex.d_matrix

    def counting(self, p, q, r):
        built.append((p, q, r))
        return original(self, p, q, r)

    monkeypatch.setattr(CKSComplex, "d_matrix", counting)
    report = run_checks(g, ["cks_d2", "euler"])
    assert all(r["passed"] for r in report.values()), report
    assert built and len(built) == len(set(built))


def chain_maps_by_matmul(dc, p, q, r):
    """Slow oracle for DelConCKS.check_chain_maps: both squares as
    products with the inclusion and projection matrices, at the middle
    source piece (2p, q, r)."""

    def same(a, b):
        # matmul gives [] for a product through a zero-dimensional piece
        return a == b or (is_zero_matrix(a) and is_zero_matrix(b))

    # inclusion square: d_mid ∘ inc = inc ∘ d_sub
    if dc.sub.dim(p - 1, q, r):
        left = matmul(dc.mid.d_matrix(p, q, r), dc.include_matrix(p - 1, q, r))
        right = matmul(dc.include_matrix(p, q - 1, r),
                       dc.sub.d_matrix(p - 1, q, r))
        if not same(left, right):
            return False
    # projection square: d_quo ∘ prj = prj ∘ d_mid
    if dc.mid.dim(p, q, r):
        left = matmul(dc.quo.d_matrix(p, q, r), dc.project_matrix(p, q, r))
        right = matmul(dc.project_matrix(p + 1, q - 1, r),
                       dc.mid.d_matrix(p, q, r))
        if not same(left, right):
            return False
    return True


def pieces(dc):
    d = dc.mid.genus
    return [(p, q, r) for p in range(d + 1)
            for q in range(d - p + 1) for r in range(d - p + 1)]


def delcon_sequences(bound):
    for _, g in corpus.corpus_graphs(bound=bound):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            yield DelConCKS(ctx.delcon(e))


def test_chain_maps_agree_with_the_matmul_oracle_on_the_corpus():
    edges = 0
    for dc in delcon_sequences(4):
        edges += 1
        for key in pieces(dc):
            assert dc.check_chain_maps(*key), (dc.edge, key)
            assert chain_maps_by_matmul(dc, *key), (dc.edge, key)
    assert edges == 62


def test_chain_maps_and_the_oracle_detect_the_same_perturbations():
    # add a target basis element to d of a source basis element, first or
    # last in each, of one piece of one complex; the block (e ∈ T, e ∉ S)
    # of d_mid is free, so some perturbations of the middle go unseen
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
            original = c.d_element

            def perturbed(*b, original=original, src=src[i], tgt=tgt[j]):
                out = dict(original(*b))
                if b == src:
                    out[tgt] = out.get(tgt, 0) + 1
                return out

            c.d_element = perturbed
            new = [dc.check_chain_maps(*k) for k in pieces(dc)]
            old = [chain_maps_by_matmul(dc, *k) for k in pieces(dc)]
            del c.d_element
            assert new == old, (dc.edge, key)
            cases += 1
            detected += not all(new)
    assert cases and 0 < detected < cases


def test_chain_maps_reject_a_broken_basis_split():
    dc = DelConCKS(DelConR(THETA, 0))
    assert dc.check_chain_maps(1, 1, 0)
    dc.quo.basis(1, 1, 0).reverse()
    assert not dc.check_chain_maps(1, 1, 0)


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
