"""Trigraded complex: cohomology, Euler tables, Tutte specialization."""

import itertools

import pytest

from ckskit import corpus
from ckskit.activity import CoherentCotree, coherent_cotree
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
from ckskit.errors import IncoherentCotree, MismatchedGraph
from ckskit.graphs import Graph, build_graph
from ckskit.ht import DelConR
from ckskit.intlinalg import (
    _rank_and_torsion,
    det,
    is_zero_matrix,
    matmul,
    solve_exact,
)
from ckskit.polynomials import Poly2

THETA = corpus.theta_graph()
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
THETA6 = build_graph([(0, 1)] * 6)
# K4 with the edges 0-1 and 2-3 doubled, genus 5
K4PP = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)])


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
    """Slow oracle for CoherentCotree.restrict: the r-th wedge power of the
    restriction matrix, whose column x ∈ C(S) is Σ_y ⟨γ_y, x⟩ [y] over the
    cycles γ_y of Γ∖(S ∪ e), taken as its r×r minors on the columns a."""
    rows = cc.cycles(s | {e}).rows
    out = {}
    for ys in itertools.combinations(cc.graph.sort_edges(rows), len(a)):
        d = det([[rows[y].get(x, 0) for x in a] for y in ys])
        if d:
            out[ys] = d
    return out


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
                assert cc.restrict(s, e, a) == restrict_by_minors(cc, s, e, a), \
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
            assert cc.restrict(s, e, (x,)) == {
                (y,): col[x] for y, col in incl.items() if col[x]}
        assert _rank_and_torsion([[col[x] for x in xs] for col in incl.values()]) \
            == (len(incl), [])


def test_lost_rejects_an_incoherent_table():
    cc = coherent_cotree(THETA)
    assert [cc.lost(frozenset(), e) for e in THETA.order] == [0, 1, 1]
    # C({0}) = {2} is a cotree of Γ∖0, but not inside C(∅) = {0, 1}
    table = dict(cc.table)
    table[frozenset({0})] = frozenset({2})
    bad = CoherentCotree(THETA, cc.faces, table)
    assert not bad.validate()
    assert bad.lost(frozenset(), 1) == 1
    with pytest.raises(IncoherentCotree):
        bad.lost(frozenset(), 0)
    with pytest.raises(IncoherentCotree):
        bad.restrict(frozenset(), 0, (1,))


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
