"""Shelling, coherent cotree tables, In/B, activities, Tutte polynomials."""

import pytest

from ckskit import corpus, graphs
from ckskit.activity import (
    coherent_cotree,
    external_activity,
    h_polynomial,
    internal_activity,
    lex_shelling,
    tutte,
    tutte_by_activity,
)
from ckskit.activity import CoherentCotree
from ckskit.checks import (
    GraphContext,
    check_coherence,
    check_cycle_space,
    check_ring,
)
from ckskit.errors import FaceNotInComplex, NotACotree
from ckskit.graphs import (
    CycleBasis,
    FaceComplex,
    Graph,
    build_graph,
    face_complex,
    fundamental_cycle,
    spanning_tree_count,
)
from ckskit.polynomials import Poly1, Poly2

THETA = corpus.theta_graph()
X, Y, Z = 0, 1, 2
THETA6 = build_graph([(0, 1)] * 6)
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
# K4 with the edges 0-1 and 2-3 doubled, genus 5
K4PP = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)])


def fs(*edges):
    return frozenset(edges)


@pytest.fixture(scope="module")
def theta_cc():
    return coherent_cotree(THETA)


def test_shelling_order_and_restrictions():
    sh = lex_shelling(face_complex(THETA))
    assert sh.cotrees == [fs(X, Y), fs(X, Z), fs(Y, Z)]
    assert sh.restriction == {fs(X, Y): fs(), fs(X, Z): fs(Z), fs(Y, Z): fs(Y, Z)}
    assert sh.new_faces(2) == {fs(Z), fs(X, Z)}
    assert sh.partial_complex(3) == sh.partial_complex(2) | {fs(Y, Z)}


def test_theta_cotree_table(theta_cc):
    expected = {
        fs(): fs(X, Y),
        fs(X): fs(Y),
        fs(Y): fs(X),
        fs(Z): fs(X),
        fs(X, Y): fs(),
        fs(X, Z): fs(),
        fs(Y, Z): fs(),
    }
    assert theta_cc.table == expected
    assert theta_cc.validate()


def test_theta_in_table_and_basis(theta_cc):
    expected_in = {
        fs(): fs(),
        fs(X): fs(X),
        fs(Y): fs(Y),
        fs(Z): fs(),
        fs(X, Y): fs(X, Y),
        fs(X, Z): fs(X),
        fs(Y, Z): fs(),
    }
    assert {s: theta_cc.in_set(s) for s in theta_cc.faces.faces()} == expected_in
    assert theta_cc.basis() == [fs(), fs(Z), fs(Y, Z)]
    assert [len(level) for level in theta_cc.basis_by_degree()] == [1, 1, 1]


def test_faces_only(theta_cc):
    with pytest.raises(FaceNotInComplex):
        theta_cc.C({X, Y, Z})
    with pytest.raises(FaceNotInComplex):
        theta_cc.in_set({X, Y, Z})


def test_activities_theta():
    # tree {z}: x and y are each minimal in their cycles {x,z} and {y,z};
    # tree {x}: both cycles contain x, which precedes y and z
    assert external_activity(THETA, fs(Z)) == fs(X, Y)
    assert external_activity(THETA, fs(X)) == fs()
    assert internal_activity(THETA, fs(X)) == fs(X)
    assert internal_activity(THETA, fs(Z)) == fs()


def test_in_of_top_faces_is_external_activity(theta_cc):
    for cotree in theta_cc.faces.levels[2]:
        assert theta_cc.in_set(cotree) == external_activity(THETA, THETA.eids - cotree)


def test_tutte_theta():
    t = tutte(THETA)
    assert t == Poly2({(1, 0): 1, (0, 1): 1, (0, 2): 1})
    assert str(t) == "x + y + y^2"
    assert tutte_by_activity(THETA) == t


def test_tutte_small_cases():
    assert tutte(corpus.loop_graph()) == Poly2({(0, 1): 1})
    assert tutte(corpus.bridge_graph()) == Poly2({(1, 0): 1})
    assert tutte(corpus.loop_wedge_loop()) == Poly2({(0, 2): 1})


def test_tutte_k4():
    t = tutte(corpus.k4_graph())
    assert t == tutte_by_activity(corpus.k4_graph())
    assert h_polynomial(corpus.k4_graph()) == Poly1({0: 6, 1: 6, 2: 3, 3: 1})
    assert t(1, 1) == 16 == spanning_tree_count(corpus.k4_graph())


def test_tutte_independent_of_edge_order():
    g = corpus.k4_graph()
    t = tutte(g)
    for order in ([5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 4, 3], [1, 2, 3, 4, 5, 0]):
        g2 = Graph(g.vertices, g.head, g.tail, [g.order[i] for i in order])
        assert tutte_by_activity(g2) == t


def test_h_polynomial_theta():
    assert h_polynomial(THETA) == Poly1({0: 1, 1: 1, 2: 1})
    assert h_polynomial(THETA)(1) == spanning_tree_count(THETA) == 3


# ---------------------------------------------------------------------------
# the cycle bases of the coherent cotree

def test_cycle_bases_are_those_of_the_deleted_graph():
    # the oracle builds Γ∖S and walks its tree once per cotree edge; cc
    # builds the cycles in Γ from the tree E ∖ S ∖ C(S), rooted once
    faces = 0
    graphs = [g for _, g in corpus.corpus_graphs(bound=5)] + [THETA6, W4, K4PP]
    for g in graphs:
        for order in (g.order, g.order[::-1]):
            cc = coherent_cotree(Graph(g.vertices, g.head, g.tail, list(order)))
            for s in cc.faces.faces():
                sub = cc.graph.delete(s) if s else cc.graph
                oracle = CycleBasis(sub, cc.C(s))
                tree = sub.eids - cc.C(s)
                walked = {x: fundamental_cycle(sub, tree, x) for x in oracle.cotree}
                rows = cc.cycles(s).rows
                assert rows == oracle.rows == walked, (cc.graph.order, s)
                assert [list(c.items()) for c in rows.values()] \
                    == [list(c.items()) for c in walked.values()]
                faces += 1
    assert faces > 3_000


@pytest.mark.parametrize("cotree", [fs(4, 5, 7), fs(0, 4, 5), fs(4, 5)],
                         ids=["isolates-a-vertex", "meets-the-face", "too-small"])
def test_cycles_reject_a_cotree_that_does_not_span_the_deletion(cotree):
    # at S = {0}, the spoke to vertex 1: without the rim edges 4 (1-2) and
    # 7 (4-1) vertex 1 is cut off, edge 0 is not in Γ∖S, and Γ∖S has genus 3
    s = fs(0)
    cc = coherent_cotree(W4)
    assert cc.cycles(s).rows
    table = dict(cc.table)
    table[s] = cotree
    bad = CoherentCotree(W4, cc.faces, table)
    with pytest.raises(NotACotree):
        bad.cycles(s)
    with pytest.raises(NotACotree):
        CycleBasis(W4.delete(s), cotree)


def test_cycles_build_no_graph(monkeypatch):
    cc = coherent_cotree(K4PP)
    oracle = {s: CycleBasis(K4PP.delete(s), cc.C(s)).rows for s in cc.faces.faces()}

    def refuse(self, edges):
        raise AssertionError("a cycle basis built a graph")

    monkeypatch.setattr(Graph, "delete", refuse)
    assert {s: cc.cycles(s).rows for s in cc.faces.faces()} == oracle


def test_the_deletion_checks_build_no_graph(monkeypatch):
    # the ring's reductions, the cotree invariants, the cycle space and the
    # external activities read Γ∖S in Γ itself
    ctx = GraphContext(W4)
    tops = ctx.faces.levels[W4.genus()]
    walked = {}
    for ct in tops:
        tree = W4.eids - ct
        walked[ct] = frozenset(
            x for x in ct
            if W4.pos(x) == min(map(W4.pos, fundamental_cycle(W4, tree, x))))
    built = []
    init = Graph.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    assert check_ring(ctx)[0]
    assert check_coherence(ctx) == (True, None)
    assert check_cycle_space(ctx) == (True, None)
    assert {ct: external_activity(W4, W4.eids - ct) for ct in tops} == walked
    assert built == []


def test_cycle_space_reports_a_cycle_row_outside_the_kernel(monkeypatch):
    # the last cycle row of each basis loses its last tree edge, whose
    # ends then stay in its boundary; the identity block is unchanged
    class Perturbed(CycleBasis):
        def __init__(self, *args):
            super().__init__(*args)
            x = self.cotree[-1]
            row = dict(self.rows[x])
            del row[[e for e in row if e != x][-1]]
            self.rows = {**self.rows, x: row}

    monkeypatch.setattr(graphs, "CycleBasis", Perturbed)
    assert check_cycle_space(GraphContext(W4)) == (
        False, {"reason": "cycle not in kernel of boundary", "cotree": ["0", "1", "2", "4"]})


def test_a_bond_face_fails_the_cotree_and_cycle_space_checks():
    # theta with a pendant edge 3 (1-2): {3} is a bridge, so a face complex
    # that holds it holds a bond, and no cotree of Γ∖{3} exists to check
    g = build_graph([(0, 1), (0, 1), (0, 1), (1, 2)])
    cc = coherent_cotree(g)
    assert cc.validate()
    faces = FaceComplex.from_faces(g, [*cc.faces.faces(), fs(3)], cc.faces.genus)
    table = dict(cc.table)
    table[fs(3)] = fs(0)
    bad = CoherentCotree(g, faces, table)
    assert not bad.validate()
    ctx = GraphContext(g)
    ctx._cache.update(faces=faces, cc=bad)
    assert check_cycle_space(ctx) == (
        False, {"reason": "genus did not drop by |S|", "face": ["3"]})
