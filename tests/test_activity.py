"""Shelling, coherent cotree tables, In/B, activities, Tutte polynomials."""

import collections
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ckskit import corpus, graphs, ht
from ckskit.activity import (
    coherent_cotree,
    external_activity,
    h_polynomial,
    internal_activity,
    tutte,
    tutte_by_activity,
)
from ckskit.activity import CoherentCotree, Shelling
from ckskit.checks import (
    GraphContext,
    _elimination,
    check_coherence,
    check_cycle_space,
    check_matroid,
    check_ring,
    check_shelling,
)
from ckskit.errors import FaceNotInComplex, NotACotree, NotASpanningTree
from ckskit.graphs import (
    CycleBasis,
    FaceComplex,
    Graph,
    build_graph,
    face_complex,
    fundamental_cycle,
    spanning_tree_count,
    union_find,
)
from ckskit.polynomials import Poly1, Poly2
from test_polynomials import substitute_by_terms

THETA = corpus.theta_graph()
X, Y, Z = 0, 1, 2
THETA6 = build_graph([(0, 1)] * 6)
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
# K4 with the edges 0-1 and 2-3 doubled, genus 5
K4PP = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)])
K5 = build_graph(list(itertools.combinations(range(5), 2)))
# the wheel with hub 0 and rim 1-2-3-4-5, genus 5
W5 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                  (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


def fs(*edges):
    return frozenset(edges)


@pytest.fixture(scope="module")
def theta_cc():
    return coherent_cotree(THETA)


def test_shelling_order_and_restrictions():
    sh = coherent_cotree(THETA).shelling
    assert sh.cotrees == [fs(X, Y), fs(X, Z), fs(Y, Z)]
    assert sh.restriction == {fs(X, Y): fs(), fs(X, Z): fs(Z), fs(Y, Z): fs(Y, Z)}
    # facet 2 first covers {z} and {x, z}, the interval [R, T] of its
    # restriction face; facet 3 adds only itself
    added = oracle_walk(THETA, sh.cotrees)
    assert set(added[1]) == oracle_interval(THETA, fs(X, Z), sh.restriction[fs(X, Z)]) \
        == {fs(Z), fs(X, Z)}
    assert added[2] == [fs(Y, Z)]
    assert check_shelling(GraphContext(THETA)) == (True, {"facets": 3})


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


@pytest.mark.parametrize("activity", [external_activity, internal_activity])
def test_activities_reject_an_edge_set_that_is_not_a_spanning_tree(activity):
    # too few edges, too many, and as many as a tree has but closing a cycle
    g = build_graph([(0, 1), (0, 1), (1, 2)])
    for graph, edges in ((THETA, fs()), (THETA, fs(X, Y)), (g, fs(0, 1))):
        with pytest.raises(NotASpanningTree):
            activity(graph, edges)


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


# the wheel with hub 0 and rim 1-2-3-4-5-6, genus 6
W6 = build_graph([(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)])


def tutte_by_subsets(graph):
    """The rank-nullity sum with a fresh union_find per subset, and the
    term-by-term substitution: the oracle for tutte's walk."""
    n = graph.n_vertices
    counts = collections.Counter()
    for r in range(graph.n_edges + 1):
        for combo in itertools.combinations(graph.order, r):
            k = n - len(union_find(graph.vertices, graph.ends(combo))[1])
            counts[(k - 1, k + r - n)] += 1
    return substitute_by_terms(Poly2(counts), Poly2({(1, 0): 1, (0, 0): -1}),
                               Poly2({(0, 1): 1, (0, 0): -1}))


def test_tutte_walk_matches_the_subset_oracle():
    cases = [g for _, g in corpus.corpus_graphs(bound=6)] + [K5, W6]
    for g in cases:
        assert tutte(g) == tutte_by_subsets(g)


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


@pytest.mark.parametrize("cotree", [fs(4, 5, 7), fs(0, 4, 5), fs(4, 5)],
                         ids=["isolates-a-vertex", "meets-the-face", "too-small"])
def test_edge_records_reject_a_cotree_that_does_not_span_the_deletion(cotree):
    # the records of level 1 read the cycle rows of S = {0} before any
    # coherence test, so the bad cotree is named for what it is
    cc = coherent_cotree(W4)
    table = dict(cc.table)
    table[fs(0)] = cotree
    with pytest.raises(NotACotree):
        ht.HTComplex(W4, CoherentCotree(W4, cc.faces, table)).records(1)


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


# ---------------------------------------------------------------------------
# the shelling walk against the interval-based construction
#
# The oracles are the construction and checks coherent_cotree and
# check_shelling/check_matroid replaced: C(S) read off the restriction
# intervals [R(T), T], the shelling check that rebuilds the faces of the
# first k facets at every step, and basis exchange decided by two
# spanning-cotree tests per candidate.

def subsets(graph, ct):
    members = graph.sort_edges(ct)
    return [frozenset(c) for r in range(len(members) + 1)
            for c in itertools.combinations(members, r)]


def oracle_walk(graph, cotrees):
    """The faces each facet adds to those of the earlier facets, in any
    facet order, each list by size."""
    covered, out = set(), []
    for ct in cotrees:
        new = [s for s in subsets(graph, ct) if s not in covered]
        covered.update(new)
        out.append(new)
    return out


def oracle_restriction(graph, cotrees):
    return {ct: min(new, key=len, default=frozenset())
            for ct, new in zip(cotrees, oracle_walk(graph, cotrees))}


def oracle_interval(graph, ct, rest):
    """Everything between R(T) and T."""
    free = graph.sort_edges(ct - rest)
    return {rest | frozenset(extra)
            for r in range(len(free) + 1) for extra in itertools.combinations(free, r)}


def oracle_partial_complex(graph, cotrees, k):
    return {s for ct in cotrees[:k] for s in subsets(graph, ct)}


def oracle_table(faces):
    """C(S) = T − S for the facet T whose restriction interval holds S."""
    graph, cotrees = faces.graph, faces.levels[faces.genus]
    restriction = oracle_restriction(graph, cotrees)
    step = {s: ct for ct in cotrees for s in oracle_interval(graph, ct, restriction[ct])}
    assert set(step) == set(faces.faces())
    return {s: step[s] - s for s in faces.faces()}


def oracle_check_shelling(graph, sh):
    for k in range(2, len(sh.cotrees) + 1):
        ct = sh.cotrees[k - 1]
        prev = oracle_partial_complex(graph, sh.cotrees, k - 1)
        inter = [s for s in subsets(graph, ct) if s in prev]
        maximal = [s for s in inter if not any(s < t for t in inter)]
        if any(len(s) != len(ct) - 1 for s in maximal):
            return False, {"step": k, "reason": "intersection not pure of codim 1"}
        rest = sh.restriction[ct]
        new = oracle_interval(graph, ct, rest)
        if new != {s for s in subsets(graph, ct) if rest <= s}:
            return False, {"step": k, "reason": "restriction interval mismatch"}
        if oracle_partial_complex(graph, sh.cotrees, k) != prev | new:
            return False, {"step": k, "reason": "partial complex mismatch"}
    return True, {"facets": len(sh.cotrees)}


def oracle_check_matroid(ctx):
    for family, note in ((ctx.cycles, "cycles"), (ctx.bonds, "bonds")):
        ok, wit = _elimination(ctx.graph, family, note)
        if not ok:
            return False, wit
    cotrees = graphs.spanning_cotrees(ctx.graph)
    d = ctx.graph.genus()
    if any(len(t) != d for t in cotrees):
        return False, {"reason": "cotree of wrong cardinality"}
    if set(ctx.faces.levels[d]) != set(cotrees):
        return False, {"reason": "top faces differ from spanning cotrees"}
    for a, b in itertools.permutations(cotrees, 2):
        for x in ctx.graph.sort_edges(a - b):
            if not any(graphs.is_spanning_cotree(ctx.graph, (a - {x}) | {y})
                       and graphs.is_spanning_cotree(ctx.graph, (b - {y}) | {x})
                       for y in b - a):
                return False, {"reason": "basis exchange failed",
                               "pair": (sorted(map(str, a)), sorted(map(str, b))),
                               "element": str(x)}
    return True, {"cycles": len(ctx.cycles), "bonds": len(ctx.bonds),
                  "cotrees": len(cotrees)}


@pytest.mark.parametrize("cases", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [THETA6], [K5], [W5],
], ids=["corpus5", "theta6", "k5", "w5"])
def test_the_shelling_walk_agrees_with_the_interval_oracles(cases, monkeypatch):
    calls = []
    spanning = graphs.is_spanning_cotree
    monkeypatch.setattr(graphs, "is_spanning_cotree",
                        lambda *args: calls.append(args) or spanning(*args))
    for g in cases:
        for order in (g.order, g.order[::-1]):
            ctx = GraphContext(Graph(g.vertices, g.head, g.tail, list(order)))
            sh = ctx.cc.shelling
            assert ctx.cc.table == oracle_table(ctx.faces)
            assert sh.restriction == oracle_restriction(ctx.graph, sh.cotrees)
            assert check_shelling(ctx) == oracle_check_shelling(ctx.graph, sh)
            calls.clear()
            result = check_matroid(ctx)
            assert calls == []
            assert result == oracle_check_matroid(ctx)


# a labelled graph: its edge ids are strings, whose set order follows the
# hash seed.  K4 on u, v, w, z has 6 edges and genus 3.  Each family fails
# on its first pair, which shares or differs in three edges; the witness
# is the least of them in the edge order c, b, a, d, e, f, that is c.
MATROID_WITNESS_SCRIPT = """
import json
from ckskit import checks, graphs
from ckskit.graphs import FaceComplex, Graph

ends = {"a": "uv", "b": "uw", "c": "uz", "d": "vw", "e": "vz", "f": "wz"}
g = Graph("uvwz", {e: h for e, (h, _) in ends.items()},
          {e: t for e, (_, t) in ends.items()}, list("cbadef"))
out = []
for key in ("cycles", "bonds"):
    ctx = checks.GraphContext(g)
    ctx._cache[key] = [frozenset("abcd"), frozenset("abce")]
    ctx._cache["cycles" if key == "bonds" else "bonds"] = []
    out.append(checks.check_matroid(ctx))
cotrees = [frozenset("abc"), frozenset("def")]
graphs.spanning_cotrees = lambda graph: cotrees
ctx = checks.GraphContext(g)
ctx._cache.update(cycles=[], bonds=[])
ctx._cache["faces"] = FaceComplex(g, [[frozenset()], [], [], cotrees])
out.append(checks.check_matroid(ctx))
print(json.dumps(out))
"""


def test_matroid_witnesses_do_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", MATROID_WITNESS_SCRIPT],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    pair = [["a", "b", "c", "d"], ["a", "b", "c", "e"]]
    assert json.loads(outs[0]) == [
        [False, {"pair": pair, "edge": "c", "family": "cycles"}],
        [False, {"pair": pair, "edge": "c", "family": "bonds"}],
        [False, {"reason": "basis exchange failed",
                 "pair": [["a", "b", "c"], ["d", "e", "f"]], "element": "c"}],
    ]


def test_basis_exchange_must_be_symmetric(monkeypatch):
    # A - x + y is a member for every x in A and y in B, but B - y + x
    # never is: the one-sided exchange holds for (A, B), the symmetric one
    # fails there first, at the least edge of A
    g = corpus.k4_graph()
    a, b = fs(0, 1, 2), fs(3, 4, 5)
    cotrees = [a, b] + [(a - {x}) | {y} for x in a for y in b]
    monkeypatch.setattr(graphs, "spanning_cotrees", lambda graph: cotrees)
    ctx = GraphContext(g)
    ctx._cache.update(cycles=[], bonds=[],
                      faces=FaceComplex(g, [[fs()], [], [], cotrees]))
    assert check_matroid(ctx) == (False, {
        "reason": "basis exchange failed",
        "pair": (["0", "1", "2"], ["3", "4", "5"]), "element": "0"})


def with_shelling(graph, cotrees, restriction):
    ctx = GraphContext(graph)
    ctx.cc.shelling = Shelling(cotrees, restriction)
    return ctx


def test_a_wrong_restriction_value_fails_as_in_the_oracle():
    # R(T2) = T2 instead of {z}: T2 adds {z}, outside [T2, T2]
    cotrees = face_complex(THETA).levels[2]
    rest = {**oracle_restriction(THETA, cotrees), fs(X, Z): fs(X, Z)}
    expected = (False, {"step": 2, "reason": "partial complex mismatch"})
    assert oracle_check_shelling(THETA, Shelling(cotrees, rest)) == expected
    assert check_shelling(with_shelling(THETA, cotrees, rest)) == expected


def test_an_impure_intersection_fails_as_in_the_oracle():
    # in K4 the cotree {01, 12, 23} is the complement of the spanning tree
    # {02, 03, 13} and vice versa: put them first, the second meets the
    # first in the empty face alone
    k4 = corpus.k4_graph()
    first, second = fs(0, 3, 5), fs(1, 2, 4)
    tops = face_complex(k4).levels[3]
    assert first in tops and second in tops
    cotrees = [first, second] + [t for t in tops if t not in (first, second)]
    rest = oracle_restriction(k4, cotrees)
    expected = (False, {"step": 2, "reason": "intersection not pure of codim 1"})
    assert oracle_check_shelling(k4, Shelling(cotrees, rest)) == expected
    assert check_shelling(with_shelling(k4, cotrees, rest)) == expected


def test_a_restriction_interval_that_meets_an_earlier_facet_fails():
    # R(T2) = ∅: [∅, {x, z}] holds ∅ and {x}, which T1 = {x, y} covers.  The
    # oracle reads its interval off the restriction face and passes; the
    # walk collects what T2 really adds and refuses, the intended tightening
    cotrees = face_complex(THETA).levels[2]
    rest = {**oracle_restriction(THETA, cotrees), fs(X, Z): fs()}
    assert oracle_check_shelling(THETA, Shelling(cotrees, rest)) == (True, {"facets": 3})
    assert check_shelling(with_shelling(THETA, cotrees, rest)) == (
        False, {"step": 2, "reason": "restriction interval mismatch"})


@pytest.mark.parametrize("graph", [THETA, corpus.k4_graph(), W4], ids=["theta", "k4", "w4"])
def test_the_ring_check_multiplies_each_pair_once(graph, monkeypatch):
    # the n unit products and both orders of each of the n(n + 1)/2 pairs
    # are multiplied, and nothing else; associativity multiplies pairs of
    # basis monomials again, but RRing.multiply reduces each σ once (below)
    calls = []
    multiply = ht.RRing.multiply
    monkeypatch.setattr(ht.RRing, "multiply",
                        lambda self, *args: calls.append(args) or multiply(self, *args))
    ok, payload = check_ring(GraphContext(graph))
    flat = ring_basis(graph)
    assert ok and len(flat) == sum(payload["dims"])
    units = {(fs(), s) for s in flat}
    pairs = {(a, b) for a, b in itertools.combinations_with_replacement(flat, 2)}
    assert set(calls) == units | pairs | {(b, a) for a, b in pairs}


@pytest.mark.parametrize("graph, sigmas", [(THETA, 6), (corpus.k4_graph(), 100), (W4, 590)],
                         ids=["theta", "k4", "w4"])
def test_the_ring_reduces_each_exponent_multiset_once(graph, sigmas, monkeypatch):
    # a product depends only on the exponent multiset σ of the pair, so
    # RRing.multiply reduces each σ once, whichever order or pair gives it
    calls = []
    reduce_monomial = ht.reduce_monomial
    monkeypatch.setattr(ht, "reduce_monomial",
                        lambda h, sigma: calls.append(sigma) or reduce_monomial(h, sigma))
    ok, _ = check_ring(GraphContext(graph))
    assert ok
    flat = [s for level in coherent_cotree(graph).basis_by_degree() for s in level]
    pairs = [(fs(), s) for s in flat] + list(itertools.combinations_with_replacement(flat, 2))
    distinct = {frozenset(collections.Counter(itertools.chain(a, b)).items()) for a, b in pairs}
    assert len(calls) == len(distinct) == sigmas


def ring_basis(graph):
    return [s for level in coherent_cotree(graph).basis_by_degree() for s in level]


def patch_multiply(monkeypatch, fault):
    """Make RRing.multiply return fault(sa, sb, product) in place of its
    product."""
    multiply = ht.RRing.multiply
    monkeypatch.setattr(ht.RRing, "multiply",
                        lambda self, sa, sb: fault(sa, sb, multiply(self, sa, sb)))


@pytest.mark.parametrize("graph, element", [(THETA, ["1", "2"]),
                                            (corpus.k4_graph(), ["3", "4", "5"]),
                                            (W4, ["4", "5", "6", "7"])],
                         ids=["theta", "k4", "w4"])
def test_the_ring_check_reports_a_broken_unit_law(graph, element, monkeypatch):
    # 1 · b is 0 for the last basis monomial b
    top = ring_basis(graph)[-1]
    patch_multiply(monkeypatch, lambda sa, sb, ab: {} if not sa and sb == top else ab)
    assert check_ring(GraphContext(graph)) == (
        False, {"reason": "unit law failed", "element": element})


@pytest.mark.parametrize("graph, pair", [(THETA, (["2"], ["1", "2"])),
                                         (corpus.k4_graph(), (["2"], ["3", "4", "5"])),
                                         (W4, (["3"], ["4", "5", "6", "7"]))],
                         ids=["theta", "k4", "w4"])
def test_the_ring_check_reports_a_product_that_is_not_commutative(graph, pair, monkeypatch):
    # b · a is a, of lower degree than a · b, for the first monomial a of
    # degree 1 and the last basis monomial b
    flat = ring_basis(graph)
    a, b = flat[1], flat[-1]
    patch_multiply(monkeypatch, lambda sa, sb, ab: {a: 1} if (sa, sb) == (b, a) else ab)
    assert check_ring(GraphContext(graph)) == (
        False, {"reason": "not commutative", "pair": pair})


@pytest.mark.parametrize("graph", [THETA, corpus.k4_graph(), W4], ids=["theta", "k4", "w4"])
def test_the_ring_check_reports_a_product_that_is_not_degree_additive(graph, monkeypatch):
    # every monomial with a square reduces to 1; the unit products have none
    reduce_monomial = ht.reduce_monomial
    monkeypatch.setattr(ht, "reduce_monomial", lambda h, sigma: (
        {fs(): 1} if 2 in sigma.values() else reduce_monomial(h, sigma)))
    assert check_ring(GraphContext(graph)) == (False, {"reason": "not degree-additive"})


@pytest.mark.parametrize("graph, triple", [(corpus.k4_graph(), (["2"], ["2"], ["4"])),
                                           (W4, (["3"], ["3"], ["5"]))],
                         ids=["k4", "w4"])
def test_the_ring_check_reports_a_product_that_is_not_associative(graph, triple, monkeypatch):
    # a · b is doubled, in both orders, for the first two monomials a, b of
    # degree 1: then (a · a) · b is not (a · b) · a.  On THETA no such fault
    # exists: its basis is 1, z, yz, and with the unit law, commutativity
    # and degree additivity every triple the check reads has equal sides
    flat = ring_basis(graph)
    a, b = flat[1], flat[2]
    patch_multiply(monkeypatch, lambda sa, sb, ab: (
        {k: 2 * v for k, v in ab.items()} if {sa, sb} == {a, b} else ab))
    assert check_ring(GraphContext(graph)) == (
        False, {"reason": "not associative", "triple": triple})


# ---------------------------------------------------------------------------
# CoherentCotree.validate against the all-subsets walk

def validate_by_all_subsets(cc):
    """The all-subsets form of CoherentCotree.validate: the cotree and
    one-edge-up conditions at every face, then C(S1) ⊆ C(S2) for every
    subset S2 of every face S1.  Returns (the cotree conditions hold, the
    verdict)."""
    d = cc.faces.genus
    for s in cc.faces.faces():
        c = cc.table[s]
        if len(c) != d - len(s) or not graphs.is_spanning_cotree(cc.graph, s | c):
            return False, False
        for x in c:
            if cc.table[s | {x}] != c - {x}:
                return False, False
    for s1 in cc.faces.faces():
        members = cc.graph.sort_edges(s1)
        for r in range(len(members) + 1):
            for sub in itertools.combinations(members, r):
                if not cc.table[s1] <= cc.table[frozenset(sub)]:
                    return True, False
    return True, True


def test_validate_agrees_with_the_all_subsets_walk():
    # every table that differs from the coherent one at a single face S,
    # where it holds T − S for another facet T ⊇ S instead
    graphs_ = [g for _, g in corpus.corpus_graphs(bound=4)] + [corpus.k4_graph(), W4]
    outcomes = collections.Counter()
    for g in graphs_:
        cc = coherent_cotree(g)
        assert cc.validate() and validate_by_all_subsets(cc) == (True, True)
        facets = cc.faces.levels[cc.faces.genus]
        for s in cc.faces.faces():
            for t in facets:
                if s <= t and t - s != cc.table[s]:
                    bad = CoherentCotree(g, cc.faces, {**cc.table, s: t - s})
                    conditions, verdict = validate_by_all_subsets(bad)
                    assert bad.validate() == verdict, (g.order, s, t)
                    outcomes[conditions, verdict] += 1
    # some perturbations meet the cotree conditions and fail only the
    # compatibility, where the two walks differ
    assert outcomes[True, False] > 0 and outcomes[False, False] > 0
    assert outcomes[True, True] > 0
