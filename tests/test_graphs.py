"""Graph core: parsing, matroid queries, cycle bases, genericity."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit import corpus
from ckskit.activity import _fundamental_cut
from ckskit.checks import (
    PERIODIZE_EDGE_LIMIT,
    GraphContext,
    check_matroid,
    check_unimodular,
)
from ckskit.errors import (
    BondDeletion,
    DisconnectedGraph,
    EmptyGraph,
    NotACotree,
    ParseError,
)
from ckskit.graphs import (
    CycleBasis,
    FaceComplex,
    Graph,
    build_graph,
    closure,
    contains_bond,
    enumerate_bonds,
    enumerate_cycles,
    face_complex,
    fundamental_cycle,
    graph_from_dsl,
    graph_from_json,
    is_independent,
    is_spanning_cotree,
    is_spanning_tree,
    spanning_cotrees,
    spanning_tree_count,
    union_find,
    wedge,
)
from ckskit.intlinalg import det, rank
from ckskit.periodize import NATIVE_MAX_EDGES, PeriodizedGraph
from test_activity import K5, W4, W5
from test_cks import solve_exact

THETA = corpus.theta_graph()
X, Y, Z = 0, 1, 2


def fs(*edges):
    return frozenset(edges)


def same_labeled(g, h):
    """Equality as labeled graphs: same edges, order, and incidences
    up to the identification of merged vertices."""
    return g.order == h.order and all(
        g.head[e] == h.head[e] and g.tail[e] == h.tail[e] for e in g.order)


def boundary_matrix(graph):
    """Vertex-by-edge incidence matrix: edge e contributes +1 at its head
    and -1 at its tail (loops give zero columns)."""
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    m = [[0] * graph.n_edges for _ in graph.vertices]
    for j, e in enumerate(graph.order):
        m[vidx[graph.head[e]]][j] += 1
        m[vidx[graph.tail[e]]][j] -= 1
    return m


def test_build_graph_basics():
    g = THETA
    assert g.n_vertices == 2 and g.n_edges == 3 and g.genus() == 2
    assert g.sort_edges({Z, X}) == [X, Z]
    assert not g.is_loop(X)
    assert corpus.loop_graph().is_loop(0)


def test_build_graph_rejects_bad_input():
    with pytest.raises(EmptyGraph):
        build_graph([])
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        build_graph([(0, 1), (0, 1)], edge_order=[0, 0])
    # a repeated vertex would hold a bit of the vertex mask no edge reaches
    with pytest.raises(ValueError, match="duplicate vertices"):
        Graph(["a", "b", "a"], {0: "a"}, {0: "b"}, [0])


def test_dsl_and_json_parsing():
    g = graph_from_dsl("v0-v1 v0-v1 v0-v1")
    assert g.n_edges == 3 and g.genus() == 2
    assert graph_from_dsl("a:0-1 b:1-2").n_vertices == 3
    with pytest.raises(ParseError):
        graph_from_dsl("")
    with pytest.raises(ParseError):
        graph_from_dsl("v0=v1")
    with pytest.raises(ParseError):
        graph_from_json("not json")
    with pytest.raises(ParseError):
        graph_from_json('{"edges": [[0, 1], [2, 3]]}')


def graph_to_json(graph):
    """Canonical byte-stable serialization (inverse of graph_from_json for
    graphs built by build_graph)."""
    vmap = {v: i for i, v in enumerate(graph.vertices)}
    eids = sorted(graph.eids, key=str)
    payload = {
        "vertices": graph.n_vertices,
        "edges": [[vmap[graph.head[e]], vmap[graph.tail[e]]] for e in eids],
        "order": [graph.pos(e) for e in eids],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_json_roundtrip_is_deterministic():
    text = graph_to_json(THETA)
    g2 = graph_from_json(text)
    assert same_labeled(g2, THETA)
    assert graph_to_json(g2) == text


def test_delete_contract():
    g = THETA
    assert g.delete({Z}).n_edges == 2
    assert g.contract({Z}).genus() == 2  # both survivors become loops
    with pytest.raises(BondDeletion):
        corpus.bridge_graph().delete({0})
    # a bridge between two loops: the rest keeps edges but falls apart
    with pytest.raises(BondDeletion):
        build_graph([(0, 0), (0, 1), (1, 1)]).delete({1})
    # deleting every edge of an all-loops graph leaves the one-vertex graph
    empty = corpus.loop_graph().delete({0})
    assert empty.n_edges == 0 and empty.n_vertices == 1 and empty.genus() == 0


def test_cycles_and_bonds_theta():
    cycles = set(enumerate_cycles(THETA))
    assert cycles == {fs(X, Y), fs(X, Z), fs(Y, Z)}
    assert enumerate_bonds(THETA) == [fs(X, Y, Z)]
    assert contains_bond(THETA, {X, Y, Z})
    assert not contains_bond(THETA, {X, Y})


def test_face_complex_theta():
    faces = face_complex(THETA)
    assert [len(level) for level in faces.levels] == [1, 3, 3]
    assert fs(X, Y) in faces and fs(X, Y, Z) not in faces
    assert faces.levels[2] == [fs(X, Y), fs(X, Z), fs(Y, Z)]
    assert set(faces.levels[2]) == set(spanning_cotrees(THETA))


def test_face_positions_follow_the_level_order():
    # d_matrix places face S's block at position[S] times the block size
    for _, g in corpus.corpus_graphs(bound=4):
        faces = face_complex(g)
        assert len(faces.position) == len(faces) == sum(map(len, faces.levels))
        for level in faces.levels:
            assert [faces.position[s] for s in level] == list(range(len(level)))
            assert all(set(s) in faces for s in level)


def face_complex_by_subsets(graph):
    """The levels of the face complex as every k-subset of the edges with
    no bond, k = 0..genus, in lexicographic order of the edge order: the
    oracle for face_complex, which grows each level from the last."""
    edges = graph.sort_edges(graph.eids)
    return [[frozenset(c) for c in itertools.combinations(edges, k)
             if not contains_bond(graph, c)]
            for k in range(graph.genus() + 1)]


def test_face_complex_matches_the_subset_walk_on_the_corpus():
    for _, g in corpus.corpus_graphs(bound=6):
        for order in (g.order, g.order[::-1]):
            h = Graph(g.vertices, g.head, g.tail, list(order))
            assert face_complex(h).levels == face_complex_by_subsets(h)


def test_face_complex_matches_the_subset_walk_on_level_1_periodizations():
    # native_face_check enumerates these: level 1 of every graph that
    # check_periodize periodizes, 3|E| <= NATIVE_MAX_EDGES edges
    cases = [PeriodizedGraph(g, 1).graph
             for _, g in corpus.corpus_graphs(bound=PERIODIZE_EDGE_LIMIT)
             if g.n_edges <= PERIODIZE_EDGE_LIMIT]
    assert len(cases) == 47 and all(pg.n_edges <= NATIVE_MAX_EDGES for pg in cases)
    for pg in cases:
        assert face_complex(pg).levels == face_complex_by_subsets(pg)


def test_spanning_cotrees_do_not_read_the_face_complex(monkeypatch):
    # check_matroid compares the two enumerations, so neither may be the
    # other's output
    from ckskit import graphs
    cases = [g for _, g in corpus.corpus_graphs(bound=4)] + [K5, W4]
    tops = [face_complex(g).levels[g.genus()] for g in cases]

    def refuse(graph):
        raise AssertionError("spanning_cotrees read the face complex")

    monkeypatch.setattr(graphs, "face_complex", refuse)
    assert [spanning_cotrees(g) for g in cases] == tops


def test_matroid_reports_a_top_face_the_face_complex_skipped(monkeypatch):
    # a face_complex whose last extension step drops one top face
    from ckskit import graphs
    grown = graphs.face_complex

    def skipping(graph):
        levels = grown(graph).levels
        return FaceComplex(graph, levels[:-1] + [levels[-1][1:]])

    monkeypatch.setattr(graphs, "face_complex", skipping)
    for g in (THETA, corpus.k4_graph(), W4):
        assert check_matroid(GraphContext(g)) == (
            False, {"reason": "top faces differ from spanning cotrees"})


def test_loop_graph_faces():
    faces = face_complex(corpus.loop_graph())
    assert [len(level) for level in faces.levels] == [1, 1]


def test_spanning_tree_predicates():
    assert is_spanning_tree(THETA, {X})
    assert not is_spanning_tree(THETA, {X, Y})
    assert is_spanning_cotree(THETA, {Y, Z})
    assert not is_spanning_cotree(THETA, {Y})


def test_boundary_matrix_and_cycles():
    bd = boundary_matrix(THETA)
    assert len(bd) == 2 and len(bd[0]) == 3
    cyc = fundamental_cycle(THETA, fs(Z), X)
    assert cyc[X] == 1 and set(cyc) == {X, Z}
    # loops give their own one-edge cycle
    assert fundamental_cycle(corpus.loop_graph(), fs(), 0) == {0: 1}


def test_cycle_basis_identity_block():
    cb = CycleBasis(THETA, fs(X, Y))
    assert cb.pairing({X, Y}) == [[1, 0], [0, 1]]
    assert all(v in (-1, 0, 1) for row in cb.pairing(THETA.eids) for v in row)
    with pytest.raises(NotACotree):
        CycleBasis(THETA, fs(X))


def test_cycle_space_reads_the_cotrees_of_the_face_complex(monkeypatch):
    # the top level of the face complex is the spanning cotrees, in the
    # same order, so check_cycle_space enumerates none
    from ckskit import checks, graphs
    cases = [g for _, g in corpus.corpus_graphs(bound=4)]
    for g in cases:
        assert face_complex(g).levels[g.genus()] == spanning_cotrees(g)
    monkeypatch.setattr(graphs, "spanning_cotrees",
                        lambda g: pytest.fail("enumerated the cotrees again"))
    for g in cases:
        assert checks.check_cycle_space(checks.GraphContext(g)) == (True, None)


def unimodular_by_all_minors(full, n_cols):
    """The all-minors form of check_unimodular: every square minor of the
    matrix, of every size, is -1, 0 or 1."""
    rows = len(full)
    for k in range(1, min(rows, n_cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(n_cols), k):
                if det([[full[i][j] for j in ci] for i in ri]) not in (-1, 0, 1):
                    return False
    return True


def assert_unimodular_agrees(ctx):
    """check_unimodular and the all-minors oracle give the same verdict,
    and a failing g × g witness minor has the determinant it reports."""
    full = ctx.cc.cycles(frozenset()).pairing(ctx.graph.eids)
    ok, witness = check_unimodular(ctx)
    assert ok == unimodular_by_all_minors(full, ctx.graph.n_edges), witness
    if not ok:
        assert witness["det"] not in (-1, 0, 1)
        assert det([[row[j] for j in witness["cols"]] for row in full]) == witness["det"]
    return ok


def test_unimodular_agrees_with_all_minors_on_the_corpus():
    for _, g in corpus.corpus_graphs(bound=6):
        for order in (g.order, g.order[::-1]):
            assert assert_unimodular_agrees(GraphContext(Graph(g.vertices, g.head, g.tail, order)))


def identity_block_context(rows, cotree, n_edges):
    """A GraphContext stand-in over the edges 0..n_edges-1 whose reference
    cycle basis has the given rows (cotree edge -> {edge: entry})."""
    basis = SimpleNamespace(rows=rows, cotree=cotree, pairing=lambda edges: [
        [rows[x].get(e, 0) for e in sorted(edges)] for x in cotree])
    return SimpleNamespace(graph=SimpleNamespace(eids=frozenset(range(n_edges)), n_edges=n_edges),
                           cc=SimpleNamespace(cycles=lambda s: basis))


def test_unimodular_agrees_with_all_minors_on_random_identity_blocks():
    # entries in {-1, 0, 1}, so every failure is a minor of size 2 or more
    rng = random.Random(19)
    verdicts = []
    for _ in range(1000):
        g = rng.randint(1, 5)
        n = g + rng.randint(0, 5)
        cotree = tuple(sorted(rng.sample(range(n), g)))
        rows = {x: {e: 1 if e == x else rng.choice((-1, 0, 0, 1))
                    for e in range(n) if e == x or e not in cotree} for x in cotree}
        verdicts.append(assert_unimodular_agrees(identity_block_context(rows, cotree, n)))
    assert 100 < verdicts.count(False) < 900


@pytest.mark.parametrize("graph", [corpus.k4_graph(), W4], ids=["k4", "w4"])
def test_unimodular_reports_a_perturbed_pairing(graph):
    ctx = GraphContext(graph)
    cb = ctx.cc.cycles(frozenset())
    # an entry 2 in the cycle of x at a tree edge e: swapping x for e in
    # C(∅) gives a minor ±2
    x, y = cb.cotree[:2]
    cb.rows[x][graph.sort_edges(graph.eids - set(cb.cotree))[0]] = 2
    assert not assert_unimodular_agrees(ctx)
    # the entry 1 at another cotree edge breaks the identity block
    cb.rows[x][y] = 1
    assert check_unimodular(ctx) == (False, {"reason": "no identity block",
                                             "cotree": sorted(map(str, cb.cotree))})


@pytest.mark.parametrize("graph", [K5, W5, build_graph([(0, 1)] * 8)],
                         ids=["k5", "w5", "theta8"])
def test_unimodular_runs_past_six_edges(graph):
    assert check_unimodular(GraphContext(graph)) == (True, None)


def test_spanning_tree_count():
    assert spanning_tree_count(THETA) == 3
    assert spanning_tree_count(corpus.k4_graph()) == 16
    assert spanning_tree_count(corpus.loop_graph()) == 1


def test_wedge_graph():
    w = wedge(corpus.loop_graph(), corpus.loop_graph())
    assert w.n_vertices == 1 and w.n_edges == 2 and w.genus() == 2


def is_generic_character(graph, theta):
    """Decide whether an integer edge vector avoids every non-generic
    incidence of the associated hyperplane arrangement.

    For each spanning cotree T*, the system <p, x> = theta_x (x in T*) has a
    unique solution p in the cycle space.  The fundamental cycles gamma_x
    of T* restrict to the identity on T*, so p = sum of theta_x gamma_x
    over x in T*, integral by construction, and nothing is solved.  The
    character is generic iff no such p also satisfies <p, e> = theta_e for
    an edge e outside T*.  Returns (bool, violations) where violations
    lists (cotree, edge) witnesses, cotree by cotree in enumeration order
    and edge by edge in the edge order.
    """
    if isinstance(theta, (list, tuple)):
        theta = {e: theta[i] for i, e in enumerate(graph.order)}
    if graph.genus() == 0:
        return True, []
    violations = []
    for ct in spanning_cotrees(graph):
        rows = CycleBasis(graph, ct).rows
        for e in graph.sort_edges(graph.eids - frozenset(ct)):
            if sum(theta[x] * rows[x].get(e, 0) for x in rows) == theta[e]:
                violations.append((frozenset(ct), e))
    return not violations, violations


def test_generic_character_theta():
    ok, violations = is_generic_character(THETA, [0, 0, 0])
    assert not ok and violations
    ok, violations = is_generic_character(THETA, [0, 0, 1])
    assert ok and not violations
    # genus zero: every character is generic
    assert is_generic_character(corpus.bridge_graph(), [5]) == (True, [])


def is_generic_character_by_solving(graph, theta):
    """Oracle for is_generic_character: each cotree system <p, x> =
    theta_x (x in T*) is solved over Q in the basis of the cycles of one
    reference cotree, asserting that p is integral, and p is then read on
    the edges outside T*."""
    if graph.genus() == 0:
        return True, []
    cotrees = spanning_cotrees(graph)
    ref = CycleBasis(graph, cotrees[0])
    basis = list(ref.cotree)
    violations = []
    for ct in cotrees:
        cols = graph.sort_edges(ct)
        a = [[ref.rows[y].get(x, 0) for y in basis] for x in cols]
        p = dict(zip(basis, solve_exact(a, [theta[x] for x in cols])))
        assert all(c.denominator == 1 for c in p.values())
        for e in graph.sort_edges(graph.eids - frozenset(ct)):
            if sum(p[y] * ref.rows[y].get(e, 0) for y in basis) == theta[e]:
                violations.append((frozenset(ct), e))
    return not violations, violations


def test_generic_character_matches_the_solved_systems():
    # seeded characters with entries in [-2, 2] over the bound-5 corpus;
    # small entries make many of them non-generic
    rng = random.Random(5)
    verdicts = set()
    for _, g in corpus.corpus_graphs(bound=5):
        for _ in range(3):
            theta = [rng.randint(-2, 2) for _ in g.order]
            got = is_generic_character(g, theta)
            assert got == is_generic_character_by_solving(
                g, dict(zip(g.order, theta))), (g.order, theta)
            verdicts.add(got[0])
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the connectivity helper against rank over Q of the boundary matrix

@st.composite
def small_multigraphs(draw):
    """n vertices and up to 8 random (head, tail) pairs, loops and
    parallel pairs allowed, not necessarily connected."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=8))


def _columns(mat, js):
    return [[row[j] for j in js] for row in mat]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_multigraphs())
def test_connectivity_helper_matches_boundary_rank(case):
    # |V| - rank(boundary) counts components; edges form a forest iff
    # their boundary columns are independent
    n, pairs = case
    m = len(pairs)
    # the random pairs are edges 0..m-1; a path through all vertices,
    # ordered after them, makes the graph connected
    ends = pairs + [(v, v + 1) for v in range(n - 1)]
    g = Graph(range(n), {i: a for i, (a, _) in enumerate(ends)},
              {i: b for i, (_, b) in enumerate(ends)}, range(len(ends)))
    bd = boundary_matrix(g)
    r = rank(_columns(bd, range(m)))

    find, merged = union_find(range(n), pairs)
    assert len({find(v) for v in range(n)}) == n - r
    assert len(merged) == r and rank(_columns(bd, merged)) == r
    assert all(find(a) == find(b) for a, b in pairs)
    # the mask kernel: each closure of a vertex bit is one class
    masks = [g.mask[i] for i in range(m)]
    assert masks == [1 << a | 1 << b for a, b in pairs]
    for v in range(n):
        cls = sum(1 << w for w in range(n) if find(w) == find(v))
        assert closure(1 << v, masks) == cls
    assert (closure(1, masks) == g.full) == (n - r == 1)
    assert is_independent(g, range(m)) == (r == m)
    assert is_spanning_tree(g, range(m)) == (r == m == n - 1)
    assert g.contract(range(m)).n_vertices == n - r

    # a spanning tree avoiding the first non-bridge edge, as the forest
    # that union_find merges over the other edges (reduce_monomial's tree),
    # and the fundamental cut of each of its edges: x crosses the cut of t
    # iff (tree - t) + x has full rank again
    edges = list(g.order)
    nonbridge = [e for e in edges
                 if rank(_columns(bd, [x for x in edges if x != e])) == n - 1]
    if not nonbridge:
        return
    e = nonbridge[0]
    rest = [x for x in edges if x != e]
    _, merged = union_find(g.vertices, g.ends(rest))
    assert not contains_bond(g, {e})
    tree = frozenset(rest[i] for i in merged)
    assert e not in tree and len(tree) == n - 1
    assert rank(_columns(bd, sorted(tree))) == n - 1
    for t in tree:
        cut = _fundamental_cut(g, tree, t)
        for x in edges:
            reconnects = rank(_columns(bd, sorted((tree - {t}) | {x}))) == n - 1
            assert (x in cut) == reconnects, (t, x)
