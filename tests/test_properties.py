"""Properties on random small connected multigraphs in random edge orders:
the Tutte routes agree, h_hat is the loop specialization, the Euler
table does not depend on the edge order, the periodization checks pass,
and d_matrix is the element-wise differential."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit.activity import tutte, tutte_by_activity
from ckskit.checks import GraphContext, run_checks
from ckskit.cks import build_cks, euler_table, h_hat, tutte_loop_specialization
from ckskit.graphs import build_graph
from ckskit.ht import HTComplex
from ckskit.intlinalg import dense, map_matrix

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def edge_lists(draw, max_vertices=4, max_edges=5):
    """A connected edge list: a random spanning tree plus random loops and
    parallel or extra edges, shuffled."""
    n = draw(st.integers(1, max_vertices))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), min_size=1 if n == 1 else 0,
                          max_size=max_edges - len(tree)))
    return draw(st.permutations(tree + extra))


def ordered(edges, data):
    """The graph of an edge list under a random total order on its edges."""
    return build_graph(edges, edge_order=data.draw(st.permutations(range(len(edges)))))


@SETTINGS
@given(edge_lists(), st.data())
def test_tutte_routes_agree(edges, data):
    g = ordered(edges, data)
    t = tutte(g)
    assert tutte_by_activity(g) == t
    ctx = GraphContext(g)
    for e in ctx.admissible_edges():
        deleted, contracted = ctx.tutte_delcon(e)
        assert deleted + contracted == t


@SETTINGS
@given(edge_lists(), st.data())
def test_h_hat_is_the_loop_specialization(edges, data):
    g = ordered(edges, data)
    assert h_hat(g) == tutte_loop_specialization(tutte(g))


@SETTINGS
@given(edge_lists(), st.data())
def test_euler_table_ignores_the_edge_order(edges, data):
    assert euler_table(ordered(edges, data)) == euler_table(ordered(edges, data))


@settings(SETTINGS, max_examples=100)
@given(edge_lists(max_edges=4), st.data())
def test_periodization_checks_pass(edges, data):
    report = run_checks(ordered(edges, data), ["periodize"])["periodize"]
    assert report["passed"], report


@settings(SETTINGS, max_examples=100)
@given(edge_lists(), st.data())
def test_d_matrix_is_the_element_wise_differential(edges, data):
    cks = build_cks(ordered(edges, data))
    d = cks.genus
    pieces = [(p, q) for p in range(d + 1) for q in range(d - p + 1)]
    for c, keys in ((HTComplex(cks.graph, cks.cc), pieces),
                    (cks, [(p, q, r) for p, q in pieces for r in range(d - p + 1)])):
        for p, q, *r in keys:
            assert c.d_matrix(p, q, *r) == dense(map_matrix(
                c.basis(p, q, *r), c.index(p + 1, q - 1, *r),
                lambda b: c.d_element(*b)), c.dim(p + 1, q - 1, *r), c.dim(p, q, *r)), \
                (p, q, *r)
