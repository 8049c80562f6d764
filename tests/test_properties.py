"""Properties on random small connected multigraphs in random edge orders:
the Tutte routes agree, h_hat is the loop specialization, the Euler
table does not depend on the edge order, the periodization checks pass,
and d_matrix is the element-wise differential.  And on random cochain
complexes of known cohomology in scrambled bases: cohomology, which
clears as it factors, finds it."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit.activity import tutte, tutte_by_activity
from ckskit.checks import GraphContext, run_checks
from ckskit.cks import build_cks, euler_table, h_hat, tutte_loop_specialization
from ckskit.graphs import build_graph
from ckskit.ht import HTComplex
from ckskit.intlinalg import (
    CochainComplex,
    _columns,
    dense,
    identity,
    map_matrix,
    matmul,
)
from element_wise import d_element

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
                lambda b: d_element(c, *b)), c.dim(p + 1, q - 1, *r), c.dim(p, q, *r)), \
                (p, q, *r)


def invariant_factors(ks):
    """The invariant factors > 1 of diag(ks) for ks in {±2, ±3, ±6}: the
    i-th largest takes a 2 from the i-th block divisible by 2 and a 3 from
    the i-th divisible by 3."""
    twos = sum(k % 2 == 0 for k in ks)
    threes = sum(k % 3 == 0 for k in ks)
    return [(2 if i < twos else 1) * (3 if i < threes else 1)
            for i in reversed(range(max(twos, threes)))]


def unimodular_pair(rng, n):
    """(U, U⁻¹) for a product of 3n random elementary operations on Z^n: a
    swap, a sign change, or adding c times one coordinate to another."""
    u, u_inv = identity(n), identity(n)
    for _ in range(3 * n):
        i, j, c = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
        if i == j:  # E = E⁻¹ negates coordinate i
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
        elif c == 0:  # E = E⁻¹ swaps i and j
            u[i], u[j] = u[j], u[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]
        else:  # E adds c·(row j) to row i; E⁻¹ subtracts it
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= c * row[i]
    return u, u_inv


@st.composite
def known_complexes(draw):
    """(bases, columns, cohomology) of a direct sum of copies of Z in one
    degree and of Z --k--> Z between adjacent degrees, k ∈ {±1, ±2, ±3,
    ±6}, with each degree in a random basis, so that the ±1 pivots do not
    sit on the diagonal."""
    top = draw(st.integers(2, 3))
    blocks = []  # (n, 0) is Z in degree n, (n, k) is Z --k--> Z from n
    for n in range(top + 1):
        blocks += [(n, 0)] * draw(st.integers(0, 2))
        if n < top:
            blocks += [(n, draw(st.sampled_from([1, -1])))
                       for _ in range(draw(st.integers(0, 3)))]
            blocks += [(n, k) for k in draw(st.lists(
                st.sampled_from([2, -2, 3, -3, 6, -6]), max_size=1))]
    dims, free, ks, entries = [0] * (top + 1), [0] * (top + 1), {}, []
    for n, k in blocks:
        if k:
            entries.append((n, dims[n + 1], dims[n], k))
            ks.setdefault(n + 1, []).append(k)
            dims[n + 1] += 1
        else:
            free[n] += 1
        dims[n] += 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    units = [unimodular_pair(rng, d) for d in dims]
    columns = {}
    for n in range(top):
        if dims[n] and dims[n + 1]:
            d = dense({}, dims[n + 1], dims[n])
            for m, i, j, k in entries:
                if m == n:
                    d[i][j] = k
            columns[n] = _columns(matmul(matmul(units[n + 1][0], d), units[n][1]))
    coh = {n: (free[n], invariant_factors(ks.get(n, []))) for n in range(top + 1) if dims[n]}
    return {n: range(d) for n, d in enumerate(dims)}, columns, coh


@settings(SETTINGS, max_examples=300)
@given(known_complexes())
def test_cleared_cohomology_of_known_complexes(complex_):
    # a k ≥ 2 block leaves a core in its differential, after which the
    # next degree is factored without clearing
    bases, columns, coh = complex_
    assert CochainComplex(bases, columns).cohomology() == coh
