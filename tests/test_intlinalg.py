"""Exact linear algebra: Smith normal form, cohomology, and the stacked
splitting certificate, the oracle of checks.check_splitting."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckskit import intlinalg
from ckskit.checks import GraphContext
from ckskit.cks import DelConCKS, build_cks
from ckskit.corpus import corpus_graphs, k4_graph
from ckskit.errors import NotAComplex, OutsideBasis
from ckskit.graphs import graph_from_dsl
from ckskit.intlinalg import (
    CochainComplex,
    _columns,
    _rank_and_torsion,
    dense,
    det,
    identity,
    is_zero_matrix,
    is_zero_product,
    map_matrix,
    matmul,
    rank,
    smith_normal_form,
)


def test_snf_identity():
    a = identity(4)
    snf = smith_normal_form(a)
    assert snf.D == identity(4)
    assert snf.invariant_factors == [1, 1, 1, 1]
    assert snf.verify(a)


def test_snf_generic_2x2():
    a = [[1, 2], [3, 4]]
    snf = smith_normal_form(a)
    assert snf.invariant_factors == [1, 2]
    assert snf.verify(a)


def test_snf_common_factor_2x2():
    # gcd of entries is 2 and |det| = 8, which forces the factors (2, 4)
    a = [[2, 4], [6, 8]]
    snf = smith_normal_form(a)
    assert snf.invariant_factors == [2, 4]
    assert snf.verify(a)


def test_snf_nonsquare_and_zero():
    snf = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert snf.rank == 0 and snf.invariant_factors == []
    a = [[1, 2, 3], [4, 5, 6]]
    snf = smith_normal_form(a)
    assert snf.verify(a)
    assert snf.rank == rank(a) == 2
    assert snf.invariant_factors == [1, 3]


def test_snf_divisibility_chain_random():
    rng = random.Random(20240824)
    for trial in range(25):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(a)
        assert snf.verify(a)
        assert snf.rank == rank(a)
        for d1, d2 in zip(snf.invariant_factors, snf.invariant_factors[1:]):
            assert d1 > 0 and d2 % d1 == 0


def test_snf_large_random_reconstruction():
    rng = random.Random(7)
    a = [[rng.randint(-10**6, 10**6) for _ in range(40)] for _ in range(40)]
    snf = smith_normal_form(a)
    assert matmul(matmul(snf.U, a), snf.V) == snf.D
    assert abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1
    assert snf.rank == rank(a)


def test_det_and_solve():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0


def test_cohomology_zero_differentials():
    cx = CochainComplex({0: ["a", "b"], 1: ["c"]}, {})
    assert cx.cohomology() == {0: (2, []), 1: (1, [])}


def test_cohomology_multiplication_by_two():
    cx = CochainComplex({0: ["a"], 1: ["b"]}, {0: _columns([[2]])})
    assert cx.cohomology() == {0: (0, []), 1: (0, [2])}


def test_cohomology_rejects_non_complex():
    with pytest.raises(NotAComplex) as exc:
        CochainComplex({0: ["a"], 1: ["b"], 2: ["c"]},
                       {0: _columns([[1]]), 1: _columns([[1]])})
    assert exc.value.degree == 0


def test_cochain_complex_rejects_columns_outside_the_bases():
    with pytest.raises(ValueError):
        CochainComplex({0: ["a"], 1: ["b"]}, {0: {1: {0: 1}}})
    with pytest.raises(ValueError):
        CochainComplex({0: ["a"], 1: ["b"]}, {0: {0: {1: 1}}})


def test_cochain_complex_rejects_negative_indices():
    # a column or row that does not exist must not count in the rank
    with pytest.raises(ValueError):
        CochainComplex({0: range(1), 1: range(1)}, {0: {-1: {0: 1}}})
    with pytest.raises(ValueError):
        CochainComplex({0: range(1), 1: range(1)}, {0: {0: {-1: 1}}})


def test_d2_witness_is_the_first_degree_in_any_insertion_order():
    bases = {n: range(1) for n in range(4)}
    for order in ([2, 1, 0], [0, 1, 2]):
        with pytest.raises(NotAComplex) as exc:
            CochainComplex(bases, {n: {0: {0: 1}} for n in order})
        assert exc.value.degree == 0


def test_factor_reports_its_pivot_rows_or_none_after_a_core():
    got = intlinalg._factor({0: {2: 1}, 1: {0: -1}})
    assert got[:2] == (2, []) and sorted(got[2]) == [0, 2]
    assert intlinalg._factor({0: {0: 1}, 1: {1: 2}}) == (2, [2], None)
    # no ±1 anywhere, so the whole matrix is the core, but its
    # determinant is −1: a core need not carry torsion
    assert intlinalg._factor(_columns([[2, 3], [5, 7]])) == (2, [], None)
    assert intlinalg._factor({}) == (0, [], [])


def factored_widths(monkeypatch, cx):
    """cx.cohomology() and the number of columns each _factor call got."""
    widths = []
    original = intlinalg._factor

    def counting(columns):
        widths.append(len(columns))
        return original(columns)

    monkeypatch.setattr(intlinalg, "_factor", counting)
    return cx.cohomology(), widths


@pytest.mark.parametrize("core", [False, True], ids=["units", "core"])
def test_clearing_stops_after_a_core(monkeypatch, core):
    # d_0 pivots on ±1 in column 0 (at row 0 or 2), and d_1's columns 0 and
    # 2 are then dependent; with a 2 in column 1 of d_0, d_0 leaves a core
    # and d_1 is factored in full
    d0 = {0: {0: 1, 2: 1}, 1: {1: 2 if core else 1}}
    d1 = {0: {0: 1}, 2: {0: -1}}
    cx = CochainComplex({0: range(2), 1: range(3), 2: range(1)}, {0: d0, 1: d1})
    coh, widths = factored_widths(monkeypatch, cx)
    assert coh == {0: (0, []), 1: (0, [2] if core else []), 2: (0, [])}
    assert widths == [2, 2 if core else 1]


def test_clearing_reads_pivot_rows_not_pivot_columns(monkeypatch):
    # d_0 pivots at row 1, column 0: clearing must drop d_1's (absent)
    # column 1 and keep its column 0
    cx = CochainComplex({0: range(1), 1: range(2), 2: range(1)},
                        {0: {0: {1: 1}}, 1: {0: {0: 1}}})
    coh, widths = factored_widths(monkeypatch, cx)
    assert coh == {0: (0, []), 1: (0, []), 2: (0, [])}
    assert widths == [1, 1]


def test_clearing_skips_a_degree_whose_differential_is_zero(monkeypatch):
    # d_1 = 0 is omitted: d_0's pivot row is an index of C^1, not of C^2,
    # so d_2 keeps its column 0
    cx = CochainComplex({n: range(1) for n in range(4)},
                        {0: {0: {0: 1}}, 2: {0: {0: 1}}})
    coh, widths = factored_widths(monkeypatch, cx)
    assert coh == {n: (0, []) for n in range(4)}
    assert widths == [1, 1]


@st.composite
def differential_chains(draw):
    """Dimensions of four degrees and three differentials between them,
    sparse enough that some consecutive products vanish."""
    dims = [draw(st.integers(1, 4)) for _ in range(4)]
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    diffs = [[[draw(entry) for _ in range(dims[n])] for _ in range(dims[n + 1])]
             for n in range(3)]
    return dims, diffs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(differential_chains())
@example(([1, 1, 1, 1], [[[1]], [[0]], [[1]]]))
@example(([2, 1, 2, 1], [[[1, 1]], [[1], [-1]], [[1, 1]]]))
@example(([1, 2, 1, 1], [[[1], [1]], [[1, -1]], [[3]]]))
def test_check_d2_fails_exactly_where_the_dense_product_is_nonzero(chain):
    # the dense matmul is the oracle for the sparse column product
    dims, diffs = chain
    expected = next((n for n in range(2)
                     if not is_zero_matrix(matmul(diffs[n + 1], diffs[n]))), None)
    bases = {n: list(range(k)) for n, k in enumerate(dims)}
    try:
        CochainComplex(bases, {n: _columns(m) for n, m in enumerate(diffs)})
    except NotAComplex as exc:
        assert exc.degree == expected
    else:
        assert expected is None


def test_cohomology_invariant_under_basis_permutation():
    d = [[1, 0, 1], [0, 2, 0]]
    cx = CochainComplex({0: list("abc"), 1: list("de")}, {0: _columns(d)})
    perm_d = [[row[j] for j in (2, 0, 1)] for row in d][::-1]
    cx2 = CochainComplex({0: list("cab"), 1: list("ed")}, {0: _columns(perm_d)})
    assert cx.cohomology() == cx2.cohomology()


def stacked_direct_sum(ambient_rank, image_generators, complement_basis):
    """Oracle for checks.check_splitting: Z^ambient = (column span of
    image_generators) ⊕ (column span of complement_basis), certified on
    the stacked columns.  Both are dense rows, one per ambient coordinate
    (a row may be empty when there are no columns).  True iff the stack
    spans Z^ambient with every invariant factor 1 and the two ranks add
    up to the ambient rank (trivial intersection, index one)."""
    if len(image_generators) != ambient_rank or len(complement_basis) != ambient_rank:
        raise ValueError("both matrices need one row per ambient coordinate")
    stacked = [a + b for a, b in zip(image_generators, complement_basis)]
    if _rank_and_torsion(stacked) != (ambient_rank, []):
        return False
    ra = _rank_and_torsion(image_generators)[0]
    rb = _rank_and_torsion(complement_basis)[0]
    return ra + rb == ambient_rank


def test_direct_sum_unimodular_pair():
    assert stacked_direct_sum(2, [[1], [1]], [[0], [1]])


def test_direct_sum_index_two_fails():
    assert not stacked_direct_sum(2, [[2], [0]], [[0], [1]])


def test_direct_sum_edge_cases():
    assert stacked_direct_sum(0, [], [])
    assert not stacked_direct_sum(2, [[], []], [[], []])
    assert stacked_direct_sum(2, [[], []], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        stacked_direct_sum(2, [[1]], [[0], [1]])


def test_map_matrix_places_images_by_label():
    images = {"a": {"y": 2}, "b": {"x": 1, "y": -1}, "c": {}, "d": {"x": 0}}
    columns = map_matrix(["a", "b", "c", "d"], {"x": 0, "y": 1}, images.get)
    # every source position has a column, an empty one for a zero image
    assert columns == {0: {1: 2}, 1: {0: 1, 1: -1}, 2: {}, 3: {}}
    assert dense(columns, 2, 4) == [[0, 1, 0, 0], [2, -1, 0, 0]]
    assert map_matrix([], {"x": 0}, images.get) == {}
    assert dense({}, 1, 0) == [[]]
    assert dense({0: {}}, 0, 1) == []
    with pytest.raises(OutsideBasis) as exc:
        map_matrix(["a"], {"x": 0}, images.get)
    assert exc.value.source == "a"


# ---------------------------------------------------------------------------
# the sparse unit-pivot engine against the dense SNF oracle

def snf_rank_and_torsion(a):
    snf = smith_normal_form(a)
    return snf.rank, [x for x in snf.invariant_factors if x > 1]


def rank_mod_p(a, p):
    m = [[x % p for x in row] for row in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def assert_rank_mod_p_identity(a, rank_, torsion):
    # over F_p exactly the invariant factors divisible by p vanish
    for p in (2, 2**31 - 1):
        assert rank_mod_p(a, p) == rank_ - sum(1 for t in torsion if t % p == 0)


def stripe_differentials(graph):
    """Every nonzero differential of every stripe, from d_matrix."""
    cks = build_cks(graph)
    for k, ell in cks.stripe_keys():
        for p in range(min(k, cks.genus) + 1):
            if cks.dim(p, k - p, ell):
                m = cks.d_matrix(p, k - p, ell)
                if not is_zero_matrix(m):
                    yield m


@pytest.mark.parametrize("graphs", [
    [graph_from_dsl("v0-v1 " * 5)],
    [k4_graph()],
    [g for _, g in corpus_graphs(bound=4)],
], ids=["theta5", "k4", "corpus4"])
def test_engine_matches_snf_on_cks_differentials(graphs):
    seen = 0
    for g in graphs:
        for m in stripe_differentials(g):
            got = _rank_and_torsion(m)
            assert got == snf_rank_and_torsion(m)
            assert_rank_mod_p_identity(m, *got)
            seen += 1
    assert seen


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([-1, 0, 0, 1]), st.integers(-4, 4))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_matrices())
@example([[1, 1], [1, -1]])
@example([[2, 0], [0, 3]])
@example([[0, 0], [0, 0]])
def test_engine_matches_snf_on_small_matrices(a):
    got = _rank_and_torsion(a)
    assert got == snf_rank_and_torsion(a)
    assert_rank_mod_p_identity(a, *got)


@st.composite
def matrix_pairs(draw):
    """An n×k and a k×m integer matrix, any of n, k and m possibly 0, and m."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-5, 5))
    a = [[draw(entry) for _ in range(k)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    return a, b, m


def matmul_by_loops(a, b, m):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(m)]
            for i in range(len(a))]


def is_zero_by_loops(a):
    for row in a:
        for x in row:
            if x != 0:
                return False
    return True


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(matrix_pairs())
@example(([], [[1, 2]], 2))
@example(([[], []], [], 3))
@example(([[1, 2]], [[], []], 0))
@example(([[0, 3], [0, 0]], [[5, 5], [0, -1]], 2))
def test_matmul_and_is_zero_matrix_match_plain_loops(pair):
    a, b, m = pair
    product = matmul(a, b)
    # matmul gives [] for a product with a factor of no rows
    assert product == (matmul_by_loops(a, b, m) if a and b else [])
    for x in (a, b, product):
        assert is_zero_matrix(x) == is_zero_by_loops(x)
    assert is_zero_product(_columns(a), _columns(b)) == is_zero_matrix(product)


# ---------------------------------------------------------------------------
# rank over Q against dense Fraction elimination

def rank_by_fractions(a):
    """Rank over Q by dense Gaussian elimination on Fractions: the oracle
    for rank, which reads it off the sparse unit-pivot engine."""
    if not a or not a[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / inv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def assert_rank_agrees(a):
    got = rank(a)
    assert got == rank_by_fractions(a)
    # reducing mod p can only lose rank
    for p in (2, 2**31 - 1):
        assert rank_mod_p(a, p) <= got


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_matrices())
@example([])
@example([[], [], []])
@example([[2, 3], [3, 2]])
@example([[2, 3, 1], [3, 2, 1], [1, 1, 2]])
@example([[2, 3, 1], [4, 6, 2], [3, 2, 0]])
@example([[2, 3], [4, 6]])
@example([[3, 1, 2], [2, 1, 1], [1, 0, 1]])
def test_rank_matches_fraction_elimination(a):
    assert_rank_agrees(a)


def test_rank_on_the_delcon_inclusions_and_projections():
    seen = 0
    for _, g in corpus_graphs(bound=4):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc = DelConCKS(ctx.delcon(e))
            d = dc.mid.genus
            for p, q, r in itertools.product(range(d + 1), repeat=3):
                mid, sub, quo = dc.mid.dim(p, q, r), dc.sub.dim(p - 1, q, r), dc.quo.dim(p, q, r)
                # the piece's inclusion and projection, 0/1 columns read
                # off its split
                con, dl = dc.split(p, q, r)
                if sub:
                    inc = {j: {i: 1} for j, i in enumerate(dl)}
                    rows = dense(inc, mid, sub)
                    assert_rank_agrees(rows)
                    assert rank(inc) == smith_normal_form(rows).rank == sub
                    seen += 1
                if mid and quo:
                    prj = {j: {} for j in range(mid)}
                    for i, j in enumerate(con):
                        prj[j] = {i: 1}
                    rows = dense(prj, quo, mid)
                    assert_rank_agrees(rows)
                    assert rank(prj) == smith_normal_form(rows).rank == quo
                    seen += 1
    assert seen


def test_rank_of_dense_rows_equals_rank_of_their_columns():
    # the columns key every position, the empty ones too, as map_matrix
    # writes them; some rows and columns are cleared to zero
    rng = random.Random(26)
    cleared = 0
    for _ in range(500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]
        if rows and cols and rng.random() < 0.5:
            a[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
            cleared += 1
        columns = {j: {i: a[i][j] for i in range(rows) if a[i][j]} for j in range(cols)}
        assert dense(columns, rows, cols) == a
        assert rank(columns) == rank(a) == smith_normal_form(a).rank
    assert cleared > 100


def test_engine_requeues_a_column_whose_unit_appears_later(monkeypatch):
    # column 0 has no unit entry until the pivot in column 1 turns its 3
    # or its 2 into ±1, so no residual core is left for the Smith form
    monkeypatch.setattr(intlinalg, "smith_normal_form",
                        lambda a: pytest.fail("residual core"))
    assert _rank_and_torsion([[2, 1], [3, 1]]) == (2, [])


def test_engine_torsion_examples():
    assert _rank_and_torsion([[1, 1], [1, -1]]) == (2, [2])
    # no unit entry: the whole matrix is the residual core
    assert _rank_and_torsion([[2, 0], [0, 3]]) == (2, [6])
    assert _rank_and_torsion([]) == (0, [])
    assert _rank_and_torsion([[], []]) == (0, [])


def test_a_pivot_cascades_through_the_rows_it_leaves_alone():
    # row 1 is alone only once row 0's pivot has cleared column 0, and
    # row 2 once row 1's has cleared column 1; the heap alone would pop
    # column 2, the shortest, and pivot on row 2 first
    a = [[1, 0, 0],
         [2, 1, 0],
         [0, 3, -1]]
    assert intlinalg._factor(_columns(a)) == (3, [], [0, 1, 2])


def test_a_row_alone_with_a_2_is_not_a_pivot(monkeypatch):
    # row 0 holds only a 2: the heap pivots on row 1's ±1 in column 1 and
    # leaves the 2 as the residual core, whose Smith form keeps it
    cores = []
    snf = intlinalg.smith_normal_form

    def recording(a):
        cores.append(a)
        return snf(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    assert intlinalg._factor(_columns([[2, 0], [1, 1]])) == (2, [2], None)
    assert cores == [[[2]]]


def test_engine_matches_snf_on_sparse_random_matrices():
    # sparse enough that many rows start or become alone; the pivot rows
    # P, when no core is left, are rank many and A[P, :] has the Smith
    # form of a ±1 minor, which clearing reads
    rng = random.Random(42)
    unit_only = cores = 0
    for _ in range(400):
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        a = [[rng.choice((1, -1, 1, -1, 2, -2, 3)) if rng.random() < 0.25 else 0
              for _ in range(cols)] for _ in range(rows)]
        rank_, torsion, pivot_rows = intlinalg._factor(_columns(a))
        assert (rank_, torsion) == snf_rank_and_torsion(a), a
        if pivot_rows is None:
            cores += 1
            continue
        unit_only += 1
        assert len(pivot_rows) == len(set(pivot_rows)) == rank_
        assert smith_normal_form([a[i] for i in pivot_rows]).invariant_factors \
            == [1] * rank_, a
    assert unit_only > 200 and cores > 20
