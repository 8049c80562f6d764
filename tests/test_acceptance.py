"""End-to-end acceptance suite over the exhaustive small-graph corpus.

Criteria covered, one numbered block per section:
  1. worked-example goldens on the three-parallel-edge graph
  2. worked-example goldens on the loop and bridge graphs
  3. homotopy-equivalence matrix identities + long-exact-sequence ranks
  4. basis/splitting certificates and polynomial dimension counts
  5. Tutte cross-validation (orders, recurrence, unimodularity)
  6. trigraded Euler identities and deletion-contraction exactness
  7. periodization formulas and level-n dimension identity
  8. derived constants recomputed from independent oracles before pinning
"""

import itertools

import pytest

from ckskit import corpus
from ckskit.activity import coherent_cotree, h_polynomial, tutte
from ckskit.checks import CHECKS, GraphContext
from ckskit.cks import (
    LOOP_VALUE,
    cks_cohomology,
    h_hat,
    tutte_loop_specialization,
)
from ckskit.graphs import spanning_tree_count
from ckskit.ht import FGH, HTComplex
from ckskit.intlinalg import smith_normal_form
from ckskit.polynomials import Poly1, Poly2
from test_cks import tutte_specialization_literal

CORPUS = corpus.corpus_graphs(bound=5)
IDS = [label if label != "enum" else f"enum{i}"
       for i, (label, _) in enumerate(CORPUS)]
_CTX = {}


def ctx_for(idx):
    if idx not in _CTX:
        _CTX[idx] = GraphContext(CORPUS[idx][1])
    return _CTX[idx]


def corpus_cases():
    return list(range(len(CORPUS)))


def run(idx, name):
    ok, witness = CHECKS[name](ctx_for(idx))
    assert ok, (IDS[idx], name, witness)


X, Y, Z = 0, 1, 2


def fs(*edges):
    return frozenset(edges)


# ---------------------------------------------------------------------------
# 1. three-parallel-edge goldens

@pytest.fixture(scope="module")
def theta():
    g = corpus.theta_graph()
    cc = coherent_cotree(g)
    ht = HTComplex(g, cc)
    return g, cc, ht, FGH(ht)


class TestCriterion1Theta:
    def test_cotree_table(self, theta):
        _, cc, _, _ = theta
        assert cc.table == {
            fs(): fs(X, Y), fs(X): fs(Y), fs(Y): fs(X), fs(Z): fs(X),
            fs(X, Y): fs(), fs(X, Z): fs(), fs(Y, Z): fs(),
        }

    def test_in_and_basis_tables(self, theta):
        _, cc, _, _ = theta
        assert {s: cc.in_set(s) for s in cc.faces.faces()} == {
            fs(): fs(), fs(X): fs(X), fs(Y): fs(Y), fs(Z): fs(),
            fs(X, Y): fs(X, Y), fs(X, Z): fs(X), fs(Y, Z): fs(),
        }
        assert cc.basis() == [fs(), fs(Z), fs(Y, Z)]

    def test_reduction_facts(self, theta):
        from ckskit.ht import reduce_monomial
        _, _, ht, fgh = theta
        assert fgh.f_vector(reduce_monomial(ht, {Z: 2})) == {fs(Y, Z): 1}
        assert reduce_monomial(ht, {X: 1, Y: 1, Z: 1}) == {}
        column = ht.d_columns(1, 1)[ht.index(1, 1)[(fs(Z), (X,))]]
        assert {ht.basis(2, 0)[i]: c for i, c in column.items()} == {
            (fs(X, Z), ()): 1, (fs(Y, Z), ()): -1}

    def test_full_homotopy_table(self, theta):
        _, _, ht, fgh = theta
        table = {}
        for p in range(3):
            for q in range(3 - p):
                for s, w in ht.basis(p, q):
                    table[(s, w)] = fgh.h_element(s, w)
        assert table == {
            (fs(), ()): {},
            (fs(), (X,)): {}, (fs(), (Y,)): {},
            (fs(), (X, Y)): {},
            (fs(X), ()): {(fs(), (X,)): 1},
            (fs(Y), ()): {(fs(), (Y,)): 1},
            (fs(Z), ()): {},
            (fs(X), (Y,)): {(fs(), (X, Y)): 1},
            (fs(Y), (X,)): {},
            (fs(Z), (X,)): {},
            (fs(X, Y), ()): {(fs(Y), (X,)): 1},
            (fs(X, Z), ()): {(fs(Z), (X,)): 1},
            (fs(Y, Z), ()): {},
        }


# ---------------------------------------------------------------------------
# 2. loop and bridge goldens

class TestCriterion2LoopBridge:
    def test_loop_cohomology_ranks(self):
        coh = cks_cohomology(corpus.loop_graph())
        assert {k: free for k, (free, _) in coh.items() if free} == {
            (0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
        assert all(not torsion for _, torsion in coh.values())

    def test_one_edge_generating_polynomials(self):
        assert h_hat(corpus.loop_graph()) == LOOP_VALUE
        assert h_hat(corpus.bridge_graph()) == Poly2.const(1)

    def test_loop_degree_weight_rollup(self):
        coh = cks_cohomology(corpus.loop_graph())
        rolled = {}
        for (two_p, q, r), (free, _) in coh.items():
            p = two_p // 2
            key = (r - q, p + q)  # (degree n, weight k)
            rolled[key] = rolled.get(key, 0) + free
        assert {k: v for k, v in rolled.items() if v} == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1}


# ---------------------------------------------------------------------------
# 3. homotopy equivalence on the whole corpus

@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion3_matrix_identities(idx):
    run(idx, "ht_identities")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion3_long_exact_sequence(idx):
    run(idx, "ht_exactness")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion3_cohomology_ranks(idx):
    run(idx, "ht_cohomology")


# ---------------------------------------------------------------------------
# 4. basis / splitting

@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion4_direct_sum_split(idx):
    run(idx, "splitting")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion4_graded_dims_match_polynomial(idx):
    run(idx, "activity")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion4_image_basis_count(idx):
    run(idx, "j_basis")


def test_criterion4_h_at_one_is_tree_count():
    for idx, (_, g) in enumerate(CORPUS):
        assert h_polynomial(g)(1) == spanning_tree_count(g), IDS[idx]


# ---------------------------------------------------------------------------
# 5. Tutte cross-validation

@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion5_tutte_orders_and_recurrence(idx):
    run(idx, "tutte")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion5_total_unimodularity(idx):
    run(idx, "unimodular")


# ---------------------------------------------------------------------------
# 6. trigraded Euler identities

@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion6_generating_polynomial_is_tutte_specialization(idx):
    g = CORPUS[idx][1]
    assert h_hat(ctx_for(idx).cks) == tutte_loop_specialization(tutte(g)), IDS[idx]


@pytest.mark.xfail(strict=True, reason="substituting the one-edge base "
                   "values into the opposite argument slots fails already "
                   "for three parallel edges")
def test_criterion6_literal_argument_order():
    g = corpus.theta_graph()
    assert h_hat(g) == tutte_specialization_literal(g)


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion6_euler_recurrence_and_exactness(idx):
    run(idx, "delcon_cks")


@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion6_euler_table_cross_check(idx):
    run(idx, "euler")


# ---------------------------------------------------------------------------
# 7. periodization

@pytest.mark.parametrize("idx", corpus_cases(), ids=IDS)
def test_criterion7_periodization_suite(idx):
    run(idx, "periodize")


# ---------------------------------------------------------------------------
# 8. derived constants recomputed by independent oracles

def test_oracle_theta_tutte_by_direct_subset_count():
    # independent re-derivation: corank/nullity generating sum written out
    # with no shared code path beyond the graph container
    g = corpus.theta_graph()
    acc = {}
    for r in range(4):
        for combo in itertools.combinations(range(3), r):
            comps = 2 - (1 if combo else 0)
            corank = comps - 1
            nullity = comps + len(combo) - 2
            acc[(corank, nullity)] = acc.get((corank, nullity), 0) + 1
    oracle = Poly2()
    xm1 = Poly2({(1, 0): 1, (0, 0): -1})
    ym1 = Poly2({(0, 1): 1, (0, 0): -1})
    for (i, j), c in acc.items():
        term = Poly2.const(c)
        for _ in range(i):
            term = term * xm1
        for _ in range(j):
            term = term * ym1
        oracle = oracle + term
    assert oracle == tutte(g)
    assert str(oracle) == "x + y + y^2"


def test_oracle_k4_h_polynomial_via_kirchhoff():
    g = corpus.k4_graph()
    hp = h_polynomial(g)
    assert hp == Poly1({0: 6, 1: 6, 2: 3, 3: 1})
    assert hp(1) == 16 == spanning_tree_count(g)


def test_oracle_snf_by_hand():
    snf = smith_normal_form([[1, 2], [3, 4]])
    assert snf.invariant_factors == [1, 2] and snf.verify([[1, 2], [3, 4]])
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.invariant_factors == [2, 4] and snf.verify([[2, 4], [6, 8]])


def test_oracle_kunneth_product_for_wedge():
    single = {k: free for k, (free, _)
              in cks_cohomology(corpus.loop_graph()).items() if free}
    expected = {}
    for (a, c1), (b, c2) in itertools.product(single.items(), repeat=2):
        key = tuple(i + j for i, j in zip(a, b))
        expected[key] = expected.get(key, 0) + c1 * c2
    double = {k: free for k, (free, _)
              in cks_cohomology(corpus.loop_wedge_loop()).items() if free}
    assert double == expected


def test_oracle_full_check_registry_on_corpus():
    # every named check passes on every corpus graph (single shared context
    # per graph; the per-criterion tests above cover the named subsets)
    remaining = [name for name in CHECKS
                 if name not in {"ht_identities", "ht_exactness",
                                 "ht_cohomology", "splitting", "activity",
                                 "j_basis", "tutte", "unimodular",
                                 "delcon_cks", "euler", "periodize"}]
    for idx in range(len(CORPUS)):
        ctx = ctx_for(idx)
        for name in remaining:
            ok, witness = CHECKS[name](ctx)
            assert ok, (IDS[idx], name, witness)
