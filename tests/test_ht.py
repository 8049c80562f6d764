"""The face-stratified wedge complex: differential, reduction, f/g/h, ring."""

import collections
import itertools
import sys

import pytest

from ckskit import corpus
from ckskit.activity import coherent_cotree
from ckskit.checks import (
    GraphContext,
    check_ht_cohomology,
    check_ht_exactness,
    check_ht_identities,
    run_checks,
)
from ckskit.errors import ChoiceOutsideIn, EdgeIsBondOrLoop, OutsideBasis, ParseError
from ckskit.graphs import (
    build_graph,
    contains_bond,
    face_complex,
    fundamental_cycle,
    spanning_cotrees,
    union_find,
)
from ckskit.ht import (
    ChoiceFunction,
    DelConR,
    FGH,
    HTComplex,
    RRing,
    build_ht,
    reduce_monomial,
)
from ckskit.intlinalg import is_zero_matrix, map_matrix, matmul
from ckskit.periodize import delcon_r_periodized

THETA = corpus.theta_graph()
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
THETA6 = build_graph([(0, 1)] * 6)
X, Y, Z = 0, 1, 2


def fs(*edges):
    return frozenset(edges)


@pytest.fixture(scope="module")
def theta():
    cc = coherent_cotree(THETA)
    ht = HTComplex(THETA, cc)
    return ht, FGH(ht, ChoiceFunction.theta_preset(cc))


def test_basis_dimensions(theta):
    ht, _ = theta
    assert ht.dim(0, 0) == 1 and ht.dim(0, 1) == 2 and ht.dim(0, 2) == 1
    assert ht.dim(1, 0) == 3 and ht.dim(1, 1) == 3
    assert ht.dim(2, 0) == 3 and ht.dim(2, 1) == 0


def test_differential_of_top_cycle(theta):
    # the cycle attached to the cotree of {z} pairs +1 with x and -1 with y
    ht, _ = theta
    assert ht.d_element(fs(Z), (X,)) == {(fs(X, Z), ()): 1, (fs(Y, Z), ()): -1}


def test_d_squared_is_zero(theta):
    ht, _ = theta
    for p in range(3):
        for q in range(3 - p):
            prod = matmul(ht.d_matrix(p + 1, q - 1), ht.d_matrix(p, q))
            assert not prod or is_zero_matrix(prod)


def test_reduce_monomial_square(theta):
    # z^2 rewrites to a single square-free monomial sharing its ring class
    ht, fgh = theta
    red = reduce_monomial(ht, {Z: 2})
    assert red == {fs(X, Z): 1}
    assert fgh.f_vector(red) == {fs(Y, Z): 1}


def test_reduce_monomial_bond_support_vanishes(theta):
    ht, _ = theta
    assert reduce_monomial(ht, {X: 1, Y: 1, Z: 1}) == {}
    assert reduce_monomial(ht, {X: 2, Y: 1, Z: 1}) == {}


def test_reduce_monomial_trivial_cases(theta):
    ht, _ = theta
    assert reduce_monomial(ht, {}) == {fs(): 1}
    assert reduce_monomial(ht, {X: 1, Y: 1}) == {fs(X, Y): 1}


def _reduce_monomial_in_the_deletion(ht, sigma):
    """The reference reduction, which builds Γ∖(S ∖ e) for the support S:
    the spanning tree of its edges other than e that union_find merges,
    and the cycle of e walked in that tree by fundamental_cycle."""
    graph = ht.graph
    memo = {}

    def red(sig):
        if sig not in memo:
            d = dict(sig)
            supp = frozenset(d)
            if contains_bond(graph, supp):
                memo[sig] = {}
            elif all(v == 1 for v in d.values()):
                memo[sig] = {supp: 1}
            else:
                e = max((x for x, v in d.items() if v > 1), key=graph.pos)
                s0 = supp - {e}
                sub = graph.delete(s0) if s0 else graph
                rest = [x for x in sub.order if x != e]
                _, merged = union_find(sub.vertices, sub.ends(rest))
                gamma = fundamental_cycle(sub, frozenset(rest[i] for i in merged), e)
                out = {}
                for e2, c in gamma.items():
                    if e2 == e:
                        continue
                    nxt = dict(d)
                    nxt[e] -= 1
                    if not nxt[e]:
                        del nxt[e]
                    nxt[e2] = nxt.get(e2, 0) + 1
                    for face, c2 in red(frozenset(nxt.items())).items():
                        out[face] = out.get(face, 0) - c * c2
                memo[sig] = {k: v for k, v in out.items() if v}
        return memo[sig]

    return red(frozenset(sigma.items())) if sigma else {frozenset(): 1}


def test_reduce_monomial_matches_the_reduction_in_the_deletion():
    # every monomial of degree 2 and 3, in values and in key order
    monomials = 0
    for g in [g for _, g in corpus.corpus_graphs(bound=5)] + [THETA6]:
        ht = build_ht(g)
        for k in (2, 3):
            for combo in itertools.combinations_with_replacement(g.order, k):
                sigma = collections.Counter(combo)
                got = reduce_monomial(ht, sigma)
                want = _reduce_monomial_in_the_deletion(ht, sigma)
                assert list(got.items()) == list(want.items()), (g.order, combo)
                monomials += 1
    assert monomials > 5_000


def test_choice_function_validation():
    cc = coherent_cotree(THETA)
    with pytest.raises(ChoiceOutsideIn):
        ChoiceFunction(cc, {fs(X): Y})
    minimal = ChoiceFunction.minimal(cc)
    assert minimal[fs(X, Y)] == X and minimal[fs(X, Z)] == X
    # the theta preset fits only two vertices joined by three edges: not
    # a loop, nor the genus-2 graphs with three edges that have loops
    for g in (corpus.loop_graph(), build_graph([(0, 1), (0, 1), (1, 1)]),
              build_graph([(0, 0), (0, 0), (0, 1)])):
        with pytest.raises(ParseError):
            ChoiceFunction.theta_preset(coherent_cotree(g))
        with pytest.raises(ParseError):
            GraphContext(g, choice="theta")


def test_f_collapses_degree_one_faces(theta):
    _, fgh = theta
    for e in (X, Y, Z):
        assert fgh.f_face(fs(e)) == {fs(Z): 1}


def test_g_is_basis_inclusion(theta):
    _, fgh = theta
    assert fgh.g_face(fs(Z)) == {(fs(Z), ()): 1}


def test_homotopy_table(theta):
    _, fgh = theta
    expected = {
        (fs(), ()): {},
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
    for (s, w), val in expected.items():
        assert fgh.h_element(s, w) == val, (s, w)


def test_homotopy_identities_theta():
    ctx = GraphContext(THETA, choice="theta")
    from ckskit.checks import check_ht_identities
    ok, witness = check_ht_identities(ctx)
    assert ok, witness


def test_ring_multiplication_theta(theta):
    ht, fgh = theta
    rr = RRing(ht, fgh.choice)
    assert rr.dims == [1, 1, 1]
    assert rr.multiply(fs(Z), fs(Z)) == {fs(Y, Z): 1}
    assert rr.multiply(fs(), fs(Z)) == {fs(Z): 1}
    assert rr.multiply(fs(Z), fs(Y, Z)) == {}


def test_delcon_basis_split():
    # level 0 of the periodized split is the split of R for Γ itself
    rep = delcon_r_periodized(DelConR(face_complex(THETA), X), 0)
    assert rep["basis_partition"] and rep["dimension_identity"]
    assert rep["partition_sizes"] == (2, 1, 3)
    dims = rep["dims"]
    assert dims["middle"] == [1, 1, 1]
    assert dims["deleted"] == [1, 1]
    assert dims["contracted"] == [1, 0, 0]


def test_delcon_rejects_loops_and_bridges():
    # the one deletion-contraction setup; DelConCKS and delcon_r_periodized
    # are built from it and have no guard of their own
    with pytest.raises(EdgeIsBondOrLoop):
        DelConR(face_complex(corpus.loop_graph()), 0)
    with pytest.raises(EdgeIsBondOrLoop):
        DelConR(face_complex(corpus.bridge_graph()), 0)


def test_setup_faces_match_enumeration():
    # the setup re-sorts the faces of Γ into its own edge order and derives
    # those of the deletion and the contraction from them; face_complex and
    # spanning_cotrees are the references
    for _, g in corpus.corpus_graphs(bound=4):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc = ctx.delcon(e)
            assert dc.cc.faces.levels == face_complex(dc.graph).levels
            assert dc.cc.shelling.cotrees == spanning_cotrees(dc.graph)
            assert dc.cc_del.faces.levels == face_complex(dc.deleted).levels
            assert dc.cc_con.faces.levels == face_complex(dc.contracted).levels


def counting_calls(monkeypatch, module_name, name):
    """Replace module_name.name, and every ckskit binding of the same
    function, by a wrapper; returns the list of the first arguments."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "ckskit" or mod_name.startswith("ckskit.")) \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_checks_share_one_delcon_setup_per_edge(monkeypatch):
    # one coherent cotree for the graph and one per admissible edge,
    # however many deletion-contraction checks use the edge
    calls = counting_calls(monkeypatch, "ckskit.activity", "coherent_cotree")
    report = run_checks(THETA, ["delcon_r", "delcon_cks", "periodize"])
    assert all(r["passed"] for r in report.values()), report
    assert len(GraphContext(THETA).admissible_edges()) == 3
    assert len(calls) == 1 + 3


def test_delcon_setups_enumerate_nothing(monkeypatch):
    # the setups re-sort the faces of the graph; only the graph's own face
    # complex is enumerated, and its top level serves as the cotrees
    faces = counting_calls(monkeypatch, "ckskit.graphs", "face_complex")
    cotrees = counting_calls(monkeypatch, "ckskit.graphs", "spanning_cotrees")
    report = run_checks(W4, ["delcon_r", "delcon_cks"])
    assert all(r["passed"] for r in report.values()), report
    assert len(faces) == 1 and cotrees == []


def test_ht_checks_see_a_leaky_iota_only_through_h():
    ctx = GraphContext(THETA)
    htc = ctx.ht
    original = htc.iota

    def leaky(s, e, w):
        # also send (∅, w) to the q-wedge w over C({e}), where d needs
        # (q − 1)-wedges: a (1, q) label, one step off the stripe
        out = original(s, e, w)
        if not s and w:
            out[w] = 1
        return out

    htc.iota = leaky
    # the stripes read the edge records, not iota: they are unchanged, and
    # so are the checks that read only them
    assert ctx.ht_stripes == GraphContext(THETA).ht_stripes
    for check in (check_ht_exactness, check_ht_cohomology):
        assert check(ctx) == (True, None)
    # d_element, the reference, leaves the target basis of d
    with pytest.raises(OutsideBasis) as exc:
        map_matrix(htc.basis(0, 1), htc.index(1, 0), lambda b: htc.d_element(*b))
    assert str(exc.value) == ("the image of (frozenset(), (0,)) has "
                              "(frozenset({0}), (0,)) outside the target basis")
    # the homotopy h reads iota too, and meets S ∪ w = {0, 1, 2}, which is
    # not a face and has no choice
    with pytest.raises(KeyError) as exc:
        check_ht_identities(ctx)
    assert exc.value.args == (frozenset({0, 1, 2}),)


def test_checks_compute_each_tutte_polynomial_once(monkeypatch):
    # T(Γ) and (T(Γ∖e), T(Γ/e)) per admissible edge come from the graph
    # context, and hhat_tutte specializes the context's T(Γ)
    calls = counting_calls(monkeypatch, "ckskit.activity", "tutte")
    report = run_checks(THETA)
    assert all(r["passed"] for r in report.values()), report
    assert len(calls) == 1 + 2 * 3
