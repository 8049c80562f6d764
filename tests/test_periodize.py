"""Finite-level periodization: faces, cotrees, formulas, dimension identity."""

import pytest

from ckskit import corpus, periodize
from ckskit.activity import coherent_cotree
from ckskit.checks import run_checks
from ckskit.ht import DelConR
from ckskit.periodize import (
    PeriodizedGraph,
    basis_by_formula,
    check_basis_formula,
    check_contraction_compatibility,
    check_in_lemma,
    delcon_r_periodized,
    native_face_check,
    periodized_cotree,
)


def test_periodized_graph_shape():
    pg = PeriodizedGraph(corpus.theta_graph(), 1)
    assert pg.graph.n_edges == 9
    assert pg.graph.genus() == 2
    # segments of one base edge chain through fresh interior vertices
    assert pg.graph.head[(0, 1)] == 0 and pg.graph.tail[(0, -1)] == 1
    assert pg.graph.tail[(0, 1)] == (0, 0) == pg.graph.head[(0, 0)]
    with pytest.raises(ValueError):
        PeriodizedGraph(corpus.theta_graph(), -1)


def test_level_zero_is_identity_on_faces():
    cc = coherent_cotree(corpus.theta_graph())
    pg, pcc = periodized_cotree(cc, 0)
    assert pg.graph.n_edges == 3
    assert len(pcc.faces) == len(cc.faces)
    assert pcc.validate()


def test_loop_level_one_basis():
    g = corpus.loop_graph()
    cc = coherent_cotree(g)
    pg, pcc = periodized_cotree(cc, 1)
    # the middle segment stays in the cotree, so only off-center singletons
    # have empty In
    assert set(pcc.basis()) == {frozenset(),
                                frozenset({(0, -1)}),
                                frozenset({(0, 1)})}
    assert set(basis_by_formula(cc, pg)) == set(pcc.basis())


def test_periodized_cotree_is_coherent():
    cc = coherent_cotree(corpus.theta_graph())
    _, pcc = periodized_cotree(cc, 1)
    assert pcc.validate()


@pytest.mark.parametrize("n", [1, 2])
def test_in_formula_loop_and_theta(n):
    for g in (corpus.loop_graph(), corpus.theta_graph()):
        cc = coherent_cotree(g)
        pg, pcc = periodized_cotree(cc, n)
        ok, witness = check_in_lemma(cc, pg, pcc)
        assert ok, witness
        ok, _ = check_basis_formula(pcc, basis_by_formula(cc, pg))
        assert ok


def test_check_periodize_builds_one_periodized_cotree_per_level(monkeypatch):
    built = []
    original = periodize.periodized_cotree

    def counting(cc, n):
        built.append(n)
        return original(cc, n)

    monkeypatch.setattr(periodize, "periodized_cotree", counting)
    report = run_checks(corpus.theta_graph(), ["periodize"])
    assert report["periodize"]["passed"], report
    assert built == [1, 2]


def test_check_periodize_computes_each_basis_once(monkeypatch):
    # the basis check at level n and the contraction check at levels n and
    # n + 1 share one basis_by_formula per (cotree, level)
    calls = []
    original = periodize.basis_by_formula

    def recording(cc, pg):
        calls.append((cc, pg.n))  # holds cc, so its id is not reused
        return original(cc, pg)

    monkeypatch.setattr(periodize, "basis_by_formula", recording)
    report = run_checks(corpus.theta_graph(), ["periodize"])
    assert report["periodize"]["passed"], report
    keys = [(id(cc), n) for cc, n in calls]
    assert len(set(keys)) == len(keys)
    # levels 1, 2, 3 of Γ; levels 1, 2 of the three sides of each of 3 edges
    assert len(calls) == 3 + 3 * 2 * 3


def test_native_face_enumeration_agrees():
    cc = coherent_cotree(corpus.theta_graph())
    assert native_face_check(cc, 1) is True
    # too large to enumerate natively: skipped, not failed
    assert native_face_check(cc, 2) is None


def test_contraction_compatibility():
    for g in (corpus.loop_graph(), corpus.theta_graph()):
        cc = coherent_cotree(g)
        outer, inner = (basis_by_formula(cc, PeriodizedGraph(g, n))
                        for n in (2, 1))
        ok, _ = check_contraction_compatibility(outer, inner, 1)
        assert ok


@pytest.mark.parametrize("n", [1, 2])
def test_delcon_dimension_identity_theta(n):
    rep = delcon_r_periodized(DelConR(corpus.theta_graph(), 0), n)
    assert rep["dimension_identity"], rep
    assert rep["basis_partition"], rep
    mid = rep["dims"]["middle"]
    assert sum(mid) == len(basis_by_formula(
        coherent_cotree(corpus.theta_graph()),
        PeriodizedGraph(corpus.theta_graph(), n)))
