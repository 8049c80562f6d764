"""Finite-level periodization: faces, cotrees, formulas, dimension identity."""

import hashlib

import pytest

from ckskit import cli, corpus, periodize
from ckskit.activity import coherent_cotree
from ckskit.checks import run_checks
from ckskit.graphs import face_complex
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
    _, pcc = periodized_cotree(cc, 1)
    # the middle segment stays in the cotree, so only off-center singletons
    # have empty In
    assert set(pcc.basis()) == {frozenset(),
                                frozenset({(0, -1)}),
                                frozenset({(0, 1)})}
    assert set(basis_by_formula(cc, 1)) == set(pcc.basis())


def test_periodized_cotree_keys_its_table_by_its_own_faces():
    cc = coherent_cotree(corpus.theta_graph())
    for n in (0, 1, 2):
        _, pcc = periodized_cotree(cc, n)
        held = {id(s): s for level in pcc.faces.levels for s in level}
        assert len(held) == len(pcc.table)
        assert all(held.get(id(s)) is s for s in pcc.table)


def test_periodized_cotree_is_coherent():
    cc = coherent_cotree(corpus.theta_graph())
    _, pcc = periodized_cotree(cc, 1)
    assert pcc.validate()


@pytest.mark.parametrize("n", [1, 2])
def test_in_formula_loop_and_theta(n):
    for g in (corpus.loop_graph(), corpus.theta_graph()):
        cc = coherent_cotree(g)
        _, pcc = periodized_cotree(cc, n)
        ok, witness = check_in_lemma(cc, pcc)
        assert ok, witness
        ok, _ = check_basis_formula(pcc, basis_by_formula(cc, n))
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


def test_check_periodize_builds_one_periodized_graph_per_level(monkeypatch):
    # the formulas and the deletion-contraction sides read no periodized
    # graph; only the periodized cotree of each level builds one
    built = []
    original = PeriodizedGraph.__init__

    def counting(self, base, n):
        built.append(n)
        original(self, base, n)

    monkeypatch.setattr(PeriodizedGraph, "__init__", counting)
    report = run_checks(corpus.theta_graph(), ["periodize"])
    assert report["periodize"]["passed"], report
    assert built == [1, 2]


def test_check_periodize_computes_each_basis_once(monkeypatch):
    # the basis check at level n and the contraction check at levels n and
    # n + 1 share one basis_by_formula per (cotree, level)
    calls = []
    original = periodize.basis_by_formula

    def recording(cc, n):
        calls.append((cc, n))  # holds cc, so its id is not reused
        return original(cc, n)

    monkeypatch.setattr(periodize, "basis_by_formula", recording)
    report = run_checks(corpus.theta_graph(), ["periodize"])
    assert report["periodize"]["passed"], report
    keys = [(id(cc), n) for cc, n in calls]
    assert len(set(keys)) == len(keys)
    # levels 1, 2, 3 of Γ; levels 1, 2 of the three sides of each of 3 edges
    assert len(calls) == 3 + 3 * 2 * 3


def test_native_face_enumeration_agrees():
    cc = coherent_cotree(corpus.theta_graph())
    assert native_face_check(periodized_cotree(cc, 1)[1]) is True
    # too large to enumerate natively: skipped, not failed
    assert native_face_check(periodized_cotree(cc, 2)[1]) is None


@pytest.mark.parametrize("graph, level_2", [
    (corpus.loop_graph(), "ok"),
    (corpus.theta_graph(), "ok, face product not run"),
], ids=["loop", "theta"])
def test_the_periodize_check_says_where_the_face_product_did_not_run(graph, level_2):
    # theta at level 2 has 15 periodized edges, past NATIVE_MAX_EDGES
    report = run_checks(graph, ["periodize"])["periodize"]
    assert report == {"passed": True, "payload": {"level_1": "ok", "level_2": level_2}}


def test_contraction_compatibility():
    for g in (corpus.loop_graph(), corpus.theta_graph()):
        cc = coherent_cotree(g)
        outer, inner = (basis_by_formula(cc, n) for n in (2, 1))
        ok, _ = check_contraction_compatibility(outer, inner, 1)
        assert ok


@pytest.mark.parametrize("n", [1, 2])
def test_delcon_dimension_identity_theta(n):
    rep = delcon_r_periodized(DelConR(face_complex(corpus.theta_graph()), 0), n)
    assert rep["dimension_identity"], rep
    assert rep["basis_partition"], rep
    mid = rep["dims"]["middle"]
    assert sum(mid) == len(basis_by_formula(
        coherent_cotree(corpus.theta_graph()), n))


# sha256 of the `periodize` JSON stdout at levels 0, 1 and 2, concatenated,
# as the implementation that lifted faces through index maps printed it,
# except that level 2 of theta (15 edges) and of triangle+loop (20 edges)
# reports `faces_product` null, since native face enumeration stops at
# NATIVE_MAX_EDGES and the check does not run there
PERIODIZE_SHA256 = {
    "a:0-0": "7a0c05061578d2a477d24228b0fecdecb3274cbb230743ff1d0df1f65e311f47",
    "v0-v1 v0-v1 v0-v1": "a99471198acab6f5bb00be090bd0ef0c47744e2927aefbf0a64b6d0a11a4501d",
    "v0-v1 v1-v2 v2-v0 v0-v0": "0b2337d5e3ae11f71e9775772388a806bec40f1696c80d1f40f54f72c9871124",
}


@pytest.mark.parametrize("inline", list(PERIODIZE_SHA256), ids=["loop", "theta", "triangle+loop"])
def test_periodize_output_is_pinned(inline, capsys):
    out = ""
    for n in (0, 1, 2):
        assert cli.main(["periodize", "--inline", inline, "--level", str(n)]) == 0
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PERIODIZE_SHA256[inline]
