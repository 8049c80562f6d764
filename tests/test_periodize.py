"""Finite-level periodization: faces, cotrees, formulas, dimension identity."""

import collections
import hashlib
import itertools
import sys

import pytest

from ckskit import cli, corpus, periodize
from ckskit.activity import coherent_cotree
from ckskit.checks import GraphContext, run_checks
from ckskit.graphs import build_graph, face_complex
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
from test_cks import in_both_orders


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
    # n + 1 share one basis_by_formula per (cotree, level), and outside the
    # periodized cotrees neither check builds a lifted face: only
    # periodized_cotree calls lifts, and no product form is iterated
    calls, lift_callers = [], []
    original, original_lifts = periodize.basis_by_formula, periodize.lifts

    def recording(cc, n):
        calls.append((cc, n))  # holds cc, so its id is not reused
        return original(cc, n)

    def recording_lifts(members, ranges):
        lift_callers.append(sys._getframe(1).f_code.co_name)
        return original_lifts(members, ranges)

    def no_iteration(self):
        raise AssertionError("a product form was iterated")

    monkeypatch.setattr(periodize, "basis_by_formula", recording)
    monkeypatch.setattr(periodize, "lifts", recording_lifts)
    monkeypatch.setattr(periodize.ProductBasis, "__iter__", no_iteration)
    report = run_checks(corpus.theta_graph(), ["periodize", "delcon_r"])
    assert all(r["passed"] for r in report.values()), report
    keys = [(id(cc), n) for cc, n in calls]
    assert len(set(keys)) == len(keys)
    # levels 1, 2, 3 of Γ; levels 0 (delcon_r), 1 and 2 of the three sides
    # of each of 3 edges
    assert len(calls) == 3 + 3 * 3 * 3
    assert lift_callers and set(lift_callers) == {"periodized_cotree"}


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


def test_product_form_membership():
    cc = coherent_cotree(corpus.theta_graph())
    basis = basis_by_formula(cc, 1)
    members = list(basis)
    assert all(s in basis for s in members)
    assert len(members) == len(basis) == sum(basis.counts())
    assert frozenset() in basis
    # an index past the level, two segments of one edge, a support that is
    # no face, and a segment at 0 on an edge of In(S)
    assert frozenset({(0, 2)}) not in basis
    assert frozenset({(0, 1), (0, -1)}) not in basis
    assert frozenset({(0, 1), (1, 1), (2, 1)}) not in basis
    s = next(s for s in cc.faces.faces() if cc.in_set(s))
    e = next(iter(cc.in_set(s)))
    assert frozenset((x, 0 if x == e else 1) for x in s) not in basis
    assert frozenset((x, 1) for x in s) in basis


def test_check_basis_formula_fails_on_a_missing_or_an_extra_face(monkeypatch):
    cc = coherent_cotree(corpus.theta_graph())
    _, pcc = periodized_cotree(cc, 1)
    direct, predicted = pcc.basis(), basis_by_formula(cc, 1)
    assert check_basis_formula(pcc, predicted) == (True, (len(direct), len(direct)))
    outside = next(s for s in pcc.faces.faces() if s not in predicted)
    for wrong in (direct[:-1], direct + [outside]):
        monkeypatch.setattr(pcc, "basis", lambda wrong=wrong: wrong)
        assert not check_basis_formula(pcc, predicted)[0]


# ---------------------------------------------------------------------------
# oracles: the formula side as it was before its product form, every lifted
# face built and the comparisons made on sets of them


def oracle_basis(cc, n):
    """B of the level-n periodization: every lift S_I of every face S of cc,
    in face order and lexicographic order of I along the edge order, kept
    when (e, 0) ∉ S_I for every e in In(S)."""
    out = []
    for s in cc.faces.faces():
        base_in = cc.in_set(s)
        at_zero = {(e, 0) for e in base_in}
        members = cc.graph.sort_edges(s)
        for index in itertools.product(range(-n, n + 1), repeat=len(members)):
            lifted = frozenset(zip(members, index))
            if lifted.isdisjoint(at_zero):
                out.append(lifted)
    return out


def oracle_counts(cc, basis):
    """The number of lifted faces of each size 0, ..., genus of cc."""
    by_size = collections.Counter(map(len, basis))
    return [by_size[k] for k in range(cc.faces.genus + 1)]


def oracle_contraction_compatibility(outer, inner, n):
    kept = {s for s in outer if all(abs(i) <= n for (_, i) in s)}
    return kept == set(inner), (len(kept), len(inner))


def oracle_delcon_r(e, n, sides):
    """delcon_r_periodized from the oracle bases of the middle, deleted
    and contracted sides, each a (coherent cotree, basis) pair."""
    mid, dl, cn = (oracle_counts(cc, basis) for cc, basis in sides)
    (_, b_mid), (_, b_del), (_, b_con) = sides
    from_del = {s | {(e, i)} for s in b_del for i in range(-n, n + 1)}
    from_con = set(b_con)
    return {
        "edge": e,
        "level": n,
        "dimension_identity": periodize.delcon_grade_mismatch(
            mid, dl, cn, 2 * n + 1) is None,
        "dims": {"middle": mid, "deleted": dl, "contracted": cn},
        "basis_partition": (from_del.isdisjoint(from_con)
                            and from_del | from_con == set(b_mid)
                            and len(from_del) + len(from_con) == len(b_mid)),
        "partition_sizes": (len(from_del), len(from_con), len(b_mid)),
    }


def assert_same_basis(cc, n):
    """basis_by_formula(cc, n) against the oracle: iteration order, length
    and counts by size.  Returns the oracle basis."""
    product, basis = basis_by_formula(cc, n), oracle_basis(cc, n)
    assert list(product) == basis
    assert len(product) == len(basis)
    assert product.counts() == oracle_counts(cc, basis)
    return basis


def sides_of(setup):
    return (setup.cc, setup.cc_del, setup.cc_con)


BOUND5 = [g for _, g in corpus.corpus_graphs(bound=5)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_the_product_form_agrees_with_the_lifted_faces(n):
    # every graph of the bound-5 corpus in its edge order and in reverse,
    # every admissible edge; the contraction from level n to level n - 1
    reports = 0
    for g in in_both_orders(BOUND5):
        ctx = GraphContext(g)
        basis = assert_same_basis(ctx.cc, n)
        if n:
            inner = oracle_basis(ctx.cc, n - 1)
            assert (check_contraction_compatibility(
                basis_by_formula(ctx.cc, n), basis_by_formula(ctx.cc, n - 1), n - 1)
                == oracle_contraction_compatibility(basis, inner, n - 1))
        for e in ctx.admissible_edges():
            setup = ctx.delcon(e)
            sides = [(cc, assert_same_basis(cc, n)) for cc in sides_of(setup)]
            rep = delcon_r_periodized(setup, n)
            assert rep == oracle_delcon_r(e, n, sides), (g.order, e)
            assert rep["basis_partition"] and rep["dimension_identity"]
            reports += 1
    assert reports


def faults_of(side):
    """One fault of each kind per face S of a coherent cotree, as (name, S,
    (object, attribute, replacement)): In(S) gains an edge of S outside
    it, In(S) loses one of its edges, and S leaves the face list."""
    right, faces = side.in_set, side.faces.faces
    for s in faces():
        base_in = right(s)
        for name, wrong in (("gains", [base_in | {x} for x in s - base_in]),
                            ("loses", [base_in - {x} for x in base_in])):
            if wrong:
                yield name, s, (side, "in_set", lambda t, s=s, w=wrong[0]:
                                w if t == s else right(t))
        yield "dropped", s, (side.faces, "faces", lambda s=s: (
            t for t in faces() if t != s))


def test_a_faulty_side_fails_product_form_and_oracle_alike(monkeypatch):
    # on one side's cotree, one face's In(S) gains an edge of S or loses
    # one, or the face leaves the face list; the product form and the
    # oracle must reach the same report at every level, and the same
    # contraction verdict against the side's own basis one level down
    faults, caught = 0, collections.Counter()
    for g in (corpus.theta_graph(), build_graph([(0, 1), (0, 1), (1, 2), (2, 0)])):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            setup = ctx.delcon(e)
            for side in sides_of(setup):
                for name, s, patch in list(faults_of(side)):
                    for n in (0, 1, 2):
                        inner = (basis_by_formula(side, n), oracle_basis(side, n))
                        with monkeypatch.context() as m:
                            m.setattr(*patch)
                            sides = [(cc, oracle_basis(cc, n)) for cc in sides_of(setup)]
                            rep = delcon_r_periodized(setup, n)
                            outer = (basis_by_formula(side, n + 1),
                                     oracle_basis(side, n + 1))
                        assert rep == oracle_delcon_r(e, n, sides), (name, s, n)
                        assert (check_contraction_compatibility(outer[0], inner[0], n)
                                == oracle_contraction_compatibility(outer[1], inner[1], n))
                        faults += 1
                        caught[name] += not (rep["basis_partition"]
                                             and rep["dimension_identity"])
    assert faults and all(caught[name] for name in ("gains", "loses", "dropped"))


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
