"""The `cks` path builds each differential of a stripe only when the
stripe's factoring reaches it, without the columns that clearing leaves
out (HTComplex._stripe, CochainComplex.cohomology): the columns
_assemble leaves out, the cohomology that results, and what a stripe
holds while it is factored."""

import random
import weakref

import pytest

from ckskit import corpus, intlinalg
from ckskit.cks import build_cks, cks_cohomology
from ckskit.graphs import graph_from_dsl
from ckskit.ht import HTComplex
from test_cks import (
    C4_DOUBLED,
    CORE_GRAPH,
    THETA6,
    W4,
    d_pieces,
    filled,
    in_both_orders,
)

# two vertices joined by six edges, with a loop at each, in the order
# test_cli.py pins `cks` in; in CORE_GRAPH's order it left a residual core
# in stripe (6, 4) while the heap alone ordered the pivots.  Of the graphs
# here only the doubled 4-cycle leaves one, in stripe (3, 2), and nothing
# is cleared after it
CORE6 = "v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v0 v1-v1"


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [THETA6], [W4],
], ids=["corpus5", "theta6", "w4"])
def test_assembly_leaves_out_exactly_the_columns_it_is_given(graphs):
    # the whole piece with those columns removed, entries in the same
    # order; a set of no column of the piece leaves it whole
    rng = random.Random(41)
    pieces_seen = 0
    for g in in_both_orders(graphs):
        cks = build_cks(g)
        for c in (HTComplex(g, cks.cc), cks):
            for key in d_pieces(c):
                whole = c._assemble(*key)
                n = c.dim(*key)
                for skip in (set(), {n}, {j for j in range(n) if rng.random() < 0.5},
                             set(range(n))):
                    expected = {j: col for j, col in whole.items() if j not in skip}
                    assert filled(c._assemble(*key, skip=skip)) == filled(expected), \
                        (g.order, key, sorted(skip))
                pieces_seen += 1
    assert pieces_seen


def test_cks_cohomology_agrees_with_the_multiplied_stripes():
    # stripe by stripe, as cks_cohomology reads them, on the bound-6
    # corpus, the doubled 4-cycle (whose core has torsion) and the
    # six-edge core graph in CORE6's and CORE_GRAPH's orders, each in
    # both edge orders
    graphs = [g for _, g in corpus.corpus_graphs(bound=6)]
    graphs += map(graph_from_dsl, [C4_DOUBLED, CORE6, CORE_GRAPH])
    for g in in_both_orders(graphs):
        assert build_cks(g).stripe_cohomology(squares=True) \
            == build_cks(g).stripe_cohomology(), g.order


class Built(dict):
    """An assembled piece that a weak reference can follow."""


@pytest.mark.parametrize("inline", [
    "v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1",
    "v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1",
    CORE_GRAPH, C4_DOUBLED,
], ids=["theta6", "w4", "core_graph", "c4_doubled"])
def test_cks_builds_no_cleared_column_and_one_piece_at_a_time(monkeypatch, inline):
    # each assembly on the `cks` path is compared with the whole piece
    # less the pivot rows of the differential factored just before it in
    # its stripe (none after a residual core, or at a stripe's first
    # piece), and finds every piece assembled before it released
    events, alive = [], []
    assemble, factor = HTComplex._assemble, intlinalg._factor

    def recording_assemble(self, p, q, *r, skip=()):
        assert not any(ref() is not None for ref in alive), (p, q, r)
        columns = Built(assemble(self, p, q, *r, skip=skip))
        alive.append(weakref.ref(columns))
        events.append(("assemble", (p, q, *r), set(columns)))
        return columns

    def recording_factor(columns):
        out = factor(columns)
        events.append(("factor", out[2]))
        return out

    monkeypatch.setattr(HTComplex, "_assemble", recording_assemble)
    monkeypatch.setattr(intlinalg, "_factor", recording_factor)
    g = graph_from_dsl(inline)
    cks_cohomology(g)
    monkeypatch.undo()
    whole = build_cks(g)
    cleared, previous, assembled = 0, None, 0
    for before, event in zip([None, *events], events):
        if event[0] == "factor":
            continue
        _, (p, q, r), keys = event
        pivots = set()
        if previous == (p - 1, q + 1, r) and before[0] == "factor" and before[1]:
            pivots = set(before[1])
        assert keys == set(whole._assemble(p, q, r)) - pivots, (p, q, r)
        cleared += bool(pivots)
        previous = (p, q, r)
        assembled += 1
    assert assembled and cleared
    assert sum(event == ("factor", None) for event in events) == (inline == C4_DOUBLED)
