"""Corpus enumeration: the grown classes against the multiset oracle, and
the branch-and-bound least form against the all-permutation canonical
form."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit import corpus
from ckskit.corpus import _least_form
from ckskit.graphs import build_graph, union_find

# sha256 of the JSON list of (head, tail) edge lists of
# enumerate_connected_multigraphs(5), as the multiset enumerator gave it,
# and of enumerate_connected_multigraphs(7), as the all-permutation
# canonical form ordered it
BOUND5_SHA256 = "74228718504fc2cd6e21d628356fe63310cf1cc6bf54f996db068d82b0411066"
BOUND7_SHA256 = "c0feeb62386d5a73e711d41b705ec3e94e23f7884ce08aeb3bf127d5cce7d5a3"
CLASSES_PER_EDGE_COUNT = [2, 4, 11, 30, 95, 328, 1211]


def canonical_form(n_verts, pairs):
    """The oracle: the least sorted edge multiset over all n_verts!
    vertex relabelings v -> p[v]."""
    return min(tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in pairs))
               for p in itertools.permutations(range(n_verts)))


def connected_multisets(m):
    """(vertex count, edge multiset) of every connected multigraph with m
    edges whose vertices 0..v-1 all carry an edge."""
    for v in range(1, m + 2):
        slots = [(a, b) for a in range(v) for b in range(a, v)]
        for multi in itertools.combinations_with_replacement(slots, m):
            if {x for p in multi for x in p} != set(range(v)):
                continue
            if len(union_find(range(v), multi)[1]) == v - 1:
                yield v, multi


def enumerate_by_multisets(max_edges):
    """The oracle: every connected edge multiset, one Graph per distinct
    canonical_form, in (edge count, form) order."""
    out = []
    for m in range(1, max_edges + 1):
        forms = {canonical_form(v, multi) for v, multi in connected_multisets(m)}
        out.extend(build_graph(list(form)) for form in sorted(forms))
    return out


def edge_lists(graphs):
    return [g.ends(g.order) for g in graphs]


@pytest.fixture(scope="module")
def seven_edge_classes():
    return corpus.enumerate_connected_multigraphs(7)


def test_matches_the_multiset_oracle_up_to_four_edges():
    new = corpus.enumerate_connected_multigraphs(4)
    old = enumerate_by_multisets(4)
    assert edge_lists(new) == edge_lists(old)
    assert [g.n_vertices for g in new] == [g.n_vertices for g in old]


def test_class_counts_per_edge_count(seven_edge_classes):
    counts = [sum(1 for g in seven_edge_classes if g.n_edges == m)
              for m in range(1, 8)]
    assert counts == CLASSES_PER_EDGE_COUNT


def test_representatives_have_distinct_canonical_forms(seven_edge_classes):
    reps = [g for g in seven_edge_classes if g.n_edges <= 5]
    assert len(reps) == 142
    forms = {canonical_form(g.n_vertices, g.ends(g.order)) for g in reps}
    assert len(forms) == len(reps)


def test_bound_five_edge_lists_are_pinned(seven_edge_classes):
    five = corpus.enumerate_connected_multigraphs(5)
    text = json.dumps(edge_lists(five))
    assert hashlib.sha256(text.encode()).hexdigest() == BOUND5_SHA256
    assert edge_lists(five) == edge_lists(seven_edge_classes[:142])


def test_bound_seven_edge_lists_are_pinned(seven_edge_classes):
    text = json.dumps(edge_lists(seven_edge_classes))
    assert hashlib.sha256(text.encode()).hexdigest() == BOUND7_SHA256


def test_corpus_adds_the_named_graphs_of_classes_not_enumerated():
    # loop, bridge and loop-wedge-loop have at most two edges, theta three
    # and k4 six; none of them is listed twice
    for bound, named in ((2, ["theta", "k4"]), (5, ["k4"]), (6, [])):
        graphs = corpus.corpus_graphs(bound)
        assert [name for name, _ in graphs if name != "enum"] == named


def test_corpus_keys_the_enumerated_classes_once(monkeypatch):
    # the enumeration's forms tell which named graphs are new; only the
    # five named graphs are keyed again
    calls = []
    original = corpus._least_form
    monkeypatch.setattr(corpus, "_least_form",
                        lambda *args: calls.append(args) or original(*args))
    corpus.enumerate_connected_multigraphs(5)
    enumerated = len(calls)
    corpus.corpus_graphs(5)
    assert enumerated and len(calls) - enumerated <= enumerated + 5


def test_least_form_is_the_canonical_form_up_to_four_edges():
    # every connected edge multiset with at most four edges
    for m in range(1, 5):
        for v, multi in connected_multisets(m):
            assert _least_form(v, multi) == canonical_form(v, multi)


@st.composite
def multigraphs(draw):
    """(vertex count, edge list) on at most five vertices; loops, parallel
    edges and isolated vertices allowed."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    return n, pairs


def relabeled(data, n, pairs):
    """The same multigraph under a random vertex relabeling, with each
    edge's ends in random order and the edges shuffled."""
    perm = data.draw(st.permutations(range(n)))
    moved = [(perm[b], perm[a]) if data.draw(st.booleans()) else (perm[a], perm[b])
             for a, b in pairs]
    return data.draw(st.permutations(moved))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_least_form_ignores_labels_and_edge_order(graph, data):
    n, pairs = graph
    assert _least_form(n, relabeled(data, n, pairs)) == _least_form(n, pairs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_least_form_is_the_canonical_form(graph, data):
    # the second graph is a relabeled copy, often with one edge moved, so
    # that both equal and near-miss pairs occur
    n, pairs = graph
    other = relabeled(data, n, pairs)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(other) - 1))
        vertex = st.integers(0, n - 1)
        other[i] = (data.draw(vertex), data.draw(vertex))
    assert _least_form(n, pairs) == canonical_form(n, pairs)
    assert _least_form(n, other) == canonical_form(n, other)
