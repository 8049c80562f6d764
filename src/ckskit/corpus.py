"""Named small graphs and the exhaustive corpus of connected multigraphs.

The corpus enumerates all connected multigraphs (loops and parallel edges
allowed) with at most a given number of edges, one representative per
isomorphism class, plus a handful of named graphs used by the golden
tests.
"""

import itertools

from .graphs import build_graph, union_find, wedge


def theta_graph():
    """Three parallel edges between two vertices (edges x < y < z)."""
    return build_graph([(0, 1), (0, 1), (0, 1)])


def loop_graph():
    return build_graph([(0, 0)])


def bridge_graph():
    return build_graph([(0, 1)])


def two_loops_graph():
    """Two loops at one vertex (the contraction of the theta graph at z)."""
    return build_graph([(0, 0), (0, 0)])


def loop_wedge_loop():
    """One-point union of two loop graphs, rebuilt with integer edge ids."""
    w = wedge(loop_graph(), loop_graph())
    return build_graph([(w.head[e], w.tail[e]) for e in w.order])


def k4_graph():
    return build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def named_graphs():
    return {
        "theta": theta_graph(),
        "loop": loop_graph(),
        "bridge": bridge_graph(),
        "loop-wedge-loop": loop_wedge_loop(),
        "k4": k4_graph(),
    }


# ---------------------------------------------------------------------------
# exhaustive enumeration up to isomorphism

def _canonical_form(n_verts, pairs):
    """Minimal edge multiset over all vertex relabelings (orientation and
    edge labels are immaterial for isomorphism of multigraphs)."""
    best = None
    for perm in itertools.permutations(range(n_verts)):
        relabeled = tuple(sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def enumerate_connected_multigraphs(max_edges):
    """One Graph per isomorphism class of connected multigraphs with
    1..max_edges edges, in (edge count, canonical form) order."""
    out = []
    seen = set()
    for m in range(1, max_edges + 1):
        forms = []
        for v in range(1, m + 2):
            slots = [(a, b) for a in range(v) for b in range(a, v)]
            for multi in itertools.combinations_with_replacement(slots, m):
                used = {x for p in multi for x in p}
                if used != set(range(v)):
                    continue
                _, merged = union_find(range(v), multi)
                if len(merged) != v - 1:
                    continue  # disconnected
                form = _canonical_form(v, multi)
                if form not in seen:
                    seen.add(form)
                    forms.append(form)
        for form in sorted(forms):
            out.append(build_graph(list(form)))
    return out


def corpus_graphs(bound=5, include_named=True):
    """The acceptance corpus: all classes up to `bound` edges plus the
    named graphs whose edge count exceeds the bound (deduplicated)."""
    if bound < 1:
        raise ValueError("corpus bound must be at least 1")
    graphs = [("enum", g) for g in enumerate_connected_multigraphs(bound)]
    if include_named:
        def form_of(g):
            return _canonical_form(g.n_vertices, g.ends(g.order))

        seen = {form_of(g) for _, g in graphs}
        for name, g in named_graphs().items():
            form = form_of(g)
            if form not in seen:
                seen.add(form)
                graphs.append((name, g))
    return graphs
