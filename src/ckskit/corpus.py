"""Named small graphs and the exhaustive corpus of connected multigraphs.

The corpus enumerates all connected multigraphs (loops and parallel edges
allowed) with at most a given number of edges, one representative per
isomorphism class, plus a handful of named graphs used by the golden
tests.  enumerate_connected_multigraphs says how the classes are found.
"""

import itertools

from .graphs import build_graph, wedge


def theta_graph():
    """Three parallel edges between two vertices (edges x < y < z)."""
    return build_graph([(0, 1), (0, 1), (0, 1)])


def loop_graph():
    return build_graph([(0, 0)])


def bridge_graph():
    return build_graph([(0, 1)])


def loop_wedge_loop():
    """One-point union of two loop graphs, rebuilt with integer edge ids:
    two loops at one vertex, the contraction of the theta graph at z."""
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

def _least_relabeling(pairs, perms):
    """Least sorted edge multiset over the vertex relabelings v -> p[v]."""
    return min(tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in pairs))
               for p in perms)


def _canonical_form(n_verts, pairs):
    """Minimal edge multiset over all vertex relabelings (orientation and
    edge labels are immaterial for isomorphism of multigraphs)."""
    return _least_relabeling(pairs, itertools.permutations(range(n_verts)))


def _refined_key(n_verts, pairs):
    """Colour-refined canonical key (McKay–Piperno 2014): colour each vertex
    by (degree, loops), refine twice by its neighbours' sorted colours, and
    permute only within a colour.  Colours are invariants, so two graphs'
    keys (sorted colours, least edge multiset) agree iff they are isomorphic."""
    verts = range(n_verts)
    nbrs = [[a + b - v for a, b in pairs if v in (a, b) and a != b] for v in verts]
    colour = [(sum((a == v) + (b == v) for a, b in pairs),
               sum(a == b == v for a, b in pairs)) for v in verts]
    for _ in range(2):
        sig = [(colour[v], sorted(colour[u] for u in nbrs[v])) for v in verts]
        colour = [sorted(sig).index(x) for x in sig]
    ranked = sorted(colour)
    order = sorted(verts, key=colour.__getitem__)  # ranked[i] is colour[order[i]]
    classes = [range(ranked.index(c), ranked.index(c) + ranked.count(c))
               for c in sorted(set(ranked))]
    perms = (dict(zip(order, sum(choice, ())))
             for choice in itertools.product(*map(itertools.permutations, classes)))
    return tuple(ranked), _least_relabeling(pairs, perms)


def enumerate_connected_multigraphs(max_edges):
    """One Graph per isomorphism class of connected multigraphs with
    1..max_edges edges, in (edge count, canonical form) order.

    The classes grow by one edge (McKay 1998) from the loop and the bridge:
    each (m-1)-edge class gains a loop, an edge, or a pendant edge to a new
    vertex, deduplicated by _refined_key.  Every connected graph arises so:
    delete a loop, a non-bridge edge, or a tree's leaf.  _canonical_form,
    once per class, fixes order and representatives: `corpus` names each
    class enum#i by its place and checks the graph built from the form."""
    level = {_refined_key(1, [(0, 0)]), _refined_key(2, [(0, 1)])}
    out = []
    for m in range(1, max_edges + 1):
        if m > 1:
            level = {_refined_key(n + (b == n), edges + ((a, b),))
                     for n, edges in ((len(c), edges) for c, edges in level)
                     for a in range(n) for b in range(a, n + 1)}
        forms = sorted(_canonical_form(len(c), edges) for c, edges in level)
        out.extend(build_graph(list(form)) for form in forms)
    return out


def corpus_graphs(bound=5):
    """The acceptance corpus: all classes up to `bound` edges, then the
    named graphs of the classes not among them."""
    if bound < 1:
        raise ValueError("corpus bound must be at least 1")
    graphs = [("enum", g) for g in enumerate_connected_multigraphs(bound)]
    seen = {_refined_key(g.n_vertices, g.ends(g.order)) for _, g in graphs}
    for name, g in named_graphs().items():
        key = _refined_key(g.n_vertices, g.ends(g.order))
        if key not in seen:
            seen.add(key)
            graphs.append((name, g))
    return graphs
