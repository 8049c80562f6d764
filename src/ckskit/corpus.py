"""Named small graphs and the exhaustive corpus of connected multigraphs.

The corpus enumerates all connected multigraphs (loops and parallel edges
allowed) with at most a given number of edges, one representative per
isomorphism class, plus a handful of named graphs used by the golden
tests.  _least_forms says how the classes are found.
"""

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

def _least_form(n_verts, pairs):
    """The canonical form of a multigraph: its least sorted edge multiset,
    each edge read (low, high), over all relabelings of 0..n_verts-1.

    Branch and bound: the labels 0, 1, ... are given one vertex at a time,
    and a vertex without a label reads as k, the next label.  Each edge
    then reads at most its final pair, so the sorted reading bounds every
    completion from below, and a branch whose bound is not below the best
    complete form is dropped.  Twins, two vertices with the same loops and
    the same edges to every other vertex, are swapped by an automorphism,
    so one vertex of each twin class is tried per label."""
    verts = range(n_verts)
    adj = [[0] * n_verts for _ in verts]
    for a, b in pairs:
        adj[a][b] += 1
        adj[b][a] += a != b
    twin = [next(u for u in verts if adj[u][u] == adj[v][v] and all(
        adj[u][x] == adj[v][x] for x in verts if x not in (u, v))) for v in verts]

    def search(at, k, best):  # at[v] is v's label, or k while v has none
        up = [x + (x == k) for x in at]
        children = {}
        for v in verts:
            if at[v] == k and twin[v] not in children:
                r = up[:v] + [k] + up[v + 1:]
                children[twin[v]] = tuple(sorted(
                    (r[a], r[b]) if r[a] <= r[b] else (r[b], r[a]) for a, b in pairs)), r
        for bound, child in sorted(children.values()):
            if bound < best:
                best = search(child, k + 1, best) if k + 1 < n_verts else bound
        return best

    return search([0] * n_verts, 0, ((n_verts, n_verts),))  # above every form


def _least_forms(max_edges):
    """The _least_form of every isomorphism class of connected multigraphs
    with 1..max_edges edges, in (edge count, least form) order.

    The classes grow by one edge (McKay 1998) from the one-vertex graph:
    each class on m-1 edges, kept as its _least_form on the vertices
    0..n-1 (n is one more than its largest label), gains a loop, an edge,
    or a pendant edge to the new vertex n, and the children are
    deduplicated by their _least_form.  Every connected graph arises so:
    delete a loop, a non-bridge edge, or a tree's leaf."""
    level, out = {()}, []
    for _ in range(max_edges):
        level = {_least_form(n + (b == n), form + ((a, b),))
                 for form in level for n in [1 + max((b for _, b in form), default=0)]
                 for a in range(n) for b in range(a, n + 1)}
        out.extend(sorted(level))
    return out


def enumerate_connected_multigraphs(max_edges):
    """The graph each of _least_forms spells out, in that order; `corpus`
    names each class enum#i by its place in it."""
    return [build_graph(list(form)) for form in _least_forms(max_edges)]


def corpus_graphs(bound=5):
    """The acceptance corpus: all classes up to `bound` edges, then the
    named graphs of the classes not among them."""
    if bound < 1:
        raise ValueError("corpus bound must be at least 1")
    forms = _least_forms(bound)
    graphs = [("enum", build_graph(list(form))) for form in forms]
    seen = set(forms)
    for name, g in named_graphs().items():
        form = _least_form(g.n_vertices, g.ends(g.order))
        if form not in seen:
            seen.add(form)
            graphs.append((name, g))
    return graphs
