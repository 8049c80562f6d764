"""Oriented multigraphs with a total edge order, and their matroid data.

A Graph is finite, connected, oriented, and may contain loops and parallel
edges.  Edge ids are arbitrary hashable labels that stay stable under
deletion and contraction, which is what lets subgraph computations talk
about the same edges as the ambient graph.  All orderings of edges go
through the graph's total edge order, never through the raw labels.
"""

import itertools
import json
import os
import re

from .errors import (
    BondDeletion,
    DisconnectedGraph,
    EmptyGraph,
    NotACotree,
    NotASpanningTree,
    ParseError,
    ResourceGuard,
)
from .intlinalg import det

class Graph:
    """Connected oriented multigraph with totally ordered edges."""

    def __init__(self, vertices, heads, tails, order):
        self.vertices = tuple(vertices)
        self.head = dict(heads)
        self.tail = dict(tails)
        self.order = tuple(order)
        self.eids = frozenset(self.order)
        self._pos = {e: i for i, e in enumerate(self.order)}
        if len(self.order) == 0 and len(self.vertices) != 1:
            # the one-vertex edgeless graph is allowed: it is what remains
            # after deleting every edge of an all-loops graph
            raise EmptyGraph("an edgeless graph must consist of one vertex")
        if len(self._pos) != len(self.order):
            raise ValueError("duplicate edge ids")
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        if len(bit) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for e in self.order:
            if self.head[e] not in bit or self.tail[e] not in bit:
                raise ValueError(f"edge {e!r} references a missing vertex")
        # edge -> the bitmask of its ends' vertex positions; full has them all
        self.mask = {e: bit[self.head[e]] | bit[self.tail[e]] for e in self.order}
        self.full = (1 << len(bit)) - 1
        if closure(1, self.mask.values()) != self.full:
            raise DisconnectedGraph("graph must be connected")

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.order)

    def genus(self):
        return self.n_edges - self.n_vertices + 1

    def pos(self, e):
        return self._pos[e]

    def sort_edges(self, edges):
        return sorted(edges, key=self._pos.__getitem__)

    def is_loop(self, e):
        return self.head[e] == self.tail[e]

    def ends(self, edges):
        """(head, tail) pairs of the given edges, in the given order."""
        return [(self.head[e], self.tail[e]) for e in edges]

    def __repr__(self):
        return f"Graph(|V|={self.n_vertices}, |E|={self.n_edges}, genus={self.genus()})"

    # -- deletion / contraction ------------------------------------------

    def delete(self, edges):
        """Remove an edge set; raises BondDeletion if connectivity breaks."""
        edges = frozenset(edges)
        if not edges <= self.eids:
            raise ValueError("not a subset of the edge set")
        keep = [e for e in self.order if e not in edges]
        try:
            return Graph(self.vertices, {e: self.head[e] for e in keep},
                         {e: self.tail[e] for e in keep}, keep)
        except (DisconnectedGraph, EmptyGraph):
            raise BondDeletion(
                f"deleting {sorted(map(str, edges))} disconnects the graph") from None

    def contract(self, edges):
        """Contract an edge set; merged vertices become frozensets of the
        originals so that delete/contract commute on the nose."""
        edges = frozenset(edges)
        if not edges <= self.eids:
            raise ValueError("not a subset of the edge set")
        keep = [e for e in self.order if e not in edges]
        find, _ = union_find(self.vertices, self.ends(edges))
        classes = {}
        for v in self.vertices:
            classes.setdefault(find(v), []).append(_flatten_vertex(v))
        merged = {root: frozenset().union(*members)
                  for root, members in classes.items()}
        vmap = {v: merged[find(v)] for v in self.vertices}
        verts = sorted(set(vmap.values()), key=lambda s: sorted(map(str, s)))
        heads = {e: vmap[self.head[e]] for e in keep}
        tails = {e: vmap[self.tail[e]] for e in keep}
        return Graph(verts, heads, tails, keep)


def _flatten_vertex(v):
    """Vertices of contracted graphs are frozensets of base vertices."""
    if isinstance(v, frozenset):
        return v
    return frozenset([v])


def closure(seed, masks):
    """The one connectivity kernel: the vertices that edges with the given
    end masks (Graph.mask) connect to the vertex mask `seed`, found by
    adding the ends of every edge that meets it until none adds one."""
    pending = list(masks)
    while True:
        rest = []
        for m in pending:
            if m & seed:
                seed |= m
            else:
                rest.append(m)
        if len(rest) == len(pending):
            return seed
        pending = rest


def union_find(vertices, pairs):
    """Merge the classes of the endpoints of each (a, b) pair in turn.

    Returns (find, merged): find(v) names the class of vertex v, and
    merged lists the positions of the pairs that joined two classes, so
    they form a spanning forest and len(vertices) - len(merged) counts
    the classes.
    """
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merged = []
    for i, (a, b) in enumerate(pairs):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            merged.append(i)
    return find, merged


def build_graph(edge_list, edge_order=None):
    """Build a Graph from (head, tail) pairs with canonical vertex ids.

    Vertices are relabeled 0..n-1 in order of first appearance; edges get
    ids 0..m-1 in listed order.  edge_order optionally permutes the edge
    ids to override the default (listed) total order.
    """
    if not edge_list:
        raise EmptyGraph("empty edge list")
    vmap = {}
    for h, t in edge_list:
        for v in (h, t):
            if v not in vmap:
                vmap[v] = len(vmap)
    m = len(edge_list)
    if edge_order is None:
        edge_order = list(range(m))
    if sorted(edge_order) != list(range(m)):
        raise ValueError("edge_order must be a permutation of 0..m-1")
    heads = {i: vmap[edge_list[i][0]] for i in range(m)}
    tails = {i: vmap[edge_list[i][1]] for i in range(m)}
    return Graph(range(len(vmap)), heads, tails, edge_order)


# ---------------------------------------------------------------------------
# parsing / serialization

def graph_from_json(text):
    """Parse {"vertices": n, "edges": [[h,t],...], "order": [ids]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "edges" not in data:
        raise ParseError("expected an object with an 'edges' field")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges):
        raise ParseError("'edges' must be a list of [head, tail] integer pairs")
    n = data.get("vertices")
    if n is not None:
        if not _is_int(n):
            raise ParseError("'vertices' must be an integer")
        used = {v for e in edges for v in e}
        if used and (min(used) < 0 or max(used) >= n):
            raise ParseError("edge endpoint outside declared vertex range")
        if used and len(used) < n:
            isolated = next(v for v in range(n) if v not in used)
            raise ParseError(f"declared vertex {isolated} is on no edge, "
                             "so the graph is not connected")
    order = data.get("order")
    if order is not None and not (
            isinstance(order, list) and all(map(_is_int, order))):
        raise ParseError("'order' must be a list of integer edge positions")
    try:
        return build_graph([tuple(e) for e in edges], edge_order=order)
    except (EmptyGraph, DisconnectedGraph, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _is_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


_DSL_EDGE = re.compile(r"^(?:(\w+):)?v?(\d+)-v?(\d+)$")


def graph_from_dsl(text):
    """Parse the one-line format "v0-v1 v0-v1 v0-v1".

    Each token is [label:]vA-vB; the "v" prefixes are optional.  Labels
    are cosmetic and ignored for edge identity (ids are positional).
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty graph description")
    edges = []
    for tok in tokens:
        m = _DSL_EDGE.match(tok)
        if not m:
            raise ParseError(f"bad edge token {tok!r} (expected e.g. v0-v1)")
        edges.append((int(m.group(2)), int(m.group(3))))
    try:
        return build_graph(edges)
    except (EmptyGraph, DisconnectedGraph) as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# matroid queries

def _guard(n_edges, what):
    """Refuse exhaustive subset enumerations beyond CKS_KIT_MAX_ENUM_EDGES
    edges (default 14), read at each call."""
    raw = os.environ.get("CKS_KIT_MAX_ENUM_EDGES", "14")
    try:
        limit = int(raw)
    except ValueError:
        raise ParseError(
            f"CKS_KIT_MAX_ENUM_EDGES must be an integer, got {raw!r}") from None
    if n_edges > limit:
        raise ResourceGuard(
            f"{what} enumerates subsets of {n_edges} edges "
            f"(limit {limit}; set CKS_KIT_MAX_ENUM_EDGES to raise)")


def is_independent(graph, edges):
    """No cycle inside `edges` (forest test): no edge has its ends already
    connected by the edges before it."""
    masks = [graph.mask[e] for e in edges]
    return all(closure(m & -m, masks[:i]) & m != m for i, m in enumerate(masks))


def enumerate_cycles(graph):
    """All circuits: connected subgraphs in which every vertex has degree 2."""
    _guard(graph.n_edges, "cycle enumeration")
    out = []
    edges = graph.sort_edges(graph.eids)
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if _is_circuit(graph, combo):
                out.append(frozenset(combo))
    return out


def _is_circuit(graph, edges):
    deg = {}
    for e in edges:
        if graph.is_loop(e):
            return len(edges) == 1
        deg[graph.head[e]] = deg.get(graph.head[e], 0) + 1
        deg[graph.tail[e]] = deg.get(graph.tail[e], 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    masks = [graph.mask[e] for e in edges]
    return closure(masks[0], masks).bit_count() == len(deg)


def enumerate_bonds(graph):
    """All minimal edge cuts."""
    _guard(graph.n_edges, "bond enumeration")
    edges = graph.sort_edges(graph.eids)
    cuts = []
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            s = frozenset(combo)
            if contains_bond(graph, s) and not any(c < s for c in cuts):
                cuts.append(s)
    return cuts


def contains_bond(graph, edges):
    """True iff the edge set contains a bond, i.e. its deletion disconnects:
    the other edges do not close the first vertex to every vertex."""
    edges = frozenset(edges)
    rest = [m for e, m in graph.mask.items() if e not in edges]
    return closure(1, rest) != graph.full


class FaceComplex:
    """Edge sets containing no bond, graded by cardinality.

    levels[k] lists the k-element faces in lexicographic order of the edge
    order; the top level (k = genus) is exactly the spanning cotrees.
    position[S] is the place of face S in its level.
    """

    def __init__(self, graph, levels):
        self.graph = graph
        self.levels = levels
        self.genus = len(levels) - 1
        self.position = {s: i for level in levels for i, s in enumerate(level)}

    def __contains__(self, edges):
        return frozenset(edges) in self.position

    def faces(self):
        for level in self.levels:
            yield from level

    def __len__(self):
        return len(self.position)

    @classmethod
    def from_faces(cls, graph, faces, genus):
        levels = [[] for _ in range(genus + 1)]
        for s in faces:
            levels[len(s)].append(frozenset(s))
        for level in levels:
            level.sort(key=lambda s: tuple(sorted(graph.pos(e) for e in s)))
        return cls(graph, levels)


def face_complex(graph):
    """All edge sets containing no bond (so deletion keeps connectivity).
    Faces are closed under subsets, so each (k+1)-face is a k-face plus one
    edge after its last, and so grown, each level keeps its lex order."""
    _guard(graph.n_edges, "face enumeration")
    masks = list(graph.mask.values())
    grown = [()]  # the faces of the last level, as tuples of edge positions
    levels = [[frozenset()]]
    for _ in range(graph.genus()):
        grown = [s + (i,) for s in grown
                 for i in range(s[-1] + 1 if s else 0, len(masks))
                 if closure(1, [m for j, m in enumerate(masks)
                                if j != i and j not in s]) == graph.full]
        levels.append([frozenset(graph.order[j] for j in t) for t in grown])
    return FaceComplex(graph, levels)


def is_spanning_tree(graph, edges):
    # a forest with |V| - 1 edges has exactly one component
    edges = frozenset(edges)
    return len(edges) == graph.n_vertices - 1 and is_independent(graph, edges)


def is_spanning_cotree(graph, edges):
    edges = frozenset(edges)
    return len(edges) == graph.genus() and not contains_bond(graph, edges)


def spanning_cotrees(graph):
    """Spanning cotrees in lexicographic order of the edge order."""
    _guard(graph.n_edges, "cotree enumeration")
    d = graph.genus()
    edges = graph.sort_edges(graph.eids)
    return [frozenset(c) for c in itertools.combinations(edges, d)
            if not contains_bond(graph, c)]


# ---------------------------------------------------------------------------
# homology coordinates

def fundamental_cycle(graph, tree, x):
    """Cycle supported on tree ∪ {x}, signed so that x has coefficient +1.

    `tree` is a spanning tree edge set and x an edge outside it.  Returns a
    sparse dict edge -> coefficient in {-1, 0, 1}.  The reference for
    fundamental_cycles, which the library uses.
    """
    if graph.is_loop(x):
        return {x: 1}
    # walk the tree from head(x) back to tail(x)
    adj = {v: [] for v in graph.vertices}
    for e in tree:
        adj[graph.head[e]].append((e, graph.tail[e], -1))
        adj[graph.tail[e]].append((e, graph.head[e], +1))
    start, goal = graph.head[x], graph.tail[x]
    prev = {start: None}
    stack = [start]
    while stack and goal not in prev:
        v = stack.pop()
        for e, w, sgn in adj[v]:
            if w not in prev:
                prev[w] = (v, e, sgn)
                stack.append(w)
    if goal not in prev:
        raise NotASpanningTree("tree does not connect the endpoints")
    cyc = {x: 1}
    v = goal
    while prev[v] is not None:
        u, e, sgn = prev[v]
        cyc[e] = cyc.get(e, 0) + sgn
        v = u
    return {e: c for e, c in cyc.items() if c}


def fundamental_cycles(graph, tree, xs):
    """{x: fundamental_cycle(graph, tree, x)} for the edges xs outside the
    spanning tree `tree`, equal as dicts and in key order, from one
    adjacency of the tree: it is rooted once, and the cycle of x joins the
    tree paths from the two ends of x up to the vertex where they meet.
    Raises NotASpanningTree unless `tree` spans the graph."""
    adj = {v: [] for v in graph.vertices}
    for e in tree:
        adj[graph.head[e]].append((e, graph.tail[e], -1))
        adj[graph.tail[e]].append((e, graph.head[e], +1))
    # v -> (parent, edge, sign of the edge walked from the parent to v)
    root = graph.vertices[0]
    up, depth = {root: None}, {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for e, w, sgn in adj[v]:
            if w not in up:
                up[w], depth[w] = (v, e, sgn), depth[v] + 1
                stack.append(w)
    if len(up) != graph.n_vertices or len(tree) != graph.n_vertices - 1:
        raise NotASpanningTree("tree does not span the graph")
    out = {}
    for x in xs:
        # the path from head(x) to tail(x): tail's side is walked down from
        # the meeting vertex, head's side up to it (so its signs flip)
        a, b = graph.head[x], graph.tail[x]
        cyc, climb = {x: 1}, []
        while a != b:
            if depth[a] >= depth[b]:
                a, e, sgn = up[a]
                climb.append((e, -sgn))
            else:
                b, e, sgn = up[b]
                cyc[e] = sgn
        cyc.update(reversed(climb))
        out[x] = cyc
    return out


class CycleBasis:
    """Fundamental-cycle basis of the homology of graph ∖ deleted for a
    spanning cotree of it.

    rows[x] is the sparse coordinate vector of the cycle attached to the
    cotree edge x; the submatrix on cotree columns is the identity.  The
    cycles are built in `graph` itself from the tree T = E ∖ deleted ∖
    cotree (fundamental_cycles), so no graph is built for the deletion:
    the cotree is a spanning cotree of graph ∖ deleted exactly when T is a
    spanning tree of graph, which has the same vertices, and the cycles
    of T are then those of graph.delete(deleted).  Raises NotACotree
    otherwise.
    """

    def __init__(self, graph, cotree, deleted=frozenset()):
        cotree, deleted = frozenset(cotree), frozenset(deleted)
        kept = graph.eids - deleted
        try:
            if not cotree <= kept:
                raise NotASpanningTree("the cotree leaves the graph")
            self.cotree = tuple(graph.sort_edges(cotree))
            self.rows = fundamental_cycles(graph, kept - cotree, self.cotree)
        except NotASpanningTree:
            raise NotACotree(f"{sorted(map(str, cotree))} is not a spanning cotree") from None
        self.graph = graph

    def pairing(self, edges):
        cols = self.graph.sort_edges(edges)
        return [[self.rows[x].get(e, 0) for e in cols] for x in self.cotree]


# ---------------------------------------------------------------------------
# spanning tree count

def spanning_tree_count(graph):
    """Kirchhoff matrix-tree determinant (loops contribute nothing)."""
    n = graph.n_vertices
    if n == 1:
        return 1
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    lap = [[0] * n for _ in range(n)]
    for e in graph.order:
        if graph.is_loop(e):
            continue
        a, b = vidx[graph.head[e]], vidx[graph.tail[e]]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return abs(det(reduced))


def wedge(g1, g2):
    """One-point union: glue vertex 0 of each graph at a common vertex.

    Edge ids become ("a", e) / ("b", e); the edge order concatenates g1
    before g2.
    """
    def rename(g, tag):
        vmap = {v: (tag, v) for v in g.vertices}
        vmap[g.vertices[0]] = "base"
        return vmap

    v1, v2 = rename(g1, "a"), rename(g2, "b")
    verts = ["base"] + [v1[v] for v in g1.vertices if v1[v] != "base"] \
                     + [v2[v] for v in g2.vertices if v2[v] != "base"]
    heads, tails, order = {}, {}, []
    for e in g1.order:
        heads[("a", e)] = v1[g1.head[e]]
        tails[("a", e)] = v1[g1.tail[e]]
        order.append(("a", e))
    for e in g2.order:
        heads[("b", e)] = v2[g2.head[e]]
        tails[("b", e)] = v2[g2.tail[e]]
        order.append(("b", e))
    return Graph(verts, heads, tails, order)
