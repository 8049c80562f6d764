"""Shellings, coherent cotrees, the In operator, and Tutte polynomials.

The central object is the coherent cotree: a compatible choice of spanning
cotree C(S) of the deleted graph for every face S of the coindependence
complex.  It is built in one walk of the lexicographic order of the
top-dimensional faces (the spanning cotrees), which is a shelling because
matroid complexes are shellable: each face S is first covered by one facet
T, and C(S) = T − S.  From it come the In(S) operator, the monomial basis
B (faces with In empty), and internal/external activity, with the Tutte
polynomial computed by two independent routes.
"""

import collections
import itertools

from .errors import FaceNotInComplex, IncoherentCotree, NotASpanningTree
from .graphs import (
    CycleBasis,
    _guard,
    closure,
    face_complex,
    fundamental_cycles,
    is_spanning_cotree,
    is_spanning_tree,
    spanning_cotrees,
)
from .polynomials import Poly2


class Shelling(collections.namedtuple("Shelling", "cotrees restriction")):
    """Lexicographic shelling of the spanning cotrees (coherent_cotree).

    cotrees: the facets in shelling order; restriction[T] is R(T), the
    unique minimal face that T adds to the faces of the earlier facets.
    In a shelling T adds exactly the interval [R(T), T], which
    checks.check_shelling verifies facet by facet.
    """


class CoherentCotree:
    """The map S -> C(S) over the whole coindependence complex.

    C(S) is a spanning cotree of the graph with S deleted; the defining
    compatibility is C(S1) ⊆ C(S2) whenever S2 ⊆ S1.  Instances built by
    coherent_cotree() carry their generating shelling; induced instances
    (for deletion/contraction or periodization) carry shelling=None.
    """

    def __init__(self, graph, faces, table, shelling=None):
        self.graph = graph
        self.faces = faces
        self.table = table
        self.shelling = shelling
        self._cycles = {}
        self._in = {}
        self._basis = None

    def C(self, s):
        s = frozenset(s)
        if s not in self.table:
            raise FaceNotInComplex(f"{sorted(map(str, s))} is not a face")
        return self.table[s]

    def tree(self, s):
        """Edges of the deleted graph outside the chosen cotree."""
        s = frozenset(s)
        return self.graph.eids - s - self.C(s)

    def cycles(self, s):
        """Fundamental-cycle basis of Γ∖S w.r.t. C(S), built once per face
        in Γ itself from the tree T(S) = E ∖ S ∖ C(S), so no graph is built
        for Γ∖S: CycleBasis(Γ, C(S), S) has the rows of CycleBasis(Γ∖S,
        C(S)).  Its rows hold the pairings ⟨γ_x, e⟩ that d (through
        HTComplex.records), f and h read.  Raises NotACotree unless T(S)
        spans Γ, that is, unless C(S) is a spanning cotree of Γ∖S."""
        s = frozenset(s)
        if s not in self._cycles:
            self._cycles[s] = CycleBasis(self.graph, self.C(s), s)
        return self._cycles[s]

    def in_set(self, s):
        """In(S) = edges e of S that land in the cotree chosen for S - e."""
        s = frozenset(s)
        if s not in self._in:
            if s not in self.table:
                raise FaceNotInComplex(f"{sorted(map(str, s))} is not a face")
            self._in[s] = frozenset(e for e in s if e in self.table[s - {e}])
        return self._in[s]

    def pick(self, s):
        """The choice [S] ∈ In(S) behind f, h and the j basis: the least
        edge of In(S) in the edge order, for S outside the basis."""
        return min(self.in_set(s), key=self.graph.pos)

    def basis(self):
        """Faces with In(S) empty, in face-complex enumeration order."""
        if self._basis is None:
            self._basis = [s for s in self.faces.faces() if not self.in_set(s)]
        return self._basis

    def basis_by_degree(self):
        out = [[] for _ in range(self.faces.genus + 1)]
        for s in self.basis():
            out[len(s)].append(s)
        return out

    def validate(self):
        """Check the defining invariants over the whole complex, in Γ
        itself: C(S) is a spanning cotree of Γ∖S iff S ∪ C(S) is one of Γ.
        Compatibility, C(S1) ⊆ C(S2) for every S2 ⊆ S1, is tested one edge
        at a time, C(S) ⊆ C(S ∖ y) for y ∈ S: faces are closed under
        subsets and ⊆ is transitive, so the chains of one-edge steps give
        every pair."""
        d = self.faces.genus
        for s in self.faces.faces():
            c = self.table[s]
            if len(c) != d - len(s) or not is_spanning_cotree(self.graph, s | c):
                return False
            for x in c:
                if self.table[s | {x}] != c - {x}:
                    return False
            if not all(c <= self.table[s - {y}] for y in s):
                return False
        return True


def lost_edge(c, c2, s, e):
    """The one edge x0 of c = C(S) outside c2 = C(S ∪ e), which the edge
    records of d (HTComplex.records) and the homotopy (FGH.h_element)
    read.  Raises IncoherentCotree unless c2 = c ∖ {x0}, the coherence
    that validate (run by checks.check_coherence) checks everywhere."""
    if len(c2) + 1 != len(c) or not c2 <= c:
        raise IncoherentCotree(f"C(S ∪ {{{e}}}) is not C(S) less one edge "
                               f"at S = {sorted(map(str, s))}")
    (x0,) = c - c2
    return x0


def coherent_cotree(graph, faces=None):
    """Build the shelling-derived coherent cotree in one walk of the lex
    shelling: the facets T (the top level of the face complex, already in
    lex order) are visited in turn, each subset S of T that no earlier
    facet covered gets C(S) = T − S, and the smallest such S is R(T)."""
    if faces is None:
        faces = face_complex(graph)
    cotrees = faces.levels[faces.genus]
    first = {}  # face -> the facet that first covers it
    restriction = {}
    for ct in cotrees:
        members = graph.sort_edges(ct)
        new = []
        for r in range(len(members) + 1):
            for c in itertools.combinations(members, r):
                s = frozenset(c)
                if s not in first:
                    first[s] = ct
                    new.append(s)
        # new runs by size and holds T itself; the minimal new face is
        # unique for a shelling, make that explicit
        assert len(new) == 1 or len(new[0]) < len(new[1])
        restriction[ct] = new[0]
    assert len(first) == len(faces)
    # keyed by the face complex's own sets, so each face is held once
    table = {s: first[s] - s for s in faces.faces()}
    return CoherentCotree(graph, faces, table, Shelling(cotrees, restriction))


# ---------------------------------------------------------------------------
# activity

def external_activity(graph, tree):
    """Edges outside the spanning tree that are minimal (in the edge
    order) within their fundamental cycle, from one rooting of the tree."""
    tree = frozenset(tree)
    if not is_spanning_tree(graph, tree):
        raise NotASpanningTree(f"{sorted(map(str, tree))} is not a spanning tree")
    cycles = fundamental_cycles(graph, tree, graph.eids - tree)
    return frozenset(e for e, cyc in cycles.items()
                     if graph.pos(e) == min(map(graph.pos, cyc)))


def internal_activity(graph, tree):
    """Tree edges that are minimal within their fundamental cocircuit (the
    bond crossing the cut the edge spans)."""
    tree = frozenset(tree)
    if not is_spanning_tree(graph, tree):
        raise NotASpanningTree(f"{sorted(map(str, tree))} is not a spanning tree")
    out = set()
    for t in tree:
        cut = _fundamental_cut(graph, tree, t)
        if graph.pos(t) == min(graph.pos(x) for x in cut):
            out.add(t)
    return frozenset(out)


def _fundamental_cut(graph, tree, t):
    """Edges reconnecting the two components of tree - t (including t)."""
    ends = graph.mask[t]
    side = closure(ends & -ends, [graph.mask[e] for e in tree if e != t])
    return frozenset(e for e, m in graph.mask.items() if m & side and m & ~side)


# ---------------------------------------------------------------------------
# Tutte / h polynomials

def tutte(graph):
    """Rank-nullity (corank-nullity) sum over all edge subsets: the subsets
    counted by corank i and nullity j, with x − 1 and y − 1 substituted
    into x^i y^j.  The subsets are walked depth first; taking an edge
    joins its ends in a union-find on vertex positions, undone on return."""
    _guard(graph.n_edges, "the Tutte polynomial")
    n = graph.n_vertices
    place = {v: i for i, v in enumerate(graph.vertices)}
    ends = [(place[graph.head[e]], place[graph.tail[e]]) for e in graph.order]
    parent = list(range(n))
    counts = {}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def walk(i, size, k):
        # edges before i are decided: `size` taken, in k components
        if i == len(ends):
            key = (k - 1, k + size - n)  # corank and nullity exponents
            counts[key] = counts.get(key, 0) + 1
            return
        walk(i + 1, size, k)
        a, b = find(ends[i][0]), find(ends[i][1])
        if a == b:
            walk(i + 1, size + 1, k)
        else:
            parent[a] = b
            walk(i + 1, size + 1, k - 1)
            parent[a] = a

    walk(0, 0, n)
    return Poly2(counts).substitute(Poly2({(1, 0): 1, (0, 0): -1}),
                                    Poly2({(0, 1): 1, (0, 0): -1}))


def tutte_by_activity(graph):
    """Sum of x^{internal activity} y^{external activity} over spanning trees."""
    out = {}
    for ct in spanning_cotrees(graph):
        tree = graph.eids - ct
        i = len(internal_activity(graph, tree))
        j = len(external_activity(graph, tree))
        out[(i, j)] = out.get((i, j), 0) + 1
    return Poly2(out)


def h_polynomial(graph):
    """Specialization x <- 1 of the Tutte polynomial, as a Poly1 in q."""
    return tutte(graph).eval_y()
