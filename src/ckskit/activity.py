"""Shellings, coherent cotrees, the In operator, and Tutte polynomials.

The central object is the coherent cotree: a compatible choice of spanning
cotree C(S) of the deleted graph for every face S of the coindependence
complex, built here from the lexicographic shelling of the top-dimensional
faces.  From it come the In(S) operator, the monomial basis B (faces with
In empty), and internal/external activity, with the Tutte polynomial
computed by two independent routes.
"""

import itertools

from .errors import FaceNotInComplex, IncoherentCotree, NotASpanningTree
from .graphs import (
    CycleBasis,
    _guard,
    face_complex,
    fundamental_cycle,
    is_spanning_tree,
    spanning_cotrees,
    union_find,
)
from .polynomials import Poly2


class Shelling:
    """Lexicographic shelling of the spanning cotrees.

    cotrees: facets in shelling order; restriction[T*] is the unique
    minimal new face contributed by T*.  partial_complex(k) returns the
    set of faces covered by the first k facets.
    """

    def __init__(self, graph, cotrees, restriction):
        self.graph = graph
        self.cotrees = cotrees
        self.restriction = restriction

    def partial_complex(self, k):
        faces = set()
        for ct in self.cotrees[:k]:
            members = self.graph.sort_edges(ct)
            for r in range(len(members) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(members, r))
        return faces

    def new_faces(self, k):
        """Faces first covered at step k (1-based), per the restriction set:
        everything between R(T*_k) and T*_k."""
        ct = self.cotrees[k - 1]
        rest = self.restriction[ct]
        free = self.graph.sort_edges(ct - rest)
        out = set()
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                out.add(rest | frozenset(extra))
        return out


def lex_shelling(graph):
    """Order the spanning cotrees lexicographically (in the edge order) and
    compute each facet's minimal new face."""
    cotrees = spanning_cotrees(graph)
    covered = set()
    restriction = {}
    for ct in cotrees:
        members = graph.sort_edges(ct)
        new = [frozenset(c)
               for r in range(len(members) + 1)
               for c in itertools.combinations(members, r)
               if frozenset(c) not in covered]
        covered.update(new)
        restriction[ct] = min(new, key=len) if new else frozenset()
        # the minimal new face is unique for a shelling; make that explicit
        smallest = min((len(s) for s in new), default=0)
        assert sum(1 for s in new if len(s) == smallest) == 1
    return Shelling(graph, cotrees, restriction)


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
        self._lost = {}
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
        """Fundamental-cycle basis of the deleted graph w.r.t. C(S)."""
        s = frozenset(s)
        if s not in self._cycles:
            sub = self.graph.delete(s) if s else self.graph
            self._cycles[s] = CycleBasis(sub, self.C(s))
        return self._cycles[s]

    def pair(self, s, x, e):
        """Coefficient of edge e in the cycle of cotree edge x, inside the
        graph with S deleted."""
        return self.cycles(s).rows[x].get(e, 0)

    def lost(self, s, e):
        """The cotree edge x0 that S loses when e joins it, C(S) ∖ C(S ∪ e).
        Raises IncoherentCotree unless C(S ∪ e) = C(S) ∖ {x0}, the coherence
        that validate (run by checks.check_coherence) checks everywhere."""
        key = (frozenset(s), e)
        if key not in self._lost:
            c, c2 = self.C(key[0]), self.C(key[0] | {e})
            if len(c2) + 1 != len(c) or not c2 <= c:
                raise IncoherentCotree(f"C(S ∪ {{{e}}}) is not C(S) less one edge "
                                       f"at S = {sorted(map(str, key[0]))}")
            (self._lost[key],) = c - c2
        return self._lost[key]

    def restrict(self, s, e, a):
        """Restriction H¹(Λ_S) -> H¹(Λ_{S∪e}), Λ_S = H_1(Γ∖S), on the
        increasing wedge a of cocycle classes [x], x ∈ C(S), as a sparse
        dict over increasing wedges from C(S ∪ e).

        [x] stays [x] for x ∈ C(S ∪ e); the lost edge x0 goes to Σ_y c_y [y]
        with c_y the coefficient of x0 in the cycle of y in Γ∖(S ∪ e).  So
        a ↦ a when x0 ∉ a; otherwise x0 is replaced by each y ∉ a, with
        sign (−1)^(i+j) for x0 at position i of a and y at position j of
        the result."""
        x0 = self.lost(s, e)
        if x0 not in a:
            return {a: 1}
        i = a.index(x0)
        rest = a[:i] + a[i + 1:]
        pos = self.graph.pos
        out = {}
        for y, cycle in self.cycles(frozenset(s) | {e}).rows.items():
            c = cycle.get(x0, 0)
            if c and y not in rest:
                j = sum(1 for z in rest if pos(z) < pos(y))
                out[rest[:j] + (y,) + rest[j:]] = -c if (i + j) % 2 else c
        return out

    def in_set(self, s):
        """In(S) = edges e of S that land in the cotree chosen for S - e."""
        s = frozenset(s)
        if s not in self._in:
            if s not in self.table:
                raise FaceNotInComplex(f"{sorted(map(str, s))} is not a face")
            self._in[s] = frozenset(e for e in s if e in self.table[s - {e}])
        return self._in[s]

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
        """Check the defining invariants over the whole complex."""
        from .graphs import is_spanning_cotree
        d = self.faces.genus
        for s in self.faces.faces():
            c = self.table[s]
            if len(c) != d - len(s):
                return False
            sub = self.graph.delete(s) if s else self.graph
            if not is_spanning_cotree(sub, c):
                return False
            for x in c:
                if self.table[s | {x}] != c - {x}:
                    return False
        for s1 in self.faces.faces():
            members = self.graph.sort_edges(s1)
            for r in range(len(members) + 1):
                for sub in itertools.combinations(members, r):
                    if not self.table[s1] <= self.table[frozenset(sub)]:
                        return False
        return True


def coherent_cotree(graph, faces=None):
    """Build the shelling-derived coherent cotree: every face S first
    appears in a unique shelling step k, and C(S) = T*_k - S there."""
    if faces is None:
        faces = face_complex(graph)
    shelling = lex_shelling(graph)
    step = {}
    for k, ct in enumerate(shelling.cotrees, 1):
        for s in shelling.new_faces(k):
            step[s] = ct
    assert set(step) == set(faces.faces())
    # keyed by the face complex's own sets, so each face is held once
    table = {s: step[s] - s for s in faces.faces()}
    return CoherentCotree(graph, faces, table, shelling)


# ---------------------------------------------------------------------------
# activity

def external_activity(graph, tree):
    """Edges outside the spanning tree that are minimal (in the edge
    order) within their fundamental cycle."""
    tree = frozenset(tree)
    if not is_spanning_tree(graph, tree):
        raise NotASpanningTree(f"{sorted(map(str, tree))} is not a spanning tree")
    out = set()
    for e in graph.eids - tree:
        cyc = fundamental_cycle(graph, tree, e)
        if graph.pos(e) == min(graph.pos(x) for x in cyc):
            out.add(e)
    return frozenset(out)


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
    find, _ = union_find(graph.vertices, graph.ends(tree - {t}))
    return frozenset(e for e in graph.eids
                     if find(graph.head[e]) != find(graph.tail[e]))


# ---------------------------------------------------------------------------
# Tutte / h polynomials

def _component_count(graph, edges):
    _, merged = union_find(graph.vertices, graph.ends(edges))
    return graph.n_vertices - len(merged)


def tutte(graph):
    """Rank-nullity (corank-nullity) sum over all edge subsets."""
    _guard(graph, "the Tutte polynomial")
    edges = list(graph.order)
    n = graph.n_vertices
    out = {}
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            k = _component_count(graph, combo)
            i = k - 1                     # corank exponent of (x-1)
            j = k + len(combo) - n        # nullity exponent of (y-1)
            out[(i, j)] = out.get((i, j), 0) + 1
    xm1 = Poly2({(1, 0): 1, (0, 0): -1})
    ym1 = Poly2({(0, 1): 1, (0, 0): -1})
    total = Poly2()
    powx = {0: Poly2.const(1)}
    powy = {0: Poly2.const(1)}

    def power(cache, base, k):
        if k not in cache:
            cache[k] = power(cache, base, k - 1) * base
        return cache[k]

    for (i, j), c in out.items():
        total = total + Poly2.const(c) * power(powx, xm1, i) * power(powy, ym1, j)
    return total


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
