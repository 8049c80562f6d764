"""The face-stratified exterior-algebra cochain complex ("HT complex").

Degree-(2p+q) basis elements are pairs (S, w): a face S of size p together
with a strictly increasing q-tuple w from the chosen cotree C(S), encoding
a wedge of fundamental cycles of the graph with S deleted.  The
differential inserts one edge into S at a time via the interior product,
re-expressed in C(S ∪ e)-coordinates by the coordinate projection that
kills the one cotree edge x0 lost when e is added (CoherentCotree.lost).
The trigraded subclass (cks.CKSComplex) shares this differential and
tensors it with the restriction of its cocycle wedge, also through x0.

Also here: the square-free reduction of monomials, the chain maps f and g
between the complex and its cohomology ring R, the contracting homotopy h,
the ring R with its monomial basis, and the deletion-contraction split of
that basis.
"""

import itertools

from .activity import CoherentCotree, coherent_cotree
from .errors import (
    ChoiceOutsideIn,
    EdgeIsBondOrLoop,
    MismatchedGraph,
    ParseError,
    SupportContainsBond,
)
from .graphs import (
    FaceComplex,
    Graph,
    contains_bond,
    fundamental_cycle,
    union_find,
)
from .intlinalg import CochainComplex, map_matrix


class HTComplex:
    """Lazily materialized bigraded complex attached to a coherent cotree.

    Its bases, index maps and stripes also serve the trigraded subclass
    cks.CKSComplex, whose pieces carry a third grading r.
    """

    def __init__(self, graph, cc):
        if cc.graph is not graph and not (
                isinstance(cc.graph, Graph) and cc.graph.order == graph.order
                and cc.graph.head == graph.head and cc.graph.tail == graph.tail):
            raise MismatchedGraph("coherent cotree was built from a different graph")
        self.graph = graph
        self.cc = cc
        self.faces = cc.faces
        self.genus = cc.faces.genus
        self._basis = {}
        self._index = {}

    # -- bases ------------------------------------------------------------

    def basis(self, p, q, *r):
        """Basis of the (2p, q) piece: (face S of size p, q-wedge in its
        cotree C(S)); of the (2p, q, r) piece, the triples that add an
        r-wedge in C(S)."""
        key = (p, q, *r)
        if key not in self._basis:
            out = []
            # C(S) has genus - p edges for every face S of size p
            if 0 <= p <= self.genus and all(0 <= n <= self.genus - p for n in key[1:]):
                for s in self.faces.levels[p]:
                    cot = self.graph.sort_edges(self.cc.C(s))
                    out.extend(itertools.product(
                        (s,), *(itertools.combinations(cot, n) for n in key[1:])))
            self._basis[key] = out
            self._index[key] = {b: i for i, b in enumerate(out)}
        return self._basis[key]

    def index(self, *key):
        self.basis(*key)
        return self._index[key]

    def dim(self, *key):
        return len(self.basis(*key))

    # -- differential -----------------------------------------------------

    def iota(self, s, e, w):
        """Interior product by edge e on the increasing wedge w over C(S),
        as a sparse dict over increasing wedges from C(S ∪ e).

        Removing x = w[i] gives (−1)^i ⟨γ_x, e⟩ times the rest of w, in the
        coordinates of C(S ∪ e) = C(S) ∖ {x0} (x0 from CoherentCotree.lost):
        the coordinate projection kills every rest that keeps x0, so when
        x0 ∈ w only the term that removes x0 survives.
        """
        x0 = self.cc.lost(s, e)
        out = {}
        for i in [w.index(x0)] if x0 in w else range(len(w)):
            c = self.cc.pair(s, w[i], e)
            if c:
                out[w[:i] + w[i + 1:]] = -c if i % 2 else c
        return out

    def d_element(self, s, w, *a):
        """Differential of a basis element (S, w), or (S, w, a) in the CKS
        complex, as a sparse vector: the sum over the edges e with S ∪ e a
        face of the interior product by e on w, tensored with the
        restriction of the cocycle wedge a to C(S ∪ e)."""
        out = {}
        for e in self.graph.sort_edges(self.graph.eids - s):
            t = s | {e}
            if t not in self.faces:
                continue
            terms = {(t,): 1}
            for part in (self.iota(s, e, w), *(self.cc.restrict(s, e, x) for x in a)):
                terms = {k + (k2,): c * c2 for k, c in terms.items()
                         for k2, c2 in part.items()}
            out.update(terms)
        return out

    def d_matrix(self, p, q, *r):
        """Matrix of d: (2p, q) -> (2p+2, q-1), or (2p, q, r) ->
        (2p+2, q-1, r).  Raises OutsideBasis when d leaves the stripe."""
        return map_matrix(self.basis(p, q, *r), self.index(p + 1, q - 1, *r),
                          lambda b: self.d_element(*b))

    def stripe(self, k, *r):
        """The graded stripe p + q = k (at weight r for the CKS complex)
        as a CochainComplex indexed by p."""
        bases = {p: self.basis(p, k - p, *r) for p in range(min(k, self.genus) + 1)}
        return CochainComplex(bases, {p: self.d_matrix(p, k - p, *r)
                                      for p, b in bases.items() if b})


def build_ht(graph, cc=None):
    if cc is None:
        cc = coherent_cotree(graph)
    return HTComplex(graph, cc)


# ---------------------------------------------------------------------------
# square-free reduction

def reduce_monomial(ht, sigma):
    """Rewrite a monomial in the edge variables as an integer combination
    of square-free monomials (faces), modulo bond monomials and the linear
    forms attached to cycles.

    sigma: dict edge -> exponent.  Monomials whose support contains a bond
    are zero.  The descent repeatedly picks the largest repeated edge e,
    takes the fundamental cycle of e in the graph with the rest of the
    support deleted (so e has coefficient +1), and eliminates one power of
    e against that cycle's linear form.  Returns dict face -> coefficient.
    """
    graph = ht.graph
    sigma = {e: int(x) for e, x in sigma.items() if x}
    if not set(sigma) <= set(graph.eids):
        raise SupportContainsBond("exponent map mentions edges outside the graph")
    memo = {}

    def red(sig):
        if sig in memo:
            return memo[sig]
        d = dict(sig)
        supp = frozenset(d)
        if contains_bond(graph, supp):
            memo[sig] = {}
            return {}
        if all(v == 1 for v in d.values()):
            memo[sig] = {supp: 1}
            return {supp: 1}
        e = max((x for x, v in d.items() if v > 1), key=graph.pos)
        s0 = supp - {e}
        sub = graph.delete(s0) if s0 else graph
        tree = _spanning_tree_avoiding(sub, e)
        gamma = fundamental_cycle(sub, tree, e)
        out = {}
        for e2, c in gamma.items():
            if e2 == e:
                continue
            nxt = dict(d)
            nxt[e] -= 1
            if not nxt[e]:
                del nxt[e]
            nxt[e2] = nxt.get(e2, 0) + 1
            for face, c2 in red(frozenset(nxt.items())).items():
                out[face] = out.get(face, 0) - c * c2
        out = {k: v for k, v in out.items() if v}
        memo[sig] = out
        return out

    if not sigma:
        return {frozenset(): 1}
    return red(frozenset(sigma.items()))


def _spanning_tree_avoiding(graph, e):
    """Spanning tree not using edge e (exists when e is not a bridge)."""
    rest = [x for x in graph.order if x != e]
    _, merged = union_find(graph.vertices, graph.ends(rest))
    return frozenset(rest[i] for i in merged)


# ---------------------------------------------------------------------------
# choice functions and the homotopy data

class ChoiceFunction:
    """A pick [S] ∈ In(S) for every face S outside the monomial basis."""

    def __init__(self, cc, mapping):
        self.cc = cc
        self.mapping = dict(mapping)
        bset = set(cc.basis())
        for s in cc.faces.faces():
            if s in bset:
                continue
            x = self.mapping.get(s)
            if x is None or x not in cc.in_set(s):
                raise ChoiceOutsideIn(
                    f"choice for {sorted(map(str, s))} is not in In(S)")

    @classmethod
    def minimal(cls, cc):
        """Default: the smallest element of In(S) in the edge order."""
        bset = set(cc.basis())
        mapping = {}
        for s in cc.faces.faces():
            if s not in bset:
                mapping[s] = min(cc.in_set(s), key=cc.graph.pos)
        return cls(cc, mapping)

    @classmethod
    def theta_preset(cls, cc):
        """The published reference choices for the theta graph (three
        parallel edges x < y < z): [{x}]=x, [{y}]=y, [{x,y}]=x, [{x,z}]=x."""
        x, y, z = theta_edges(cc.graph)
        mapping = {
            frozenset({x}): x,
            frozenset({y}): y,
            frozenset({x, y}): x,
            frozenset({x, z}): x,
        }
        return cls(cc, mapping)

    def __getitem__(self, s):
        return self.mapping[frozenset(s)]

    def __contains__(self, s):
        return frozenset(s) in self.mapping


def theta_edges(graph):
    """The edges x < y < z of the theta graph, the one graph the theta
    preset fits: two vertices joined by three edges."""
    if (graph.n_vertices != 2 or graph.n_edges != 3
            or any(map(graph.is_loop, graph.order))):
        raise ParseError("the theta choice preset needs two vertices "
                         "joined by three edges")
    return graph.order


class FGH:
    """The projection f, inclusion g, and contracting homotopy h.

    f: Z^{F_k} -> Z^{B_k} kills the image of d and restricts to the
    identity on basis faces; g is the basis inclusion; h has bidegree
    (-2, +1) and satisfies id - gf = hd + dh on the q=0 edge of each
    graded stripe and id = hd + dh elsewhere.
    """

    def __init__(self, ht, choice=None):
        self.ht = ht
        self.cc = ht.cc
        self.choice = choice if choice is not None else ChoiceFunction.minimal(ht.cc)
        self.bset = set(self.cc.basis())
        self._f = {}
        self._h = {}

    # -- f ----------------------------------------------------------------

    def f_face(self, s):
        """B-coordinates of the class of the square-free monomial S."""
        s = frozenset(s)
        if s in self._f:
            return self._f[s]
        if s in self.bset:
            out = {s: 1}
        else:
            x = self.choice[s]
            s0 = s - {x}
            out = {}
            for t in self.cc.graph.sort_edges(self.cc.tree(s0)):
                if (s0 | {t}) not in self.ht.faces:
                    continue
                c = self.cc.pair(s0, x, t)
                if not c:
                    continue
                for b, c2 in self.f_face(s0 | {t}).items():
                    out[b] = out.get(b, 0) - c * c2
            out = {k: v for k, v in out.items() if v}
        self._f[s] = out
        return out

    def f_vector(self, vec):
        """Apply f to a sparse vector over faces (dict face -> coeff)."""
        out = {}
        for s, c in vec.items():
            for b, c2 in self.f_face(s).items():
                out[b] = out.get(b, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    # -- g ----------------------------------------------------------------

    def g_face(self, b):
        return {(frozenset(b), ()): 1}

    # -- h ----------------------------------------------------------------

    def h_element(self, s, w):
        """Homotopy on a basis element (S, w), recursively.

        Returns a sparse vector over basis elements (S', w') with
        |S'| = |S| - 1 and |w'| = |w| + 1.
        """
        s = frozenset(s)
        key = (s, w)
        if key in self._h:
            return self._h[key]
        u = s | frozenset(w)
        if u in self.bset:
            # possible only when w is empty; f retracts here, h does nothing
            self._h[key] = {}
            return {}
        x0 = self.choice[u]
        if x0 not in s:
            self._h[key] = {}
            return {}
        s0 = s - {x0}
        # sort x0 into the wedge (all wedge entries lie in C(S0) with x0)
        pos = self.cc.graph.pos
        insert_at = sum(1 for y in w if pos(y) < pos(x0))
        w_ext = w[:insert_at] + (x0,) + w[insert_at:]
        sign = -1 if insert_at % 2 else 1
        out = {(s0, w_ext): sign}
        for t in self.cc.graph.sort_edges(self.cc.tree(s0)):
            if (s0 | {t}) not in self.ht.faces:
                continue
            for w2, c in self.ht.iota(s0, t, w_ext).items():
                for key2, c2 in self.h_element(s0 | {t}, w2).items():
                    out[key2] = out.get(key2, 0) - sign * c * c2
        out = {k: v for k, v in out.items() if v}
        self._h[key] = out
        return out

    # -- matrices per graded stripe --------------------------------------

    def f_matrix(self, k):
        """f on the q=0 piece of size-k faces, rows = B_k."""
        faces = self.ht.faces.levels[k]
        bk = [s for s in faces if s in self.bset]
        bindex = {b: i for i, b in enumerate(bk)}
        return map_matrix(faces, bindex, self.f_face), bk

    def g_matrix(self, k):
        faces = self.ht.faces.levels[k]
        bk = [s for s in faces if s in self.bset]
        findex = {s: i for i, s in enumerate(faces)}
        return map_matrix(bk, findex, lambda b: {b: 1}), bk

    def h_matrix(self, p, q):
        """h: (2p, q) -> (2p-2, q+1)."""
        return map_matrix(self.ht.basis(p, q), self.ht.index(p - 1, q + 1),
                          lambda b: self.h_element(*b))


# ---------------------------------------------------------------------------
# the ring R

class RRing:
    """The graded ring R with its monomial basis of faces.

    basis_by_degree[k] lists the B-faces of size k; products of basis
    monomials are reduced to square-free combinations and projected back
    to B-coordinates through f.
    """

    def __init__(self, ht, choice=None):
        self.ht = ht
        self.fgh = FGH(ht, choice)
        self.basis_by_degree = ht.cc.basis_by_degree()
        self.dims = [len(level) for level in self.basis_by_degree]

    def multiply(self, sa, sb):
        """Product of two basis monomials, in B-coordinates."""
        sigma = {}
        for e in itertools.chain(sa, sb):
            sigma[e] = sigma.get(e, 0) + 1
        vec = reduce_monomial(self.ht, sigma)
        return self.fgh.f_vector(vec)


# ---------------------------------------------------------------------------
# deletion-contraction on the basis B

class DelConR:
    """Deletion-contraction setup at an edge e, and the split of the
    monomial basis it makes literal.

    Built from a coherent cotree whose edge order puts e last, so that e
    avoids the cotree C(∅) and the induced tables on the deleted and
    contracted graphs make the basis split literal: B(Γ) is the disjoint
    union of {S ∪ e : S ∈ B(Γ∖e)} and B(Γ/e).  The same setup (graph,
    cc, deleted, contracted, cc_del, cc_con) carries the CKS sequence
    (cks.DelConCKS) and its periodization (periodize.DelConPeriodized).
    """

    def __init__(self, graph, e):
        if graph.is_loop(e) or contains_bond(graph, {e}):
            raise EdgeIsBondOrLoop(f"edge {e!r} is a loop or a bridge")
        self.edge = e
        order = [x for x in graph.order if x != e] + [e]
        self.graph = Graph(graph.vertices, graph.head, graph.tail, order)
        self.cc = coherent_cotree(self.graph)
        assert e not in self.cc.C(frozenset()), \
            "an edge ordered last cannot enter the lex-minimal cotree"
        self.deleted = self.graph.delete({e})
        self.contracted = self.graph.contract({e})
        self.cc_del = induced_deletion_cotree(self.cc, e, self.deleted)
        self.cc_con = induced_contraction_cotree(self.cc, e, self.contracted)

    def basis_partition(self):
        b_mid = set(self.cc.basis())
        b_del = [s | {self.edge} for s in self.cc_del.basis()]
        b_con = list(self.cc_con.basis())
        return b_mid, b_del, b_con

    def check_partition(self):
        b_mid, b_del, b_con = self.basis_partition()
        return (len(b_del) + len(b_con) == len(b_mid)
                and set(b_del).isdisjoint(b_con)
                and set(b_del) | set(b_con) == b_mid)

    def dims(self):
        """(middle, deletion-side shifted, contraction-side) dimensions."""
        mid = self.cc.basis_by_degree()
        dl = self.cc_del.basis_by_degree()
        cn = self.cc_con.basis_by_degree()
        return ([len(x) for x in mid], [len(x) for x in dl], [len(x) for x in cn])

    def include(self, s):
        """Inclusion R(Γ∖e) -> R(Γ) of degree +2 in B-coordinates."""
        return frozenset(s) | {self.edge}

    def project(self, s):
        """Projection R(Γ) -> R(Γ/e): kill basis monomials containing e."""
        s = frozenset(s)
        return None if self.edge in s else s


def delcon_grade_mismatch(mid, dl, cn, c=1):
    """First grade k of graded dimension lists with mid[k] ≠ c·dl[k−1] +
    cn[k] (c copies of the deleted side, shifted up one grade), or None."""

    def get(v, k):
        return v[k] if 0 <= k < len(v) else 0

    return next((k for k in range(max(len(mid), len(dl) + 1, len(cn)))
                 if get(mid, k) != c * get(dl, k - 1) + get(cn, k)), None)


def induced_deletion_cotree(cc, e, deleted):
    """Coherent cotree on deleted = Γ∖e with C'(S) = C(S ∪ e).

    Its faces are the S with S ∪ e a face of Γ; with e ordered last they
    keep the lexicographic order of Γ's faces, so no enumeration is needed.
    """
    faces = FaceComplex(deleted, [[s - {e} for s in level if e in s]
                                  for level in cc.faces.levels[1:]])
    table = {s: cc.C(s | {e}) for s in faces.faces()}
    return CoherentCotree(deleted, faces, table)


def induced_contraction_cotree(cc, e, contracted):
    """Coherent cotree on contracted = Γ/e with C'(S) = C(S); needs e
    outside C(∅).  Its faces are the faces of Γ that avoid e."""
    faces = FaceComplex(contracted, [[s for s in level if e not in s]
                                     for level in cc.faces.levels])
    table = {s: cc.C(s) for s in faces.faces()}
    return CoherentCotree(contracted, faces, table)
