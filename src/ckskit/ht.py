"""The face-stratified exterior-algebra cochain complex ("HT complex").

Degree-(2p+q) basis elements are pairs (S, w): a face S of size p together
with a strictly increasing q-tuple w from the chosen cotree C(S), encoding
a wedge of fundamental cycles of the graph with S deleted.  The
differential inserts one edge into S at a time via the interior product,
re-expressed in C(S ∪ e)-coordinates by the coordinate projection that
kills the one cotree edge x0 lost when e is added (activity.lost_edge).
The trigraded subclass (cks.CKSComplex) shares this differential and
tensors it with the restriction of its cocycle wedge, also through x0.
C(S) has genus − p edges on every face S of size p, so each piece's
size and the place of each face's block in it follow from the face counts
(HTComplex.dim).  The matrix of d is written as sparse columns, one face
block at a time, as the Kronecker product of the interior product and
the restriction on the wedges of C(S) (HTComplex.d_columns).  Both come
from one record per face S and edge e, kept in one plain table per face
level and built once per complex (HTComplex.records): the places of S
and S ∪ e in their levels, the place of x0, taken from C(S) and
C(S ∪ e), and the interior products a_x = ⟨γ_x, e⟩ of the 1-wedges,
read off the cycle rows of Γ∖S, which each face reads once.  The
restriction of x0 follows from them by the exchange identity,
−a_x0 Σ_y a_y [y] over C(S ∪ e).  Templates of wedge positions, shared
by all complexes, extend these to n-wedges: the interior product is a
derivation followed by the projection that kills x0, and the
restriction is an exterior power.  Each factor depends on its
record only through the place of x0 and the a_x, so it is read off the
templates once per wedge size and distinct record, and cached for the
process like the templates; assembly writes the product of the two
factors straight into the columns.  The cycle rows are the one source
of the pairings: f and the homotopy h (FGH) read them too, and h takes
x0 from the two cotrees as the records do.  The HT complex keeps each
piece's columns once assembled, and its stripes, `ht` and the HT checks
all read that copy; the CKS complex assembles per call.  The stripes'
cohomology is computed one stripe at a time from those columns
(HTComplex.stripe_cohomology).  The HT stripes and the checks show
d² = 0 by multiplying each stripe's differentials; cks_cohomology, and
with it `cks`, reads it off the squares of the edge records instead
(HTComplex.squares_vanish), two records per path from S to S ∪ {e, f},
and multiplies only from a level whose squares fail.

Also here: the square-free reduction of monomials, the chain maps f and g
between the complex and its cohomology ring R, the contracting homotopy h,
the ring R with its monomial basis, and the deletion-contraction setup
that splits that basis.
"""

import functools
import itertools
import math
from operator import itemgetter

from .activity import CoherentCotree, coherent_cotree, lost_edge
from .errors import (
    EdgeIsBondOrLoop,
    MismatchedGraph,
    NotAComplex,
    SupportContainsBond,
)
from .graphs import (
    FaceComplex,
    Graph,
    contains_bond,
    fundamental_cycles,
    union_find,
)
from .intlinalg import CochainComplex, dense, map_matrix


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
        # p -> the edge records of level p (records); (p, q) -> d's
        # columns (d_columns)
        self._records = {}
        self._columns = {}

    # -- bases ------------------------------------------------------------

    def basis(self, p, q, *r):
        """Basis of the (2p, q) piece: (face S of size p, q-wedge in its
        cotree C(S)); of the (2p, q, r) piece, the triples that add an
        r-wedge in C(S)."""
        key = (p, q, *r)
        if key not in self._basis:
            out = []
            if self.dim(*key):
                for s in self.faces.levels[p]:
                    out.extend(itertools.product(
                        (s,), *(self._wedges(s, n) for n in key[1:])))
            self._basis[key] = out
            self._index[key] = {b: i for i, b in enumerate(out)}
        return self._basis[key]

    def index(self, *key):
        self.basis(*key)
        return self._index[key]

    def dim(self, p, *ns):
        """len(basis(p, *ns)), counted without building the basis: C(S)
        has genus − p edges on every face S of size p, so the piece has
        piece_size(f_p, genus − p, ns) elements, f_p = len(levels[p])."""
        m = self.genus - p
        if p < 0 or m < 0:
            return 0
        for n in ns:
            if not 0 <= n <= m:
                return 0
        return piece_size(len(self.faces.levels[p]), m, ns)

    def _cotree(self, s):
        """C(S) in the edge order."""
        return self.graph.sort_edges(self.cc.C(s))

    def _wedges(self, s, n):
        """The increasing n-wedges of C(S), in basis order."""
        return itertools.combinations(self._cotree(s), n)

    # -- differential -----------------------------------------------------

    def d_columns(self, p, q):
        """_assemble(p, q), kept for every later reader; none changes it."""
        columns = self._columns.get((p, q))
        if columns is None:
            columns = self._columns[(p, q)] = self._assemble(p, q)
        return columns

    def _assemble(self, p, q, *r):
        """Matrix of d: (2p, q) -> (2p+2, q-1), or (2p, q, r) ->
        (2p+2, q-1, r), as sparse columns {j: {i: entry}} over its nonzero
        entries, j < dim(p, q, *r) and i < dim(p + 1, q − 1, *r): the
        columns CochainComplex reads.  Every entry lies inside its piece:
        each face block is placed from the face positions.

        Filled one face block at a time: the block from the elements on S
        to those on S ∪ e is the Kronecker product of the interior product
        by e on the q-wedges of C(S) with the restriction to C(S ∪ e) on
        its r-wedges.  Both factors are read off the row of (S, e) in the
        level's record table (records) through templates of wedge
        positions: the restriction sends x0 to −a_x0 Σ_y a_y [y] (the
        exchange identity) and keeps every other edge.  A factor depends
        only on the wedge sizes and the row's x0 place and iota, so it is
        cached for the process (_iota_factor, _restrict_factor), and the
        product is written straight into the columns: the entry c·c2 of
        source wedges w and ja goes to column w · C(m, r) + ja of the
        block and row x · C(m − 1, r) + y, for every term (x, c) of w and
        (y, c2) of ja.  Every face of a level has a block of the same
        size, so face S's first column is its place · dim(p, q, *r)/f_p
        and face T's first row is its place · dim(p + 1, q − 1, *r)/f_{p+1}."""
        n_src, n_tgt = self.dim(p, q, *r), self.dim(p + 1, q - 1, *r)
        columns = {}
        if not (n_src and n_tgt):
            return columns
        width = n_src // len(self.faces.levels[p])
        height = n_tgt // len(self.faces.levels[p + 1])
        m, n = self.genus - p, (r[0] if r else 0)
        na, size = math.comb(m, n), math.comb(m - 1, n)
        for s_pos, _, t_pos, x0, a in self.records(p):
            j, i = s_pos * width, t_pos * height
            restriction = _restrict_factor(m, n, x0, a)
            for w, terms in _iota_factor(m, q, x0, a):
                for ja, row in restriction:
                    column = columns.setdefault(j + w * na + ja, {})
                    for x, c in terms:
                        for y, c2 in row:
                            column[i + x * size + y] = c * c2
        return columns

    def d_matrix(self, p, q, *r):
        """d_columns(p, q, *r) as dense rows of shape dim(p + 1, q − 1, *r)
        × dim(p, q, *r), for the two checks that read rows:
        check_splitting and DelConCKS.check_chain_maps."""
        return dense(self.d_columns(p, q, *r), self.dim(p + 1, q - 1, *r),
                     self.dim(p, q, *r))

    def records(self, p):
        """The edge records of level p, one row per face S of size p and
        edge e with S ∪ e a face, built once per complex: (place of S in
        level p, e, place of S ∪ e in level p + 1, place of x0 in the
        sorted C(S), iota), iota the interior products a_x = ⟨γ_x, e⟩ by e
        of the 1-wedges x of the sorted C(S).  Each face reads its cycle
        rows, the cycle basis of Γ∖S, once (cc.cycles), and iota is the
        column e of those rows; x0 is the one edge of C(S) outside
        C(S ∪ e), taken from the two cotrees (activity.lost_edge, which
        also raises IncoherentCotree).  The rows go by S in level order,
        then e in edge order.  The interior product on n-wedges reads a by
        position, and so does the restriction, which a fixes too: x0 goes
        to −a_x0 Σ_y a_y [y] over C(S ∪ e) (the exchange identity;
        a_x0 = ±1).  So the x0 place and iota fix both factors of the row's
        block in every piece, and rows that share them share the cached
        factors (_iota_factor, _restrict_factor); the two face places only
        say where the block goes."""
        table = self._records.get(p)
        if table is None:
            table = self._records[p] = []
            cc, order, position = self.cc, self.graph.order, self.faces.position
            for s_pos, s in enumerate(self.faces.levels[p]):
                cycles = cc.cycles(s)
                xs, c = cycles.cotree, cc.C(s)
                rows = [cycles.rows[x] for x in xs]
                for e in order:
                    if e in s:
                        continue
                    t = s | {e}
                    t_pos = position.get(t)
                    if t_pos is not None:
                        x0 = lost_edge(c, cc.C(t), s, e)
                        table.append((s_pos, e, t_pos, xs.index(x0),
                                      tuple([row.get(e, 0) for row in rows])))
        return table

    def squares_vanish(self):
        """None when d² = 0 follows from the squares of the edge records,
        else a witness (S, e, f): the first square, by level, S in level
        order and e in edge order, that this test cannot show to vanish.

        The block of d² from a face S to a face U = S ∪ {e, f} is the sum
        of two paths, each the product of two records' blocks: (S, e) then
        (S ∪ e, f), and (S, f) then (S ∪ f, e), read from records(p) and
        records(p + 1).  In the piece (2p, q, r) a record's block is
        I_q ⊗ R_r (_assemble), so the square vanishes at every (q, r) when
        the two I composites cancel and the two R composites agree.
        - I_q is Λ(P) after the derivation ι_a, P the coordinate
          projection that drops x0.  Since ι_b∘Λ(P) = Λ(P)∘ι_{b∘P}, a
          path is Λ(P_f P_e) after ι_{b∘P_e}∘ι_a, the contraction by a
          2-form whose values on the 2-wedges of C(S) are the path's
          composite at q = 2.  The test also requires both paths to drop
          the same two edges of C(S), as C(S) ∖ C(U) is on a coherent
          cotree; then the sum of the paths is Λ(P_f P_e) after the
          contraction by the sum of the two forms, which vanishes at
          every q when the composites at q = 2 cancel.
        - Both R composites restrict to the same C(U), and R_r is the r-th
          exterior power of R_1, so they agree at every r when they agree
          on the 1-wedges.  HT has only r = 0, where R_0 is the identity.
        These are the composites of the factors d reads at q ≤ 2 and
        r ≤ 1, so the test reads d itself there; at larger q and r it
        rests on the templates being that projection after that derivation
        and that exterior power, which the tests check exhaustively for
        cotrees of up to 9 edges.

        The squares are checked one level at a time (_level_squares).  A
        face pair reached by other than two paths fails the test."""
        for p in range(len(self.faces.levels) - 2):
            witness = self._level_squares(p)
            if witness is not None:
                return witness
        return None

    def _level_squares(self, p):
        """squares_vanish on the squares from the faces of level p: None,
        or the witness (S, e, f) of the first that fails.  Each square is
        decided once per distinct quadruple of (x0 place, iota) of its four
        records; nothing is kept after the call."""
        m, verdicts, steps = self.genus - p, {}, {}  # steps: by place of S ∪ e
        for t_pos, f, u_pos, x0, a in self.records(p + 1):
            steps.setdefault(t_pos, []).append((f, u_pos, (x0, a)))
        for s_pos, rows in itertools.groupby(self.records(p), itemgetter(0)):
            paths = {}
            for _, e, t_pos, x0, a in rows:
                for f, u_pos, second in steps.get(t_pos, ()):
                    paths.setdefault(u_pos, []).append((e, f, ((x0, a), second)))
            for (e, f, one), *others in paths.values():
                if len(others) == 1:
                    key = one, others[0][2]
                    ok = verdicts.get(key)
                    if ok is None:
                        ok = verdicts[key] = self._square_vanishes(m, *key)
                    if ok:
                        continue
                return self.faces.levels[p][s_pos], e, f
        return None

    def _square_vanishes(self, m, one, two):
        """Whether the two paths of a square over a C(S) of m edges, each a
        pair of records' (x0 place, iota), drop the same two edges of C(S)
        and have composites on its 2-wedges that cancel (squares_vanish)."""
        iota = {}
        for (x0, a), (x1, b) in (one, two):
            _add_path(iota, _iota_factor(m, 2, x0, a), _iota_factor(m - 1, 1, x1, b))
        return _dropped(*one) == _dropped(*two) and not any(iota.values())

    def stripe_keys(self):
        """The key (k,) of every stripe p + q = k that can be nonzero."""
        return [(k,) for k in range(self.genus + 1)]

    def stripe_cohomology(self, squares=False):
        """{p: (free, torsion)} of every stripe p + q = k (at weight r for
        the CKS complex), keyed as in stripe_keys, or the NotAComplex
        error of a stripe where d² ≠ 0, kept as a witness.  The stripes are
        built one at a time (_stripe); they share the edge records of d
        (records).

        Each stripe multiplies its differentials to check d² = 0
        (CochainComplex) unless `squares` is set, as cks_cohomology sets
        it.  Then the squares from level p (_level_squares) are read when
        the first stripe that composes d from p to p + 2 ≤ min(k, genus)
        comes, and a stripe whose levels' squares vanish is not
        multiplied.  From the first level whose squares fail, every stripe
        multiplies, and the product finds the witness."""
        out, shown = {}, 0  # the squares from the levels p < shown vanish
        for key in self.stripe_keys():
            while squares and shown < min(key[0], self.genus) - 1:
                if self._level_squares(shown) is None:
                    shown += 1
                else:
                    squares = False
            out[key] = self._stripe(*key, check_d2=not squares)
        return out

    def _stripe(self, k, *r, check_d2=True):
        """One stripe: d_columns(p, k − p, *r) at every level p = 0..min(k,
        genus) with a nonzero piece, then a CochainComplex over ranges of
        the piece sizes (with the d² product unless check_d2 is false),
        factored."""
        bases, columns = {}, {}
        for p in range(min(k, self.genus) + 1):
            bases[p] = range(self.dim(p, k - p, *r))
            if bases[p]:
                columns[p] = self.d_columns(p, k - p, *r)
        try:
            return CochainComplex(bases, columns, check_d2).cohomology()
        except NotAComplex as exc:
            return exc


def _dropped(first, second):
    """The places in C(S) of the two edges a path of two records drops:
    the first record's x0, and the second's, a place in C(S) ∖ {x0}."""
    (x0, _), (x1, _) = first, second
    return {x0, x1 + (x1 >= x0)}


def _add_path(out, first, second, sign=1):
    """Add sign · (second after first) to out, {(source, target): value};
    the factors as _read_values writes them."""
    rows = dict(second)
    for w, terms in first:
        for x, c in terms:
            for y, c2 in rows.get(x, ()):
                out[w, y] = out.get((w, y), 0) + sign * c * c2


def _wedge_index(m, n):
    """{w: place} over the increasing n-wedges of range(m), in basis order."""
    return {w: i for i, w in enumerate(itertools.combinations(range(m), n))}


def _drop(w, j):
    """Positions in C(S) other than j, renumbered as positions in
    C(S ∪ e) = C(S) ∖ {x0}, x0 at position j."""
    return tuple(x - (x > j) for x in w)


# The templates and factors are cached for the process, each a tuple of
# tuples no caller changes: one template per (m, j, n), j < m ≤ genus, and
# one factor per wedge size and distinct (x0 place, iota) of an edge record.

@functools.cache
def _iota_template(m, j, n):
    """The interior product by e on the n-wedges of a cotree C(S) of m
    sorted edges that loses its j-th edge x0 to C(S ∪ e), by position: per
    source wedge w, in basis order, a (target wedge, sign, value index)
    triple for each term.  It is the derivation Σ_t (−1)^t ⟨γ_{w_t}, e⟩
    w ∖ w_t, read from the 1-wedge products (value index w_t), followed by
    the coordinate projection that kills every rest keeping x0: when
    j ∈ w, only the term that removes it is left."""
    index = _wedge_index(m - 1, n - 1)
    return tuple(
        tuple((index[_drop(w[:t] + w[t + 1:], j)], -1 if t % 2 else 1, w[t])
              for t in ([w.index(j)] if j in w else range(n)))
        for w in itertools.combinations(range(m), n))


@functools.cache
def _restrict_template(m, j, n):
    """The restriction to C(S ∪ e) on the n-wedges of a cotree C(S) of m
    sorted edges that loses its j-th edge x0, by position: the n-th
    exterior power of its map on 1-wedges, which keeps every other edge
    and sends x0 to Σ_y b_y y over the edges y ≠ x0 of C(S), the edges of
    C(S ∪ e).  Per source wedge, in basis order, a (target wedge, sign,
    value index) triple for each term; like _iota_template, the value
    index is a position in C(S): y ≠ j reads b_y, and j the unit that
    keeps a wedge without x0."""
    index = _wedge_index(m - 1, n)
    out = []
    for w in itertools.combinations(range(m), n):
        if j not in w:
            out.append(((index[_drop(w, j)], 1, j),))
            continue
        t = w.index(j)
        rest = w[:t] + w[t + 1:]
        row = []
        for y in range(m):
            if y not in w:
                u = sum(1 for z in rest if z < y)
                row.append((index[_drop(rest[:u] + (y,) + rest[u:], j)],
                            -1 if (t + u) % 2 else 1, y))
        out.append(tuple(row))
    return tuple(out)


@functools.cache
def _iota_factor(m, q, x0, a):
    """The interior product by e on the q-wedges of a cotree C(S) of m
    edges, from an edge record's x0 place (x0) and iota values (a), by
    position: _iota_template with the values read in (_read_values)."""
    return _read_values(_iota_template(m, x0, q), a)


@functools.cache
def _restrict_factor(m, n, x0, a):
    """The restriction to C(S ∪ e) on the n-wedges of a cotree C(S) of m
    edges, likewise: _restrict_template with b_y = −a_x0 a_y read in (the
    exchange identity), and b_x0 = 1, the unit that keeps every other edge.
    At n = 0, HT's only weight, it is the 1×1 identity."""
    b = [-a[x0] * c for c in a]
    b[x0] = 1
    return _read_values(_restrict_template(m, x0, n), b)


def _read_values(template, v):
    """(source place, ((target place, sign · v[k]), ...)) for each source
    wedge of a template whose terms are not all zero, in basis order."""
    rows = (tuple((t, sign * v[k]) for t, sign, k in row if v[k]) for row in template)
    return tuple((w, terms) for w, terms in enumerate(rows) if terms)


def piece_size(faces, edges, ns):
    """The number of elements of a piece over `faces` faces whose cotrees
    have `edges` edges each: one per face and choice of an n-wedge of
    those edges for each wedge size n in ns."""
    size = faces
    for n in ns:
        size *= math.comb(edges, n)
    return size


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
    One union-find pass in Γ over the edges outside the support does both:
    they connect Γ iff the support is bond-free, and the edges it merges
    are then a spanning tree of Γ∖(support ∖ e) that avoids e.
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
        rest = [x for x in graph.order if x not in supp]
        _, merged = union_find(graph.vertices, graph.ends(rest))
        if len(merged) < graph.n_vertices - 1:  # the support holds a bond
            memo[sig] = {}
            return {}
        if all(v == 1 for v in d.values()):
            memo[sig] = {supp: 1}
            return {supp: 1}
        e = max((x for x, v in d.items() if v > 1), key=graph.pos)
        tree = [rest[i] for i in merged]
        gamma = fundamental_cycles(graph, tree, [e])[e]
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


# ---------------------------------------------------------------------------
# the homotopy data

class FGH:
    """The projection f, inclusion g, and contracting homotopy h.

    f: Z^{F_k} -> Z^{B_k} kills the image of d and restricts to the
    identity on basis faces; g is the basis inclusion; h has bidegree
    (-2, +1) and satisfies id - gf = hd + dh on the q=0 edge of each
    graded stripe and id = hd + dh elsewhere.  f and h read the choice
    [S] ∈ In(S) of each face S outside B from CoherentCotree.pick.
    """

    def __init__(self, ht):
        self.ht = ht
        self.cc = ht.cc
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
            x = self.cc.pick(s)
            s0 = s - {x}
            row = self.cc.cycles(s0).rows[x]
            out = {}
            for t in self.cc.graph.sort_edges(self.cc.tree(s0)):
                if (s0 | {t}) not in self.ht.faces:
                    continue
                c = row.get(t, 0)
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
        x0 = self.cc.pick(u)
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
        cc, rows = self.cc, self.cc.cycles(s0).rows
        for t in cc.graph.sort_edges(cc.tree(s0)):
            t_face = s0 | {t}
            if t_face not in self.ht.faces:
                continue
            # the interior product by t on w_ext in the coordinates of
            # C(S0 ∪ t): removing w_ext[i] gives (−1)^i ⟨γ_w_ext[i], t⟩, and
            # the projection that kills the lost edge keeps only the term
            # that removes it when it lies in w_ext
            lost = lost_edge(cc.C(s0), cc.C(t_face), s0, t)
            for i in [w_ext.index(lost)] if lost in w_ext else range(len(w_ext)):
                c = rows[w_ext[i]].get(t, 0)
                if not c:
                    continue
                c = -c if i % 2 else c
                for key2, c2 in self.h_element(t_face, w_ext[:i] + w_ext[i + 1:]).items():
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
        return dense(map_matrix(faces, bindex, self.f_face), len(bk), len(faces)), bk

    def g_matrix(self, k):
        faces = self.ht.faces.levels[k]
        bk = [s for s in faces if s in self.bset]
        findex = {s: i for i, s in enumerate(faces)}
        return dense(map_matrix(bk, findex, lambda b: {b: 1}), len(faces), len(bk)), bk

    def h_matrix(self, p, q):
        """h: (2p, q) -> (2p-2, q+1)."""
        src, tgt = self.ht.basis(p, q), self.ht.index(p - 1, q + 1)
        return dense(map_matrix(src, tgt, lambda b: self.h_element(*b)),
                     len(tgt), len(src))


# ---------------------------------------------------------------------------
# the ring R

class RRing:
    """The graded ring R with its monomial basis of faces, on a given FGH.

    basis_by_degree[k] lists the B-faces of size k; products of basis
    monomials are reduced to square-free combinations and projected back
    to B-coordinates through the FGH's f, and kept once per σ.
    """

    def __init__(self, fgh):
        self.fgh = fgh
        self.ht = fgh.ht
        self.basis_by_degree = fgh.cc.basis_by_degree()
        self.dims = [len(level) for level in self.basis_by_degree]
        self._bits = {e: 1 << 2 * self.ht.graph.pos(e) for e in self.ht.graph.order}
        self._products = {}

    def multiply(self, sa, sb):
        """Product of two basis monomials, in B-coordinates.  The product
        depends only on the exponent multiset σ of sa·sb, so it is reduced
        once per σ and kept under it: both orders of a pair, and every pair
        with the same σ, return the same dict.  σ(e) ≤ 2 for faces, so the
        key packs it in two bits per edge, at the edge's place in the order."""
        key = sum(map(self._bits.__getitem__, itertools.chain(sa, sb)))
        if key not in self._products:
            sigma = {}
            for e in itertools.chain(sa, sb):
                sigma[e] = sigma.get(e, 0) + 1
            self._products[key] = self.fgh.f_vector(reduce_monomial(self.ht, sigma))
        return self._products[key]


# ---------------------------------------------------------------------------
# deletion-contraction on the basis B

class DelConR:
    """Deletion-contraction setup at an edge e, built from the face
    complex Γ already has.

    Γ's faces are re-sorted into an edge order that puts e last, so that e
    avoids the cotree C(∅) and the induced tables on the deleted and
    contracted graphs make the basis split literal: B(Γ) is the disjoint
    union of {S ∪ e : S ∈ B(Γ∖e)} and B(Γ/e).  The same setup (graph,
    cc, deleted, contracted, cc_del, cc_con) carries that split at every
    periodization level (periodize.delcon_r_periodized; level 0 is Γ) and
    the CKS sequence (cks.DelConCKS).  The three graphs are built at once;
    the cotrees on first use, so a reader of the graphs alone (the Tutte
    recurrence) builds none.
    """

    def __init__(self, faces, e):
        graph = faces.graph
        if graph.is_loop(e) or contains_bond(graph, {e}):
            raise EdgeIsBondOrLoop(f"edge {e!r} is a loop or a bridge")
        self.edge = e
        self._faces = faces
        order = [x for x in graph.order if x != e] + [e]
        self.graph = Graph(graph.vertices, graph.head, graph.tail, order)
        self.deleted = self.graph.delete({e})
        self.contracted = self.graph.contract({e})

    @functools.cached_property
    def cc(self):
        cc = coherent_cotree(self.graph, FaceComplex.from_faces(
            self.graph, self._faces.faces(), self._faces.genus))
        assert self.edge not in cc.C(frozenset()), \
            "an edge ordered last cannot enter the lex-minimal cotree"
        return cc

    @functools.cached_property
    def cc_del(self):
        return induced_deletion_cotree(self.cc, self.edge, self.deleted)

    @functools.cached_property
    def cc_con(self):
        return induced_contraction_cotree(self.cc, self.edge, self.contracted)


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
