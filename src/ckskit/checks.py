"""Named verification checks over a single graph.

Each check returns (ok: bool, payload) where the payload carries either
summary data or a minimal counterexample witness.  The registry drives
both the command-line `verify`/`corpus` subcommands and the acceptance
test-suite; everything is exact integer arithmetic.
"""

import itertools

from . import activity, cks, graphs, ht, periodize
from .errors import NotAComplex
from .intlinalg import _factor, _rank_and_torsion, det
PERIODIZE_EDGE_LIMIT = 4
PERIODIZE_LEVELS = (1, 2)


class GraphContext:
    """Caches the derived structures of one graph across checks.

    Each HT and CKS stripe is built once; of a CKS stripe only its
    cohomology is kept, while the HT complex (ht) also keeps the columns
    of d, which the HT checks read again.
    """

    def __init__(self, graph):
        self.graph = graph
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def faces(self):
        return self._get("faces", lambda: graphs.face_complex(self.graph))

    @property
    def cc(self):
        return self._get("cc", lambda: activity.coherent_cotree(self.graph, self.faces))

    @property
    def ht(self):
        return self._get("ht", lambda: ht.HTComplex(self.graph, self.cc))

    @property
    def fgh(self):
        return self._get("fgh", lambda: ht.FGH(self.ht))

    @property
    def cks(self):
        return self._get("cks", lambda: cks.CKSComplex(self.graph, self.cc))

    @property
    def ht_stripes(self):
        """k -> cohomology of the HT stripe p + q = k, or its NotAComplex
        witness (HTComplex.stripe_cohomology)."""
        return self._get("ht_stripes", lambda: {
            k: coh for (k,), coh in self.ht.stripe_cohomology().items()})

    @property
    def cks_stripes(self):
        """(k, ℓ) -> cohomology of the CKS stripe, or its NotAComplex
        witness (HTComplex.stripe_cohomology)."""
        return self._get("cks_stripes", self.cks.stripe_cohomology)

    @property
    def tutte(self):
        return self._get("tutte", lambda: activity.tutte(self.graph))

    def tutte_delcon(self, e):
        """(T(Γ∖e), T(Γ/e)) at an admissible edge, from the deleted and
        contracted graphs of its setup (delcon): the setup only moves e to
        the end of the edge order, and both graphs drop e."""
        def build():
            setup = self.delcon(e)
            return activity.tutte(setup.deleted), activity.tutte(setup.contracted)
        return self._get(("tutte", e), build)

    @property
    def cycles(self):
        return self._get("cycles", lambda: graphs.enumerate_cycles(self.graph))

    @property
    def bonds(self):
        return self._get("bonds", lambda: graphs.enumerate_bonds(self.graph))

    def admissible_edges(self):
        """Edges that are neither loops nor bridges."""
        return self._get("admissible", lambda: [
            e for e in self.graph.order
            if not self.graph.is_loop(e)
            and not graphs.contains_bond(self.graph, {e})])

    def delcon(self, e):
        """The deletion-contraction setup (an ht.DelConR) at an admissible
        edge, built once and shared by every check that needs it."""
        return self._get(("delcon", e), lambda: ht.DelConR(self.faces, e))


def _stripe_failure(stripes):
    """(stripe key, position p, reason) of the first stripe where d² ≠ 0
    (a NotAComplex witness), or None."""
    for key, coh in stripes.items():
        if isinstance(coh, NotAComplex):
            return key, coh.degree, "d^2 != 0"
    return None


# ---------------------------------------------------------------------------
# graph_core checks

def _elimination(graph, family, universe_note):
    for c1, c2 in itertools.combinations(family, 2):
        for e in graph.sort_edges(c1 & c2):
            union = (c1 | c2) - {e}
            if not any(c <= union for c in family):
                return False, {"pair": (sorted(map(str, c1)), sorted(map(str, c2))),
                               "edge": str(e), "family": universe_note}
    return True, None


def check_matroid(ctx):
    """Circuit elimination for cycles and bonds, symmetric basis exchange,
    and the identification of top faces with spanning cotrees."""
    g = ctx.graph
    ok, wit = _elimination(g, ctx.cycles, "cycles")
    if not ok:
        return False, wit
    ok, wit = _elimination(g, ctx.bonds, "bonds")
    if not ok:
        return False, wit
    cotrees = graphs.spanning_cotrees(g)
    d = g.genus()
    if any(len(t) != d for t in cotrees):
        return False, {"reason": "cotree of wrong cardinality"}
    if set(ctx.faces.levels[d]) != set(cotrees):
        return False, {"reason": "top faces differ from spanning cotrees"}
    # the two families are equal, so exchange is tested by membership, on
    # cotrees as bitmasks of edge positions; x and y run over the bits of
    # a ∖ b and b ∖ a from the lowest, the least edge first
    masks = [sum(1 << g.pos(e) for e in t) for t in cotrees]
    members = set(masks)
    for (a, ta), (b, tb) in itertools.permutations(zip(masks, cotrees), 2):
        xs = a & ~b
        while xs:
            x = xs & -xs
            xs ^= x
            ys = b & ~a
            while ys:
                y = ys & -ys
                ys ^= y
                if (a ^ x | y) in members and (b ^ y | x) in members:
                    break
            else:
                return False, {"reason": "basis exchange failed",
                               "pair": (sorted(map(str, ta)), sorted(map(str, tb))),
                               "element": str(g.order[x.bit_length() - 1])}
    return True, {"cycles": len(ctx.cycles), "bonds": len(ctx.bonds),
                  "cotrees": len(cotrees)}


def check_cycle_space(ctx):
    """Cycle rows lie in ker ∂ with an identity block on the cotree, and
    for every face S the deleted graph loses exactly |S| in first homology
    while the pairing onto Z^S is surjective.  b₁(Γ∖S) = |E| − |S| − |V| +
    c(Γ∖S), so the genus drops by |S| iff S contains no bond (read in Γ)."""
    g = ctx.graph
    d = g.genus()
    for ct in ctx.faces.levels[d]:
        cb = graphs.CycleBasis(g, ct)
        for row in cb.rows.values():
            boundary = dict.fromkeys(g.vertices, 0)
            for e, c in row.items():
                boundary[g.head[e]] += c
                boundary[g.tail[e]] -= c
            if any(boundary.values()):
                return False, {"reason": "cycle not in kernel of boundary",
                               "cotree": sorted(map(str, ct))}
        if any(row.get(y, 0) != (x == y) for x, row in cb.rows.items() for y in ct):
            return False, {"reason": "no identity block", "cotree": sorted(map(str, ct))}
        if any(c not in (-1, 0, 1) for row in cb.rows.values() for c in row.values()):
            return False, {"reason": "pairing entry outside {-1,0,1}"}
    ref = ctx.cc.cycles(frozenset())
    for s in ctx.faces.faces():
        if not s:
            continue
        if graphs.contains_bond(g, s):
            return False, {"reason": "genus did not drop by |S|", "face": sorted(map(str, s))}
        if _rank_and_torsion(ref.pairing(s)) != (len(s), []):
            return False, {"reason": "pairing onto the face is not surjective",
                           "face": sorted(map(str, s))}
    return True, None


def check_unimodular(ctx):
    """Every square minor of the full pairing matrix is -1, 0 or 1.

    The g × |E| pairing of the reference cycle basis holds the identity on
    the columns of C(∅), and only its g × g minors are computed (Schrijver
    1986, ch. 19).  They suffice: given a k × k minor on the rows R, add
    the unit columns of the rows outside R.  If none of them is among the
    minor's columns, the g × g minor this gives is ± the k × k one;
    otherwise the k × k minor has a zero column and is 0."""
    g = ctx.graph
    cb = ctx.cc.cycles(frozenset())
    full = cb.pairing(g.eids)
    if any(cb.rows[x].get(y, 0) != (x == y) for x in cb.cotree for y in cb.cotree):
        return False, {"reason": "no identity block", "cotree": sorted(map(str, cb.cotree))}
    for cols in itertools.combinations(range(g.n_edges), len(full)):
        minor = det([[row[j] for j in cols] for row in full])
        if minor not in (-1, 0, 1):
            return False, {"cols": cols, "det": minor}
    return True, None


# ---------------------------------------------------------------------------
# activity checks

def check_shelling(ctx):
    """The lexicographic facet order is a shelling: each facet T meets the
    earlier ones in a pure codimension-1 complex, and the faces T adds are
    exactly the interval [R(T), T] of its restriction face.  The covered
    faces are collected here, apart from the construction."""
    sh = ctx.cc.shelling
    g = ctx.graph
    covered = set()
    for k, ct in enumerate(sh.cotrees, 1):
        members = g.sort_edges(ct)
        subsets = [frozenset(c) for r in range(len(members) + 1)
                   for c in itertools.combinations(members, r)]
        # a covered face is maximal when no face one edge larger is covered
        if any(len(s) != len(ct) - 1 and not any(s | {e} in covered for e in ct - s)
               for s in subsets if s in covered):
            return False, {"step": k, "reason": "intersection not pure of codim 1"}
        added = {s for s in subsets if s not in covered}
        interval = {s for s in subsets if sh.restriction[ct] <= s}
        if not added <= interval:
            return False, {"step": k, "reason": "partial complex mismatch"}
        if added != interval:
            return False, {"step": k, "reason": "restriction interval mismatch"}
        covered |= added
    return True, {"facets": len(sh.cotrees)}


def check_coherence(ctx):
    """Defining invariants of the coherent cotree plus the three clauses
    of the In-subset lemma for every face/edge pair."""
    cc = ctx.cc
    if not cc.validate():
        return False, {"reason": "coherent cotree invariants failed"}
    g = ctx.graph
    for s in ctx.faces.faces():
        in_s = cc.in_set(s)
        for e in g.sort_edges(g.eids - s):
            if (s | {e}) not in ctx.faces:
                continue
            # In computed inside the graph with e deleted (induced table)
            in_del = frozenset(y for y in s if y in cc.C((s - {y}) | {e}))
            if not in_del <= in_s:
                return False, {"face": sorted(map(str, s)), "edge": str(e),
                               "clause": "deletion-monotonicity"}
            if e in cc.tree(s):
                if cc.in_set(s | {e}) != in_del:
                    return False, {"face": sorted(map(str, s)), "edge": str(e),
                                   "clause": "tree-edge"}
            if e in cc.C(s):
                if cc.in_set(s | {e}) != in_del | {e} or in_del | {e} != in_s | {e}:
                    return False, {"face": sorted(map(str, s)), "edge": str(e),
                                   "clause": "cotree-edge"}
    return True, None


def check_activity(ctx):
    """In(T*) equals the external activity of the complementary tree; the
    two descriptions of the basis agree; graded basis sizes match the
    reversed coefficients of T(1, q)."""
    g = ctx.graph
    cc = ctx.cc
    d = g.genus()
    for ct in ctx.faces.levels[d]:
        ea = activity.external_activity(g, g.eids - ct)
        if cc.in_set(ct) != ea:
            return False, {"cotree": sorted(map(str, ct)),
                           "in": sorted(map(str, cc.in_set(ct))),
                           "ea": sorted(map(str, ea))}
    via_in = set(cc.basis())
    via_cotrees = {ct - cc.in_set(ct) for ct in ctx.faces.levels[d]}
    if via_in != via_cotrees:
        return False, {"reason": "the two descriptions of the basis differ"}
    hp = ctx.tutte.eval_y()
    sizes = [len(level) for level in cc.basis_by_degree()]
    expected = [hp.coeff(d - k) for k in range(d + 1)]
    if sizes != expected:
        return False, {"sizes": sizes, "h_poly": expected}
    return True, {"dims": sizes}


def check_tutte(ctx):
    """Rank-nullity Tutte equals the activity Tutte under several edge
    orders; deletion-contraction recurrence; T(1,1) counts spanning trees."""
    g = ctx.graph
    t = ctx.tutte
    base = list(g.order)
    orders = [base, base[::-1], base[1:] + base[:1]]
    seen = set()
    for order in orders:
        key = tuple(order)
        if key in seen:
            continue
        seen.add(key)
        g2 = graphs.Graph(g.vertices, g.head, g.tail, order)
        if activity.tutte_by_activity(g2) != t:
            return False, {"order": [str(e) for e in order]}
    for e in ctx.admissible_edges():
        t_del, t_con = ctx.tutte_delcon(e)
        if t_del + t_con != t:
            return False, {"edge": str(e), "reason": "deletion-contraction failed"}
    trees = graphs.spanning_tree_count(g)
    if t(1, 1) != trees:
        return False, {"tutte_11": t(1, 1), "kirchhoff": trees}
    hp = t.eval_y()
    if hp(1) != trees:
        return False, {"h_at_1": hp(1), "kirchhoff": trees}
    return True, {"tutte": str(t), "trees": trees}


# ---------------------------------------------------------------------------
# ht checks

def check_ht_identities(ctx):
    """d² = 0, fg = id, fd = 0 and id − gf = hd + dh in every graded piece,
    element by element: d from its sparse columns (d_columns), f and g
    from FGH.f_face, f_vector and g_face, h from FGH.h_element."""
    failure = _stripe_failure(ctx.ht_stripes)
    if failure:
        k, p, reason = failure
        return False, {"piece": (p, k - p), "reason": reason}
    htc, fgh = ctx.ht, ctx.fgh
    for k in range(htc.genus + 1):
        # the (k, 0) piece holds one element (S, ()) per face, in level order
        level = ctx.faces.levels[k]
        if any(fgh.f_face(b) != {b: 1} for b in level if b in fgh.bset):
            return False, {"grade": k, "reason": "fg != id"}
        if k and any(fgh.f_vector({level[i]: x for i, x in col.items()})
                     for col in htc.d_columns(k - 1, 1).values()):
            return False, {"grade": k, "reason": "fd != 0"}
        # hd + dh (+ gf at p = k) = id on each element of the stripe p + q = k
        for p in range(k + 1):
            q = k - p
            index = htc.index(p, q)
            d_out = htc.d_columns(p, q) if q else {}
            d_in = htc.d_columns(p - 1, q + 1) if p else {}
            for j, b in enumerate(htc.basis(p, q)):
                out = {}
                for i, x in d_out.get(j, {}).items():
                    for c, y in fgh.h_element(*htc.basis(p + 1, q - 1)[i]).items():
                        out[index[c]] = out.get(index[c], 0) + x * y
                for c, x in (fgh.h_element(*b) if p else {}).items():
                    for i, y in d_in.get(htc.index(p - 1, q + 1)[c], {}).items():
                        out[i] = out.get(i, 0) + x * y
                for s, x in (fgh.f_face(b[0]) if not q else {}).items():
                    for c, y in fgh.g_face(s).items():
                        out[index[c]] = out.get(index[c], 0) + x * y
                if {i: x for i, x in out.items() if x} != {j: 1}:
                    return False, {"piece": (p, q), "reason": "homotopy identity failed"}
    return True, None


def _ht_stripe_groups(ctx):
    """The walk both HT stripe checks share: the witness of the first
    stripe where d² ≠ 0 and no groups, or None and (k, p, free, torsion,
    expected free rank) per nonzero position p of each stripe k, in order."""
    failure = _stripe_failure(ctx.ht_stripes)
    if failure:
        k, p, reason = failure
        return {"stripe": k, "position": p, "reason": reason}, []
    bk_sizes = [len(level) for level in ctx.cc.basis_by_degree()]
    return None, [(k, p, free, torsion, bk_sizes[k] if p == k else 0)
                  for k, coh in ctx.ht_stripes.items()
                  for p, (free, torsion) in coh.items()]


def check_ht_exactness(ctx):
    """The stripe 0 → gr^k_0 → ... → gr^k_k → R^{2k} → 0 is exact: the
    cohomology of gr^k is 0 below the top and free of rank |B_k| at it,
    with no torsion, so every differential image is a direct summand."""
    failure, groups = _ht_stripe_groups(ctx)
    for k, p, free, torsion, expected in groups:
        if torsion:
            return False, {"stripe": k, "position": p - 1,
                           "reason": "image is not a direct summand"}
        if free != expected:
            return False, {"stripe": k, "position": p,
                           "reason": "rank bookkeeping failed"}
    return failure is None, failure


def check_ht_cohomology(ctx):
    """Stripe cohomology is free of rank |B_k|, concentrated at the top
    position; torsion is reported but does not fail the check."""
    failure, groups = _ht_stripe_groups(ctx)
    torsion_seen = []
    for k, p, free, torsion, expected in groups:
        if free != expected:
            return False, {"stripe": k, "position": p,
                           "rank": free, "expected": expected}
        if torsion:
            torsion_seen.append({"stripe": k, "position": p, "torsion": torsion})
    if failure:
        return False, failure
    return True, ({"torsion_flagged": torsion_seen} if torsion_seen else None)


def check_splitting(ctx):
    """Z^{F_k} = im d ⊕ Z^{B_k} in every grade, certified from the rows of
    d: those at the faces outside B_k map onto Z^{F_k ∖ B_k} (rank
    |F_k ∖ B_k|, no torsion), so Z^{F_k} = im d + Z^{B_k}, and d has no
    larger rank, so im d meets Z^{B_k} only in 0."""
    htc, bset = ctx.ht, set(ctx.cc.basis())
    for k in range(htc.genus + 1):
        # the rows are the (k, 0) piece, one per face of level k in level
        # order; for k = 0 the source basis is empty: rows with no entries
        d = htc.d_matrix(k - 1, 1)
        rest = [row for row, s in zip(d, ctx.faces.levels[k]) if s not in bset]
        if (_rank_and_torsion(rest) != (len(rest), [])
                or _rank_and_torsion(d)[0] != len(rest)):
            return False, {"grade": k}
    return True, None


def check_j_basis(ctx):
    """The vectors d(1_S x) with x = [S ∪ x] (CoherentCotree.pick) number
    |F_k ∖ B_k| per grade and have exactly that rank."""
    htc, cc, bset = ctx.ht, ctx.cc, set(ctx.cc.basis())
    for k in range(1, htc.genus + 1):
        src = [(s, (x,)) for s in ctx.faces.levels[k - 1] for x in cc.C(s)
               if (s | {x}) not in bset and cc.pick(s | {x}) == x]
        faces_k = ctx.faces.levels[k]
        expected = len(faces_k) - len([s for s in faces_k if s in bset])
        if len(src) != expected:
            return False, {"grade": k, "count": len(src), "expected": expected}
        # d(1_S x) is the column of (S, (x,)) in d: (2k − 2, 1) -> (2k, 0)
        d, index = htc.d_columns(k - 1, 1), htc.index(k - 1, 1)
        if _factor({n: d.get(index[b], {}) for n, b in enumerate(src)})[0] != expected:
            return False, {"grade": k, "reason": "rank deficient"}
    return True, None


def check_cotree_elim(ctx):
    """The two-term elimination identity among d(1_x y), d(1_y x) and the
    tree-edge correction terms, compared as vectors over the faces.  Each
    d(1_S z) is the column of ({S}, (z,)) in the d that ships,
    d_columns(1, 1), whose rows are the places of the faces of size 2."""
    cc = ctx.cc
    htc = ctx.ht
    g = ctx.graph
    c0 = g.sort_edges(cc.C(frozenset()))
    gamma = cc.cycles(frozenset())
    d, index = htc.d_columns(1, 1), htc.index(1, 1)

    def column(s, z):
        return d.get(index[(frozenset({s}), (z,))], {}).items()

    for x, y in itertools.combinations(c0, 2):
        lhs = {}
        for i, c in column(x, y):
            lhs[i] = lhs.get(i, 0) + c
        for i, c in column(y, x):
            lhs[i] = lhs.get(i, 0) - c
        rhs = {}
        for t in g.sort_edges(cc.tree(frozenset())):
            if frozenset({t}) not in ctx.faces:
                continue
            ct = cc.C(frozenset({t}))
            coeff_x = gamma.rows[y].get(t, 0)
            coeff_y = -gamma.rows[x].get(t, 0)
            for z, cz in ((x, coeff_x), (y, coeff_y)):
                if cz and z in ct:
                    for i, c in column(t, z):
                        rhs[i] = rhs.get(i, 0) + cz * c
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False, {"pair": (str(x), str(y))}
    return True, None


def check_ring(ctx):
    """Ring laws on the monomial basis: unit, commutativity, degree
    additivity, associativity, and the graded dimensions, over the graph's
    own FGH.  RRing.multiply keys each product by the exponent multiset σ
    of the pair, so associativity's products are hits in that one cache,
    and σ is the same in both orders: commutativity holds by construction;
    the comparison of ab with ba is kept, and fails only if that keying
    breaks."""
    rring = ht.RRing(ctx.fgh)
    flat = [s for level in rring.basis_by_degree for s in level]
    unit = frozenset()
    for s in flat:
        if rring.multiply(unit, s) != {s: 1}:
            return False, {"reason": "unit law failed", "element": sorted(map(str, s))}
    for sa, sb in itertools.combinations_with_replacement(flat, 2):
        ab = rring.multiply(sa, sb)
        if ab != rring.multiply(sb, sa):
            return False, {"reason": "not commutative",
                           "pair": (sorted(map(str, sa)), sorted(map(str, sb)))}
        if any(len(b) != len(sa) + len(sb) for b in ab):
            return False, {"reason": "not degree-additive"}

    def mul_vec(vec, s):
        out = {}
        for b, c in vec.items():
            for b2, c2 in rring.multiply(b, s).items():
                out[b2] = out.get(b2, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    small = [s for s in flat if len(s) <= 1]
    for sa in small:
        for sb in small:
            for sc in flat:
                left = mul_vec(rring.multiply(sa, sb), sc)
                right = mul_vec(rring.multiply(sb, sc), sa)
                if left != right:
                    return False, {"reason": "not associative",
                                   "triple": (sorted(map(str, sa)),
                                              sorted(map(str, sb)),
                                              sorted(map(str, sc)))}
    return True, {"dims": rring.dims}


def check_delcon_r(ctx):
    """Basis partition and graded dimension identity for every edge that
    is neither a loop nor a bridge, read from the level-0 periodization
    of its setup (Γ itself), and additivity of the h-polynomial."""
    results = {}
    hp = ctx.tutte.eval_y()
    for e in ctx.admissible_edges():
        rep = periodize.delcon_r_periodized(ctx.delcon(e), 0)
        if not rep["basis_partition"]:
            return False, {"edge": str(e), "reason": "basis partition failed"}
        dims = rep["dims"]
        k = periodize.delcon_grade_mismatch(dims["middle"], dims["deleted"],
                                            dims["contracted"])
        if k is not None:
            return False, {"edge": str(e), "grade": k,
                           "reason": "dimension identity failed"}
        t_del, t_con = ctx.tutte_delcon(e)
        if hp != t_del.eval_y() + t_con.eval_y():
            return False, {"edge": str(e), "reason": "h-polynomial additivity failed"}
        results[str(e)] = dims
    return True, results or {"skipped": "no admissible edge"}


# ---------------------------------------------------------------------------
# cks checks

def check_cks_d2(ctx):
    """d² = 0 in every stripe; d maps (p, q, r) only into (p+1, q−1, r), since
    d_columns places each face block inside that target piece."""
    failure = _stripe_failure(ctx.cks_stripes)
    if failure:
        (k, ell), p, reason = failure
        return False, {"piece": (2 * p, k - p, ell), "reason": reason}
    return True, None


def check_euler(ctx):
    """Euler table from dimensions agrees with the one from cohomology
    ranks, and the signed total equals ± the spanning-tree count."""
    failure = _stripe_failure(ctx.cks_stripes)
    if failure:
        key, p, reason = failure
        return False, {"stripe": key, "position": p, "reason": reason}
    table = cks.euler_table(ctx.cks)
    key = cks.euler_mismatch(table, cks.by_tridegree(ctx.cks_stripes))
    if key is not None:
        return False, {"stripe": key, "reason": "Euler characteristic mismatch"}
    hh = cks.h_hat(ctx.cks)
    trees = graphs.spanning_tree_count(ctx.graph)
    if hh(-1, -1) != trees:
        return False, {"h_hat_at_-1_-1": hh(-1, -1), "trees": trees}
    return True, {"table": {f"{k},{l}": v for (k, l), v in sorted(table.items())}}


def check_hhat_tutte(ctx):
    """The generating polynomial of the Euler table is the Tutte
    polynomial with −(x+y+xy) substituted into the loop slot."""
    hh = cks.h_hat(ctx.cks)
    spec = cks.tutte_loop_specialization(ctx.tutte)
    if hh != spec:
        return False, {"h_hat": str(hh), "specialization": str(spec)}
    return True, {"h_hat": str(hh)}


def check_delcon_cks(ctx):
    """Chain maps of the deletion-contraction sequence commute with d and
    are degreewise short-exact; the Euler recurrence follows.  Checked one
    face level p at a time, at each admissible edge.  Every piece of a
    level has the same exactness verdict (cks.DelConCKS), so a level that
    is not short-exact reports the piece (2p, 0, 0); chain maps that do
    not commute report the first failing piece (2p, q, r) of their level,
    the middle complex's source piece for both squares."""
    d = ctx.graph.genus()
    edges = ctx.admissible_edges()
    recurrences = cks.euler_recurrences(ctx.faces, edges)
    for e in edges:
        dc = cks.DelConCKS(ctx.delcon(e))
        for p in range(d + 1):
            if not dc.check_exact(p):
                return False, {"edge": str(e), "piece": (2 * p, 0, 0),
                               "reason": "not short-exact"}
            failed = dc.check_chain_maps(p)
            if failed is not None:
                return False, {"edge": str(e), "piece": (2 * p, *failed),
                               "reason": "chain maps do not commute"}
        if not recurrences[e]:
            return False, {"edge": str(e), "reason": "Euler recurrence failed"}
    return True, None


# ---------------------------------------------------------------------------
# periodization checks

def check_periodize(ctx):
    """Periodization suite at PERIODIZE_LEVELS: periodize.level_checks (In
    formula, basis formula, face product, level-n deletion-contraction
    reports), the genus of the periodized graph, and contraction
    compatibility.  The face product is cross-checked against exhaustive
    enumeration only where the periodized graph has at most
    periodize.NATIVE_MAX_EDGES edges; above that it is not run, the level
    reads "ok, face product not run", and only a check that ran and failed
    fails the suite.  Each level's basis is carried to the next, so no
    (cotree, level) basis is computed twice."""
    g = ctx.graph
    if g.n_edges > PERIODIZE_EDGE_LIMIT:
        return True, {"skipped": f"|E| > {PERIODIZE_EDGE_LIMIT}"}
    cc = ctx.cc
    setups = [ctx.delcon(e) for e in ctx.admissible_edges()]
    basis = periodize.basis_by_formula(cc, PERIODIZE_LEVELS[0])
    payload = {}
    for n in PERIODIZE_LEVELS:
        # keeping only the report frees the periodized cotree before the
        # next level's basis is built, which keeps the peak memory down
        report = periodize.level_checks(cc, n, basis, setups)[1]
        for ok, reason in ((report["in_formula"], "In formula mismatch"),
                           (report["basis_formula"], "basis formula mismatch"),
                           (report["faces_product"] is not False,
                            "face product description wrong"),
                           (report["genus"] == g.genus(), "genus changed")):
            if not ok:
                return False, {"level": n, "reason": reason}
        outer = periodize.basis_by_formula(cc, n + 1)
        if not periodize.check_contraction_compatibility(outer, basis, n)[0]:
            return False, {"level": n, "reason": "contraction compatibility failed"}
        for rep in report["delcon"]:
            if not rep["dimension_identity"] or not rep["basis_partition"]:
                return False, {"level": n, "edge": str(rep["edge"]), "report": rep}
        basis = outer
        payload[f"level_{n}"] = ("ok" if report["faces_product"] is not None
                                 else "ok, face product not run")
    return True, payload


# ---------------------------------------------------------------------------
# registry

CHECKS = {
    "matroid": check_matroid,
    "cycle_space": check_cycle_space,
    "unimodular": check_unimodular,
    "shelling": check_shelling,
    "coherence": check_coherence,
    "activity": check_activity,
    "tutte": check_tutte,
    "ht_identities": check_ht_identities,
    "ht_exactness": check_ht_exactness,
    "ht_cohomology": check_ht_cohomology,
    "splitting": check_splitting,
    "j_basis": check_j_basis,
    "cotree_elim": check_cotree_elim,
    "ring": check_ring,
    "delcon_r": check_delcon_r,
    "cks_d2": check_cks_d2,
    "euler": check_euler,
    "hhat_tutte": check_hhat_tutte,
    "delcon_cks": check_delcon_cks,
    "periodize": check_periodize,
}


def run_checks(graph, names=None):
    """Run the selected checks (all by default) on one graph, each name
    once, in the order of its first occurrence.

    Returns a dict name -> {"passed": bool, "payload": ...}; unknown
    names raise KeyError."""
    names = list(CHECKS if names is None else dict.fromkeys(names))
    for name in names:
        if name not in CHECKS:
            raise KeyError(name)
    ctx = GraphContext(graph)
    out = {}
    for name in names:
        ok, payload = CHECKS[name](ctx)
        out[name] = {"passed": bool(ok), "payload": payload}
    return out
