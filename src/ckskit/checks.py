"""Named verification checks over a single graph.

Each check returns (ok: bool, payload) where the payload carries either
summary data or a minimal counterexample witness.  The registry drives
both the command-line `verify`/`corpus` subcommands and the acceptance
test-suite; everything is exact integer arithmetic.
"""

import itertools

from . import activity, cks, graphs, ht, periodize
from .errors import NotAComplex, OutsideBasis
from .intlinalg import (
    _rank_and_torsion,
    identity,
    is_zero_matrix,
    map_matrix,
    matmul,
    rank,
    verify_direct_sum,
)
UNIMODULAR_EDGE_LIMIT = 6
PERIODIZE_EDGE_LIMIT = 4


class GraphContext:
    """Caches the derived structures of one graph across checks.

    Each HT and CKS stripe is built once; only its cohomology is kept.
    """

    def __init__(self, graph, choice="min"):
        if choice == "theta":
            ht.theta_edges(graph)  # reject a preset that does not fit up front
        self.graph = graph
        self.choice_preset = choice
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
    def choice(self):
        def build():
            if self.choice_preset == "theta":
                return ht.ChoiceFunction.theta_preset(self.cc)
            return ht.ChoiceFunction.minimal(self.cc)
        return self._get("choice", build)

    @property
    def fgh(self):
        return self._get("fgh", lambda: ht.FGH(self.ht, self.choice))

    @property
    def cks(self):
        return self._get("cks", lambda: cks.CKSComplex(self.graph, self.cc))

    @property
    def ht_stripes(self):
        """k -> cohomology of the HT stripe p + q = k (see _stripe_cohomology)."""
        return self._get("ht_stripes", lambda: {
            k: _stripe_cohomology(self.ht.stripe, k)
            for k in range(self.ht.genus + 1)})

    @property
    def cks_stripes(self):
        """(k, ℓ) -> cohomology of the CKS stripe (see _stripe_cohomology)."""
        return self._get("cks_stripes", lambda: {
            key: _stripe_cohomology(self.cks.stripe, *key)
            for key in self.cks.stripe_keys()})

    @property
    def tutte(self):
        return self._get("tutte", lambda: activity.tutte(self.graph))

    def tutte_delcon(self, e):
        """(T(Γ∖e), T(Γ/e)) at an admissible edge."""
        return self._get(("tutte", e), lambda: (
            activity.tutte(self.graph.delete({e})),
            activity.tutte(self.graph.contract({e}))))

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
        return self._get(("delcon", e), lambda: ht.DelConR(self.graph, e))


def _stripe_cohomology(stripe, *key):
    """{p: (free, torsion)} of one stripe, or the NotAComplex or
    OutsideBasis error that stopped its build, kept for the checks to
    report as a witness."""
    try:
        return stripe(*key).cohomology()
    except (NotAComplex, OutsideBasis) as exc:
        return exc


def _stripe_failure(stripes):
    """(stripe key, position p, reason) of the first stripe whose build
    failed, or None."""
    for key, coh in stripes.items():
        if isinstance(coh, NotAComplex):
            return key, coh.degree, "d^2 != 0"
        if isinstance(coh, OutsideBasis):
            return key, len(coh.source[0]), "d leaves the stripe"
    return None


# ---------------------------------------------------------------------------
# graph_core checks

def _elimination(family, universe_note):
    for c1, c2 in itertools.combinations(family, 2):
        for e in c1 & c2:
            union = (c1 | c2) - {e}
            if not any(c <= union for c in family):
                return False, {"pair": (sorted(map(str, c1)), sorted(map(str, c2))),
                               "edge": str(e), "family": universe_note}
    return True, None


def check_matroid(ctx):
    """Circuit elimination for cycles and bonds, symmetric basis exchange,
    and the identification of top faces with spanning cotrees."""
    ok, wit = _elimination(ctx.cycles, "cycles")
    if not ok:
        return False, wit
    ok, wit = _elimination(ctx.bonds, "bonds")
    if not ok:
        return False, wit
    cotrees = graphs.spanning_cotrees(ctx.graph)
    d = ctx.graph.genus()
    if any(len(t) != d for t in cotrees):
        return False, {"reason": "cotree of wrong cardinality"}
    if set(ctx.faces.levels[d]) != set(cotrees):
        return False, {"reason": "top faces differ from spanning cotrees"}
    for a, b in itertools.permutations(cotrees, 2):
        for x in a - b:
            found = False
            for y in b - a:
                if (graphs.is_spanning_cotree(ctx.graph, (a - {x}) | {y})
                        and graphs.is_spanning_cotree(ctx.graph, (b - {y}) | {x})):
                    found = True
                    break
            if not found:
                return False, {"reason": "basis exchange failed",
                               "pair": (sorted(map(str, a)), sorted(map(str, b))),
                               "element": str(x)}
    return True, {"cycles": len(ctx.cycles), "bonds": len(ctx.bonds),
                  "cotrees": len(cotrees)}


def check_cycle_space(ctx):
    """Cycle rows lie in ker ∂ with an identity block on the cotree, and
    for every face S the deleted graph loses exactly |S| in first homology
    while the pairing onto Z^S is surjective."""
    g = ctx.graph
    d = g.genus()
    bd = graphs.boundary_matrix(g)
    for ct in graphs.spanning_cotrees(g):
        cb = graphs.CycleBasis(g, ct)
        cm = cb.cycle_matrix()
        prod = matmul(bd, [list(col) for col in zip(*cm)]) if cm else []
        if prod and not is_zero_matrix(prod):
            return False, {"reason": "cycle not in kernel of boundary",
                           "cotree": sorted(map(str, ct))}
        ident = cb.pairing(ct)
        if any(ident[i][j] != (1 if i == j else 0)
               for i in range(len(ident)) for j in range(len(ident))):
            return False, {"reason": "no identity block", "cotree": sorted(map(str, ct))}
        if any(x not in (-1, 0, 1) for row in cb.pairing(g.eids) for x in row):
            return False, {"reason": "pairing entry outside {-1,0,1}"}
    ref = ctx.cc.cycles(frozenset())
    for s in ctx.faces.faces():
        if not s:
            continue
        sub = g.delete(s)
        if sub.genus() + len(s) != d:
            return False, {"reason": "genus did not drop by |S|", "face": sorted(map(str, s))}
        if _rank_and_torsion(ref.pairing(s)) != (len(s), []):
            return False, {"reason": "pairing onto the face is not surjective",
                           "face": sorted(map(str, s))}
    return True, None


def check_unimodular(ctx):
    """Every square minor of the full pairing matrix is -1, 0 or 1."""
    g = ctx.graph
    if g.n_edges > UNIMODULAR_EDGE_LIMIT:
        return True, {"skipped": f"|E| > {UNIMODULAR_EDGE_LIMIT}"}
    from .intlinalg import det
    cb = ctx.cc.cycles(frozenset())
    full = cb.pairing(g.eids)
    rows, cols = len(full), g.n_edges
    for k in range(1, min(rows, cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                minor = [[full[i][j] for j in ci] for i in ri]
                if det(minor) not in (-1, 0, 1):
                    return False, {"rows": ri, "cols": ci, "det": det(minor)}
    return True, None


# ---------------------------------------------------------------------------
# activity checks

def check_shelling(ctx):
    """The lexicographic facet order is a shelling: each facet meets the
    earlier ones in a pure codimension-1 complex, with a unique minimal
    new face, and the new faces form the predicted interval."""
    sh = ctx.cc.shelling
    g = ctx.graph
    for k in range(2, len(sh.cotrees) + 1):
        ct = sh.cotrees[k - 1]
        prev = sh.partial_complex(k - 1)
        members = g.sort_edges(ct)
        inter = [s for r in range(len(members) + 1)
                 for s in map(frozenset, itertools.combinations(members, r))
                 if s in prev]
        maximal = [s for s in inter if not any(s < t for t in inter)]
        if any(len(s) != len(ct) - 1 for s in maximal):
            return False, {"step": k, "reason": "intersection not pure of codim 1"}
        new = sh.new_faces(k)
        rest = sh.restriction[ct]
        expected = {s for r in range(len(members) + 1)
                    for s in map(frozenset, itertools.combinations(members, r))
                    if rest <= s}
        if new != expected:
            return False, {"step": k, "reason": "restriction interval mismatch"}
        if sh.partial_complex(k) != prev | new:
            return False, {"step": k, "reason": "partial complex mismatch"}
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


def _reorder(graph, order):
    return graphs.Graph(graph.vertices, graph.head, graph.tail, order)


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
        g2 = _reorder(g, order)
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
    """d² = 0, fg = id, fd = 0 and id − gf = hd + dh in every graded piece."""
    failure = _stripe_failure(ctx.ht_stripes)
    if failure:
        k, p, reason = failure
        return False, {"piece": (p, k - p), "reason": reason}
    htc = ctx.ht
    fgh = ctx.fgh
    for k in range(htc.genus + 1):
        fmat, bk = fgh.f_matrix(k)
        gmat, _ = fgh.g_matrix(k)
        if matmul(fmat, gmat) != identity(len(bk)):
            return False, {"grade": k, "reason": "fg != id"}
        ds = [htc.d_matrix(p, k - p) for p in range(k)]
        if k >= 1 and not is_zero_matrix(matmul(fmat, ds[k - 1])):
            return False, {"grade": k, "reason": "fd != 0"}
        # homotopy identities along the stripe p + q = k, as
        # hd + dh (+ gf at p = k) = id; matmul gives [] for an empty product
        for p in range(k + 1):
            q = k - p
            n = htc.dim(p, q)
            terms = []
            if p < k:
                terms.append(matmul(fgh.h_matrix(p + 1, q - 1), ds[p]))
            if p > 0:
                terms.append(matmul(ds[p - 1], fgh.h_matrix(p, q)))
            if p == k:
                terms.append(matmul(gmat, fmat))
            total = [[sum(t[i][j] for t in terms if t) for j in range(n)]
                     for i in range(n)]
            if total != identity(n):
                return False, {"piece": (p, q), "reason": "homotopy identity failed"}
    return True, None


def check_ht_exactness(ctx):
    """The stripe 0 → gr^k_0 → ... → gr^k_k → R^{2k} → 0 is exact: the
    cohomology of gr^k is 0 below the top and free of rank |B_k| at it,
    with no torsion, so every differential image is a direct summand."""
    failure = _stripe_failure(ctx.ht_stripes)
    if failure:
        k, p, reason = failure
        return False, {"stripe": k, "position": p, "reason": reason}
    bk_sizes = [len(level) for level in ctx.cc.basis_by_degree()]
    for k, coh in ctx.ht_stripes.items():
        for p in range(k + 1):
            free, torsion = coh.get(p, (0, []))
            if torsion:
                return False, {"stripe": k, "position": p - 1,
                               "reason": "image is not a direct summand"}
            if free != (bk_sizes[k] if p == k else 0):
                return False, {"stripe": k, "position": p,
                               "reason": "rank bookkeeping failed"}
    return True, None


def check_ht_cohomology(ctx):
    """Stripe cohomology is free of rank |B_k|, concentrated at the top
    position; torsion is reported but does not fail the check."""
    failure = _stripe_failure(ctx.ht_stripes)
    if failure:
        k, p, reason = failure
        return False, {"stripe": k, "position": p, "reason": reason}
    bk_sizes = [len(level) for level in ctx.cc.basis_by_degree()]
    torsion_seen = []
    for k, coh in ctx.ht_stripes.items():
        for p, (free, torsion) in coh.items():
            expected = bk_sizes[k] if p == k else 0
            if free != expected:
                return False, {"stripe": k, "position": p,
                               "rank": free, "expected": expected}
            if torsion:
                torsion_seen.append({"stripe": k, "position": p, "torsion": torsion})
    return True, ({"torsion_flagged": torsion_seen} if torsion_seen else None)


def check_splitting(ctx):
    """Z^{F_k} = im d ⊕ Z^{B_k} in every grade, certified by SNF."""
    htc = ctx.ht
    for k in range(htc.genus + 1):
        # for k = 0 the source basis of d is empty: a matrix with no columns
        im = htc.d_matrix(k - 1, 1)
        if not verify_direct_sum(htc.dim(k, 0), im, ctx.fgh.g_matrix(k)[0]):
            return False, {"grade": k}
    return True, None


def check_j_basis(ctx):
    """The vectors d(1_S x) with x the chosen element of In(S ∪ x) number
    |F_k ∖ B_k| per grade and have exactly that rank."""
    htc = ctx.ht
    fgh = ctx.fgh
    bset = fgh.bset
    for k in range(1, htc.genus + 1):
        src = [(s, (x,)) for s in ctx.faces.levels[k - 1] for x in ctx.cc.C(s)
               if (s | {x}) not in bset and fgh.choice[s | {x}] == x]
        faces_k = ctx.faces.levels[k]
        expected = len(faces_k) - len([s for s in faces_k if s in bset])
        if len(src) != expected:
            return False, {"grade": k, "count": len(src), "expected": expected}
        mat = map_matrix(src, htc.index(k, 0), lambda b: htc.d_element(*b))
        if rank(mat) != expected:
            return False, {"grade": k, "reason": "rank deficient"}
    return True, None


def check_cotree_elim(ctx):
    """The two-term elimination identity among d(1_x y), d(1_y x) and the
    tree-edge correction terms, compared as vectors over the faces."""
    cc = ctx.cc
    htc = ctx.ht
    g = ctx.graph
    c0 = g.sort_edges(cc.C(frozenset()))
    gamma = cc.cycles(frozenset())
    for x, y in itertools.combinations(c0, 2):
        lhs = {}
        for key, c in htc.d_element(frozenset({x}), (y,)).items():
            lhs[key] = lhs.get(key, 0) + c
        for key, c in htc.d_element(frozenset({y}), (x,)).items():
            lhs[key] = lhs.get(key, 0) - c
        rhs = {}
        for t in g.sort_edges(cc.tree(frozenset())):
            if frozenset({t}) not in ctx.faces:
                continue
            ct = cc.C(frozenset({t}))
            coeff_x = gamma.rows[y].get(t, 0)
            coeff_y = -gamma.rows[x].get(t, 0)
            for z, cz in ((x, coeff_x), (y, coeff_y)):
                if cz and z in ct:
                    for key, c in htc.d_element(frozenset({t}), (z,)).items():
                        rhs[key] = rhs.get(key, 0) + cz * c
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False, {"pair": (str(x), str(y))}
    return True, None


def check_ring(ctx):
    """Ring laws on the monomial basis: unit, commutativity, degree
    additivity, associativity, and the graded dimensions."""
    rring = ht.RRing(ctx.ht, ctx.choice)
    flat = [s for level in rring.basis_by_degree for s in level]
    unit = frozenset()
    d = ctx.graph.genus()
    for s in flat:
        if rring.multiply(unit, s) != {s: 1}:
            return False, {"reason": "unit law failed", "element": sorted(map(str, s))}
    products = {}
    for sa, sb in itertools.combinations_with_replacement(flat, 2):
        ab = rring.multiply(sa, sb)
        ba = rring.multiply(sb, sa)
        if ab != ba:
            return False, {"reason": "not commutative",
                           "pair": (sorted(map(str, sa)), sorted(map(str, sb)))}
        if any(len(b) != len(sa) + len(sb) for b in ab):
            return False, {"reason": "not degree-additive"}
        products[(sa, sb)] = ab
        products[(sb, sa)] = ab

    def mul_vec(vec, s):
        out = {}
        for b, c in vec.items():
            if len(b) + len(s) > d:
                # product of basis monomials in too-high degree is zero
                part = rring.multiply(b, s)
            else:
                part = products.get((b, s)) or rring.multiply(b, s)
            for b2, c2 in part.items():
                out[b2] = out.get(b2, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    small = [s for s in flat if len(s) <= 1]
    for sa in small:
        for sb in small:
            for sc in flat:
                left = mul_vec(products.get((sa, sb)) or rring.multiply(sa, sb), sc)
                right = mul_vec(products.get((sb, sc)) or rring.multiply(sb, sc), sa)
                if left != right:
                    return False, {"reason": "not associative",
                                   "triple": (sorted(map(str, sa)),
                                              sorted(map(str, sb)),
                                              sorted(map(str, sc)))}
    return True, {"dims": rring.dims}


def check_delcon_r(ctx):
    """Basis partition and graded dimension identity for every edge that
    is neither a loop nor a bridge."""
    results = {}
    hp = ctx.tutte.eval_y()
    for e in ctx.admissible_edges():
        dc = ctx.delcon(e)
        if not dc.check_partition():
            return False, {"edge": str(e), "reason": "basis partition failed"}
        mid, dl, cn = dc.dims()
        k = ht.delcon_grade_mismatch(mid, dl, cn)
        if k is not None:
            return False, {"edge": str(e), "grade": k,
                           "reason": "dimension identity failed"}
        t_del, t_con = ctx.tutte_delcon(e)
        if hp != t_del.eval_y() + t_con.eval_y():
            return False, {"edge": str(e), "reason": "h-polynomial additivity failed"}
        results[str(e)] = {"middle": mid, "deleted": dl, "contracted": cn}
    return True, results or {"skipped": "no admissible edge"}


# ---------------------------------------------------------------------------
# cks checks

def check_cks_d2(ctx):
    """d² = 0 in every stripe, and d maps (p, q, r) only into (p+1, q−1, r):
    map_matrix rejects any image outside that target basis."""
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
    cks.assert_euler_matches(table, cks.by_tridegree(ctx.cks_stripes))
    hh = cks.h_hat(ctx.cks)
    trees = graphs.spanning_tree_count(ctx.graph)
    if hh(-1, -1) != trees:
        return False, {"h_hat_at_-1_-1": hh(-1, -1), "trees": trees}
    return True, {"table": {f"{k},{l}": v for (k, l), v in sorted(table.items())}}


def check_hhat_tutte(ctx):
    """The generating polynomial of the Euler table is the Tutte
    polynomial with −(x+y+xy) substituted into the loop slot."""
    hh = cks.h_hat(ctx.cks)
    spec = cks.tutte_loop_specialization(ctx.graph)
    if hh != spec:
        return False, {"h_hat": str(hh), "specialization": str(spec)}
    return True, {"h_hat": str(hh)}


def check_delcon_cks(ctx):
    """Chain maps of the deletion-contraction sequence commute with d and
    are degreewise short-exact; the Euler recurrence follows.  A witness
    `piece` names the middle complex's source piece, for both squares."""
    d = ctx.graph.genus()
    for e in ctx.admissible_edges():
        dc = cks.DelConCKS(ctx.delcon(e))
        for p in range(d + 1):
            for q in range(d - p + 1):
                for r in range(d - p + 1):
                    if not dc.check_exact(p, q, r):
                        return False, {"edge": str(e), "piece": (2 * p, q, r),
                                       "reason": "not short-exact"}
                    if not dc.check_chain_maps(p, q, r):
                        return False, {"edge": str(e), "piece": (2 * p, q, r),
                                       "reason": "chain maps do not commute"}
        if not cks.euler_recurrence_holds(dc):
            return False, {"edge": str(e), "reason": "Euler recurrence failed"}
    return True, None


# ---------------------------------------------------------------------------
# periodization checks

def check_periodize(ctx, levels=(1, 2)):
    """Periodization suite: formula-vs-direct In computation, basis
    formula, native face cross-check, contraction compatibility, and the
    level-n deletion-contraction dimension identity."""
    g = ctx.graph
    if g.n_edges > PERIODIZE_EDGE_LIMIT:
        return True, {"skipped": f"|E| > {PERIODIZE_EDGE_LIMIT}"}
    cc = ctx.cc
    payload = {}
    for n in levels:
        pg, pcc = periodize.periodized_cotree(cc, n)
        # the basis first: it caches In keyed by the face complex's own
        # sets, so the In lemma's lifted copies of them add no cache entries
        ok_basis = periodize.check_basis_formula(cc, pg, pcc)[0]
        if not periodize.check_in_lemma(cc, pg, pcc)[0]:
            return False, {"level": n, "reason": "In formula mismatch"}
        if not ok_basis:
            return False, {"level": n, "reason": "basis formula mismatch"}
        del pcc  # keeps it out of the peak memory of the checks below
        native = periodize.native_face_check(cc, n)
        if native is False:
            return False, {"level": n, "reason": "face product description wrong"}
        if pg.graph.genus() != g.genus():
            return False, {"level": n, "reason": "genus changed"}
        ok, _ = periodize.check_contraction_compatibility(cc, n)
        if not ok:
            return False, {"level": n, "reason": "contraction compatibility failed"}
        for e in ctx.admissible_edges():
            rep = periodize.delcon_r_periodized(ctx.delcon(e), n)
            if not rep["dimension_identity"] or not rep["basis_partition"]:
                return False, {"level": n, "edge": str(e), "report": rep}
        payload[f"level_{n}"] = "ok"
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


def run_checks(graph, names=None, choice="min"):
    """Run the selected checks (all by default) on one graph.

    Returns a dict name -> {"passed": bool, "payload": ...}; unknown
    names raise KeyError."""
    if names is None:
        names = list(CHECKS)
    for name in names:
        if name not in CHECKS:
            raise KeyError(name)
    ctx = GraphContext(graph, choice=choice)
    out = {}
    for name in names:
        ok, payload = CHECKS[name](ctx)
        out[name] = {"passed": bool(ok), "payload": payload}
    return out
