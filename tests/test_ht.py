"""The face-stratified wedge complex: differential, reduction, f/g/h, ring."""

import collections
import copy
import itertools
import random
import sys

import pytest

from ckskit import checks, corpus
from ckskit.activity import coherent_cotree
from ckskit.checks import (
    GraphContext,
    check_ht_cohomology,
    check_ht_exactness,
    check_cotree_elim,
    check_ht_identities,
    check_j_basis,
    check_splitting,
    run_checks,
)
from ckskit.errors import (
    EdgeIsBondOrLoop,
    NotAComplex,
    OutsideBasis,
    SupportContainsBond,
)
from ckskit.graphs import (
    build_graph,
    contains_bond,
    face_complex,
    fundamental_cycle,
    spanning_cotrees,
    union_find,
)
from ckskit.ht import (
    DelConR,
    FGH,
    HTComplex,
    RRing,
    build_ht,
    reduce_monomial,
)
from ckskit.intlinalg import identity, is_zero_matrix, map_matrix, matmul
from ckskit.periodize import delcon_r_periodized
import element_wise
from element_wise import d_element, iota, pair
from test_cks import K5, W5, in_both_orders, raise_pairing
from test_intlinalg import stacked_direct_sum

THETA = corpus.theta_graph()
# the wheel with hub 0 and rim 1-2-3-4, genus 4
W4 = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
THETA6 = build_graph([(0, 1)] * 6)
X, Y, Z = 0, 1, 2


def fs(*edges):
    return frozenset(edges)


@pytest.fixture(scope="module")
def theta():
    ht = HTComplex(THETA, coherent_cotree(THETA))
    return ht, FGH(ht)


def test_basis_dimensions(theta):
    ht, _ = theta
    assert ht.dim(0, 0) == 1 and ht.dim(0, 1) == 2 and ht.dim(0, 2) == 1
    assert ht.dim(1, 0) == 3 and ht.dim(1, 1) == 3
    assert ht.dim(2, 0) == 3 and ht.dim(2, 1) == 0


def test_differential_of_top_cycle(theta):
    # the cycle attached to the cotree of {z} pairs +1 with x and -1 with y,
    # in the element-wise oracle and in the column of d that ships
    ht, _ = theta
    expected = {(fs(X, Z), ()): 1, (fs(Y, Z), ()): -1}
    assert d_element(ht, fs(Z), (X,)) == expected
    column = ht.d_columns(1, 1)[ht.index(1, 1)[(fs(Z), (X,))]]
    assert {ht.basis(2, 0)[i]: c for i, c in column.items()} == expected


def test_d_squared_is_zero(theta):
    ht, _ = theta
    for p in range(3):
        for q in range(3 - p):
            prod = matmul(ht.d_matrix(p + 1, q - 1), ht.d_matrix(p, q))
            assert not prod or is_zero_matrix(prod)


def test_reduce_monomial_square(theta):
    # z^2 rewrites to a single square-free monomial sharing its ring class
    ht, fgh = theta
    red = reduce_monomial(ht, {Z: 2})
    assert red == {fs(X, Z): 1}
    assert fgh.f_vector(red) == {fs(Y, Z): 1}


def test_reduce_monomial_bond_support_vanishes(theta):
    ht, _ = theta
    assert reduce_monomial(ht, {X: 1, Y: 1, Z: 1}) == {}
    assert reduce_monomial(ht, {X: 2, Y: 1, Z: 1}) == {}


def test_reduce_monomial_trivial_cases(theta):
    ht, _ = theta
    assert reduce_monomial(ht, {}) == {fs(): 1}
    assert reduce_monomial(ht, {X: 1, Y: 1}) == {fs(X, Y): 1}


def test_reduce_monomial_rejects_an_exponent_outside_the_graph(theta):
    ht, _ = theta
    for sigma in ({7: 1}, {X: 1, 7: 2}):
        with pytest.raises(SupportContainsBond):
            reduce_monomial(ht, sigma)


def _reduce_monomial_in_the_deletion(ht, sigma):
    """The reference reduction, which builds Γ∖(S ∖ e) for the support S:
    the spanning tree of its edges other than e that union_find merges,
    and the cycle of e walked in that tree by fundamental_cycle."""
    graph = ht.graph
    memo = {}

    def red(sig):
        if sig not in memo:
            d = dict(sig)
            supp = frozenset(d)
            if contains_bond(graph, supp):
                memo[sig] = {}
            elif all(v == 1 for v in d.values()):
                memo[sig] = {supp: 1}
            else:
                e = max((x for x, v in d.items() if v > 1), key=graph.pos)
                s0 = supp - {e}
                sub = graph.delete(s0) if s0 else graph
                rest = [x for x in sub.order if x != e]
                _, merged = union_find(sub.vertices, sub.ends(rest))
                gamma = fundamental_cycle(sub, frozenset(rest[i] for i in merged), e)
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
                memo[sig] = {k: v for k, v in out.items() if v}
        return memo[sig]

    return red(frozenset(sigma.items())) if sigma else {frozenset(): 1}


def test_reduce_monomial_matches_the_reduction_in_the_deletion():
    # every monomial of degree 2 and 3, in values and in key order
    monomials = 0
    for g in [g for _, g in corpus.corpus_graphs(bound=5)] + [THETA6]:
        ht = build_ht(g)
        for k in (2, 3):
            for combo in itertools.combinations_with_replacement(g.order, k):
                sigma = collections.Counter(combo)
                got = reduce_monomial(ht, sigma)
                want = _reduce_monomial_in_the_deletion(ht, sigma)
                assert list(got.items()) == list(want.items()), (g.order, combo)
                monomials += 1
    assert monomials > 5_000


@pytest.mark.parametrize("heads", [[(0, 1)] * 3, [(0, 1), (1, 0), (0, 1)],
                                   [(1, 0), (1, 0), (0, 1)]],
                         ids=["same", "middle_reversed", "first_two_reversed"])
def test_pick_is_the_published_theta_choice(heads):
    # the published reference choices for the theta graph, edges x < y < z
    # in the edge order: [{x}] = x, [{y}] = y, [{x, y}] = x, [{x, z}] = x;
    # {z}, {y, z} and the empty face lie in the basis B
    for order in itertools.permutations(range(3)):
        cc = coherent_cotree(build_graph(heads, edge_order=list(order)))
        x, y, z = cc.graph.order
        assert set(cc.basis()) == {fs(), fs(z), fs(y, z)}, order
        for s, want in ((fs(x), x), (fs(y), y), (fs(x, y), x), (fs(x, z), x)):
            assert cc.pick(s) == want, (heads, order, s)


def test_f_collapses_degree_one_faces(theta):
    _, fgh = theta
    for e in (X, Y, Z):
        assert fgh.f_face(fs(e)) == {fs(Z): 1}


def test_g_is_basis_inclusion(theta):
    _, fgh = theta
    assert fgh.g_face(fs(Z)) == {(fs(Z), ()): 1}


def test_homotopy_table(theta):
    _, fgh = theta
    expected = {
        (fs(), ()): {},
        (fs(X), ()): {(fs(), (X,)): 1},
        (fs(Y), ()): {(fs(), (Y,)): 1},
        (fs(Z), ()): {},
        (fs(X), (Y,)): {(fs(), (X, Y)): 1},
        (fs(Y), (X,)): {},
        (fs(Z), (X,)): {},
        (fs(X, Y), ()): {(fs(Y), (X,)): 1},
        (fs(X, Z), ()): {(fs(Z), (X,)): 1},
        (fs(Y, Z), ()): {},
    }
    for (s, w), val in expected.items():
        assert fgh.h_element(s, w) == val, (s, w)


def test_homotopy_identities_theta():
    ctx = GraphContext(THETA)
    from ckskit.checks import check_ht_identities
    ok, witness = check_ht_identities(ctx)
    assert ok, witness


def ht_identities_by_matmul(ctx):
    """Dense oracle for check_ht_identities: f, g and h as matrices
    (FGH.f_matrix, g_matrix, h_matrix), d as dense rows (d_matrix), and
    each identity as a product of them, with the same witnesses."""
    failure = checks._stripe_failure(ctx.ht_stripes)
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


def identity_cases():
    """The bound-4 corpus, theta6 and W4."""
    return [g for _, g in corpus.corpus_graphs(bound=4)] + [THETA6, W4]


def test_ht_identities_agree_with_the_dense_oracle():
    cases = identity_cases()
    assert len(cases) > 40
    for g in cases:
        got = check_ht_identities(GraphContext(g))
        assert got == (True, None), (g.order, got)
        assert ht_identities_by_matmul(GraphContext(g)) == got


def _fault_f(ctx):
    """Add one to the coefficient of f on the last face outside B at the
    first face of B of its size; False where no such face exists."""
    fgh = ctx.fgh
    by_degree = ctx.cc.basis_by_degree()
    cases = [(s, by_degree[len(s)][0]) for s in ctx.faces.faces()
             if s not in fgh.bset and by_degree[len(s)]]
    if not cases:
        return False
    target, b = cases[-1]
    original = fgh.f_face

    def f_face(s):
        out = original(s)
        if frozenset(s) == target:
            out = dict(out)
            out[b] = out.get(b, 0) + 1
        return out

    fgh.f_face = f_face
    return True


def _fault_h(ctx):
    """Flip the sign of the first value of h on the last element where h
    is not zero; False where h is zero."""
    fgh = ctx.fgh
    htc = ctx.ht
    targets = [b for p in range(1, htc.genus + 1) for q in range(htc.genus - p + 1)
               for b in htc.basis(p, q) if fgh.h_element(*b)]
    if not targets:
        return False
    target = targets[-1]
    original = fgh.h_element

    def h_element(s, w):
        out = original(s, w)
        if (frozenset(s), w) == target:
            out = dict(out)
            first = next(iter(out))
            out[first] = -out[first]
        return out

    fgh.h_element = h_element
    return True


def _fault_pair(ctx):
    """Add one to ⟨γ_x, e⟩ in the cycle rows at S = ∅, which d, f and h
    all read, for the last cotree edge x of C(∅) and the last edge e that
    joins ∅ to a face; False where C(∅) is empty."""
    cc = ctx.cc
    if not cc.C(frozenset()):
        return False
    x = ctx.graph.sort_edges(cc.C(frozenset()))[-1]
    e = [t for t in ctx.graph.order if frozenset({t}) in ctx.faces][-1]
    raise_pairing(cc, frozenset(), x, e)
    return True


@pytest.mark.parametrize("fault", [_fault_f, _fault_h, _fault_pair],
                         ids=["f_face", "h_element", "pair"])
def test_ht_identities_and_the_dense_oracle_see_the_same_faults(fault):
    cases = seen = 0
    for g in identity_cases():
        results = []
        for check in (check_ht_identities, ht_identities_by_matmul):
            ctx = GraphContext(g)
            if fault(ctx):
                results.append(check(ctx))
        if results:
            assert results[0] == results[1], (g.order, results)
            cases += 1
            seen += not results[0][0]
    assert cases > 20 and seen, (cases, seen)


def test_ring_multiplication_theta(theta):
    ht, fgh = theta
    rr = RRing(fgh)
    assert rr.dims == [1, 1, 1]
    assert rr.multiply(fs(Z), fs(Z)) == {fs(Y, Z): 1}
    assert rr.multiply(fs(), fs(Z)) == {fs(Z): 1}
    assert rr.multiply(fs(Z), fs(Y, Z)) == {}


def test_delcon_basis_split():
    # level 0 of the periodized split is the split of R for Γ itself
    rep = delcon_r_periodized(DelConR(face_complex(THETA), X), 0)
    assert rep["basis_partition"] and rep["dimension_identity"]
    assert rep["partition_sizes"] == (2, 1, 3)
    dims = rep["dims"]
    assert dims["middle"] == [1, 1, 1]
    assert dims["deleted"] == [1, 1]
    assert dims["contracted"] == [1, 0, 0]


def test_delcon_rejects_loops_and_bridges():
    # the one deletion-contraction setup; DelConCKS and delcon_r_periodized
    # are built from it and have no guard of their own
    with pytest.raises(EdgeIsBondOrLoop):
        DelConR(face_complex(corpus.loop_graph()), 0)
    with pytest.raises(EdgeIsBondOrLoop):
        DelConR(face_complex(corpus.bridge_graph()), 0)


def test_setup_faces_match_enumeration():
    # the setup re-sorts the faces of Γ into its own edge order and derives
    # those of the deletion and the contraction from them; face_complex and
    # spanning_cotrees are the references
    for _, g in corpus.corpus_graphs(bound=4):
        ctx = GraphContext(g)
        for e in ctx.admissible_edges():
            dc = ctx.delcon(e)
            assert dc.cc.faces.levels == face_complex(dc.graph).levels
            assert dc.cc.shelling.cotrees == spanning_cotrees(dc.graph)
            assert dc.cc_del.faces.levels == face_complex(dc.deleted).levels
            assert dc.cc_con.faces.levels == face_complex(dc.contracted).levels


def counting_calls(monkeypatch, module_name, name):
    """Replace module_name.name, and every ckskit binding of the same
    function, by a wrapper; returns the list of the first arguments."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "ckskit" or mod_name.startswith("ckskit.")) \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_checks_share_one_delcon_setup_per_edge(monkeypatch):
    # one coherent cotree for the graph and one per admissible edge,
    # however many deletion-contraction checks use the edge
    calls = counting_calls(monkeypatch, "ckskit.activity", "coherent_cotree")
    report = run_checks(THETA, ["delcon_r", "delcon_cks", "periodize"])
    assert all(r["passed"] for r in report.values()), report
    assert len(GraphContext(THETA).admissible_edges()) == 3
    assert len(calls) == 1 + 3


def test_delcon_setups_enumerate_nothing(monkeypatch):
    # the setups re-sort the faces of the graph; only the graph's own face
    # complex is enumerated, and its top level serves as the cotrees
    faces = counting_calls(monkeypatch, "ckskit.graphs", "face_complex")
    cotrees = counting_calls(monkeypatch, "ckskit.graphs", "spanning_cotrees")
    report = run_checks(W4, ["delcon_r", "delcon_cks"])
    assert all(r["passed"] for r in report.values()), report
    assert len(faces) == 1 and cotrees == []


def test_tutte_check_builds_no_cotree(monkeypatch):
    # the recurrence reads the deleted and contracted graphs of each
    # setup, which builds its cotrees only when a check asks for them
    w5 = build_graph([(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)])
    calls = counting_calls(monkeypatch, "ckskit.activity", "coherent_cotree")
    report = run_checks(w5, ["tutte"])
    assert report["tutte"]["passed"]
    assert calls == []


def test_j_basis_reports_a_choice_outside_the_cotree():
    # [{0, 2}] = 2 is not an edge of C({0}), so d(1_{0} 2) is not among the
    # vectors: one short of the two faces of size 2 outside B
    ctx = GraphContext(THETA)
    assert 2 not in ctx.cc.C(fs(0))
    ctx.cc.pick = lambda s, pick=ctx.cc.pick: 2 if s == fs(0, 2) else pick(s)
    assert check_j_basis(ctx) == (False, {"grade": 2, "count": 1, "expected": 2})


def test_j_basis_reports_a_rank_deficient_grade():
    # with every cycle row at the empty face zero, so is every pairing
    # there, d vanishes on the 1-wedges over C(∅), and grade 1 has no
    # vector left
    for g in (THETA, W4):
        ctx = GraphContext(g)

        def cycles(s, original=ctx.cc.cycles):
            basis = original(s)
            if s:
                return basis
            zeroed = copy.copy(basis)
            zeroed.rows = {x: {} for x in basis.rows}
            return zeroed

        ctx.cc.cycles = cycles
        assert check_j_basis(ctx) == (False, {"grade": 1, "reason": "rank deficient"})


def splitting_by_the_stack(ctx):
    """check_splitting by the stacked certificate (stacked_direct_sum) of
    d_matrix's rows beside the unit columns of B_k (FGH.g_matrix)."""
    for k in range(ctx.ht.genus + 1):
        if not stacked_direct_sum(ctx.ht.dim(k, 0), ctx.ht.d_matrix(k - 1, 1),
                                  ctx.fgh.g_matrix(k)[0]):
            return False, {"grade": k}
    return True, None


SPLITTING_FAULTS = ("entry + 1", "entry + 2", "doubled column", "zeroed row")


def splitting_faults(ctx, k, rng):
    """(kind, rows) for each fault of d into grade k that fits there, at
    seeded places: an entry raised by 1 or by 2, a column doubled, a row
    of a face outside B_k zeroed."""
    d = ctx.ht.d_matrix(k - 1, 1)
    width = len(d[0])
    if width:
        for c in (1, 2):
            rows = [row[:] for row in d]
            rows[rng.randrange(len(d))][rng.randrange(width)] += c
            yield f"entry + {c}", rows
        j = rng.randrange(width)
        yield "doubled column", [row[:j] + [2 * row[j]] + row[j + 1:] for row in d]
    bset = set(ctx.cc.basis())
    outside = [i for i, s in enumerate(ctx.faces.levels[k]) if s not in bset]
    if outside:
        i = rng.choice(outside)
        yield "zeroed row", [[0] * width if n == i else row for n, row in enumerate(d)]


@pytest.mark.parametrize("graphs", [
    [g for _, g in corpus.corpus_graphs(bound=5)], [W5], [K5],
], ids=["corpus5", "w5", "k5"])
def test_splitting_agrees_with_the_stacked_certificate(graphs):
    # the rows of d outside B_k map onto Z^(F_k ∖ B_k), and d has no larger
    # rank: both conditions must decide as the stack does, on d as built
    # and on d with one fault in one grade
    rng = random.Random(1)
    failing = collections.Counter()
    for g in in_both_orders(graphs):
        ctx = GraphContext(g)
        htc = ctx.ht
        assert check_splitting(ctx) == splitting_by_the_stack(ctx) == (True, None), g.order
        for k in range(htc.genus + 1):
            for kind, rows in splitting_faults(ctx, k, rng):
                htc.d_matrix = lambda p, q, rows=rows, k=k: (
                    rows if p == k - 1 else HTComplex.d_matrix(htc, p, q))
                got, want = check_splitting(ctx), splitting_by_the_stack(ctx)
                del htc.d_matrix
                assert got == want, (g.order, k, kind)
                assert got in ((True, None), (False, {"grade": k}))
                failing[kind] += not got[0]
    assert all(failing[kind] for kind in SPLITTING_FAULTS), failing


def test_splitting_and_j_basis_build_no_homotopy(monkeypatch):
    monkeypatch.setattr(FGH, "__init__", lambda *_: pytest.fail("built FGH"))
    assert all(r["passed"] for r in run_checks(W4, ["splitting", "j_basis"]).values())


def test_ht_checks_do_not_read_the_element_wise_iota(monkeypatch):
    ctx = GraphContext(THETA)
    htc = ctx.ht
    original = element_wise.iota

    def leaky(cc, s, e, w):
        # also send (∅, w) to the q-wedge w over C({e}), where d needs
        # (q − 1)-wedges: a (1, q) label, one step off the stripe
        out = original(cc, s, e, w)
        if not s and w:
            out[w] = 1
        return out

    monkeypatch.setattr(element_wise, "iota", leaky)
    # the stripes read the edge records, not iota: they are unchanged, and
    # so are the checks that read only them
    assert ctx.ht_stripes == GraphContext(THETA).ht_stripes
    for check in (check_ht_exactness, check_ht_cohomology):
        assert check(ctx) == (True, None)
    # d_element, the oracle, leaves the target basis of d
    with pytest.raises(OutsideBasis) as exc:
        map_matrix(htc.basis(0, 1), htc.index(1, 0), lambda b: d_element(htc, *b))
    assert str(exc.value) == ("the image of (frozenset(), (0,)) has "
                              "(frozenset({0}), (0,)) outside the target basis")
    # the homotopy h takes its interior products from the cycle rows, so
    # the identities, which read h, hold
    assert check_ht_identities(ctx) == (True, None)


class ElementWiseFGH(FGH):
    """Oracle for FGH.f_face and FGH.h_element: the same recursions, each
    pairing ⟨γ_x, t⟩ read through the oracle pair and each interior
    product through the oracle iota (element_wise)."""

    def f_face(self, s):
        s = frozenset(s)
        if s in self.bset:
            return {s: 1}
        x = self.cc.pick(s)
        s0 = s - {x}
        out = {}
        for t in self.cc.graph.sort_edges(self.cc.tree(s0)):
            c = pair(self.cc, s0, x, t) if (s0 | {t}) in self.ht.faces else 0
            if c:
                for b, c2 in self.f_face(s0 | {t}).items():
                    out[b] = out.get(b, 0) - c * c2
        return {k: v for k, v in out.items() if v}

    def h_element(self, s, w):
        s = frozenset(s)
        u = s | frozenset(w)
        x0 = None if u in self.bset else self.cc.pick(u)
        if x0 not in s:
            return {}
        s0 = s - {x0}
        pos = self.cc.graph.pos
        insert_at = sum(1 for y in w if pos(y) < pos(x0))
        w_ext = w[:insert_at] + (x0,) + w[insert_at:]
        sign = -1 if insert_at % 2 else 1
        out = {(s0, w_ext): sign}
        for t in self.cc.graph.sort_edges(self.cc.tree(s0)):
            if (s0 | {t}) in self.ht.faces:
                for w2, c in iota(self.cc, s0, t, w_ext).items():
                    for key2, c2 in self.h_element(s0 | {t}, w2).items():
                        out[key2] = out.get(key2, 0) - sign * c * c2
        return {k: v for k, v in out.items() if v}


def test_f_and_h_agree_with_the_element_wise_oracle():
    # f on every face and h on every basis element, key order included
    # (the h matrices and `ht --matrices` read them in that order)
    elements = 0
    for g in identity_cases():
        ctx = GraphContext(g)
        fgh, oracle = ctx.fgh, ElementWiseFGH(ctx.ht)
        for s in ctx.faces.faces():
            assert list(fgh.f_face(s).items()) == list(oracle.f_face(s).items()), (g.order, s)
        for p in range(ctx.ht.genus + 1):
            for q in range(ctx.ht.genus - p + 1):
                for b in ctx.ht.basis(p, q):
                    assert list(fgh.h_element(*b).items()) == \
                        list(oracle.h_element(*b).items()), (g.order, b)
                    elements += 1
    assert elements > 1000


def cotree_elim_by_elements(ctx):
    """Oracle for check_cotree_elim: the same identity, each d(1_S z) from
    the element-wise d_element, as a vector over the labelled faces."""
    cc, g = ctx.cc, ctx.graph
    gamma = cc.cycles(frozenset())
    for x, y in itertools.combinations(g.sort_edges(cc.C(frozenset())), 2):
        lhs = collections.Counter(d_element(ctx.ht, fs(x), (y,)))
        lhs.subtract(d_element(ctx.ht, fs(y), (x,)))
        rhs = collections.Counter()
        for t in g.sort_edges(cc.tree(frozenset())):
            if fs(t) not in ctx.faces:
                continue
            for z, cz in ((x, gamma.rows[y].get(t, 0)), (y, -gamma.rows[x].get(t, 0))):
                if cz and z in cc.C(fs(t)):
                    for key, c in d_element(ctx.ht, fs(t), (z,)).items():
                        rhs[key] += cz * c
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            return False, {"pair": (str(x), str(y))}
    return True, None


def test_cotree_elim_agrees_with_the_element_wise_oracle():
    # every bound-5 graph as it is, then under a fault drawn per graph: one
    # pairing ⟨γ_y, e⟩ at S = {x}, x before y in C(∅) and S ∪ e a face.
    # Only d(1_x y) reads that row, so (x, y) is the pair that fails
    rng = random.Random(2024)
    faulted = 0
    for _, g in corpus.corpus_graphs(bound=5):
        assert check_cotree_elim(GraphContext(g)) == \
            cotree_elim_by_elements(GraphContext(g)) == (True, None), g.order
        c0 = g.sort_edges(coherent_cotree(g).C(frozenset()))
        if len(c0) < 2:
            continue
        i, j = sorted(rng.sample(range(len(c0)), 2))
        x, y = c0[i], c0[j]
        faces = face_complex(g)
        e = rng.choice([t for t in g.order if t != x and fs(x, t) in faces])
        got = []
        for check in (check_cotree_elim, cotree_elim_by_elements):
            ctx = GraphContext(g)
            raise_pairing(ctx.cc, fs(x), y, e)
            got.append(check(ctx))
        assert got == [(False, {"pair": (str(x), str(y))})] * 2, (g.order, x, y, e)
        faulted += 1
    assert faulted == 94


def test_checks_compute_each_tutte_polynomial_once(monkeypatch):
    # T(Γ) and (T(Γ∖e), T(Γ/e)) per admissible edge come from the graph
    # context, and hhat_tutte specializes the context's T(Γ)
    calls = counting_calls(monkeypatch, "ckskit.activity", "tutte")
    report = run_checks(THETA)
    assert all(r["passed"] for r in report.values()), report
    assert len(calls) == 1 + 2 * 3


def ht_exactness_by_positions(ctx):
    """Oracle for check_ht_exactness: its own walk over the positions
    0..k of each stripe k, an absent position read as (0, [])."""
    failure = checks._stripe_failure(ctx.ht_stripes)
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


def ht_cohomology_by_positions(ctx):
    """Oracle for check_ht_cohomology: its own walk over the positions
    each stripe holds."""
    failure = checks._stripe_failure(ctx.ht_stripes)
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


# named edits of the HT stripe cohomology of a graph of genus 2 or more:
# (kind, stripe k, position p) per wrong group, in the order applied
STRIPE_FAULTS = {
    "none": [],
    "torsion-below-top": [("torsion", 2, 1)],
    "torsion-at-top": [("torsion", 2, 2)],
    "torsion-in-two-stripes": [("torsion", 2, 2), ("torsion", 1, 1)],
    "rank-at-top": [("rank", 2, 2)],
    "rank-below-top": [("rank", 2, 0)],
    "torsion-then-rank": [("torsion", 1, 1), ("rank", 2, 0)],
    "d2": [("d2", 2, 1)],
}


@pytest.mark.parametrize("fault", list(STRIPE_FAULTS))
@pytest.mark.parametrize("g", [THETA, W4], ids=["theta", "w4"])
def test_ht_stripe_checks_share_one_walk_and_keep_their_witnesses(g, fault):
    # both checks read one walk of the stripes; each keeps the payload and
    # the witness order of its own walk
    ctx = GraphContext(g)
    coh = ctx.ht_stripes
    for kind, k, p in STRIPE_FAULTS[fault]:
        if kind == "d2":
            coh[k] = NotAComplex(p)
        else:
            free, torsion = coh[k][p]
            coh[k][p] = (free + 1, torsion) if kind == "rank" else (free, [2])
    assert check_ht_exactness(ctx) == ht_exactness_by_positions(ctx)
    assert check_ht_cohomology(ctx) == ht_cohomology_by_positions(ctx)
    if fault != "none":
        assert not all(check(ctx)[0] for check in (check_ht_exactness,
                                                    check_ht_cohomology))
