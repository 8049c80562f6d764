"""d² = 0 from the squares of the edge records (HTComplex.squares_vanish),
against the stripe product it stands in for, and the templates of wedge
positions it rests on, against the maps they are meant to be."""

import itertools
import random

import pytest

from ckskit import cli, corpus, ht
from ckskit.cks import build_cks
from ckskit.errors import NotAComplex
from ckskit.graphs import build_graph
from ckskit.ht import build_ht
from test_cks import K4PP, W4, as_reference, counting_products, raise_pairing

THETA5 = build_graph([(0, 1)] * 5)
W4_INLINE = "v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1"


def product_fails(c):
    """Whether some stripe of c has d² ≠ 0 by the product of its
    differentials, the check squares_vanish stands in for."""
    return any(isinstance(coh, NotAComplex) for coh in c.stripe_cohomology().values())


def test_squares_vanish_on_the_bound_6_corpus():
    complexes = 0
    for _, g in corpus.corpus_graphs(bound=6):
        for build in (build_ht, build_cks):
            assert build(g).squares_vanish() is None, g.order
            complexes += 1
    assert complexes == 940


@pytest.mark.parametrize("build", [build_ht, build_cks], ids=["ht", "cks"])
def test_squares_and_the_product_see_the_same_cycle_row_faults(build):
    # one entry ⟨γ_x, e⟩ of the cycle rows at a face S, with S ∪ e a face,
    # so that an edge record reads it.  Read through the squares, the
    # stripes keep the product's witnesses: from the first level whose
    # squares fail, every stripe multiplies
    rng = random.Random(37)
    caught = cases = 0
    for g in (corpus.k4_graph(), THETA5, W4, K4PP):
        for _ in range(12):
            c = build(g)
            cc = c.cc
            s = rng.choice(list(c.faces.faces()))
            edges = [e for e in g.order if e not in s and s | {e} in c.faces]
            if not edges or not cc.C(s):
                continue
            raise_pairing(cc, s, rng.choice(sorted(cc.C(s))), rng.choice(edges),
                          rng.choice([-2, -1, 1, 2]))
            witness = c.squares_vanish()
            assert (witness is not None) == product_fails(c), (g.order, s)
            assert as_reference(c.stripe_cohomology(squares=True)) \
                == as_reference(c.stripe_cohomology()), (g.order, s)
            caught += witness is not None
            cases += 1
    assert caught == cases > 25, (caught, cases)


@pytest.mark.parametrize("build", [build_ht, build_cks], ids=["ht", "cks"])
def test_the_squares_reject_a_record_that_loses_the_wrong_edge(build):
    # one edge record of a level p ≥ 1 names the wrong place for x0.  The
    # interior product on 1-wedges does not read that place, so where the
    # record is a square's second step, the composites on 2-wedges do not
    # change, but the two paths drop different pairs of edges of C(S):
    # the squares reject every such record, also where d² still vanishes
    # (on K4 at p = 1 the product passes some of them)
    rng = random.Random(37)
    cases = 0
    for g in (corpus.k4_graph(), THETA5, W4, K4PP):
        for _ in range(6):
            c = build(g)
            p = rng.randint(1, c.genus - 2)
            table = c.records(p)
            i = rng.randrange(len(table))
            s_pos, e, t_pos, x0, a = table[i]
            table[i] = s_pos, e, t_pos, (x0 + rng.randint(1, len(a) - 1)) % len(a), a
            assert c.squares_vanish() is not None, (g.order, p, i)
            cases += 1
    assert cases == 24


@pytest.fixture
def fresh_factors():
    """Clear the process caches of d's factors after a test that changes
    the templates they are read from."""
    yield
    ht._iota_factor.cache_clear()
    ht._restrict_factor.cache_clear()


@pytest.mark.parametrize("name, sizes", [("_iota_template", (1, 2)),
                                         ("_restrict_template", (1,))],
                         ids=["iota", "restrict"])
def test_squares_and_the_product_see_the_same_template_faults(
        monkeypatch, fresh_factors, name, sizes):
    # flip the sign of one term of one template at the wedge sizes the
    # squares read (q ≤ 2, r ≤ 1); the templates at every size are checked
    # against their maps below
    rng = random.Random(37)
    original = getattr(ht, name)
    caught = cases = 0
    for g in (corpus.k4_graph(), W4, K4PP):
        for _ in range(8):
            m = rng.randint(2, g.genus())
            j, n = rng.randrange(m), rng.choice(sizes)
            rows = original(m, j, n)
            w = rng.randrange(len(rows))
            if not rows[w]:
                continue
            t = rng.randrange(len(rows[w]))

            def faulty(m2, j2, n2, key=(m, j, n), w=w, t=t):
                rows = original(m2, j2, n2)
                if (m2, j2, n2) != key:
                    return rows
                target, sign, k = rows[w][t]
                row = rows[w][:t] + ((target, -sign, k),) + rows[w][t + 1:]
                return rows[:w] + (row,) + rows[w + 1:]

            monkeypatch.setattr(ht, name, faulty)
            for build in (build_ht, build_cks) if name == "_iota_template" else (build_cks,):
                ht._iota_factor.cache_clear()
                ht._restrict_factor.cache_clear()
                c = build(g)
                witness = c.squares_vanish()
                assert (witness is not None) == product_fails(c), (g.order, m, j, n, w, t)
                caught += witness is not None
                cases += 1
    assert caught > cases // 2, (caught, cases)


def test_a_witness_names_a_square_of_faces():
    g = W4
    c = build_cks(g)
    raise_pairing(c.cc, frozenset(), sorted(c.cc.C(frozenset()))[0], g.order[-1])
    s, e, f = c.squares_vanish()
    assert e != f and not {e, f} & s and s | {e, f} in c.faces
    assert product_fails(c)


def test_cks_multiplies_no_stripe_of_a_correct_complex(monkeypatch):
    # the checks still multiply; under a fault `cks` does too (see
    # test_cks.py::test_stripe_walk_reports_the_stripe_the_reference_reports)
    calls = counting_products(monkeypatch)
    assert cli.main(["cks", "--inline", W4_INLINE]) == 0
    assert not calls
    assert cli.main(["verify", "--checks", "cks_d2", "--inline", W4_INLINE]) == 0
    assert calls


# ---------------------------------------------------------------------------
# the templates of wedge positions, exhaustively for cotrees of up to 9 edges

def read(rows, m, n, k, v):
    """The rows of a template from the n-wedges of range(m) to the
    k-wedges of range(m − 1), read with the values v, as {source wedge:
    {target wedge: value}} over increasing tuples, without zeros."""
    targets = list(itertools.combinations(range(m - 1), k))
    out = {}
    for w, row in zip(itertools.combinations(range(m), n), rows):
        col = {}
        for t, sign, i in row:
            col[targets[t]] = col.get(targets[t], 0) + sign * v[i]
        out[w] = {t: c for t, c in col.items() if c}
    return out


def wedge(vectors):
    """The wedge product of vectors {position: value}, as {increasing
    tuple of positions: value}."""
    out = {(): 1}
    for v in vectors:
        nxt = {}
        for t, c in out.items():
            for y, c2 in v.items():
                if y not in t:
                    # y moves past the entries of t above it
                    key = tuple(sorted(t + (y,)))
                    sign = (-1) ** sum(1 for z in t if z > y)
                    nxt[key] = nxt.get(key, 0) + sign * c * c2
        out = {t: c for t, c in nxt.items() if c}
    return out


def values(m, j, unit):
    """Distinct values for the positions of a cotree of m edges, so that
    no two terms can cancel by chance; position j reads `unit`."""
    out = [3 ** (k + 1) + k for k in range(m)]
    if unit is not None:
        out[j] = unit
    return out


def test_restrict_template_is_the_exterior_power_of_its_1_wedge_map():
    # the 1-wedge map keeps every edge but x0, at position j, which it
    # sends to Σ_y b_y y; the n-wedge map is its n-th exterior power, with
    # b_j the unit that keeps a wedge without x0
    for m in range(1, 10):
        for j in range(m):
            b = values(m, j, 1)
            one = read(ht._restrict_template(m, j, 1), m, 1, 1, b)
            for n in range(m + 1):
                power = {w: wedge([{y: v for (y,), v in one[(x,)].items()} for x in w])
                         for w in itertools.combinations(range(m), n)}
                assert read(ht._restrict_template(m, j, n), m, n, n, b) == power, (m, j, n)


def test_iota_template_is_the_projection_after_the_derivation():
    # the derivation Σ_t (−1)^t a_{w_t} w ∖ w_t, then the coordinate
    # projection that drops position j and renumbers the rest
    for m in range(1, 10):
        for j in range(m):
            a = values(m, j, None)
            for n in range(1, m + 1):
                expected = {}
                for w in itertools.combinations(range(m), n):
                    col = {}
                    for t, x in enumerate(w):
                        rest = w[:t] + w[t + 1:]
                        if j not in rest:
                            key = tuple(y - (y > j) for y in rest)
                            col[key] = col.get(key, 0) + (-1) ** t * a[x]
                    expected[w] = {k: v for k, v in col.items() if v}
                assert read(ht._iota_template(m, j, n), m, n, n - 1, a) == expected, (m, j, n)
