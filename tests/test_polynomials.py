"""Sparse one- and two-variable integer polynomials."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ckskit.polynomials import Poly1, Poly2


def test_poly1_arithmetic_and_eval():
    p = Poly1({0: 1, 1: 2})
    q = Poly1({1: -2, 2: 1})
    assert (p + q).coeffs == {0: 1, 2: 1}
    assert (p * q).coeffs == {1: -2, 2: -3, 3: 2}
    assert p(3) == 7
    assert (p - p).coeffs == {}


def test_poly1_render():
    assert str(Poly1({0: 1, 1: 1, 2: 3})) == "1 + q + 3*q^2"
    assert str(Poly1()) == "0"


def test_poly2_arithmetic():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    assert ((x + y) * (x - y)).coeffs == {(2, 0): 1, (0, 2): -1}
    assert (-(x * y)).coeffs == {(1, 1): -1}
    assert x(2, 5) == 2 and (x * y)(2, 5) == 10


def test_poly2_render_orders_x_before_y():
    t = Poly2({(1, 0): 1, (0, 1): 1, (0, 2): 1})
    assert str(t) == "x + y + y^2"
    assert str(Poly2({(1, 1): -1, (1, 0): -1, (0, 1): -1})) == "-x - x*y - y"


def test_poly2_substitute():
    t = Poly2({(1, 0): 1, (0, 2): 1})  # x + y^2
    w = Poly2({(1, 0): -1, (0, 1): -1, (1, 1): -1})
    out = t.substitute(Poly2.const(1), w)
    assert out == Poly2.const(1) + w * w


def test_poly2_specialize_first_variable_to_one():
    t = Poly2({(1, 0): 1, (0, 1): 1, (0, 2): 1})
    assert t.eval_y() == Poly1({0: 1, 1: 1, 2: 1})


def substitute_by_terms(p, px, py):
    """The term-by-term substitution, the oracle for Poly2.substitute: one
    Poly2 per term, c·px^i·py^j, added to the running sum."""
    out = Poly2()
    xpow = {0: Poly2.const(1)}
    ypow = {0: Poly2.const(1)}

    def power(cache, base, n):
        if n not in cache:
            cache[n] = power(cache, base, n - 1) * base
        return cache[n]

    for (i, j), c in p.coeffs.items():
        out = out + Poly2.const(c) * power(xpow, px, i) * power(ypow, py, j)
    return out


small_poly2 = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              st.integers(-5, 5), max_size=8).map(Poly2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_poly2, small_poly2, small_poly2)
def test_substitute_matches_the_term_by_term_sum(p, px, py):
    got, want = p.substitute(px, py), substitute_by_terms(p, px, py)
    assert got.coeffs == want.coeffs
    assert str(got) == str(want)
