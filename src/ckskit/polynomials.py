"""Sparse integer polynomials in one and two variables.

Poly1 maps exponent -> coefficient; Poly2 maps (i, j) -> coefficient for
x^i y^j.  Zero coefficients are never stored, so == is structural equality.
"""


def _clean(coeffs):
    return {k: v for k, v in coeffs.items() if v}


class _Poly:
    """The coefficient arithmetic Poly1 and Poly2 share; they differ only
    in how exponents add, evaluate and render."""

    def __init__(self, coeffs=None):
        self.coeffs = _clean(dict(coeffs or {}))

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return type(self)(out)


class Poly1(_Poly):
    def __mul__(self, other):
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                out[a + b] = out.get(a + b, 0) + ca * cb
        return Poly1(out)

    def __call__(self, x):
        return sum(c * x ** e for e, c in self.coeffs.items())

    def coeff(self, exp):
        return self.coeffs.get(exp, 0)

    def __str__(self):
        return _render(self.coeffs, lambda e: _pow("q", e))

    __repr__ = __str__


class Poly2(_Poly):
    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    def __neg__(self):
        return Poly2({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for (a, b), ca in self.coeffs.items():
            for (c, d), cb in other.coeffs.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + ca * cb
        return Poly2(out)

    def __call__(self, x, y):
        return sum(c * x ** i * y ** j for (i, j), c in self.coeffs.items())

    def coeff(self, i, j):
        return self.coeffs.get((i, j), 0)

    def substitute(self, px, py):
        """Evaluate at polynomial arguments x <- px, y <- py (both Poly2),
        summing every term's expansion c·px^i·py^j into one dict."""
        out = {}
        xpow, ypow = [Poly2.const(1)], [Poly2.const(1)]
        for (i, j), c in self.coeffs.items():
            while len(xpow) <= i:
                xpow.append(xpow[-1] * px)
            while len(ypow) <= j:
                ypow.append(ypow[-1] * py)
            for (a, b), ca in xpow[i].coeffs.items():
                for (a2, b2), cb in ypow[j].coeffs.items():
                    key = (a + a2, b + b2)
                    out[key] = out.get(key, 0) + c * ca * cb
        return Poly2(out)

    def eval_y(self):
        """Specialize x <- 1, returning a Poly1 in the remaining variable."""
        out = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, 0) + c
        return Poly1(out)

    def __str__(self):
        return _render(self.coeffs,
                       lambda k: "*".join(p for p in (_pow("x", k[0]), _pow("y", k[1])) if p)
                       or "",
                       sort_key=lambda k: (-k[0], k[1]))

    __repr__ = __str__


def _pow(var, e):
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _render(coeffs, key_str, sort_key=None):
    if not coeffs:
        return "0"
    items = sorted(coeffs.items(), key=(lambda kv: sort_key(kv[0])) if sort_key else None)
    parts = []
    for k, c in items:
        mono = key_str(k)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
