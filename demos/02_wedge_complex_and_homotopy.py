"""The face-stratified wedge complex and its retraction onto the small basis.

Each basis element is a pair (S, w): a bond-free edge set S and a wedge
of fundamental cycles attached to the cotree assigned to S.  A triple of
maps (f, g, h) retracts the whole complex onto the span of the faces
with empty In-set, and the identities below are verified as exact
integer matrix equations.

Run:  python3 demos/02_wedge_complex_and_homotopy.py
"""

from ckskit import FGH, RRing, build_graph, build_ht, reduce_monomial
from ckskit.intlinalg import matmul


def face(s):
    return "{" + ",".join(str(e) for e in sorted(s)) + "}"


def vec(v):
    if not v:
        return "0"
    return " + ".join(f"{c}*[{face(s)}|{w}]" if c != 1 else f"[{face(s)}|{w}]"
                      for (s, w), c in sorted(v.items()))


def main():
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    ht = build_ht(g)

    print("graded dimensions dim(p, q) of the wedge complex:")
    for p in range(3):
        print(" ", [ht.dim(p, q) for q in range(3)])

    s = frozenset({2})
    print("\ndifferential of the wedge generator over S = {2}:")
    # its column in d: (2, 1) -> (4, 0), whose rows are the basis (2, 0)
    column = ht.d_columns(1, 1).get(ht.index(1, 1)[(s, (0,))], {})
    targets = ht.basis(2, 0)
    print("  d[{2}|(0,)] =", vec({targets[i]: c for i, c in column.items()}))

    print("\nsquare-free reduction of monomials:")
    print("  z^2       ->", reduce_monomial(ht, {2: 2}))
    print("  x*y*z     ->", reduce_monomial(ht, {0: 1, 1: 1, 2: 1}),
          "(the support contains a bond, so it dies)")

    fgh = FGH(ht)
    print("\nf collapses every 1-face onto the basis representative:")
    for e in range(3):
        print(f"  f({face(frozenset({e}))}) =", fgh.f_face(frozenset({e})))

    print("\nmatrix identities per degree (checked exactly over Z):")
    for k in range(3):
        f, _ = fgh.f_matrix(k)
        gm, _ = fgh.g_matrix(k)
        prod = matmul(f, gm)
        ok = all(prod[i][j] == (1 if i == j else 0)
                 for i in range(len(prod)) for j in range(len(prod)))
        print(f"  degree {k}: f o g = id  ->  {ok}")

    rr = RRing(fgh)
    print("\nquotient ring multiplication on basis classes:")
    print("  [{2}] * [{2}]   =", {face(s): c
                                  for s, c in rr.multiply(s, s).items()})
    print("  [{2}] * [{1,2}] =", rr.multiply(s, frozenset({1, 2})),
          "(degree overflow vanishes)")


if __name__ == "__main__":
    main()
