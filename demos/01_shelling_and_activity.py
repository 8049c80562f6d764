"""Walk through the lexicographic shelling machinery on a small graph.

Run:  python3 demos/01_shelling_and_activity.py
"""

from ckskit import (
    build_graph,
    coherent_cotree,
    face_complex,
    h_polynomial,
    spanning_tree_count,
    tutte,
)


def face(s):
    return "{" + ",".join(str(e) for e in sorted(s)) + "}"


def main():
    # three parallel edges between two vertices; edges 0 < 1 < 2
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    print("graph: 2 vertices, 3 parallel edges, genus", g.genus())

    fc = face_complex(g)
    print("\nbond-free edge sets by size:",
          [len(level) for level in fc.levels])

    cc = coherent_cotree(g, fc)
    sh = cc.shelling
    print("\nlexicographic shelling of the top faces (cotrees)")
    for cotree in sh.cotrees:
        print(f"  cotree {face(cotree):8}"
              f"  restriction set {face(sh.restriction[cotree])}")

    print("\nper-face data: assigned cotree C(S) and the subset In(S)")
    for s in fc.faces():
        print(f"  S = {face(s):8}  C(S) = {face(cc.table[s]):8}"
              f"  In(S) = {face(cc.in_set(s))}")

    basis = cc.basis()
    print("\nfaces with empty In form the monomial basis B:",
          [face(s) for s in basis])

    hp = h_polynomial(g)
    print("\nh-polynomial (graded basis sizes, top degree down):", hp)
    print("h(1) =", hp(1), "= number of spanning trees =",
          spanning_tree_count(g))
    print("Tutte polynomial:", tutte(g))


if __name__ == "__main__":
    main()
