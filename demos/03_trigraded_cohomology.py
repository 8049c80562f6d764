"""Trigraded integral cohomology, Euler tables, and the Tutte bridge.

The trigraded complex refines the wedge complex by polynomial weight.
Its cohomology is computed by exact integer elimination (unit pivots,
then a Smith normal form of whatever remains), one degree after the
next: the columns of d_(n+1) at d_n's unit-pivot rows are integer
combinations of the others, so they are cleared, never factored.  Free
ranks and torsion are certified, not floating-point estimates.  Summing Euler
characteristics along the stripes packages everything into a
two-variable generating polynomial that equals a one-line substitution
into the Tutte polynomial.

Run:  python3 demos/03_trigraded_cohomology.py
"""

from ckskit import (
    DelConCKS,
    DelConR,
    build_graph,
    cks_cohomology,
    euler_mismatch,
    euler_recurrences,
    euler_table,
    face_complex,
    h_hat,
    spanning_tree_count,
    tutte,
    tutte_loop_specialization,
)


def main():
    # single loop: the one-edge building block
    loop = build_graph([(0, 0)])
    print("single loop, integral cohomology by tridegree (2p, q, r):")
    for key, (free, torsion) in sorted(cks_cohomology(loop).items()):
        if free or torsion:
            print(f"  {key}: Z^{free}" + (f" + torsion {torsion}"
                                          if torsion else ""))

    theta = build_graph([(0, 1), (0, 1), (0, 1)])
    print("\nthree parallel edges:")
    print("  Euler table e(k, l), checked against the cohomology ranks:")
    table = euler_table(theta)
    mismatch = euler_mismatch(table, cks_cohomology(theta))
    if mismatch is not None:
        raise SystemExit(f"Euler table mismatch at stripe {mismatch}")
    for (k, l), e in sorted(table.items()):
        print(f"    e({k},{l}) = {e}")

    hh = h_hat(theta)
    t = tutte(theta)
    spec = tutte_loop_specialization(t)
    print("\n  generating polynomial:", hh)
    print("  Tutte polynomial:      ", t)
    print("  substitution of the loop value into the Tutte polynomial:", spec)
    print("  agreement:", hh == spec)
    print("  value at x = y = -1:", hh(-1, -1),
          "= spanning trees =", spanning_tree_count(theta))

    print("\ndeletion-contraction of edge 0 (neither loop nor bridge):")
    faces = face_complex(theta)
    dc = DelConCKS(DelConR(faces, 0))
    # one verdict per face level p: every piece (2p, q, r) shares it
    exact = all(dc.check_exact(p) and dc.check_chain_maps(p) is None
                for p in range(3))
    print("  short exact sequences + chain-map squares:", exact)
    # the recurrence needs only the face counts of the three sides
    print("  Euler-table recurrence:", euler_recurrences(faces, [0])[0])


if __name__ == "__main__":
    main()
