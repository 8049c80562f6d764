"""Finite-level periodization and the self-check registry.

Periodizing a graph at level n replaces every edge by a chain of 2n + 1
segments through fresh interior vertices.  The combinatorics of the
periodized graph is predicted by closed formulas from the base graph,
and those predictions are compared against native recomputation here.
The second half runs the named consistency checks that back the
`cks-kit verify` subcommand.

Run:  python3 demos/04_periodization_and_checks.py
"""

from ckskit import build_graph, coherent_cotree, run_checks
from ckskit.periodize import (
    basis_by_formula,
    check_basis_formula,
    check_in_lemma,
    periodized_cotree,
)


def main():
    theta = build_graph([(0, 1), (0, 1), (0, 1)])
    cc = coherent_cotree(theta)
    # (periodized graph, its coherent cotree), built once per level
    levels = {n: periodized_cotree(cc, n) for n in (1, 2)}
    pg, pcc = levels[1]
    print("level-1 periodization of three parallel edges:")
    print("  edges:", pg.graph.n_edges, " genus:", pg.graph.genus())
    print("  periodized cotree assignment is coherent:", pcc.validate())

    for n, (_, pcc) in levels.items():
        ok_in, _ = check_in_lemma(cc, pcc)
        formula = basis_by_formula(cc, n)
        ok_b, _ = check_basis_formula(pcc, formula)
        print(f"  level {n}: In-formula {ok_in}, basis formula {ok_b},"
              f" |B| = {len(formula)}")

    print("\nconsistency-check registry on the three-parallel-edge graph:")
    results = run_checks(theta)
    width = max(len(name) for name in results)
    for name, r in sorted(results.items()):
        verdict = "pass" if r["passed"] else "FAIL  " + str(r["payload"])
        print(f"  {name:<{width}}  {verdict}")
    print("\nall passed:", all(r["passed"] for r in results.values()))


if __name__ == "__main__":
    main()
