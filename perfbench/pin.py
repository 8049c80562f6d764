"""Re-pin goldens.json from the current program, from a checkout root:

    python3 perfbench/pin.py

It runs every workload's calls on the default seed, the held-out seed
and one more, and refuses to pin unless the pinned fields agree across
the seeds (edge order must not change them).  For each `cohomology`
graph it then recomputes every stripe's free ranks with ranks modulo a
prime computed here, from the differentials `ckskit.cks` assembles, so
the golden does not rest on `ckskit.intlinalg`: the free ranks and the
Euler table must match the CLI's, and ranks modulo 2, 3, 5 and 7 must
match the rank modulo the large prime (no small torsion) whenever the
CLI reports no torsion.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BIG_PRIME = 2_147_483_647
SMALL_PRIMES = (2, 3, 5, 7)
PIN_SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 2)


def rank_mod(matrix, p):
    """Rank over Z/p by sparse row echelon form (rows as col -> value)."""
    pivots = {}
    for row in matrix:
        r = {j: x % p for j, x in enumerate(row) if x % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                break
            f = r[c] * pow(piv[c], -1, p) % p
            for j, x in piv.items():
                v = (r.get(j, 0) - f * x) % p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)


def run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"pin: {argv} exited {rc}")
    return out.getvalue()


def oracle(name, order, cli_out):
    """Independent free ranks and Euler table of one graph's CKS complex."""
    from ckskit.cks import CKSComplex
    from ckskit.activity import coherent_cotree
    from ckskit.graphs import Graph, graph_from_dsl

    g = graph_from_dsl(workloads.GRAPHS[name])
    perm = [int(x) for x in order.split(",")]
    g = Graph(g.vertices, g.head, g.tail, [g.order[i] for i in perm])
    c = CKSComplex(g, coherent_cotree(g))
    d = c.genus
    free, euler, small_torsion = {}, {}, False
    for k in range(2 * d + 1):
        for ell in range(d + 1):
            ps = range(min(k, d) + 1)
            dims = {p: c.dim(p, k - p, ell) for p in ps}
            ranks = {}
            for p in ps:
                m = c.d_matrix(p, k - p, ell) if dims[p] else []
                ranks[p] = rank_mod(m, BIG_PRIME)
                if any(rank_mod(m, q) != ranks[p] for q in SMALL_PRIMES):
                    small_torsion = True
            for p in ps:
                f = dims[p] - ranks[p] - ranks.get(p - 1, 0)
                if f:
                    free[f"{2 * p},{k - p},{ell}"] = f
            if any(dims.values()):
                euler[f"{k},{ell}"] = sum((-1) ** p * n for p, n in dims.items())
    if free != cli_out["ranks_by_tridegree"]:
        raise SystemExit(f"pin: {name}: free ranks disagree with the mod-p oracle")
    alt = {}
    for key, f in free.items():
        two_p, q, r = map(int, key.split(","))
        kl = f"{two_p // 2 + q},{r}"
        alt[kl] = alt.get(kl, 0) + (-1) ** (two_p // 2) * f
    table = cli_out["euler_table"]
    for key in set(table) | set(euler) | set(alt):
        if not table.get(key, 0) == euler.get(key, 0) == alt.get(key, 0):
            raise SystemExit(f"pin: {name}: Euler table disagrees at {key}")
    if not cli_out["torsion"] and small_torsion:
        raise SystemExit(f"pin: {name}: the oracle sees torsion the CLI does not")
    return {"stripe_free_ranks": len(free), "prime": BIG_PRIME,
            "small_primes_torsion_free": not small_torsion}


def main():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from ckskit.cli import main as cli_main

    goldens = {"cohomology": {}, "delcon": {}, "oracle": {}}
    for workload in ("cohomology", "delcon"):
        seen = {}
        for seed in PIN_SEEDS:
            ops, orders = workloads.operations(workload, seed)
            for label, argv in ops:
                out = json.loads(run_cli(cli_main, argv))
                if workload == "cohomology":
                    if not all(out["recurrence_checks"].values()):
                        raise SystemExit(f"pin: {label}: a recurrence check failed")
                    if label not in goldens["oracle"]:
                        goldens["oracle"][label] = oracle(label, orders[label], out)
                    out = {f: out[f] for f in workloads.COHOMOLOGY_FIELDS}
                if seen.setdefault(label, out) != out:
                    raise SystemExit(f"pin: {workload}/{label} depends on the edge order")
                print(f"pin: {workload} {label} seed {seed} ok", file=sys.stderr)
        goldens[workload] = seen

    (_, argv), = workloads.operations("corpus", 0)[0]
    text = run_cli(cli_main, argv)
    out = json.loads(text)
    if out["graphs"] != workloads.CORPUS_GRAPHS or not out["all_passed"]:
        raise SystemExit("pin: corpus run did not pass on all graphs")
    goldens["corpus"] = {"stdout_sha256": workloads.digest(text),
                         "graphs": out["graphs"], "per_graph": out["per_graph"]}
    goldens["pinned_seeds"] = list(PIN_SEEDS)
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
