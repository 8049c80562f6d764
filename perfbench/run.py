"""Fixed, seeded benchmark for cks-kit, run from the root of a checkout:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): `cohomology` runs `cks-kit cks` on theta6
and W4, `delcon` runs `cks-kit verify --checks delcon_cks` on the same
graphs, `corpus` runs `cks-kit corpus --bound 5 --jobs 1`.  Every call
goes through `ckskit.cli.main` in a fresh interpreter built from the
checkout's `src/`, and every output is checked against goldens.json.

--trace 0 measures the end-to-end metrics: closed-loop passes over the
workload until --seconds have elapsed (at least one pass), and several
set-up-only interpreters for `setup_s`.  `cpu_ref_s` and `setup_s` are
scaled to the reference speed of speed.py, which steadies them on a
shared machine; the raw times and `wall_ref_s` are in the detail line.  --trace 1 runs one untraced
pass and one traced pass, and reports the per-layer metrics of the
traced one; their wall-time difference is the tracing overhead.  The
traced pass must also show the work workloads.REQUIRED_WORK names.

The last stdout line is the result object; the line before it holds
the details (quartiles, sample counts, failed_frac, edge orders, the
slowest graphs and checks).  Spans of a traced run are written under
.perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 31
DEADLINE_S = 170
OUT_DIR = ".perfbench_out"


def spread(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spawn(src, extra, deadline):
    """Run worker.py in a fresh interpreter; returns (spawn instant,
    parsed output).  -I keeps the caller's environment out of it."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), "--src", src] + extra
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        sys.exit("benchmark: a worker ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"benchmark: worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(src, base, count, deadline):
    """Seconds from spawning an interpreter until ckskit.cli is imported
    and the inputs are built."""
    times = []
    for _ in range(count):
        t0, out = spawn(src, base + ["--setup-only"], deadline)
        times.append(out["ready"] - t0)
    return times


def check(workload, passes, goldens):
    """Operations attempted and failed; failed calls are logged to stderr."""
    attempted = failed = 0
    for calls in passes:
        for c in calls:
            attempted += workloads.attempts(workload)
            bad = workloads.failures(workload, c["label"], c["rc"], c["stdout"], goldens)
            if bad:
                print(f"benchmark: {c['label']} failed {bad} (exit {c['rc']})\n"
                      f"{c.get('stderr', '')}", file=sys.stderr)
            failed += bad
    return attempted, failed


def pass_totals(passes, key):
    return [sum(c[key] for c in calls) for calls in passes]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ckskit", "cli.py")):
        sys.exit("benchmark: run it from the root of a cks-kit checkout (no src/ckskit)")
    goldens = workloads.load_goldens()
    _, orders = workloads.operations(args.workload, args.seed)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    detail = {"workload": args.workload, "seed": args.seed, "orders": orders}

    if args.trace == 0:
        # set-up samples on both sides of the measured worker, which is
        # one more sample, so they see the machine at different moments
        setups = setup_times(src, base, SETUP_SAMPLES // 2, deadline)
        t0, out = spawn(src, base + ["--seconds", str(args.seconds)], deadline)
        setups.append(out["ready"] - t0)
        setups += setup_times(src, base, SETUP_SAMPLES // 2, deadline)
        passes = out["passes"]
        attempted, failed = check(args.workload, passes, goldens)
        stats = {k: spread(pass_totals(passes, k))
                 for k in ("wall_ref_s", "cpu_ref_s", "wall_s", "cpu_s")}
        stats["setup_raw_s"] = spread(setups)
        # an interpreter lives too briefly to probe itself steadily, so
        # set-up is scaled by the speed probed over the whole run
        speed = sum(pass_totals(passes, "cpu_ref_s")) / sum(pass_totals(passes, "cpu_s"))
        metrics = {"cpu_ref_s": {"value": stats["cpu_ref_s"]["median"], "unit": "s"}}
        metrics["setup_s"] = {"value": stats["setup_raw_s"]["median"] * speed, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": out["peak_rss_mb"], "unit": "MiB"}
        detail.update({
            "passes": len(passes),
            "speed": speed,
            "timings": stats,
            "call_wall_s": {c["label"]: spread([p[i]["wall_s"] for p in passes])
                            for i, c in enumerate(passes[0])},
            "call_speed": {c["label"]: spread([p[i]["speed"] for p in passes])
                           for i, c in enumerate(passes[0])},
        })
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        _, plain = spawn(src, base, deadline)
        _, traced = spawn(src, base + ["--trace", "1", "--spans", stem + ".spans.jsonl"],
                          deadline)
        passes = plain["passes"] + traced["passes"]
        attempted, failed = check(args.workload, passes, goldens)
        stdout_same = ([c["stdout"] for c in plain["passes"][0]]
                       == [c["stdout"] for c in traced["passes"][0]])
        skipped = workloads.missing_work(args.workload, traced["layers"])
        if skipped:
            print(f"benchmark: the traced pass did no work in {skipped}", file=sys.stderr)
        if not stdout_same or skipped:
            failed = attempted
        overhead = (pass_totals(traced["passes"], "wall_s")[0]
                    - pass_totals(plain["passes"], "wall_s")[0])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        with open(stem + ".report.json", "w") as fh:
            json.dump(traced["report"], fh, indent=1, sort_keys=True)
        detail.update({
            "traced_stdout_equals_untraced": stdout_same,
            "missing_work": skipped,
            "slowest_graphs_ms": traced["report"]["slowest_graphs_ms"],
            "slowest_checks_s": traced["report"]["slowest_checks_s"],
            "functions": traced["report"]["functions"],
            "spans": stem + ".spans.jsonl",
        })

    detail["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                             "attempted": attempted, "failed": failed}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
