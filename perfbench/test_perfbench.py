"""Tests of the benchmark itself, run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use small graphs so that they take seconds, not the workloads.
"""

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import workloads  # noqa: E402
from pin import rank_mod  # noqa: E402

# Small calls that between them reach every traced layer.
SMALL_OPS = [
    ["cks", ["cks", "--inline", "v0-v1 v0-v1 v0-v1 v0-v1", "--order", "2,0,3,1"]],
    ["verify", ["verify", "--inline", "v0-v1 v0-v2 v0-v3 v1-v2 v1-v3 v2-v3"]],
    ["corpus", ["corpus", "--bound", "3", "--jobs", "1"]],
]


def small_run(trace):
    extra = ["--ops", json.dumps(SMALL_OPS), "--trace", str(trace)]
    _, out = run.spawn(SRC, extra, time.monotonic() + 120)
    return out


def test_wrappers_are_transparent():
    plain, traced = small_run(0), small_run(1)
    assert all(c["rc"] == 0 for c in plain["passes"][0])
    # the untraced pass ran under the speed probe and scaled its times
    assert all(c["speed"] > 0 and c["cpu_ref_s"] > 0 for c in plain["passes"][0])
    assert ([c["stdout"] for c in traced["passes"][0]]
            == [c["stdout"] for c in plain["passes"][0]])


def test_layer_counts_repeat_exactly():
    first, second = small_run(1)["layers"], small_run(1)["layers"]
    counts = {k for k, (_, unit) in first.items() if unit not in ("s", "ms")}
    assert "cks.d_matrix_calls" in counts and "intlinalg.snf_calls" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for name in ("cks.d_matrix_calls", "intlinalg.rank_calls", "corpus.graphs",
                 "activity.coherent_cotree_calls", "ht.d_matrix_calls"):
        assert first[name][0] > 0, name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = small_run(1)["layers"]
    layers["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"cpu_ref_s", "setup_s", "peak_rss_mb"}


def _golden_outputs(goldens):
    """The stdout each call would print if it matched the goldens."""
    out = {}
    for label, fields in goldens["cohomology"].items():
        out[("cohomology", label)] = json.dumps(
            dict(fields, recurrence_checks={"0": True}))
    for label, payload in goldens["delcon"].items():
        out[("delcon", label)] = json.dumps(payload)
    payload = {"schema": 1, "bound": workloads.CORPUS_BOUND,
               "graphs": goldens["corpus"]["graphs"],
               "per_graph": goldens["corpus"]["per_graph"], "all_passed": True}
    out[("corpus", "corpus")] = json.dumps(payload, sort_keys=True,
                                           separators=(",", ":")) + "\n"
    return out


def _failed_frac(goldens, outputs, workload):
    passes = [[{"label": label, "rc": 0, "stdout": text}
               for (w, label), text in outputs.items() if w == workload]]
    attempted, failed = run.check(workload, passes, goldens)
    return failed / attempted


def test_goldens_accept_matching_outputs():
    goldens = workloads.load_goldens()
    outputs = _golden_outputs(goldens)
    assert (workloads.digest(outputs[("corpus", "corpus")])
            == goldens["corpus"]["stdout_sha256"])
    for workload in workloads.WORKLOADS:
        assert _failed_frac(goldens, outputs, workload) == 0


def test_corrupted_golden_makes_failed_frac_nonzero():
    goldens = workloads.load_goldens()
    outputs = _golden_outputs(goldens)
    goldens["cohomology"]["w4"]["ranks_by_tridegree"]["0,0,0"] += 1
    goldens["delcon"]["theta6"]["genus"] += 1
    name = sorted(goldens["corpus"]["per_graph"])[0]
    goldens["corpus"]["per_graph"][name]["genus"] += 1
    goldens["corpus"]["stdout_sha256"] = "0" * 64
    assert _failed_frac(goldens, outputs, "cohomology") == 0.5
    assert _failed_frac(goldens, outputs, "delcon") == 0.5
    assert _failed_frac(goldens, outputs, "corpus") == 1 / workloads.CORPUS_GRAPHS


def test_seeds_give_fixed_distinct_orders():
    assert workloads.edge_orders(5) == workloads.edge_orders(5)
    assert (workloads.edge_orders(workloads.DEFAULT_SEED)
            != workloads.edge_orders(workloads.HELD_OUT_SEED))
    for name, order in workloads.edge_orders(3).items():
        n = len(workloads.GRAPHS[name].split())
        assert sorted(map(int, order.split(","))) == list(range(n))


def test_rank_mod_matches_rank_over_q():
    from ckskit.intlinalg import rank
    rng = random.Random(11)
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        a = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod(a, 2_147_483_647) == rank(a)


def test_missing_work_flags_skipped_checks():
    delcon = {k: (1, "count") for k in workloads.REQUIRED_WORK["delcon"]}
    assert workloads.missing_work("delcon", delcon) == []
    delcon["cks.check_exact_s"] = (0.0, "s")
    assert workloads.missing_work("delcon", delcon) == ["cks.check_exact_s"]
    corpus = {k: (1, "count") for k in workloads.REQUIRED_WORK["corpus"]}
    corpus["corpus.graphs"] = (workloads.CORPUS_GRAPHS, "count")
    corpus["checks.euler_s"] = (0.0, "s")
    assert workloads.missing_work("corpus", corpus) == ["checks.euler_s"]
    corpus["checks.euler_s"] = (0.5, "s")
    corpus["corpus.graphs"] = (workloads.CORPUS_GRAPHS - 1, "count")
    assert workloads.missing_work("corpus", corpus) == ["corpus.graphs"]


def test_probe_samples_during_a_call():
    from speed import PERIOD_S, Probe
    probe = Probe()
    probe.start()
    end = time.perf_counter() + 4 * PERIOD_S
    while time.perf_counter() < end:
        pass
    spent, speed = probe.stop()
    # three or more timer samples, and the one taken after stopping
    assert len(probe.samples) >= 4
    assert 0 < spent < 4 * PERIOD_S and speed > 0
