"""Command-line driver: goldens, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from ckskit import cli
from ckskit.cli import main

THETA_INLINE = "v0-v1 v0-v1 v0-v1"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tutte_inline_golden(capsys):
    code, out, _ = run_cli(["tutte", "--inline", THETA_INLINE], capsys)
    assert code == 0
    assert out.strip() == "x + y + y^2"


def test_cks_loop_ranks(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text('{"vertices": 1, "edges": [[0, 0]]}')
    code, out, _ = run_cli(["cks", "--graph", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["ranks_by_tridegree"] == {"0,0,0": 1, "0,0,1": 1, "0,1,1": 1}
    assert data["h_hat"] == data["tutte_specialization"]


def test_cks_computes_cohomology_once(monkeypatch, capsys):
    # each stripe is built and factored once, with no second pass
    # through cks_cohomology
    from ckskit import cks
    built = []
    original = cks.CKSComplex.stripe

    def counting(self, k, ell):
        built.append((k, ell))
        return original(self, k, ell)

    monkeypatch.setattr(cks.CKSComplex, "stripe", counting)
    monkeypatch.setattr(cks, "cks_cohomology", None)
    code, _, _ = run_cli(["cks", "--inline", THETA_INLINE], capsys)
    assert code == 0 and built and len(built) == len(set(built))


@pytest.mark.parametrize("args", [
    ["ht", "--inline", "v0-v0"],
    ["verify", "--inline", "v0-v0"],
    ["verify", "--inline", "v0-v0", "--checks", "tutte"],
    ["ht", "--inline", "v0-v1 v0-v1 v1-v1"],
    ["ht", "--inline", "v0-v0 v0-v0 v0-v1"],
])
def test_theta_choice_on_another_graph_exits_2(args, capsys):
    code, _, err = run_cli(args + ["--choice", "theta"], capsys)
    assert code == 2 and err.startswith("error: the theta choice preset")


def test_cks_takes_no_choice(capsys):
    # the CKS complex depends only on the coherent cotree
    with pytest.raises(SystemExit) as exc:
        main(["cks", "--inline", THETA_INLINE, "--choice", "min"])
    assert exc.value.code == 2


def test_verify_theta_passes(capsys):
    code, out, _ = run_cli(["verify", "--inline", THETA_INLINE], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert all(v["passed"] for v in data["checks"].values())


def test_verify_is_deterministic(capsys):
    _, out1, _ = run_cli(["verify", "--inline", THETA_INLINE], capsys)
    _, out2, _ = run_cli(["verify", "--inline", THETA_INLINE], capsys)
    assert out1 == out2


def test_verify_check_subset(capsys):
    code, out, _ = run_cli(
        ["verify", "--inline", THETA_INLINE, "--checks", "tutte,matroid"], capsys)
    assert code == 0
    assert set(json.loads(out)["checks"]) == {"tutte", "matroid"}


def test_unknown_check_rejected(capsys):
    code, _, err = run_cli(
        ["verify", "--inline", THETA_INLINE, "--checks", "nope"], capsys)
    assert code == 2
    assert "unknown check" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["tutte", "--inline", "v0=v1"], capsys)
    assert code == 2 and "error" in err
    code, _, _ = run_cli(["tutte"], capsys)
    assert code == 2
    code, _, _ = run_cli(["analyze", "--graph", "/nonexistent.json"], capsys)
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"vertices": "x", "edges": [[0, 1]]}',
    '{"vertices": 2, "edges": [["a", "b"]]}',
    '{"edges": [[0, 1.5]]}',
    '{"edges": [[true, false]]}',
    '{"edges": [[0, 1], [0, 1]], "order": [0, "a"]}',
], ids=["vertices-string", "edges-strings", "edges-float", "edges-bool",
        "order-string"])
def test_malformed_json_exits_2(text, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, _, err = run_cli(["analyze", "--graph", str(path)], capsys)
    assert code == 2 and err.startswith("error:")


def test_malformed_enum_limit_exits_2():
    env = dict(os.environ, CKS_KIT_MAX_ENUM_EDGES="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "ckskit.cli", "analyze", "--inline", THETA_INLINE],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: CKS_KIT_MAX_ENUM_EDGES")
    assert "Traceback" not in proc.stderr


def test_resource_guard_exits_3(monkeypatch, capsys):
    # the Tutte polynomial walks all 2^|E| edge subsets, so it is guarded
    monkeypatch.setenv("CKS_KIT_MAX_ENUM_EDGES", "2")
    code, out, err = run_cli(["tutte", "--inline", THETA_INLINE], capsys)
    assert code == 3 and not out
    assert err.startswith("error: the Tutte polynomial enumerates subsets of 3 edges")


def test_order_override(capsys):
    code, out, _ = run_cli(
        ["tutte", "--inline", THETA_INLINE, "--order", "2,1,0"], capsys)
    assert code == 0 and out.strip() == "x + y + y^2"
    code, _, _ = run_cli(
        ["tutte", "--inline", THETA_INLINE, "--order", "0,0,1"], capsys)
    assert code == 2


def test_activity_json_fields(capsys):
    code, out, _ = run_cli(["activity", "--inline", THETA_INLINE], capsys)
    assert code == 0
    data = json.loads(out)
    for field in ("shelling", "restriction_sets", "coherent_cotree",
                  "In_table", "basis_B", "tutte", "h_poly"):
        assert field in data
    assert data["basis_B"] == ["", "2", "1,2"]
    assert data["tutte"] == "x + y + y^2"


def test_ht_identity_checks(capsys):
    code, out, _ = run_cli(
        ["ht", "--inline", THETA_INLINE, "--choice", "theta"], capsys)
    assert code == 0
    data = json.loads(out)
    assert all(data["identity_checks"].values())
    assert data["B_basis"] == ["", "2", "1,2"]


def test_periodize_report(capsys):
    code, out, _ = run_cli(
        ["periodize", "--inline", THETA_INLINE, "--level", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 1 and data["edges"] == 9
    checks = data["checks"]
    assert checks["in_formula"] and checks["basis_formula"]
    assert checks["faces_product"]
    assert all(v["dimension_identity"] and v["basis_partition"]
               for v in checks["delcon"].values())


def test_periodize_caps(capsys):
    code, _, _ = run_cli(
        ["periodize", "--inline", THETA_INLINE, "--level", "3"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["periodize", "--inline", "v0-v1 v0-v1 v0-v1 v0-v2 v1-v2"], capsys)
    assert code == 2


def test_corpus_small_bound(capsys):
    code, out, _ = run_cli(
        ["corpus", "--bound", "2", "--checks", "tutte,activity,splitting"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert data["graphs"] >= 4  # loop, bridge, two loops, paths, parallel pair...
    assert "k4" in data["per_graph"]


def test_corpus_rejects_empty_bound(capsys):
    code, _, _ = run_cli(["corpus", "--bound", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_rejects_jobs_below_one(jobs, capsys):
    code, out, err = run_cli(["corpus", "--bound", "2", "--jobs", jobs], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --jobs must be at least 1, not {jobs}\n"


def test_corpus_pool_is_no_larger_than_the_corpus(monkeypatch, capsys):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    argv = ["corpus", "--bound", "2", "--checks", "tutte"]
    code, serial, _ = run_cli(argv, capsys)
    assert code == 0 and sizes == []
    graphs = json.loads(serial)["graphs"]
    code, out, _ = run_cli(argv + ["--jobs", "1000"], capsys)
    assert code == 0 and out == serial
    code, out, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert code == 0 and out == serial
    assert sizes == [graphs, 2]


def test_csv_euler_table(capsys):
    code, out, _ = run_cli(
        ["cks", "--inline", THETA_INLINE, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,l,e"
    assert "0,0,1" in lines


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ckskit.cli", "tutte", "--inline", THETA_INLINE],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x + y + y^2"
