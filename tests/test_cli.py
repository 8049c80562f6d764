"""Command-line driver: goldens, exit codes, determinism."""

import ast
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

import pytest

from ckskit import activity, cli
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
    # one walk, through cks_cohomology, builds and factors each stripe once
    from ckskit import cks, ht
    walks = []
    factored = []
    original = cks.CKSComplex.stripe_cohomology
    original_cohomology = cks.cks_cohomology

    def counting(self, **kwargs):
        stripes = original(self, **kwargs)
        walks.append(stripes)
        return stripes

    def once(graph):
        monkeypatch.setattr(cks, "cks_cohomology", None)
        return original_cohomology(graph)

    class Counting(ht.CochainComplex):
        def cohomology(self):
            factored.append(self)
            return super().cohomology()

    monkeypatch.setattr(cks.CKSComplex, "stripe_cohomology", counting)
    monkeypatch.setattr(ht, "CochainComplex", Counting)
    monkeypatch.setattr(cks, "cks_cohomology", once)
    code, _, _ = run_cli(["cks", "--inline", THETA_INLINE], capsys)
    built = [key for stripes in walks for key in stripes]
    assert code == 0 and built and len(built) == len(set(built))
    assert len(factored) == len(built)


def test_cks_builds_no_delcon_setup_and_one_coherent_cotree(monkeypatch, capsys):
    # the recurrence checks read the face counts of the three sides, so
    # `cks` needs the graph's own coherent cotree and nothing per edge
    from ckskit import activity, cks, ht
    made = []
    for cls in (ht.DelConR, cks.DelConCKS):
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *args: made.append(type(self)))
    cotrees = []
    original = activity.coherent_cotree

    def counting(*args, **kwargs):
        cotrees.append(args[0])
        return original(*args, **kwargs)

    for module in (activity, ht, cks, cli):
        monkeypatch.setattr(module, "coherent_cotree", counting)
    code, out, _ = run_cli(["cks", "--inline", " ".join(["v0-v1"] * 6)], capsys)
    assert code == 0 and not made and len(cotrees) == 1
    assert json.loads(out)["recurrence_checks"] == {str(e): True for e in range(6)}


# inline graph and sha256 of `cks` stdout: theta7 and W5 computed with the
# Markowitz-scan elimination and the dense d² check, the 6-loop bouquet and
# K4 with two parallel edges with stripes built one at a time and the Euler
# recurrences read from each edge's deletion-contraction complexes, theta8,
# K5 and W6 with each differential scanned from dense rows, and the doubled
# 4-cycle (Z/2 at (4, 1, 2), from a residual core) and the six-edge core
# graph in two edge orders with each stripe's differentials built whole
# before the first was factored
CKS_STDOUT_SHA256 = {
    "c4_doubled": ("v1-v0 v1-v0 v2-v0 v2-v0 v3-v1 v3-v1 v3-v2 v3-v2",
                   "af024f6dca8b4378cdfef69b0df76c43875f2b8030364fd1f332612b21ee8c69"),
    "core6": ("v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v0 v1-v1",
              "6b46ffe90ba9d188860a15c26ff8741df003feea020a786bda9736ddde634387"),
    "core6_loops_first": ("v1-v1 v0-v0 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1",
                          "83d9eac3d83b285b9203b007aca355cfeeb906d5b3c8fbfee3baf30715aeedaf"),
    "bouquet6": ("a:0-0 b:0-0 c:0-0 d:0-0 e:0-0 f:0-0",
                 "a561f7db46cbd905c4bedaa5dc6b5a42e953ce2ed465a571136be6b402374f37"),
    "k4pp": ("v0-v1 v0-v2 v0-v3 v1-v2 v1-v3 v2-v3 v0-v1 v2-v3",
             "efc5f89431c43237713cdcdcea94bd2dd1a87d773af1948fad43a2d012fbb204"),
    "k5": ("v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v1-v3 v1-v4 v2-v3 v2-v4 v3-v4",
           "c6b7da1b8631395d9f63b8d916af5ebc8f2ecd91322c9deeea9aff591753618d"),
    "theta7": ("v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1",
               "a1918d125566b0f2a916cc9aafa3a99b7e83f07e6b51c045234f349bcbc5fe59"),
    "theta8": ("v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1",
               "7a67e3a44d34ba8ccb34287380f501c76cd0aa2ac68d91efe30f187e2e1eb550"),
    "w5": ("v0-v1 v0-v2 v0-v3 v0-v4 v0-v5 v1-v2 v2-v3 v3-v4 v4-v5 v5-v1",
           "d1e391f09c1c722d437aad8ee466654ba4791974fbb6a196b41fe0fb76959eef"),
    "w6": ("v0-v1 v0-v2 v0-v3 v0-v4 v0-v5 v0-v6 v1-v2 v2-v3 v3-v4 v4-v5 v5-v6 v6-v1",
           "d1ff91d9496bc70996fcc2ddd00a447405fa1b545ae0e90fc9097b9acc6ed8c9"),
}


@pytest.mark.parametrize("name", sorted(CKS_STDOUT_SHA256))
def test_cks_stdout_is_pinned(name, capsys):
    inline, digest = CKS_STDOUT_SHA256[name]
    code, out, err = run_cli(["cks", "--inline", inline], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# inline graph, extra arguments and sha256 of `ht --matrices` stdout,
# computed with the differentials scanned from dense rows
HT_MATRICES_STDOUT_SHA256 = {
    # the bridge has only the empty face; the loop prints the empty
    # shapes "f":{"1":[]} (no row) and "g":{"1":[[]]} (one row, no column),
    # both computed when f and g were filled as dense rows
    "bridge": ("v0-v1", [],
               "b37575cef67c9d2565045782b148f9ad8b56a6dbfb20d420e71c2070388abc73"),
    "loop": ("a:0-0", [],
             "3898bdc06dbce5950736340b0202c8e6f738d9536896643636f4790327541ad4"),
    "theta": ("v0-v1 v0-v1 v0-v1", [],
              "c2c8dc32ce5ae250f0aa1b1c7943b163c70186c24472cf11d487e547e9858ebe"),
    "theta6": ("v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1", [],
               "8a2af92992ce0f91a842afd97b5bd80c8c87147f55b8fce65e5078191f0cdbe0"),
    "w4": ("v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1", [],
           "152cf92795ac274d5c3c4a3e6c2740b3c432f8e15ac1322efe885fc5ba4bcd4a"),
}


@pytest.mark.parametrize("name", sorted(HT_MATRICES_STDOUT_SHA256))
def test_ht_matrices_stdout_is_pinned(name, capsys):
    inline, extra, digest = HT_MATRICES_STDOUT_SHA256[name]
    code, out, err = run_cli(["ht", "--inline", inline, "--matrices", *extra], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ht_assembles_each_differential_once(monkeypatch, capsys):
    # `ht` writes every piece of d and runs four HT checks on them; all
    # read the one copy the complex keeps
    from ckskit.ht import HTComplex
    built = []
    original = HTComplex._assemble

    def counting(self, p, q, *r):
        built.append((p, q, *r))
        return original(self, p, q, *r)

    monkeypatch.setattr(HTComplex, "_assemble", counting)
    code, out, _ = run_cli(["ht", "--inline", " ".join(["v0-v1"] * 6)], capsys)
    assert code == 0 and all(json.loads(out)["identity_checks"].values())
    # 21 pieces with p + q ≤ 5, and d: (−2, 1) -> (0, 0) for splitting at grade 0
    assert len(built) == len(set(built)) == 22


@pytest.mark.parametrize("args", [
    ["ht", "--inline", "v0-v0"],
    ["verify", "--inline", "v0-v0"],
    ["verify", "--inline", "v0-v0", "--checks", "tutte"],
    ["ht", "--inline", "v0-v1 v0-v1 v1-v1"],
    ["ht", "--inline", "v0-v0 v0-v0 v0-v1"],
    ["ht", "--inline", THETA_INLINE],
    ["verify", "--inline", THETA_INLINE],
])
def test_ht_and_verify_take_no_choice(args, capsys):
    # f, g and h read one choice, the least edge of In(S)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--choice", "theta"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --choice" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    ["verify", "--inline", THETA_INLINE], ["corpus", "--bound", "2"],
], ids=["verify", "corpus"])
def test_a_repeated_check_runs_once(monkeypatch, capsys, command):
    # the report keeps one entry per name, so a repeat would only redo it
    calls = []
    for name in ("tutte", "matroid"):
        check = cli.checks_mod.CHECKS[name]
        monkeypatch.setitem(cli.checks_mod.CHECKS, name,
                            lambda ctx, name=name, check=check: calls.append(name) or check(ctx))
    code, out, _ = run_cli(command + ["--checks", "tutte,matroid,tutte,tutte"], capsys)
    assert code == 0
    assert calls == ["tutte", "matroid"] * json.loads(out).get("graphs", 1)


def test_unknown_check_rejected(capsys):
    code, _, err = run_cli(
        ["verify", "--inline", THETA_INLINE, "--checks", "nope"], capsys)
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("spec", ["", ",", " , ,"])
@pytest.mark.parametrize("command", [
    ["verify", "--inline", THETA_INLINE], ["corpus", "--bound", "2"],
], ids=["verify", "corpus"])
def test_a_check_list_without_names_is_rejected(monkeypatch, capsys, command, spec):
    # a list with no names would run nothing and report "all passed"
    monkeypatch.setattr(cli.checks_mod, "run_checks",
                        lambda *args, **kwargs: pytest.fail("checked"))
    code, out, err = run_cli(command + ["--checks", spec], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --checks {spec!r} names no check; known: ")


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


def test_isolated_declared_vertex_exits_2(tmp_path, capsys):
    # vertex 2 is declared but on no edge, so the graph is disconnected
    path = tmp_path / "g.json"
    path.write_text('{"vertices": 3, "edges": [[0, 1], [0, 1]]}')
    code, out, err = run_cli(["analyze", "--graph", str(path)], capsys)
    assert code == 2 and not out
    assert err.startswith("error: declared vertex 2 is on no edge")


def test_cli_import_loads_no_unused_stdlib_modules():
    # what `import ckskit.cli` loads, every command pays for at start-up;
    # none of these serves a command (the process pool is imported by
    # `corpus --jobs N` with N > 1 alone)
    code = ("import sys; before = set(sys.modules); import ckskit.cli; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert "ckskit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal",
                         "concurrent.futures", "logging"}


def test_malformed_enum_limit_exits_2():
    env = dict(os.environ, CKS_KIT_MAX_ENUM_EDGES="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "ckskit.cli", "analyze", "--inline", THETA_INLINE],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: CKS_KIT_MAX_ENUM_EDGES")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("data", [b'\xff\xfe{"edges": [[0, 1]]}', b"[" * 200_000],
                         ids=["not-utf8", "nested-too-deeply"])
def test_unparsable_graph_file_exits_2(data, tmp_path):
    # a file that is not UTF-8 text, and one that nests deeper than the
    # JSON decoder recurses: both are input errors, reported on one line
    path = tmp_path / "g.json"
    path.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "ckskit.cli", "cks", "--graph", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "activity"])
def test_tutte_polynomial_is_enumerated_once(command, monkeypatch, capsys):
    # the h-polynomial is read off the Tutte polynomial the payload prints
    calls = []
    original = activity.tutte

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(activity, "tutte", counting)
    monkeypatch.setattr(cli, "tutte", counting)
    code, out, _ = run_cli([command, "--inline", THETA_INLINE], capsys)
    payload = json.loads(out)
    assert code == 0 and len(calls) == 1
    assert (payload["tutte"], payload["h_poly"]) == ("x + y + y^2", "1 + q + q^2")


@pytest.mark.parametrize("head", [0, 100])
def test_closed_stdout_exits_quietly(head):
    # `corpus ... | head -c N`: the reader takes N bytes and closes the
    # pipe.  Unbuffered, the report goes out in more than one write, so a
    # later write usually meets the closed pipe; with N = 0 the first does.
    # Either way the program stops without a traceback, exiting 1 unless
    # the whole report was written before the pipe closed.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ckskit.cli", "corpus", "--bound", "4", "--checks", "tutte"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    got = proc.stdout.read(head)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait()
    assert len(got) == head and err == b""
    assert code == 1 if head == 0 else code in (0, 1)


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
    # an empty value, say an unset shell variable, is not the identity
    code, _, err = run_cli(["cks", "--inline", "v0-v1", "--order", ""], capsys)
    assert code == 2
    assert err == "error: --order must be a comma-separated permutation\n"


@pytest.mark.parametrize("args, message", [
    (["--graph", "", "--inline", "v0-v1"],
     "provide exactly one of --graph FILE or --inline SPEC"),
    (["--inline", ""], "empty graph description"),
], ids=["empty-graph-and-inline", "empty-inline"])
def test_an_empty_graph_option_is_given(args, message, capsys):
    # an empty --graph or --inline counts as given, like an empty --order
    code, out, err = run_cli(["cks", *args], capsys)
    assert code == 2 and not out
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


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
        ["ht", "--inline", THETA_INLINE], capsys)
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
    # 9 periodized edges: the face check runs
    assert checks["faces_product"] is True
    assert all(v["dimension_identity"] and v["basis_partition"]
               for v in checks["delcon"].values())


def test_periodize_reports_a_face_check_not_run_as_null(capsys):
    # theta at level 2 has 15 periodized edges, past NATIVE_MAX_EDGES, so
    # the face check does not run: null, which is not a failure
    code, out, _ = run_cli(
        ["periodize", "--inline", THETA_INLINE, "--level", "2"], capsys)
    data = json.loads(out)
    assert data["edges"] == 15
    assert data["checks"]["faces_product"] is None
    assert code == 0


def test_periodize_caps(capsys):
    code, _, _ = run_cli(
        ["periodize", "--inline", THETA_INLINE, "--level", "3"], capsys)
    assert code == 3
    code, _, _ = run_cli(
        ["periodize", "--inline", "v0-v1 v0-v1 v0-v1 v0-v2 v1-v2"], capsys)
    assert code == 3


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


def test_corpus_bound_above_the_edge_cap_exits_3_before_enumerating(monkeypatch, capsys):
    bounds = []
    monkeypatch.setattr(cli, "corpus_graphs", lambda bound: bounds.append(bound) or [])
    monkeypatch.setenv("CKS_KIT_MAX_ENUM_EDGES", "4")
    code, out, err = run_cli(["corpus", "--bound", "5"], capsys)
    assert (code, out, bounds) == (3, "", [])
    assert err == ("error: corpus --bound 5 enumerates subsets of 5 edges "
                   "(limit 4; set CKS_KIT_MAX_ENUM_EDGES to raise)\n")
    code, _, _ = run_cli(["corpus", "--bound", "4"], capsys)
    assert (code, bounds) == (0, [4])


def test_corpus_guards_its_named_graphs_before_any_check(monkeypatch, capsys):
    # K4, six edges, joins a bound-4 corpus that passes the bound guard
    monkeypatch.setattr(cli.checks_mod, "run_checks",
                        lambda *args, **kwargs: pytest.fail("checked"))
    monkeypatch.setenv("CKS_KIT_MAX_ENUM_EDGES", "4")
    code, out, err = run_cli(["corpus", "--bound", "4", "--checks", "tutte"], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: corpus --bound 4 with its named graphs enumerates "
                   "subsets of 6 edges (limit 4; set CKS_KIT_MAX_ENUM_EDGES to raise)\n")


def test_corpus_rejects_an_unknown_check_before_enumerating(monkeypatch, capsys):
    monkeypatch.setattr(cli, "corpus_graphs", lambda bound: pytest.fail("enumerated"))
    code, out, err = run_cli(["corpus", "--bound", "7", "--checks", "nosuch"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown check 'nosuch'")


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


@pytest.mark.parametrize("command", ["tutte", "analyze", "activity", "verify"])
def test_csv_is_refused_where_there_is_no_table(capsys, command):
    code, out, err = run_cli(
        [command, "--inline", THETA_INLINE, "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: csv output is not available for this subcommand\n"


def test_tutte_formats(capsys):
    for fmt, want in (("table", "x + y + y^2\n"),
                      ("json", '{"schema":1,"tutte":"x + y + y^2"}\n')):
        assert run_cli(["tutte", "--inline", THETA_INLINE, "--format", fmt],
                       capsys) == (0, want, "")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ckskit.cli", "tutte", "--inline", THETA_INLINE],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x + y + y^2"
