"""Workload definitions, seeded inputs and golden checks.

A workload is a fixed list of graphs and CLI invocations.  The seed only
draws one edge order per graph, passed to the program as ``--order``; the
program never sees the seed.  Outputs are checked against the pinned
fields in ``goldens.json``, which do not depend on the edge order.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

# The seed a run uses when none is given, and the one kept out of tuning
# so that a claimed gain can be re-checked on inputs it was not fitted to.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# theta6: six parallel edges, genus 5.  W4: hub 0, rim 1-2-3-4, genus 4.
GRAPHS = {
    "theta6": "v0-v1 v0-v1 v0-v1 v0-v1 v0-v1 v0-v1",
    "w4": "v0-v1 v0-v2 v0-v3 v0-v4 v1-v2 v2-v3 v3-v4 v4-v1",
}
GRAPH_NAMES = ("theta6", "w4")

CORPUS_BOUND = 5
CORPUS_GRAPHS = 143

WORKLOADS = ("cohomology", "delcon", "corpus")

# Fields of `cks-kit cks` pinned per graph; recurrence_checks is required
# to be all true rather than pinned, since its keys are edge labels.
COHOMOLOGY_FIELDS = ("ranks_by_tridegree", "torsion", "euler_table", "h_hat",
                     "tutte_specialization")


def edge_orders(seed):
    """One random edge order per graph, a pure function of the seed."""
    orders = {}
    for i, name in enumerate(GRAPH_NAMES):
        perm = list(range(len(GRAPHS[name].split())))
        random.Random(seed * 1009 + i).shuffle(perm)
        orders[name] = ",".join(map(str, perm))
    return orders


def operations(workload, seed):
    """The (label, argv) list of one pass, and the edge orders it uses."""
    if workload == "corpus":
        argv = ["corpus", "--bound", str(CORPUS_BOUND), "--jobs", "1"]
        return [("corpus", argv)], {}
    orders = edge_orders(seed)
    if workload == "cohomology":
        head = ["cks"]
    elif workload == "delcon":
        head = ["verify", "--checks", "delcon_cks"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = [(name, head + ["--inline", GRAPHS[name], "--order", orders[name]])
           for name in GRAPH_NAMES]
    return ops, orders


def load_goldens(path=GOLDENS_PATH):
    with open(path) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _parse(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_cohomology(label, rc, stdout, goldens):
    """Failed operations (0 or 1) of one `cks` call."""
    out = _parse(stdout)
    want = goldens["cohomology"][label]
    ok = (rc == 0 and isinstance(out, dict)
          and all(out.get(f) == want[f] for f in COHOMOLOGY_FIELDS)
          and bool(out.get("recurrence_checks"))
          and all(v is True for v in out["recurrence_checks"].values()))
    return 0 if ok else 1


def check_delcon(label, rc, stdout, goldens):
    """Failed operations (0 or 1) of one `verify --checks delcon_cks` call."""
    out = _parse(stdout)
    ok = (rc == 0 and isinstance(out, dict) and out.get("all_passed") is True
          and out == goldens["delcon"][label])
    return 0 if ok else 1


def check_corpus(rc, stdout, goldens):
    """Failed graphs of one corpus call: a graph fails when its entry is
    missing, differs from the golden, or did not pass.  Any other
    difference in the output fails every graph."""
    want = goldens["corpus"]
    if rc == 0 and digest(stdout) == want["stdout_sha256"]:
        return 0
    out = _parse(stdout)
    if not isinstance(out, dict) or not isinstance(out.get("per_graph"), dict):
        return want["graphs"]
    got = out["per_graph"]
    bad = sum(1 for name, entry in want["per_graph"].items()
              if got.get(name) != entry or not entry.get("all_passed"))
    return bad or want["graphs"]


# The delcon and corpus goldens pin verdicts, not values the checks
# compute, so a check that returned before doing its work would still
# match them.  The traced run therefore requires these per-layer metrics
# to be non-zero; on corpus also every `checks.<name>_s`.  A change that
# replaces one of these functions must name its replacement here.
REQUIRED_WORK = {
    "cohomology": (),
    "delcon": ("cks.d_matrix_calls", "intlinalg.rank_calls",
               "cks.check_exact_s", "cks.check_chain_maps_s"),
    "corpus": ("corpus.graphs", "cks.d_matrix_calls", "ht.d_matrix_calls",
               "cks.check_exact_s", "cks.check_chain_maps_s"),
}


def missing_work(workload, layers):
    """Names of required per-layer metrics a traced pass left at zero,
    or with a wrong graph count on corpus."""
    names = list(REQUIRED_WORK[workload])
    if workload == "corpus":
        names += [k for k in layers if k.startswith("checks.") and k.endswith("_s")]
    bad = [k for k in names if not layers[k][0]]
    if workload == "corpus" and layers["corpus.graphs"][0] != CORPUS_GRAPHS:
        bad.append("corpus.graphs")
    return sorted(set(bad))


def attempts(workload):
    """Operations one call counts for: a corpus call is one per graph."""
    return CORPUS_GRAPHS if workload == "corpus" else 1


def failures(workload, label, rc, stdout, goldens):
    if workload == "cohomology":
        return check_cohomology(label, rc, stdout, goldens)
    if workload == "delcon":
        return check_delcon(label, rc, stdout, goldens)
    return check_corpus(rc, stdout, goldens)
