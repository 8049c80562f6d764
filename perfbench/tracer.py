"""Span recorder that wraps ckskit's public functions from the outside.

Each wrapper records one span (name, start, end, parent) per call and
returns the wrapped result unchanged.  `from .intlinalg import rank`
copies the binding into the importing module, so `install` replaces
every module attribute (and every module-level dict value, such as
`checks.CHECKS`) that is the original function object.  Methods are
replaced on their class.

Spans stay in memory; `write_spans` stores them when the run ends.
"""

import functools
import json
import statistics
import sys
import time

# (module, function, metric group).  A group's inclusive time sums only
# its outermost spans, so nested calls within one group count once.
FUNCTIONS = (
    ("corpus", "corpus_graphs", "corpus.enumerate"),
    ("corpus", "enumerate_connected_multigraphs", "corpus.enumerate"),
    ("graphs", "face_complex", "graphs.enum"),
    ("graphs", "spanning_cotrees", "graphs.enum"),
    ("graphs", "enumerate_bonds", "graphs.enum"),
    ("graphs", "enumerate_cycles", "graphs.enum"),
    ("activity", "coherent_cotree", "activity.coherent_cotree"),
    ("activity", "tutte", "activity.tutte"),
    ("activity", "tutte_by_activity", "activity.tutte"),
    ("cks", "cks_cohomology", "cks.cohomology"),
    ("intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("intlinalg", "rank", "intlinalg.rank"),
    ("intlinalg", "matmul", "intlinalg.matmul"),
    ("checks", "run_checks", "checks.graph"),
    ("cli", "main", "cli.main"),
    ("cli", "emit", "cli.emit"),
)

# (module, class, method, metric group)
METHODS = (
    ("ht", "HTComplex", "d_matrix", "ht.d_matrix"),
    ("ht", "FGH", "__init__", "ht.fgh"),
    ("ht", "FGH", "f_face", "ht.fgh"),
    ("ht", "FGH", "f_vector", "ht.fgh"),
    ("ht", "FGH", "g_face", "ht.fgh"),
    ("ht", "FGH", "h_element", "ht.fgh"),
    ("ht", "FGH", "f_matrix", "ht.fgh"),
    ("ht", "FGH", "g_matrix", "ht.fgh"),
    ("ht", "FGH", "h_matrix", "ht.fgh"),
    ("cks", "CKSComplex", "d_matrix", "cks.d_matrix"),
    ("cks", "DelConCKS", "__init__", "cks.delcon_setup"),
    ("cks", "DelConCKS", "check_exact", "cks.check_exact"),
    ("cks", "DelConCKS", "check_chain_maps", "cks.check_chain_maps"),
    ("intlinalg", "CochainComplex", "cohomology", "intlinalg.cohomology"),
)


def _shape(m):
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


class Tracer:
    """In-memory spans plus the counters the hooks measure on arguments
    and results.  A span is (name, group, start, end, parent, hook_s,
    outermost); hook_s is the time the hook took after `end`, which is
    tracer cost and is left out of the parent's self time."""

    def __init__(self):
        self.spans = []
        self.counters = {
            "corpus.graphs": 0,
            "cks.d_matrix_nnz": 0,
            "cks.d_matrix_cells": 0,
            "intlinalg.snf_max_cells": 0,
            "intlinalg.snf_max_entry_bits": 0,
            "intlinalg.snf_torsion_calls": 0,
            "intlinalg.rank_full_calls": 0,
        }
        self._stack = []
        self._active = {}
        self.graph_labels = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, group, fn, hook=None):
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = not active.get(group)
            active[group] = active.get(group, 0) + 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[group] -= 1
                spans[idx] = (name, group, t0, t1, parent, 0.0, outer)
            if hook is not None:
                hook(args, result)
                spans[idx] = (name, group, t0, t1, parent, clock() - t1, outer)
            return result

        return wrapper

    # -- hooks: measured on arguments and results, after the span ends ----

    def _on_corpus(self, args, result):
        self.counters["corpus.graphs"] += len(result)

    def _on_cks_d(self, args, m):
        rows, cols = _shape(m)
        self.counters["cks.d_matrix_cells"] += rows * cols
        self.counters["cks.d_matrix_nnz"] += sum(
            len(row) - row.count(0) for row in m)

    def _on_snf(self, args, snf):
        a = args[0]
        rows, cols = _shape(a)
        c = self.counters
        c["intlinalg.snf_max_cells"] = max(c["intlinalg.snf_max_cells"], rows * cols)
        bits = max((abs(x).bit_length() for row in a for x in row), default=0)
        c["intlinalg.snf_max_entry_bits"] = max(c["intlinalg.snf_max_entry_bits"], bits)
        if any(x > 1 for x in snf.invariant_factors):
            c["intlinalg.snf_torsion_calls"] += 1

    def _on_rank(self, args, r):
        rows, cols = _shape(args[0])
        if r == min(rows, cols):
            self.counters["intlinalg.rank_full_calls"] += 1

    def _on_graph(self, args, result):
        g = args[0]
        edges = " ".join(f"{g.head[e]}-{g.tail[e]}" for e in g.order)
        self.graph_labels.append(edges)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function of the already importable ckskit."""
        import ckskit  # noqa: F401  (imports every submodule)
        import ckskit.cli  # noqa: F401

        def mod(name):
            return sys.modules["ckskit." + name]

        hooks = {
            "corpus_graphs": self._on_corpus,
            "smith_normal_form": self._on_snf,
            "rank": self._on_rank,
            "run_checks": self._on_graph,
        }
        replace = {}
        for module, fname, group in FUNCTIONS:
            fn = getattr(mod(module), fname)
            replace[id(fn)] = (fn, self.wrap(f"{module}.{fname}", group, fn,
                                             hooks.get(fname)))
        for key, fn in mod("checks").CHECKS.items():
            replace[id(fn)] = (fn, self.wrap(f"checks.{key}", f"checks.{key}", fn))
        for module, cls_name, meth, group in METHODS:
            cls = getattr(mod(module), cls_name)
            fn = cls.__dict__[meth]
            hook = self._on_cks_d if group == "cks.d_matrix" else None
            setattr(cls, meth, self.wrap(f"{module}.{cls_name}.{meth}", group, fn, hook))

        for name, module in list(sys.modules.items()):
            if name != "ckskit" and not name.startswith("ckskit."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    setattr(module, attr, replace[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if id(v) in replace and replace[id(v)][0] is v:
                            val[k] = replace[id(v)][1]

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, _, t0, t1, parent, _, _ in self.spans:
                fh.write(json.dumps([name, round(t0, 9), round(t1, 9), parent]))
                fh.write("\n")


def _frac(num, den):
    return num / den if den else 0.0


def summarize(tracer, check_names, top=5):
    """Per-function table and per-layer metrics of one traced pass."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, group, t0, t1, parent, hook_s, outer in spans:
        if parent >= 0:
            covered[parent] += (t1 - t0) + hook_s
    table = {}
    groups = {}
    for i, (name, group, t0, t1, parent, hook_s, outer) in enumerate(spans):
        dur = t1 - t0
        row = table.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["inclusive_s"] += dur
        row["self_s"] += dur - covered[i]
        g = groups.setdefault(group, {"calls": 0, "s": 0.0})
        g["calls"] += 1
        if outer:
            g["s"] += dur

    def s(group):
        return groups.get(group, {}).get("s", 0.0)

    def calls(group):
        return groups.get(group, {}).get("calls", 0)

    def fcalls(name):
        return table.get(name, {}).get("calls", 0)

    c = tracer.counters
    graph_ms = [(t1 - t0) * 1e3 for name, _, t0, t1, _, _, _ in spans
                if name == "checks.run_checks"]
    metrics = {
        "corpus.enumerate_s": (s("corpus.enumerate"), "s"),
        "corpus.graphs": (c["corpus.graphs"], "count"),
        "graphs.enum_s": (s("graphs.enum"), "s"),
        "graphs.face_complex_calls": (fcalls("graphs.face_complex"), "count"),
        "activity.coherent_cotree_s": (s("activity.coherent_cotree"), "s"),
        "activity.coherent_cotree_calls": (calls("activity.coherent_cotree"), "count"),
        "activity.tutte_s": (s("activity.tutte"), "s"),
        "ht.d_matrix_s": (s("ht.d_matrix"), "s"),
        "ht.d_matrix_calls": (calls("ht.d_matrix"), "count"),
        "ht.fgh_s": (s("ht.fgh"), "s"),
        "cks.d_matrix_s": (s("cks.d_matrix"), "s"),
        "cks.d_matrix_calls": (calls("cks.d_matrix"), "count"),
        "cks.d_matrix_nnz": (c["cks.d_matrix_nnz"], "count"),
        "cks.d_matrix_cells": (c["cks.d_matrix_cells"], "count"),
        "cks.cohomology_calls": (calls("cks.cohomology"), "count"),
        "cks.delcon_setups": (calls("cks.delcon_setup"), "count"),
        "cks.delcon_setup_s": (s("cks.delcon_setup"), "s"),
        "cks.check_exact_s": (s("cks.check_exact"), "s"),
        "cks.check_chain_maps_s": (s("cks.check_chain_maps"), "s"),
        "intlinalg.snf_s": (s("intlinalg.snf"), "s"),
        "intlinalg.snf_calls": (calls("intlinalg.snf"), "count"),
        "intlinalg.snf_max_cells": (c["intlinalg.snf_max_cells"], "count"),
        "intlinalg.snf_max_entry_bits": (c["intlinalg.snf_max_entry_bits"], "bit"),
        "intlinalg.snf_torsion_frac": (
            _frac(c["intlinalg.snf_torsion_calls"], calls("intlinalg.snf")), "ratio"),
        "intlinalg.rank_s": (s("intlinalg.rank"), "s"),
        "intlinalg.rank_calls": (calls("intlinalg.rank"), "count"),
        "intlinalg.rank_full_frac": (
            _frac(c["intlinalg.rank_full_calls"], calls("intlinalg.rank")), "ratio"),
        "intlinalg.matmul_s": (s("intlinalg.matmul"), "s"),
        "intlinalg.matmul_calls": (calls("intlinalg.matmul"), "count"),
        "intlinalg.cohomology_s": (s("intlinalg.cohomology"), "s"),
    }
    for name in check_names:
        metrics[f"checks.{name}_s"] = (s(f"checks.{name}"), "s")
    if graph_ms:
        p50 = statistics.median(graph_ms)
        p90 = (statistics.quantiles(graph_ms, n=10, method="inclusive")[8]
               if len(graph_ms) > 1 else graph_ms[0])
    else:
        p50 = p90 = 0.0
    metrics["checks.graph_p50_ms"] = (p50, "ms")
    metrics["checks.graph_p90_ms"] = (p90, "ms")
    metrics["cli.self_s"] = (table.get("cli.main", {}).get("self_s", 0.0), "s")
    metrics["cli.emit_s"] = (s("cli.emit"), "s")
    metrics["trace.spans"] = (len(spans), "count")

    slow_graphs = sorted(zip(graph_ms, tracer.graph_labels), reverse=True)[:top]
    slow_checks = sorted(((s(f"checks.{n}"), n) for n in check_names
                          if calls(f"checks.{n}")), reverse=True)[:top]
    report = {
        "functions": table,
        "slowest_graphs_ms": [[label, ms] for ms, label in slow_graphs],
        "slowest_checks_s": [[n, sec] for sec, n in slow_checks],
    }
    return metrics, report
