"""Command-line driver: parse graphs, run computations and verification
checks, emit deterministic JSON (schema 1), CSV for flat tables, or plain
text tables.  Exit code 0 iff every enabled check passed; 1 also when the
reader closes stdout early; 2 on input errors; 3 when a resource guard
refuses an exhaustive enumeration."""

import argparse
import json
import os
import sys

from . import checks as checks_mod
from . import cks as cks_mod
from . import periodize as periodize_mod
from .activity import coherent_cotree, tutte
from .corpus import corpus_graphs
from .errors import CksKitError, ParseError, ResourceGuard
from .graphs import Graph, _guard, face_complex, graph_from_dsl, graph_from_json

SCHEMA = 1
PERIODIZE_MAX_LEVEL = 2


# ---------------------------------------------------------------------------
# input handling

def load_graph(args):
    # an empty value, say an unset shell variable, is still a value
    if (args.graph is None) == (args.inline is None):
        raise ParseError("provide exactly one of --graph FILE or --inline SPEC")
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                g = graph_from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.graph}: {exc}") from exc
    else:
        g = graph_from_dsl(args.inline)
    if getattr(args, "order", None) is not None:
        try:
            perm = [int(x) for x in args.order.split(",")]
        except ValueError as exc:
            raise ParseError("--order must be a comma-separated permutation") from exc
        if sorted(perm) != list(range(g.n_edges)):
            raise ParseError(f"--order must be a permutation of 0..{g.n_edges - 1}")
        g = Graph(g.vertices, g.head, g.tail, [g.order[i] for i in perm])
    return g


# ---------------------------------------------------------------------------
# serialization helpers

def face_str(graph, s):
    return ",".join(str(e) for e in graph.sort_edges(s))


def emit(args, payload, table_lines=None, csv_lines=None):
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                         default=str))
    elif fmt == "csv":
        if csv_lines is None:
            raise ParseError("csv output is not available for this subcommand")
        for line in csv_lines:
            print(line)
    else:
        for line in table_lines or _default_table(payload):
            print(line)


def _default_table(payload, prefix=""):
    lines = []
    for key in sorted(payload, key=str):
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_default_table(val, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def cmd_tutte(args):
    g = load_graph(args)
    t = tutte(g)
    if args.format in (None, "table"):
        print(t)
    else:
        emit(args, {"schema": SCHEMA, "tutte": str(t)})
    return 0


def cmd_analyze(args):
    g = load_graph(args)
    faces = face_complex(g)
    cc = coherent_cotree(g, faces)
    t = tutte(g)
    payload = {
        "schema": SCHEMA,
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "genus": g.genus(),
        "faces_by_degree": [len(level) for level in faces.levels],
        "spanning_cotrees": len(faces.levels[faces.genus]),
        "basis_dims": [len(level) for level in cc.basis_by_degree()],
        "tutte": str(t),
        "h_poly": str(t.eval_y()),
    }
    emit(args, payload)
    return 0


def _activity_payload(g, cc):
    sh = cc.shelling
    t = tutte(g)
    payload = {
        "schema": SCHEMA,
        "coherent_cotree": {face_str(g, s): face_str(g, c)
                            for s, c in cc.table.items()},
        "In_table": {face_str(g, s): face_str(g, cc.in_set(s))
                     for s in cc.faces.faces()},
        "basis_B": [face_str(g, s) for s in cc.basis()],
        "tutte": str(t),
        "h_poly": str(t.eval_y()),
    }
    if sh is not None:
        payload["shelling"] = [face_str(g, ct) for ct in sh.cotrees]
        payload["restriction_sets"] = {face_str(g, ct): face_str(g, sh.restriction[ct])
                                       for ct in sh.cotrees}
    return payload


def cmd_activity(args):
    g = load_graph(args)
    cc = coherent_cotree(g)
    emit(args, _activity_payload(g, cc))
    return 0


def cmd_ht(args):
    g = load_graph(args)
    ctx = checks_mod.GraphContext(g)
    htc = ctx.ht
    d = g.genus()
    diffs = {}
    dims = {}
    for p in range(d + 1):
        for q in range(d - p + 1):
            n = htc.dim(p, q)
            if n:
                dims[f"{p},{q}"] = n
            triples = sorted([i, j, x] for j, col in htc.d_columns(p, q).items()
                             for i, x in col.items())
            if triples:
                diffs[f"{p},{q}"] = triples
    identity_checks = {}
    for name in ("ht_identities", "ht_exactness", "splitting", "j_basis"):
        ok, _ = checks_mod.CHECKS[name](ctx)
        identity_checks[name] = bool(ok)
    payload = {
        "schema": SCHEMA,
        "graded_dims": dims,
        "differentials": diffs,
        "B_basis": [face_str(g, s) for s in ctx.cc.basis()],
        "identity_checks": identity_checks,
    }
    if args.matrices:
        fgh = ctx.fgh
        payload["f"] = {str(k): fgh.f_matrix(k)[0] for k in range(d + 1)}
        payload["g"] = {str(k): fgh.g_matrix(k)[0] for k in range(d + 1)}
        payload["h"] = {f"{p},{q}": fgh.h_matrix(p, q)
                        for p in range(1, d + 1) for q in range(d - p + 1)}
    emit(args, payload)
    return 0 if all(identity_checks.values()) else 1


def cmd_cks(args):
    g = load_graph(args)
    ctx = checks_mod.GraphContext(g)
    coh = cks_mod.cks_cohomology(ctx.cks)
    table = cks_mod.euler_table(ctx.cks)
    key = cks_mod.euler_mismatch(table, coh)
    if key is not None:
        raise CksKitError(f"Euler characteristic mismatch at stripe {key}")
    hh = cks_mod.h_hat(ctx.cks)
    spec_poly = cks_mod.tutte_loop_specialization(ctx.tutte)
    recurrence = {str(e): ok for e, ok in cks_mod.euler_recurrences(
        ctx.faces, ctx.admissible_edges()).items()}
    payload = {
        "schema": SCHEMA,
        "ranks_by_tridegree": {f"{k[0]},{k[1]},{k[2]}": free
                               for k, (free, _) in sorted(coh.items()) if free},
        "torsion": {f"{k[0]},{k[1]},{k[2]}": tor
                    for k, (_, tor) in sorted(coh.items()) if tor},
        "euler_table": {f"{k},{l}": v for (k, l), v in sorted(table.items())},
        "h_hat": str(hh),
        "tutte_specialization": str(spec_poly),
        "recurrence_checks": recurrence,
    }
    csv_lines = ["k,l,e"] + [f"{k},{l},{v}" for (k, l), v in sorted(table.items())]
    emit(args, payload, csv_lines=csv_lines)
    ok = hh == spec_poly and all(recurrence.values())
    return 0 if ok else 1


def cmd_periodize(args):
    g = load_graph(args)
    n = args.level
    if n < 0:
        raise ParseError("--level must be >= 0")
    max_edges = checks_mod.PERIODIZE_EDGE_LIMIT
    if n > PERIODIZE_MAX_LEVEL or g.n_edges > max_edges:
        raise ResourceGuard(
            f"periodization is capped at level {PERIODIZE_MAX_LEVEL} "
            f"and {max_edges} base edges")
    ctx = checks_mod.GraphContext(g)
    cc = ctx.cc
    pcc, report = periodize_mod.level_checks(
        cc, n, periodize_mod.basis_by_formula(cc, n),
        [ctx.delcon(e) for e in ctx.admissible_edges()])
    pgraph = pcc.graph
    checks = {key: report[key] for key in ("in_formula", "basis_formula", "faces_product")}
    # faces_product is None where the face check did not run
    ok = all(v is not False for v in checks.values()) and all(
        rep["dimension_identity"] and rep["basis_partition"] for rep in report["delcon"])
    checks["delcon"] = {str(rep["edge"]): {key: rep[key] for key in
                                           ("dimension_identity", "dims", "basis_partition")}
                        for rep in report["delcon"]}
    payload = {
        "schema": SCHEMA,
        "level": n,
        "edges": pgraph.n_edges,
        "genus": report["genus"],
        "coherent_cotree": {face_str(pgraph, s): face_str(pgraph, c)
                            for s, c in pcc.table.items()},
        "In_table": {face_str(pgraph, s): face_str(pgraph, pcc.in_set(s))
                     for s in pcc.faces.faces()},
        "basis_B": [face_str(pgraph, s) for s in pcc.basis()],
        "basis_dims": [len(level) for level in pcc.basis_by_degree()],
        "checks": checks,
    }
    emit(args, payload)
    return 0 if ok else 1


def _parse_checks(spec_str):
    if spec_str == "all":
        return None
    names = [x.strip() for x in spec_str.split(",") if x.strip()]
    known = "known: " + ", ".join(sorted(checks_mod.CHECKS))
    if not names:
        raise ParseError(f"--checks {spec_str!r} names no check; {known}")
    for name in names:
        if name not in checks_mod.CHECKS:
            raise ParseError(f"unknown check {name!r}; {known}")
    return names


def cmd_verify(args):
    g = load_graph(args)
    names = _parse_checks(args.checks)
    report = checks_mod.run_checks(g, names=names)
    payload = {
        "schema": SCHEMA,
        "edges": g.n_edges,
        "genus": g.genus(),
        "checks": report,
        "all_passed": all(r["passed"] for r in report.values()),
    }
    lines = [f"{name}: {'pass' if r['passed'] else 'FAIL'}"
             for name, r in report.items()]
    lines.append("all passed" if payload["all_passed"] else "FAILURES present")
    emit(args, payload, table_lines=lines)
    return 0 if payload["all_passed"] else 1


def _corpus_worker(item):
    name, g, names = item
    report = checks_mod.run_checks(g, names=names)
    return name, g.n_edges, g.genus(), report


def cmd_corpus(args):
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, not {args.jobs}")
    names = _parse_checks(args.checks)
    _guard(args.bound, f"corpus --bound {args.bound}")
    try:
        graphs = corpus_graphs(bound=args.bound)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    # the named graphs can have more edges than the bound
    _guard(max((g.n_edges for _, g in graphs), default=0),
           f"corpus --bound {args.bound} with its named graphs")
    items = [(f"{label}#{i}" if label == "enum" else label, g, names)
             for i, (label, g) in enumerate(graphs)]
    jobs = min(args.jobs, len(items))
    if jobs > 1:
        # only a parallel run needs the pool, and importing it costs every
        # other command its start-up time
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_corpus_worker, items))
    else:
        results = [_corpus_worker(item) for item in items]
    per_graph = {}
    all_ok = True
    for name, n_edges, genus, report in results:
        ok = all(r["passed"] for r in report.values())
        all_ok = all_ok and ok
        per_graph[name] = {
            "edges": n_edges,
            "genus": genus,
            "all_passed": ok,
            "failed": sorted(k for k, r in report.items() if not r["passed"]),
        }
        if not ok and args.format != "csv":
            per_graph[name]["checks"] = report
    payload = {
        "schema": SCHEMA,
        "bound": args.bound,
        "graphs": len(results),
        "per_graph": per_graph,
        "all_passed": all_ok,
    }
    csv_lines = ["name,edges,genus,all_passed"] + [
        f"{name},{v['edges']},{v['genus']},{int(v['all_passed'])}"
        for name, v in per_graph.items()]
    lines = [f"{name}: {'pass' if v['all_passed'] else 'FAIL ' + str(v['failed'])}"
             for name, v in per_graph.items()]
    lines.append("all passed" if all_ok else "FAILURES present")
    emit(args, payload, table_lines=lines, csv_lines=csv_lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_graph_args(sub):
    sub.add_argument("--graph", help="path to a graph JSON file")
    sub.add_argument("--inline", help='inline edge list, e.g. "v0-v1 v0-v1 v0-v1"')
    sub.add_argument("--order", help="edge-order override: permutation of positions, e.g. 2,0,1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cks-kit",
        description="Exact integer computations on graphic matroids: coherent "
                    "cotrees, activity bases, graded cochain complexes and "
                    "their verification suite.",
        epilog="Subset enumerations are capped by the CKS_KIT_MAX_ENUM_EDGES "
               "environment variable (default 14 edges).")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("tutte", cmd_tutte, ()),
        ("analyze", cmd_analyze, ()),
        ("activity", cmd_activity, ()),
        ("ht", cmd_ht, ("matrices",)),
        ("cks", cmd_cks, ()),
        ("periodize", cmd_periodize, ("level",)),
        ("verify", cmd_verify, ("checks",)),
    ):
        sub = subs.add_parser(name)
        _add_graph_args(sub)
        sub.add_argument("--format", choices=["json", "csv", "table"],
                         default="json" if name != "tutte" else None)
        if "matrices" in extra:
            sub.add_argument("--matrices", action="store_true",
                             help="include the f/g/h matrices in the output")
        if "level" in extra:
            sub.add_argument("--level", type=int, default=1)
        if "checks" in extra:
            sub.add_argument("--checks", default="all",
                             help="comma-separated check names (default: all)")
        sub.set_defaults(func=fn)

    sub = subs.add_parser("corpus")
    sub.add_argument("--bound", type=int, default=5,
                     help="max edge count for the exhaustive enumeration")
    sub.add_argument("--checks", default="all")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CksKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
