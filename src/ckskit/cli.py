"""Command-line driver: parse graphs, run computations and verification
checks, emit deterministic JSON (schema 1), CSV for flat tables, or plain
text tables.  Exit code 0 iff every enabled check passed; 2 on input
errors; 3 when a resource guard refuses an exhaustive enumeration."""

import argparse
import concurrent.futures
import json
import sys

from . import checks as checks_mod
from . import cks as cks_mod
from . import periodize as periodize_mod
from .activity import coherent_cotree, h_polynomial, tutte
from .corpus import corpus_graphs
from .errors import CksKitError, ParseError, ResourceGuard
from .graphs import Graph, face_complex, graph_from_dsl, graph_from_json

SCHEMA = 1
PERIODIZE_MAX_LEVEL = 2


# ---------------------------------------------------------------------------
# input handling

def load_graph(args):
    if bool(args.graph) == bool(args.inline):
        raise ParseError("provide exactly one of --graph FILE or --inline SPEC")
    if args.graph:
        try:
            with open(args.graph) as fh:
                g = graph_from_json(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read {args.graph}: {exc}") from exc
    else:
        g = graph_from_dsl(args.inline)
    if getattr(args, "order", None):
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

def edge_str(e):
    return str(e)


def face_str(graph, s):
    return ",".join(edge_str(e) for e in graph.sort_edges(s))


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
    if getattr(args, "format", None) == "json":
        emit(args, {"schema": SCHEMA, "tutte": str(t)})
    else:
        print(t)
    return 0


def cmd_analyze(args):
    g = load_graph(args)
    faces = face_complex(g)
    cc = coherent_cotree(g, faces)
    payload = {
        "schema": SCHEMA,
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "genus": g.genus(),
        "faces_by_degree": [len(level) for level in faces.levels],
        "spanning_cotrees": len(faces.levels[faces.genus]),
        "basis_dims": [len(level) for level in cc.basis_by_degree()],
        "tutte": str(tutte(g)),
        "h_poly": str(h_polynomial(g)),
    }
    emit(args, payload)
    return 0


def _activity_payload(g, cc):
    sh = cc.shelling
    payload = {
        "schema": SCHEMA,
        "coherent_cotree": {face_str(g, s): face_str(g, c)
                            for s, c in cc.table.items()},
        "In_table": {face_str(g, s): face_str(g, cc.in_set(s))
                     for s in cc.faces.faces()},
        "basis_B": [face_str(g, s) for s in cc.basis()],
        "tutte": str(tutte(g)),
        "h_poly": str(h_polynomial(g)),
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
    ctx = checks_mod.GraphContext(g, choice=args.choice)
    htc = ctx.ht
    d = g.genus()
    diffs = {}
    dims = {}
    for p in range(d + 1):
        for q in range(d - p + 1):
            n = htc.dim(p, q)
            if n:
                dims[f"{p},{q}"] = n
            m = htc.d_matrix(p, q)
            triples = [[i, j, m[i][j]] for i in range(len(m))
                       for j in range(len(m[0]) if m else 0) if m[i][j]]
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
    for coh in ctx.cks_stripes.values():
        if isinstance(coh, CksKitError):
            raise coh  # a stripe that is not a complex
    coh = cks_mod.by_tridegree(ctx.cks_stripes)
    table = cks_mod.euler_table(ctx.cks)
    cks_mod.assert_euler_matches(table, coh)
    hh = cks_mod.h_hat(ctx.cks)
    spec_poly = cks_mod.tutte_loop_specialization(g)
    recurrence = {}
    for e in ctx.admissible_edges():
        dc = cks_mod.DelConCKS(ctx.delcon(e))
        recurrence[edge_str(e)] = cks_mod.euler_recurrence_holds(dc)
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
        raise ParseError(
            f"periodization is capped at level {PERIODIZE_MAX_LEVEL} "
            f"and {max_edges} base edges")
    ctx = checks_mod.GraphContext(g)
    cc = ctx.cc
    pg, pcc = periodize_mod.periodized_cotree(cc, n)
    ok_in, _ = periodize_mod.check_in_lemma(cc, pg, pcc)
    ok_basis, _ = periodize_mod.check_basis_formula(cc, pg, pcc)
    native = periodize_mod.native_face_check(cc, n)
    delcon = {}
    for e in ctx.admissible_edges():
        rep = periodize_mod.delcon_r_periodized(ctx.delcon(e), n)
        delcon[edge_str(e)] = {
            "dimension_identity": rep["dimension_identity"],
            "dims": rep["dims"],
            "basis_partition": rep["basis_partition"],
        }
    payload = {
        "schema": SCHEMA,
        "level": n,
        "edges": pg.graph.n_edges,
        "genus": pg.graph.genus(),
        "coherent_cotree": {face_str(pg.graph, s): face_str(pg.graph, c)
                            for s, c in pcc.table.items()},
        "In_table": {face_str(pg.graph, s): face_str(pg.graph, pcc.in_set(s))
                     for s in pcc.faces.faces()},
        "basis_B": [face_str(pg.graph, s) for s in pcc.basis()],
        "basis_dims": [len(level) for level in pcc.basis_by_degree()],
        "checks": {
            "in_formula": bool(ok_in),
            "basis_formula": bool(ok_basis),
            "faces_product": True if native is None else bool(native),
            "delcon": delcon,
        },
    }
    emit(args, payload)
    ok = (ok_in and ok_basis and native is not False
          and all(v["dimension_identity"] and v["basis_partition"]
                  for v in delcon.values()))
    return 0 if ok else 1


def _parse_checks(spec_str):
    if not spec_str or spec_str == "all":
        return None
    names = [x.strip() for x in spec_str.split(",") if x.strip()]
    for name in names:
        if name not in checks_mod.CHECKS:
            raise ParseError(f"unknown check {name!r}; known: "
                             + ", ".join(sorted(checks_mod.CHECKS)))
    return names


def cmd_verify(args):
    g = load_graph(args)
    names = _parse_checks(args.checks)
    report = checks_mod.run_checks(g, names=names, choice=args.choice)
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
    name, g, names, choice = item
    report = checks_mod.run_checks(g, names=names, choice=choice)
    return name, g.n_edges, g.genus(), report


def cmd_corpus(args):
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, not {args.jobs}")
    try:
        graphs = corpus_graphs(bound=args.bound)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    names = _parse_checks(args.checks)
    items = [(f"{label}#{i}" if label == "enum" else label, g, names, "min")
             for i, (label, g) in enumerate(graphs)]
    jobs = min(args.jobs, len(items))
    if jobs > 1:
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
        ("ht", cmd_ht, ("choice", "matrices")),
        ("cks", cmd_cks, ()),
        ("periodize", cmd_periodize, ("level",)),
        ("verify", cmd_verify, ("choice", "checks")),
    ):
        sub = subs.add_parser(name)
        _add_graph_args(sub)
        sub.add_argument("--format", choices=["json", "csv", "table"],
                         default="json" if name != "tutte" else None)
        if "choice" in extra:
            sub.add_argument("--choice", choices=["min", "theta"], default="min")
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
        return args.func(args)
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
