"""One measured process: import ckskit.cli, build the inputs, then call
`ckskit.cli.main` in a closed loop (the next call starts only after the
previous one returns).  Started by run.py as a fresh interpreter, so the
import cost is paid on every run as it is by a user of the CLI.

Prints one JSON object on stdout: the instant set-up finished, then
per call the label, exit code, wall and CPU seconds and captured stdout;
untraced calls also give both times at the reference speed of speed.py,
and with --trace 1 the per-layer metrics of the single traced pass.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_seconds():
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call(main, argv, probe=None):
    out, err = io.StringIO(), io.StringIO()
    if probe is not None:
        probe.start()
    t0, c0 = time.perf_counter(), cpu_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped error is a failed operation
            traceback.print_exc()
            rc = -1
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
    if probe is not None:
        spent, speed = probe.stop()
        wall, cpu = wall - spent, cpu - spent
        result.update(wall_ref_s=wall * speed, cpu_ref_s=cpu * speed, speed=speed)
    result.update(wall_s=wall, cpu_s=cpu)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", help="JSON list of [label, argv] to run instead")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="repeat passes until this much time has elapsed; 0: one pass")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, HERE)
    import ckskit.cli
    import workloads
    if args.ops:
        ops = json.loads(args.ops)
    else:
        ops, _ = workloads.operations(args.workload, args.seed)
    ready = time.monotonic()
    if not ckskit.cli.__file__.startswith(args.src + os.sep):
        sys.exit(f"ckskit imported from {ckskit.cli.__file__}, not {args.src}")
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    # the probe's samples would land inside the spans of a traced pass
    tracer = probe = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from speed import Probe
        probe = Probe()

    passes = []
    start = time.perf_counter()
    while True:
        passes.append([dict(call(ckskit.cli.main, argv, probe), label=label)
                       for label, argv in ops])
        if time.perf_counter() - start >= args.seconds:
            break

    result = {"ready": ready, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        from tracer import summarize
        names = list(sys.modules["ckskit.checks"].CHECKS)
        metrics, report = summarize(tracer, names)
        result["layers"] = metrics
        result["report"] = report
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
