"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python perfbench/child.py --workload NAME --seed N --pass-index I [--trace] [--smoke] [--spans PATH]
    python perfbench/child.py --setup-only

Order inside the process: import the package and build the CLI parser (the
set-up time), build the pass's inputs, install tracing if asked, run the tasks
one after another under a clock, read the peak RSS, remove tracing, and only
then run the oracles.  ``src`` must be on PYTHONPATH.
"""

import sys
import time

_t0 = time.perf_counter()
from ech_staircase import cli  # noqa: E402

cli._build_parser()
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, smoke: bool,
             spans: str | None) -> dict:
    import workloads
    from tracing import Tracer

    tasks = workloads.WORKLOADS[workload](seed, smoke, pass_index)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    times, results, errors = [], [], []
    start = time.perf_counter()
    for task in tasks:
        t = time.perf_counter()
        try:
            results.append(tracer.run_task(task.run) if tracer else task.run())
            errors.append(None)
        except Exception as exc:  # a task that raises counts as failed, the pass goes on
            results.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary()
        if spans:
            tracer.dump(Path(spans))
    failures = []
    for task, result, error in zip(tasks, results, errors):
        reason = error if error is not None else task.check(result)
        if reason is not None:
            failures.append({"task": task.label, "reason": reason})
    return {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "task_s": times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(tasks),
        "failures": failures,
        "known_defect": workloads.KNOWN_DEFECT,
        "layers": layers,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    if args.setup_only:
        out = {"setup_s": SETUP_S}
    else:
        try:
            out = run_pass(args.workload, args.seed, args.pass_index, args.trace, args.smoke, args.spans)
        except Exception:
            traceback.print_exc()
            return 1
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
