"""Benchmark of ech_staircase: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --smoke            # tiny task lists, one pass per mode

Run from anywhere; the package is taken from ``src/`` next to this directory.
A closed loop with one client: passes run one after another, each in a fresh
child interpreter (``child.py``), until ``--seconds`` have been spent.  With
``--trace 0`` every pass is untimed by tracing and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate, the traced
ones give the per-layer metrics, and the ratio of the two gives the tracing
overhead.  The last line of standard output is the JSON result; a readable
table goes to standard error and a manifest to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / "child.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at least
    ten samples beyond it, by nearest rank.  Below 20 samples that percentile would
    not reach the median, so the maximum is reported instead, with none beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    BUILD.mkdir(exist_ok=True)
    run_child(["--setup-only"], deadline)  # writes the bytecode cache; not measured
    setups = [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    spans = BUILD / "trace" / f"{workload}.spans"
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_child(base + ["--pass-index", str(len(plain) + len(traced))], deadline))
        if trace:
            traced.append(run_child(base + ["--pass-index", str(len(plain) + len(traced)),
                                            "--trace", "--spans", str(spans)], deadline))
        if smoke or time.monotonic() - start >= seconds:
            break
    measured = time.monotonic() - start
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    known = passes[0]["known_defect"]
    task_s = [t for p in plain for t in p["task_s"]]
    tail_value, tail_pct, tail_beyond = tail(task_s)
    walls = [p["wall_s"] for p in plain]
    e2e = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(task_s),
        "task_tail_s": tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    # failed_frac is 0 on most workloads, so it is reported with the per-layer
    # metrics, which have no bound, rather than the bounded end-to-end ones
    layers = {"failed_frac": len(failures) / attempted}
    if trace:
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(walls) - 1
        )
        layers = {name: layers[name] if name in layers else
                  statistics.median(p["layers"][name] for p in traced) for name in PER_LAYER}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured,
        "trace": trace,
        "smoke": smoke,
        "passes": len(plain),
        "pass_wall_s": walls,
        "traced_passes": len(traced),
        "setup_samples": len(setups) + len(plain),
        "task_samples": len(task_s),
        "tasks_per_pass": passes[0]["attempted"],
        "task_tail_percentile": tail_pct,
        "task_tail_beyond": tail_beyond,
        "attempted": attempted,
        "failed": len(failures),
        "known_defect_failures": sum(f["reason"] == known for f in failures),
        "correct": correct(failures, known),
        "failures": failures[:20],
        "end_to_end": e2e,
        "per_layer": layers,
        "trace_spans": statistics.median(p["layers"]["trace.spans"] for p in traced) if traced else 0,
        "host": host_info(),
    }


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def correct(failures: list[dict], known: str) -> bool:
    """True unless some task raised or failed its oracle for a reason other than
    the known defect."""
    return all(f["reason"] == known for f in failures)


def result_line(report: dict) -> dict:
    """The result line; its metrics are the end-to-end set, or the per-layer set when traced."""
    values, units = (report["per_layer"], PER_LAYER) if report["trace"] else (report["end_to_end"], END_TO_END)
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def print_table(report: dict, out) -> None:
    print(f"== {report['workload']} seed={report['seed']} passes={report['passes']}"
          f" traced={report['traced_passes']} tasks={report['task_samples']}"
          f" tail=p{report['task_tail_percentile']:.1f}"
          f" ({report['task_tail_beyond']} beyond)", file=out)
    units = END_TO_END | PER_LAYER
    for name, value in (report["end_to_end"] | report["per_layer"]).items():
        print(f"  {name:28} {value:14.6g} {units[name]}", file=out)
    print(f"  attempted {report['attempted']}, failed {report['failed']}"
          f" (known defect {report['known_defect_failures']})", file=out)
    for f in report["failures"][:5]:
        print(f"  FAILED {f['task']}: {f['reason']}", file=out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny task lists and one pass per mode, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "ech_staircase" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ech_staircase'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            report = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results = BUILD / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print_table(report, sys.stderr)
        print(f"  manifest: {path.relative_to(ROOT)}", file=sys.stderr)
        print(json.dumps(result_line(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
