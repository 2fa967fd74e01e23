"""The benchmark's own tests: oracles reject corrupted results, the smoke run emits
every metric named in BENCHMARK.json, and tracing leaves the package as it found it.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _results(tasks):
    return [t.run() for t in tasks]


def test_verify_all_oracle():
    (task,) = w.verify_all(0, smoke=True)
    rc, text = task.run()
    assert task.check((rc, text)) is None
    assert task.check((1, text)) is not None
    assert task.check((rc, text.replace("PASS", "FAIL", 1))) is not None
    assert task.check((rc, text + "PASS extra: row\n")) is not None


def test_theorem_sweep_oracle():
    (task,) = w.theorem_sweep(0, smoke=True)
    rc, text = task.run()
    assert task.check((rc, text)) is None
    rep = json.loads(text)

    def corrupt(**changes):
        bad = dict(rep, **changes)
        return task.check((rc, json.dumps(bad)))

    assert corrupt(category="four-thirds") is not None
    assert corrupt(a0="3+2√2") is not None
    assert corrupt(checks=rep["checks"] + [dict(rep["checks"][0], verdict="fail")]) is not None
    assert corrupt(grid=[dict(row, capacity_bound="999") for row in rep["grid"]]) is not None


@pytest.mark.parametrize("text,parts", [
    ("3", (3, 0, 0, 1)), ("7/2", (7, 0, 0, 2)), ("3+2√2", (3, 2, 2, 1)),
    ("(39+7√29)/10", (39, 7, 29, 10)), ("(5-√13)/2", (5, -1, 13, 2)), ("-3√5", (0, -3, 5, 1)),
])
def test_parse_surd(text, parts):
    assert w.parse_surd(text) == parts


def test_exact_decisions_oracle():
    tasks = w.exact_decisions(0, smoke=True)
    results = _results(tasks)
    reasons = [t.check(r) for t, r in zip(tasks, results)]
    assert all(reason in (None, w.KNOWN_DEFECT) for reason in reasons)
    assert w.KNOWN_DEFECT in reasons  # the integer-t criterion's wrong "holds" show up
    decisions = [(t, r) for t, r in zip(tasks, results) if hasattr(r, "holds")]
    held = next((t, r) for t, r in decisions if r.holds and t.check(r) is None)
    failed = next((t, r) for t, r in decisions if not r.holds and r.fails_at < 50)
    assert held[0].check(dataclasses.replace(held[1], holds=False, fails_at=1)) is not None
    # a "fails" turned into "holds" breaks at an integer t: not the known defect
    reason = failed[0].check(dataclasses.replace(failed[1], holds=True, fails_at=None,
                                                 checked_through=None))
    assert reason not in (None, w.KNOWN_DEFECT)
    assert not run.correct([{"task": failed[0].label, "reason": reason}], w.KNOWN_DEFECT)
    assert run.correct([{"task": "t", "reason": w.KNOWN_DEFECT}], w.KNOWN_DEFECT)
    fit_task, qp = tasks[-1], results[-1]
    assert fit_task.check(qp) is None
    bumped = qp.constant[:-1] + (qp.constant[-1] + 1,)
    assert fit_task.check(dataclasses.replace(qp, constant=bumped)) is not None


def test_irrational_sweep_oracle():
    tasks = w.irrational_sweep(0, smoke=True)
    results = _results(tasks)
    assert all(t.check(r) is None for t, r in zip(tasks, results))
    slices_task, slices = tasks[0], results[0]
    rc, rep = slices[3]
    bad = slices[:3] + [(dataclasses.replace(rc, upper=rc.lower + 1), rep)] + slices[4:]
    assert slices_task.check(bad) is not None
    surd_task, (data, lemma, text) = tasks[-1], results[-1]
    last = str((int(text[-1]) + 1) % 10)
    assert surd_task.check((data, lemma, text[:-1] + last)) is not None
    assert surd_task.check((data, dataclasses.replace(lemma, verdict="fail"), text)) is not None
    wrong = dataclasses.replace(data, a0=data.a0 + Fraction(1, 10**9))
    assert surd_task.check((wrong, lemma, text)) is not None


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(19)]) == (18.0, 100.0, 0)
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0, 10)
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_tracing_restores_and_accounts():
    from ech_staircase import analysis, capacities, cli, ehrhart, suites

    originals = (cli.theorem_report, analysis.theorem_report, suites.SUITES["weights"],
                 capacities.CapacitySequence.extend_to, ehrhart.triangle_count)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.theorem_report is analysis.theorem_report is not originals[0]
        (task,) = w.theorem_sweep(0, smoke=True)
        tracer.run_task(task.run)
        tracer.run_task(lambda: ehrhart.fit_quasi_polynomial(ehrhart.TRIANGLE_THIRD_QUARTER))
    finally:
        tracer.uninstall()
    assert (cli.theorem_report, analysis.theorem_report, suites.SUITES["weights"],
            capacities.CapacitySequence.extend_to, ehrhart.triangle_count) == originals
    selfs = tracer.self_times()
    roots = [i for i in range(len(tracer.span_start)) if tracer.span_parent[i] < 0]
    total = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    summary = tracer.summary()
    assert max(LAYERS, key=lambda layer: selfs[layer]) == "capacities"
    assert summary["ehrhart.fit_calls"] == 1 and summary["ehrhart.fit_period_sum"] == 12
    assert summary["ehrhart.triangle_counts"] == 48
    assert summary["capacities.prefix_calls"] > 0 and summary["cli.self_s"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in out["metrics"].items()}
    assert "failed_frac" in proc.stderr


def test_refuses_without_package_source():
    bare = ROOT / ".bench_build" / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
