"""Span tracing of the ech_staircase layers, installed from outside the package.

Every public function of each layer module is rebound, in its defining module
and in every package module that imported it (dict values such as
``suites.SUITES`` included), to a wrapper that records a span.  A few class
methods carry the hot paths of their layer and are patched on the class.

Spans live in flat arrays (name index, parent span, start, end) while the pass
runs; ``summary`` turns them into per-layer self times and work counters and
``dump`` writes them out once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "suites", "analysis", "capacities", "ehrhart", "intervals", "surd", "core", "render")

# Class methods that hold their layer's hot path.  QuadraticSurd.decimal is
# public and called directly by the irrational-sweep tasks, so its time is
# attributed to surd rather than to the caller.
METHODS = (
    ("capacities", "CapacitySequence", "extend_to"),
    ("intervals", "AdaptiveScalar", "enclosure"),
    ("surd", "QuadraticSurd", "__init__"),
    ("surd", "QuadraticSurd", "decimal"),
)

ROOT = "bench"  # layer of the per-task root spans; not a layer of the package


class Tracer:
    """Records spans and work counters for one pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object, bool]] = []
        self.calls = dict.fromkeys(LAYERS + (ROOT,), 0)
        self.cap_terms = 0
        self.cap_ratio_terms = 0
        self.cap_requests: list[tuple] = []
        self.triangle_counts = 0
        self.fit_period_sum = 0
        self.fit_triangles: list[tuple] = []
        self.domination_calls = 0
        self.slice_calls = 0
        self.enclosures = 0
        self.refinements = 0
        self.max_bits = 0
        self.adaptive_slices = 0
        self.first_try = 0
        self.precision_errors = 0
        self.surd_constructions = 0
        self.max_radicand_bits = 0
        self._bits_stack: list[int] = []
        self._start_bits = 0

    # -- spans ------------------------------------------------------------

    def _name_index(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, name: str, before=None, after=None):
        idx = self._name_index(layer, name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack, calls = self.span_start, self.span_end, self._stack, self.calls
        precision_error = sys.modules["ech_staircase.intervals"].PrecisionError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if before is not None:
                before(args)
            sid = len(span_start)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            result = None
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except precision_error as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.precision_errors += 1
                raise
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    def run_task(self, fn):
        """Run fn under a root span, so that layer spans have a parent."""
        return self._root(fn)

    # -- counters ---------------------------------------------------------

    def _hooks(self, layer: str, name: str):
        """(before, after) callbacks that update the work counters for one callable."""
        if name == "CapacitySequence.extend_to":
            def before(args):
                seq, count = args[0], args[1]
                self.cap_terms += count
                self.cap_requests.append((seq.ellipsoid.a, seq.ellipsoid.b, count))
            return before, None
        if name == "max_capacity_ratio":
            def after(args, result):
                self.cap_ratio_terms += min(len(args[0]), len(args[1])) - 1
            return None, after
        if name == "triangle_count":
            def after(args, result):
                self.triangle_counts += 1
            return None, after
        if name == "fit_quasi_polynomial":
            def after(args, result):
                self.fit_triangles.append((args[0].u, args[0].v))
                if result is not None:
                    self.fit_period_sum += result.period
            return None, after
        if name in ("ehrhart_dominates", "ehrhart_dominates_exact"):
            def after(args, result):
                self.domination_calls += 1
            return None, after
        if name in ("region_counts", "verify_slice_inequality"):
            scalar = sys.modules["ech_staircase.intervals"].AdaptiveScalar

            def before(args):
                self.slice_calls += 1
                self._bits_stack.append(0 if isinstance(args[0], scalar) else -1)

            def after(args, result):
                bits = self._bits_stack.pop()
                if bits >= 0:
                    self.adaptive_slices += 1
                    self.first_try += bits <= self._start_bits
            return before, after
        if name == "AdaptiveScalar.enclosure":
            def before(args):
                bits = args[1]
                self.enclosures += 1
                self.refinements += bits > self._start_bits
                self.max_bits = max(self.max_bits, bits)
                if self._bits_stack and self._bits_stack[-1] >= 0:
                    self._bits_stack[-1] = max(self._bits_stack[-1], bits)
            return before, None
        if name == "QuadraticSurd.__init__":
            def before(args):
                self.surd_constructions += 1
                d = args[3] if len(args) > 3 else 0
                self.max_radicand_bits = max(self.max_radicand_bits, abs(d).bit_length())
            return before, None
        return None, None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function and patch the hot class methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ech_staircase" or n.startswith("ech_staircase."))]
        self._start_bits = sys.modules["ech_staircase.intervals"].START_BITS
        self._root = self._wrap(lambda fn: fn(), ROOT, "task")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"ech_staircase.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                before, after = self._hooks(layer, name)
                wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}", before, after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((mod, name, value, False))
                    setattr(mod, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item, True))
                            value[key] = wrappers[id(item)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"ech_staircase.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            before, after = self._hooks(layer, f"{cls_name}.{meth}")
            self._undo.append((cls, meth, orig, False))
            setattr(cls, meth, self._wrap(orig, layer, f"{layer}.{cls_name}.{meth}", before, after))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig, is_dict = self._undo.pop()
            if is_dict:
                target[key] = orig
            else:
                setattr(target, key, orig)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's durations."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        name_layer, span_name = self.name_layer, self.span_name
        for i in range(n):
            out[name_layer[span_name[i]]] += dur[i] - child[i]
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed by their names in BENCHMARK.json."""
        st = self.self_times()
        out = {f"{layer}.self_s": st[layer] for layer in LAYERS}
        n_req = len(self.cap_requests)
        n_fit = len(self.fit_triangles)
        out.update({
            "core.calls": self.calls["core"],
            "capacities.prefix_calls": n_req,
            "capacities.terms": self.cap_terms,
            "capacities.ratio_terms": self.cap_ratio_terms,
            "capacities.distinct_frac": len(set(self.cap_requests)) / n_req if n_req else 0.0,
            "ehrhart.triangle_counts": self.triangle_counts,
            "ehrhart.fit_calls": n_fit,
            "ehrhart.fit_period_sum": self.fit_period_sum,
            "ehrhart.distinct_fit_frac": len(set(self.fit_triangles)) / n_fit if n_fit else 0.0,
            "ehrhart.domination_calls": self.domination_calls,
            "ehrhart.slice_calls": self.slice_calls,
            "intervals.enclosures": self.enclosures,
            "intervals.refinements": self.refinements,
            "intervals.max_bits": self.max_bits,
            "intervals.first_try_frac": (
                self.first_try / self.adaptive_slices if self.adaptive_slices else 0.0
            ),
            "intervals.precision_errors": self.precision_errors,
            "render.calls": self.calls["render"],
            "surd.constructions": self.surd_constructions,
            "surd.max_radicand_bits": self.max_radicand_bits,
            "trace.spans": len(self.span_start),
        })
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays in native binary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": self.name_layer,
            "spans": len(self.span_start),
            "arrays": [["name", "l"], ["parent", "l"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
