"""Span tracing around the public functions each topoloc layer exposes.

The tracer wraps functions from the outside: it replaces every reference to
a wrapped function in the loaded ``topoloc`` modules (the defining module,
the modules that imported it by name, the package re-exports), so calls
between layers go through the wrapper too.  Nothing inside ``topoloc``
changes.  Spans (name, start, end, parent) are kept in memory and written out
when the run ends; self time is a span's duration minus that of its direct
children.

A wrapped name that the package no longer defines is recorded as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import stats

# (module, function name or name prefix, metric group).  A prefix ends in "_"
# and matches every name in the module's ``__all__`` that starts with it.
WRAPPED = (
    ("simulate", "generate_world", "simulate.world"),
    ("simulate", "render_traverse", "simulate.render"),
    ("mapping", "build_map", "mapping.build_map"),
    ("formats", "read_", "formats.read"),
    ("formats", "write_", "formats.write"),
    ("measurement", "likelihood_vector", "measurement.likelihood"),
    ("measurement", "calibrate_lambda", "measurement.calibrate"),
    ("motion", "build_transition_model", "motion.model"),
    ("filtering", "forward_init", "filtering.forward"),
    ("filtering", "forward_step", "filtering.forward"),
    ("filtering", "run_forward", "filtering.forward"),
    ("filtering", "smooth_pass", "filtering.smooth"),
    ("filtering", "decide", "filtering.decide"),
    ("tasks", "run_lcd", "tasks"),
    ("tasks", "run_wakeup", "tasks"),
    ("tasks", "run_wakeup_batch", "tasks"),
    ("evaluate", "label_ground_truth", "evaluate.label"),
    ("evaluate", "score_lcd", "evaluate.score"),
    ("evaluate", "score_wakeup", "evaluate.score"),
    ("evaluate", "recall_at_precision", "evaluate.score"),
)


def _likelihood_key(z, map_, *args, **kwargs):
    """A query descriptor's identity, and the bytes one call reads (N * d * 8)."""
    return hash(memoryview(z).tobytes()), map_.n_nodes * map_.descriptor_dim * 8


def _motion_key(map_, odom, *args, **kwargs):
    """An odometry step's identity; the step defines the query frame it belongs to."""
    if odom is None:
        return None, 0
    m = odom.mean
    return (m.dx, m.dy, m.dtheta, *odom.cov.to_upper()), 0


# Functions whose calls are also counted per distinct query frame.
_KEYS = {
    "likelihood_vector": _likelihood_key,
    "build_transition_model": _motion_key,
}


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, group, start, end, parent)
        self.keys: dict[str, list] = defaultdict(list)
        self.amounts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (module, attr, original)
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._build()

    def _build(self):
        for module_name, name, group in WRAPPED:
            module = sys.modules.get(f"topoloc.{module_name}")
            names = [name]
            if name.endswith("_"):
                names = [n for n in getattr(module, "__all__", ()) if n.startswith(name)]
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                self._wrappers.append((fn, self._wrap(fn, fn_name, group)))

    def _wrap(self, fn, name, group):
        spans, stack, keys, amounts = self.spans, self._stack, self.keys, self.amounts
        key_of = _KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                key, amount = key_of(*args, **kwargs)
                keys[name].append(key)
                amounts[name] += amount
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, group, start, end, parent)

        return traced

    def install(self):
        """Point every reference to a wrapped function at its wrapper."""
        if self._patches:
            return
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "topoloc" and not mod_name.startswith("topoloc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def group_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[1]] += own
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def call_ms_p50(self, name: str) -> float:
        durations = [1e3 * (s[3] - s[2]) for s in self.spans if s[0] == name]
        return stats.median(durations) if durations else 0.0

    def calls_per_frame(self, name: str) -> float:
        keys = self.keys.get(name, [])
        return len(keys) / len(set(keys)) if keys else 0.0

    def write(self, path: Path):
        """Spans as JSON lines: name, group, start and end (s), parent span index."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, group, start, end, parent in self.spans:
                fh.write(
                    json.dumps([name, group, round(start - t0, 7), round(end - t0, 7), parent])
                    + "\n"
                )


def layer_metrics(tracer: Tracer, n_nodes: int, overhead_pct: float) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one traced run."""
    own = tracer.group_self_s()
    return {
        "motion.calls": tracer.calls("build_transition_model"),
        "motion.busy_s": own["motion.model"],
        "motion.call_ms_p50": tracer.call_ms_p50("build_transition_model"),
        "motion.calls_per_frame": tracer.calls_per_frame("build_transition_model"),
        "measurement.calls": tracer.calls("likelihood_vector"),
        "measurement.busy_s": own["measurement.likelihood"] + own["measurement.calibrate"],
        "measurement.call_ms_p50": tracer.call_ms_p50("likelihood_vector"),
        "measurement.bytes_computed": tracer.amounts["likelihood_vector"],
        "measurement.calls_per_frame": tracer.calls_per_frame("likelihood_vector"),
        "filtering.forward_busy_s": own["filtering.forward"],
        "filtering.smooth_busy_s": own["filtering.smooth"],
        "filtering.decide_calls": tracer.calls("decide"),
        "filtering.decide_busy_s": own["filtering.decide"],
        "tasks.self_s": own["tasks"],
        "formats.read_s": own["formats.read"],
        "formats.write_s": own["formats.write"],
        "simulate.world_s": own["simulate.world"],
        "simulate.render_s": own["simulate.render"],
        "mapping.build_map_s": own["mapping.build_map"],
        "mapping.n_nodes": n_nodes,
        "evaluate.label_s": own["evaluate.label"],
        "evaluate.score_s": own["evaluate.score"],
        "trace.overhead_pct": overhead_pct,
    }
