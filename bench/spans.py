"""Tracing from outside the program: wrap the public layer functions of
termlq in every module namespace that binds them, record one span per call,
and reduce the spans to per-op counts and self times.

A span is (op, name, start_ns, end_ns, parent, failed). Spans stay in memory
until ``write``. A span's self time is its duration minus the durations of
its direct children; calls nest and run on one thread, so the children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name = <module>.<function>; cli.main is the root of every op
SPANS = {
    "cli": ("main",),
    "fileio": ("load_instance_file", "dumps_report", "instance_hash", "read_replay_log"),
    "model": ("riccati_backward", "build_schedule", "check_reachability",
              "solve_lambda", "rollout"),
    "qlearn": ("learn", "sample_stage_data", "stage_targets", "fit_stage", "extract_stage"),
    "harness": ("kkt_oracle", "stacked_operators", "verify_solution",
                "draw_reachable_instance", "monte_carlo"),
    "linalg": ("min_norm_solve", "is_pd"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)
# transition oracles whose step() calls are counted (qlearn.oracle_steps_per_op)
ORACLES = ("SimulatedPlant", "ReplayLog")
MODULES = ("termlq", "termlq.cli", "termlq.fileio", "termlq.model", "termlq.qlearn",
           "termlq.harness", "termlq.linalg")


class Tracer:
    """Owns the spans and the patches; ``install``/``remove`` swap every
    binding of a traced function between the original and its wrapper."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.oracle_steps: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(name) for name in MODULES]
        for mod, fns in SPANS.items():
            home = importlib.import_module(f"termlq.{mod}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:   # a layer function the program no longer has
                    continue
                wrapper = self._span(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        qlearn = importlib.import_module("termlq.qlearn")
        for cls_name in ORACLES:
            cls = getattr(qlearn, cls_name, None)
            step = vars(cls).get("step") if cls is not None else None
            if step is not None:
                self._patches.append((cls, "step", step, self._count(step)))

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, failed)
        return traced

    def _count(self, step):
        steps = self.oracle_steps

        @functools.wraps(step)
        def counted(*args, **kwargs):
            steps[self.op] += 1
            return step(*args, **kwargs)
        return counted

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ns (span durations), self_ns (minus
        direct children) and fails, summed over the given ops."""
        ops = set(ops)
        child_ns = [0] * len(self.spans)
        for op, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "fails": 0}
                  for name in SPAN_NAMES}
        for idx, (op, name, start, end, _, failed) in enumerate(self.spans):
            if op in ops:
                t = totals[name]
                t["calls"] += 1
                t["total_ns"] += end - start
                t["self_ns"] += end - start - child_ns[idx]
                t["fails"] += failed
        return totals

    def root_ns(self) -> dict:
        """Per op: time inside its top-level spans."""
        covered: dict = defaultdict(int)
        for op, _, start, end, parent, _ in self.spans:
            if parent < 0:
                covered[op] += end - start
        return covered

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for op, name, start, end, parent, failed in self.spans:
                f.write(json.dumps([op, name, start, end, parent, failed]) + "\n")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x over the points with y > 0."""
    pts = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    lx, ly = np.log(np.array(pts, dtype=float)).T
    return float(np.polyfit(lx, ly, 1)[0])
