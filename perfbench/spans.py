"""Span tracing around combidyn's layers, from the benchmark's side.

`installed(tracer)` replaces the public functions that `combidyn.pipeline`,
`combidyn.gradient` and `combidyn.dynamics` imported (or define and call
through their module globals) with timing wrappers, and restores them on exit.
Nothing inside `src/` changes. Spans are kept in memory; the worker writes
them out once the run is over.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import combidyn.dynamics
import combidyn.gradient
import combidyn.pipeline


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.counts = count(args, kwargs, result)
                return result

        return traced


def _cells(args, kwargs, result):
    return {"builders.cells": len(result)}


def _pairs(args, kwargs, result):
    return {"costs.pairs": len(result.pair_costs)}


def _dense_matrix(args, kwargs, result):
    # solve_bipartite allocates an (N_even + N_odd)^2 float64 matrix
    backend = args[1] if len(args) > 1 else kwargs.get("backend", "auto")
    if backend not in ("auto", "bipartite"):
        return {}
    return {"solver.assign_matrix_mb": args[0].n_cells ** 2 * 8 / 1e6}


# module -> {attribute: (layer, counter)}; each attribute is looked up through
# that module's globals at call time, so patching the module attribute traces
# every call made from that module.
_SITES = {
    combidyn.pipeline: {
        "read_field_csv": ("pipeline.read_csv", None),
        "cubical_grid": ("builders.build", _cells),
        "delaunay_2d": ("builders.build", _cells),
        "assign_vertex_average": ("vectors.assign", None),
        "build_cost_model": ("costs.pair_costs", _pairs),
        "build_problem": ("solver.build_problem", None),
        "solve_exact": ("solver.solve", _dense_matrix),
        "verify_matching": ("solver.verify_matching", None),
        "alpha_sweep": ("gradient.sweep", None),
        "solve_gradient_constrained": ("gradient.constrained", None),
        "is_gradient": ("gradient.is_gradient", None),
        "multiflow": ("dynamics.multiflow", None),
        "classify_recurrence": ("dynamics.scc", None),
        "build_report_document": ("pipeline.report", None),
    },
    combidyn.gradient: {
        "build_cost_model": ("costs.pair_costs", _pairs),
        "build_problem": ("solver.build_problem", None),
        "solve_exact": ("solver.solve", _dense_matrix),
        "solve_branch_and_bound": ("gradient.bnb", None),
        "is_gradient": ("gradient.is_gradient", None),
    },
    combidyn.dynamics: {
        "verify_matching": ("solver.verify_matching", None),
    },
}

ROOTS = ("op.run", "op.verify")

# layer -> counter of its calls
CALL_COUNTERS = {
    "costs.pair_costs": "costs.calls",
    "solver.solve": "solver.solve_calls",
    "solver.verify_matching": "solver.verify_matching_calls",
    "gradient.bnb": "gradient.constraint_rounds",
}
# counters reported as their largest value, not their sum
PEAK_COUNTERS = ("solver.assign_matrix_mb",)


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attrs in _SITES.items():
            for attr, (layer, count) in attrs.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, layer, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time and counters over `spans` (whole operations).

    The self time of the root spans, the benchmark's own glue around the
    layers, is reported as trace.unaccounted_s, so all `_s` values add up to
    the root spans' total duration.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s in spans:
        add("trace.unaccounted_s" if s.name in ROOTS else f"{s.name}_s", selfs[s.id])
        if s.name in CALL_COUNTERS:
            add(CALL_COUNTERS[s.name], 1)
        if s.name == "solver.solve" and s.parent is not None and by_id[s.parent].name == "gradient.sweep":
            add("gradient.sweep_steps", 1)
        for key, value in s.counts.items():
            if key in PEAK_COUNTERS:
                m[key] = max(m.get(key, 0.0), value)
            else:
                add(key, value)
    return m


def check_nesting(spans: list[Span]) -> list[str]:
    """Every span lies inside its parent and shares its operation id."""
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.end < s.start:
            bad.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end or s.op != p.op:
            bad.append(f"span {s.id} {s.name} escapes its parent {p.id} {p.name}")
    return bad


def under(spans: list[Span], root: str) -> list[Span]:
    """The spans whose outermost ancestor is named `root`."""
    by_id = {s.id: s for s in spans}

    def top(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    return [s for s in spans if top(s).name == root]
