"""End-to-end driver: field CSV in, solved and analyzed flow out.

Holds the config dataclass, the CSV readers, the pipeline itself, and the
exporters. Everything here is deterministic given identical input bytes and
config; derived floats are serialized at 9 significant digits with fixed key
order so repeated runs produce byte-identical files. The input parameters
alpha, side and radius keep full precision, so `verify` rebuilds exactly what
`run` built.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .builders import (
    DowkerRelation,
    cubical_grid,
    delaunay_2d,
    dowker_complex_from_matrix,
    snap_to_lattice,
)
from .complexes import CellComplex, barycentric_subdivision
from .costs import CostModel, build_cost_model
from .datagen import FieldSample
from .dynamics import CycleReport, FlowGraph, _flow_successors, classify_recurrence, multiflow
from .gradient import (
    DEFAULT_ALPHA_GRID,
    all_critical_threshold,
    alpha_sweep,
    # unused here but kept a module attribute: perfbench/spans.py traces the
    # layers through this module's globals
    is_gradient,  # noqa: F401
    solve_gradient_constrained,
)
from .solver import (
    Matching,
    MatchingProblem,
    build_problem,
    evaluate_matching,
    objective_decomposition,
    solve_exact,
    verify_matching,
)
from .vectors import assign_dowker_average, assign_vertex_average

__all__ = [
    "PipelineConfig",
    "Analysis",
    "ParseError",
    "read_field_csv",
    "read_landmarks_csv",
    "read_relation_csv",
    "run_pipeline",
    "build_report_document",
    "export_report",
    "export_dot",
    "export_arrows",
    "verify_report",
]

COMPLEX_KINDS = ("delaunay2d", "cubical", "dowker")
GRADIENT_MODES = ("off", "sweep", "constraints")


class ParseError(ValueError):
    """Input file problem, annotated with path and line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


@dataclass
class PipelineConfig:
    complex_kind: str = "delaunay2d"
    alpha: float = 0.5
    subdivide: int = 0
    gradient_mode: str = "off"
    side: float | None = None  # cubical lattice pitch
    radius: float | None = None  # dowker ball radius
    landmarks: str | None = None  # dowker landmark CSV
    relation: str | None = None  # dowker explicit 0/1 relation CSV (overrides radius)
    snap: bool = False  # round scattered samples onto the cubical lattice

    def validate(self, point_dim: int) -> None:
        if self.complex_kind not in COMPLEX_KINDS:
            raise ValueError(f"unknown complex kind {self.complex_kind!r}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")
        if not 0.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [0, 2], got {self.alpha}")
        if self.subdivide < 0:
            raise ValueError("subdivide must be a non-negative integer")
        if self.complex_kind == "delaunay2d" and point_dim != 2:
            raise ValueError(f"delaunay2d needs 2-dimensional points, got d={point_dim}")
        if self.complex_kind == "cubical":
            if point_dim not in (2, 3):
                raise ValueError(f"cubical needs d in {{2, 3}}, got d={point_dim}")
            if self.side is None or not 0 < self.side < math.inf:
                raise ValueError("cubical complex needs a finite --side > 0")
            if self.subdivide > 0:
                raise ValueError("barycentric subdivision applies to simplicial complexes only")
        if self.complex_kind == "dowker":
            if self.landmarks is None:
                raise ValueError("dowker complex needs --landmarks")
            if self.relation is None and (self.radius is None or not 0 < self.radius < math.inf):
                raise ValueError("dowker complex needs a finite --radius > 0 or a --relation")
        if self.snap and self.complex_kind != "cubical":
            raise ValueError("--snap only applies to cubical complexes")

    def echo(self) -> dict:
        return {
            "complex": self.complex_kind,
            "alpha": float(self.alpha),
            "subdivide": self.subdivide,
            "gradient": self.gradient_mode,
            "side": None if self.side is None else float(self.side),
            "radius": None if self.radius is None else float(self.radius),
            "landmarks": self.landmarks,
            "relation": self.relation,
            "snap": self.snap,
        }

    @classmethod
    def from_echo(cls, echo: dict) -> "PipelineConfig":
        return cls(
            complex_kind=echo["complex"],
            alpha=float(echo["alpha"]),
            subdivide=int(echo["subdivide"]),
            gradient_mode=echo["gradient"],
            side=None if echo["side"] is None else float(echo["side"]),
            radius=None if echo["radius"] is None else float(echo["radius"]),
            landmarks=echo["landmarks"],
            relation=echo["relation"],
            snap=bool(echo["snap"]),
        )


def _sig9(x: float) -> float:
    return float(format(float(x), ".9g"))


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _float_table(path, rows: list[list[str]], width: int) -> np.ndarray:
    """The data rows after the header as an (n, width) float array; blank rows
    are skipped. The first bad line, in file order, raises a ParseError: a
    row of the wrong width, an entry `float()` rejects, or a non-finite value."""
    lines, data = [], []
    short = None  # (line, length) of the first row of the wrong width
    for ln, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            short = (ln, len(row))
            break
        lines.append(ln)
        data.append(row)
    try:
        # numpy parses each string with float(), so it accepts the same text
        table = np.array(data, dtype=float).reshape(-1, width)
    except ValueError:
        # numpy does not say which entry failed: find the first bad line in order
        for ln, row in zip(lines, data):
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise ParseError(path, ln, str(exc)) from None
            if not all(map(math.isfinite, vals)):
                raise ParseError(path, ln, "non-finite value")
        raise
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        raise ParseError(path, lines[bad[0]], "non-finite value")
    if short is not None:
        raise ParseError(path, short[0], f"expected {width} values, got {short[1]}")
    return table


def read_field_csv(path) -> FieldSample:
    """Read `x1..xd,v1..vd` rows. d is inferred from the header."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(path, 1, "empty input file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or len(header) % 2 != 0:
        raise ParseError(path, 1, f"expected an even number of columns x1..xd,v1..vd, got {header}")
    d = len(header) // 2
    expected = [f"x{i}" for i in range(1, d + 1)] + [f"v{i}" for i in range(1, d + 1)]
    if header != expected:
        raise ParseError(path, 1, f"expected header {','.join(expected)}, got {','.join(header)}")
    table = _float_table(path, rows, 2 * d)
    if not len(table):
        raise ParseError(path, 2, "no data rows")
    return FieldSample(table[:, :d].copy(), table[:, d:].copy())


def read_landmarks_csv(path) -> np.ndarray:
    """Read `y1..yd` landmark rows."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(path, 1, "empty landmark file")
    header = [h.strip() for h in rows[0]]
    d = len(header)
    expected = [f"y{i}" for i in range(1, d + 1)]
    if d < 1 or header != expected:
        raise ParseError(path, 1, f"expected header y1..yd, got {','.join(header)}")
    table = _float_table(path, rows, d)
    if not len(table):
        raise ParseError(path, 2, "no landmark rows")
    return table


def read_relation_csv(path) -> np.ndarray:
    """Read a headerless 0/1 matrix: one row per data point, one column per
    landmark."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = []
    width = None
    for ln, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            vals = [int(c) for c in row]
        except ValueError as exc:
            raise ParseError(path, ln, str(exc)) from None
        if any(v not in (0, 1) for v in vals):
            raise ParseError(path, ln, "relation entries must be 0 or 1")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ParseError(path, ln, f"expected {width} columns, got {len(vals)}")
        out.append(vals)
    if not out:
        raise ParseError(path, 1, "empty relation file")
    return np.asarray(out, dtype=bool)


@dataclass
class Analysis:
    config: PipelineConfig
    sample: FieldSample
    complex: CellComplex
    vectors: np.ndarray  # (N, d), one row per cell
    cost_model: CostModel
    problem: MatchingProblem
    matching: Matching
    flow: FlowGraph
    recurrence: CycleReport
    alpha_effective: float
    constraint_rounds: int = 0  # re-solves of the constrained loop
    document: dict = field(default_factory=dict)


def _build_complex(config: PipelineConfig, sample: FieldSample):
    if config.complex_kind == "delaunay2d":
        complex = delaunay_2d(sample.points)
        vectors = assign_vertex_average(complex, sample.vectors)
    elif config.complex_kind == "cubical":
        source = snap_to_lattice(sample, config.side) if config.snap else sample
        complex = cubical_grid(source.points, config.side)
        vectors = assign_vertex_average(complex, source.vectors)
    else:
        landmarks = read_landmarks_csv(config.landmarks)
        if config.relation is not None:
            # CSV rows follow the field file's convention (one per data point);
            # the builder wants landmarks as rows
            rows = read_relation_csv(config.relation)
            if rows.shape != (len(sample.points), len(landmarks)):
                raise ValueError(
                    f"relation shape {rows.shape} does not match "
                    f"{len(sample.points)} points x {len(landmarks)} landmarks"
                )
            rel = rows.T
        else:
            rel = DowkerRelation(sample.points, landmarks, config.radius).matrix()
        complex, witness = dowker_complex_from_matrix(landmarks, rel)
        vectors = assign_dowker_average(complex, witness, sample.vectors)

    for _ in range(config.subdivide):
        complex, vectors = barycentric_subdivision(complex, vectors)
    return complex, vectors


def run_pipeline(config: PipelineConfig, input_path) -> Analysis:
    sample = read_field_csv(input_path)
    config.validate(sample.dim)
    complex, vectors = _build_complex(config, sample)

    rounds = 0
    if config.gradient_mode == "sweep":
        base = build_cost_model(complex, vectors, config.alpha)
        alpha_eff, matching = alpha_sweep(complex, base)
        cost_model = replace(base, alpha=alpha_eff)
        problem = build_problem(cost_model, complex)
    else:
        alpha_eff = config.alpha
        cost_model = build_cost_model(complex, vectors, alpha_eff)
        problem = build_problem(cost_model, complex)
        if config.gradient_mode == "constraints":
            matching, rounds = solve_gradient_constrained(problem, complex)
        else:
            matching = solve_exact(problem)

    flow = multiflow(complex, matching)
    recurrence = classify_recurrence(flow, matching)
    analysis = Analysis(
        config=config,
        sample=sample,
        complex=complex,
        vectors=vectors,
        cost_model=cost_model,
        problem=problem,
        matching=matching,
        flow=flow,
        recurrence=recurrence,
        alpha_effective=alpha_eff,
        constraint_rounds=rounds,
    )
    analysis.document = build_report_document(analysis)
    return analysis


def build_report_document(analysis: Analysis) -> dict:
    complex = analysis.complex
    matching = analysis.matching
    n_matched, cosine_sum, n_critical = objective_decomposition(matching, analysis.cost_model)

    doc: dict = {
        "config_echo": analysis.config.echo(),
        "complex": {
            "counts": {str(d): n for d, n in sorted(complex.counts_by_dim().items())}
        },
        "problem": {"N": analysis.problem.n_cells, "m": analysis.problem.m},
        "objective": {
            "total": _sig9(matching.objective),
            "matched": n_matched,
            "cosine_sum": _sig9(cosine_sum),
            "critical": n_critical,
            "alpha": float(analysis.alpha_effective),
        },
        "matching": [{"lower": lo, "upper": up} for lo, up in matching.pairs()],
        "critical": [_cell_entry(complex, c) for c in sorted(matching.critical)],
        "scc": _scc_entries(analysis.recurrence),
    }
    if analysis.config.gradient_mode != "off":
        doc["gradient"] = {
            "mode": analysis.config.gradient_mode,
            # acyclic iff no multi-cell component, read off the flow already analysed
            "is_gradient": not analysis.recurrence.multi_cell(),
            "constraint_rounds": analysis.constraint_rounds,
        }
    return doc


def _cell_entry(complex: CellComplex, cell_id: int) -> dict:
    return {
        "id": cell_id,
        "dim": int(complex.dims[cell_id]),
        "vertices": list(complex.vertex_ids(cell_id)),
        "barycenter": [_sig9(x) for x in complex.barycenters[cell_id]],
    }


def _scc_entries(recurrence: CycleReport) -> list[dict]:
    return [
        {
            "id": info.id,
            "size": info.size,
            "d": info.d,
            "self_intersections": len(info.self_intersections),
            "cells": list(info.cells),
        }
        for info in recurrence.sccs
    ]


def export_report(analysis: Analysis, path) -> None:
    doc = analysis.document or build_report_document(analysis)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def export_dot(analysis: Analysis, path) -> None:
    """Flow graph in DOT form: one node per cell, one edge per flow arrow.
    Critical cells are drawn doubled."""
    lines = ["digraph flow {"]
    for c, dim in enumerate(analysis.complex.dims.tolist()):
        shape = "doublecircle" if c in analysis.flow.critical else "circle"
        lines.append(f'  {c} [label="{c}:d{dim}" shape={shape}];')
    source = np.repeat(np.arange(len(analysis.flow)), np.diff(analysis.flow.succ_ptr))
    lines.extend(f"  {c} -> {t};" for c, t in zip(source.tolist(), analysis.flow.succ_idx.tolist()))
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_arrows(analysis: Analysis, path) -> None:
    """Matched arrows as segments between barycenters, one CSV row per pair.
    Critical cells are not arrows; they live in the report's critical list."""
    d = analysis.complex.point_dim
    header = (
        ["lower", "upper"]
        + [f"from_x{i}" for i in range(1, d + 1)]
        + [f"to_x{i}" for i in range(1, d + 1)]
    )
    lines = [",".join(header)]
    for lo, up in analysis.matching.pairs():
        a = analysis.complex.barycenters[lo]
        b = analysis.complex.barycenters[up]
        row = [str(lo), str(up)] + [_fmt9(x) for x in a] + [_fmt9(x) for x in b]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def verify_report(report_path, input_path) -> tuple[bool, list[str]]:
    """Re-derive everything checkable from a serialized report: rebuild the
    complex from the echoed config, re-verify the matching axioms, check the
    reported alpha (the echoed one, or in sweep mode a default grid value or
    the all-critical threshold), recompute the objective and its
    decomposition at that alpha and the problem size, and re-run the flow
    analysis to confirm the critical, SCC and gradient sections round-trip.

    `gradient.constraint_rounds` is not checked: it could only be re-derived
    by solving again. A report that lacks a key, or whose `matching` or
    `critical` is not a list, raises ValueError naming the report and the key."""
    doc = json.loads(Path(report_path).read_text())

    def need(node, key, at="", kind=None):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"{report_path}: report has no {at}{key}")
        if kind is not None and not isinstance(node[key], kind):
            raise ValueError(f"{report_path}: report has no {kind.__name__} {at}{key}")
        return node[key]

    try:
        config = PipelineConfig.from_echo(need(doc, "config_echo"))
    except KeyError as exc:
        raise ValueError(f"{report_path}: report has no config_echo.{exc.args[0]}") from None
    reported_counts = need(need(doc, "complex"), "counts", "complex.")
    objective = need(doc, "objective")
    total, alpha = need(objective, "total", "objective."), need(objective, "alpha", "objective.")
    pairs = [
        (need(e, "lower", f"matching[{i}]."), need(e, "upper", f"matching[{i}]."))
        for i, e in enumerate(need(doc, "matching", kind=list))
    ]
    critical_entries = need(doc, "critical", kind=list)
    critical = [need(e, "id", f"critical[{i}].") for i, e in enumerate(critical_entries)]
    problem, scc = need(doc, "problem"), need(doc, "scc")

    sample = read_field_csv(input_path)
    config.validate(sample.dim)
    complex, vectors = _build_complex(config, sample)

    lines: list[str] = []
    ok = True

    counts = {str(d): n for d, n in sorted(complex.counts_by_dim().items())}
    good = counts == reported_counts
    ok &= good
    lines.append(f"complex rebuild ({sum(counts.values())} cells): {'PASS' if good else 'FAIL'}")

    # the raw pair list, so that a pair listed twice is caught
    rep = verify_matching(complex, pairs, set(critical))
    ok &= rep.ok
    lines.append(
        f"matching axioms ({len(pairs)} pairs, {len(set(critical))} critical): "
        f"{'PASS' if rep.ok else 'FAIL (' + ', '.join(sorted(rep.kinds())) + ')'}"
    )
    if not rep.ok:
        return False, lines
    matching = Matching(matched=dict(pairs), critical=frozenset(critical), objective=float(total))

    alpha = float(alpha)
    model = build_cost_model(complex, vectors, alpha)
    if config.gradient_mode == "sweep":
        good = alpha in DEFAULT_ALPHA_GRID or alpha == all_critical_threshold(model)
    else:
        good = alpha == config.alpha
    ok &= good
    lines.append(
        f"objective alpha ({_fmt9(alpha)}, mode {config.gradient_mode}): {'PASS' if good else 'FAIL'}"
    )

    recomputed = evaluate_matching(model, matching)
    good = _sig9(recomputed) == total
    ok &= good
    lines.append(
        f"objective recomputation ({_fmt9(recomputed)} vs {_fmt9(total)}): "
        f"{'PASS' if good else 'FAIL'}"
    )

    n_matched, cosine_sum, n_critical = objective_decomposition(matching, model)
    good = (objective.get("matched"), objective.get("cosine_sum"), objective.get("critical")) == (
        n_matched, _sig9(cosine_sum), n_critical
    )
    ok &= good
    lines.append(
        f"objective decomposition ({n_matched} matched, {n_critical} critical): "
        f"{'PASS' if good else 'FAIL'}"
    )

    size = {"N": len(complex), "m": len(model.pair_costs) + len(complex)}
    good = problem == size
    ok &= good
    lines.append(f"problem size (N={size['N']}, m={size['m']}): {'PASS' if good else 'FAIL'}")

    # the pairs passed verify_matching above, so the unchecked flow is safe
    ptr, idx = _flow_successors(complex, matching)
    flow = FlowGraph(succ_ptr=ptr, succ_idx=idx, dims=complex.dims, critical=matching.critical)
    recurrence = classify_recurrence(flow, matching)
    good = _scc_entries(recurrence) == scc
    ok &= good
    lines.append(f"recurrence round-trip ({len(recurrence.sccs)} components): {'PASS' if good else 'FAIL'}")

    redone = [_cell_entry(complex, c) for c in sorted(matching.critical)]
    good = redone == critical_entries
    ok &= good
    lines.append(f"critical census round-trip: {'PASS' if good else 'FAIL'}")

    # is_gradient reads the same flow graph: acyclic iff no multi-cell component
    section = doc.get("gradient")
    if config.gradient_mode == "off":
        good = section is None
    else:
        good = section is not None and (section.get("mode"), section.get("is_gradient")) == (
            config.gradient_mode, not recurrence.multi_cell()
        )
    ok &= good
    lines.append(f"gradient section (mode {config.gradient_mode}): {'PASS' if good else 'FAIL'}")

    return bool(ok), lines
