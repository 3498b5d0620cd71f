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
import io
import itertools
import json
import marshal
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .builders import (
    cubical_grid,
    delaunay_2d,
    dowker_complex_from_matrix,
    dowker_relation,
    snap_to_lattice,
)
from .complexes import CellComplex, barycentric_subdivision
from .costs import CostModel, build_cost_model
from .datagen import FieldSample
# is_gradient is unused here but stays a module attribute: perfbench/spans.py
# traces the layers through this module's globals
from .dynamics import CycleReport, classify_recurrence, is_gradient, multiflow  # noqa: F401
from .gradient import DEFAULT_ALPHA_GRID, alpha_sweep, solve_gradient_constrained
from .solver import (
    Matching,
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
        return {key: _typed(getattr(self, name), kind) for key, (name, kind) in _CONFIG_KEYS.items()}

    @classmethod
    def from_echo(cls, echo: dict) -> "PipelineConfig":
        """The config a report's `config_echo` names. `run`'s flags are the
        echo keys, so its parsed arguments (`vars(args)`) work as well."""
        return cls(**{name: _typed(echo[key], kind) for key, (name, kind) in _CONFIG_KEYS.items()})


# config_echo key, which is also the `run` flag -> (PipelineConfig field, JSON
# type); the fields that default to None echo null when unset
_CONFIG_KEYS = {
    "complex": ("complex_kind", str),
    "alpha": ("alpha", float),
    "subdivide": ("subdivide", int),
    "gradient": ("gradient_mode", str),
    "side": ("side", float),
    "radius": ("radius", float),
    "landmarks": ("landmarks", str),
    "relation": ("relation", str),
    "snap": ("snap", bool),
}


def _typed(value, kind):
    return None if value is None else kind(value)


def _sig9(x: float) -> float:
    return float(format(float(x), ".9g"))


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _float_table(path, rows: list[list[str]], width: int) -> np.ndarray:
    """The data rows after the header as an (n, width) float array; blank rows
    are skipped. The first bad line, in file order, raises a ParseError: a
    row of the wrong width, an entry `float()` rejects, or a non-finite value.

    When every row has the width, all are parsed at once; the row walk runs
    only to skip blank rows or to name the first bad line."""
    if set(map(len, rows[1:])) == {width}:
        try:
            # numpy parses each string with float(), so it accepts the same text
            table = np.array(list(itertools.chain.from_iterable(rows[1:])), dtype=float)
        except ValueError:
            pass  # a blank row or an entry float() rejects
        else:
            table = table.reshape(-1, width)
            if np.isfinite(table).all():
                return table
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


def _csv_rows(path: Path) -> list[list[str]]:
    """The rows of a UTF-8 CSV file, whatever the locale; a leading byte-order
    mark, as spreadsheets write it, is dropped. A byte sequence that is not
    UTF-8 raises a ParseError naming its line."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    return list(csv.reader(io.StringIO(text, newline="")))


def read_field_csv(path) -> FieldSample:
    """Read `x1..xd,v1..vd` rows. d is inferred from the header."""
    path = Path(path)
    rows = _csv_rows(path)
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
    rows = _csv_rows(path)
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
    rows = _csv_rows(path)
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
    """A solved field. `recurrence` and the report `document` are derived
    from the matching on construction, so `run` and `verify` share one
    writer. The matching must pass `verify_matching`."""

    config: PipelineConfig
    sample: FieldSample
    complex: CellComplex
    vectors: np.ndarray  # (N, d), one row per cell
    cost_model: CostModel
    matching: Matching
    constraint_rounds: int = 0  # re-solves of the constrained loop
    recurrence: CycleReport = field(init=False)
    document: dict = field(init=False)

    def __post_init__(self):
        self.recurrence = classify_recurrence(self.complex, self.matching)
        self.document = build_report_document(self)


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
        if landmarks.shape[1] != sample.dim:
            raise ParseError(
                config.landmarks, 1, f"landmarks have dimension {landmarks.shape[1]}, the field has {sample.dim}"
            )
        if config.relation is not None:
            # CSV rows follow the field file's convention (one per data point);
            # the builder wants landmarks as rows
            rows = read_relation_csv(config.relation)
            expected = (len(sample.points), len(landmarks))
            if rows.shape != expected:
                raise ParseError(
                    config.relation, 1, f"relation shape {rows.shape} does not match {expected} (points x landmarks)"
                )
            rel = rows.T
        else:
            rel = dowker_relation(sample.points, landmarks, config.radius)
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
    else:
        cost_model = build_cost_model(complex, vectors, config.alpha)
        problem = build_problem(cost_model, complex)
        if config.gradient_mode == "constraints":
            matching, rounds = solve_gradient_constrained(problem, complex)
        else:
            matching = solve_exact(problem)

    verify_matching(complex, matching).raise_if_invalid()
    return Analysis(config, sample, complex, vectors, cost_model, matching, rounds)


def build_report_document(analysis: Analysis) -> dict:
    complex, matching, cost_model = analysis.complex, analysis.matching, analysis.cost_model
    n_matched, cosine_sum, n_critical = objective_decomposition(matching, cost_model)

    doc: dict = {
        "config_echo": analysis.config.echo(),
        "complex": {"counts": _counts(complex)},
        # N cells, and m variables: one per admissible pair plus one diagonal per cell
        "problem": {"N": cost_model.n_cells, "m": len(cost_model.pairs) + cost_model.n_cells},
        "objective": {
            "total": _sig9(matching.objective),
            "matched": n_matched,
            "cosine_sum": _sig9(cosine_sum),
            "critical": n_critical,
            "alpha": float(cost_model.alpha),
        },
        "matching": [{"lower": lo, "upper": up} for lo, up in matching.pairs.tolist()],
        "critical": _critical_entries(complex, matching.critical),
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


def _counts(complex: CellComplex) -> dict:
    return {str(d): n for d, n in sorted(complex.counts_by_dim().items())}


def _critical_entries(complex: CellComplex, critical: np.ndarray) -> list[dict]:
    """Report entries of the critical cells, read off their slices of the
    vertex CSR arrays and their barycenter rows."""
    ptr, idx = complex.vert_ptr, complex.vert_idx
    cells = np.column_stack([critical, complex.dims[critical], ptr[critical], ptr[critical + 1]]).tolist()
    return [
        {"id": c, "dim": d, "vertices": idx[a:b].tolist(), "barycenter": [_sig9(x) for x in xs]}
        for (c, d, a, b), xs in zip(cells, complex.barycenters[critical].tolist())
    ]


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
    Path(path).write_text(_report_text(analysis.document))


# report sections with one entry per pair, critical cell or component
_ENTRY_LISTS = ("matching", "critical", "scc")


def _report_text(doc: dict) -> str:
    """`json.dumps(doc, indent=2) + "\n"`, byte for byte. An indent turns off
    json's C encoder, so the entries of the long lists are written here, one
    f-string each; every other value goes through `json.dumps`."""
    if not doc or not all(type(k) is str for k in doc):
        return json.dumps(doc, indent=2) + "\n"
    quoted: dict[str, str] = {}  # key -> its JSON string
    parts = []
    for key, value in doc.items():
        if key in _ENTRY_LISTS and type(value) is list and value:
            text = "[\n" + ",\n".join([_entry_text(e, quoted) for e in value]) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _entry_text(entry, quoted: dict[str, str]) -> str:
    """One list entry as `json.dumps` indents it two levels deep. A dict of
    ints and lists of numbers is written here; anything else goes through
    `json.dumps` whole."""
    if type(entry) is dict and entry:
        lines = []
        for k, v in entry.items():
            if type(k) is not str:
                break
            if type(v) is int:
                text = str(v)
            else:
                items = _number_items(v)
                if items is None:
                    break
                text = f"[\n        {items}\n      ]" if items else "[]"
            q = quoted.get(k) or quoted.setdefault(k, json.dumps(k))
            lines.append(f"      {q}: {text}")
        else:
            return "    {\n" + ",\n".join(lines) + "\n    }"
    return "    " + json.dumps(entry, indent=2).replace("\n", "\n    ")


def _number_items(value) -> str | None:
    """The items of a list of ints, or of finite floats, as `json.dumps`
    writes them three levels deep; None for any other value."""
    if type(value) is not list:
        return None
    types = set(map(type, value))
    if types <= {int}:
        return ",\n        ".join(map(str, value))
    # a sum is finite only if every term is, and json writes a finite float by repr
    if types == {float} and math.isfinite(sum(value)):
        return ",\n        ".join(map(float.__repr__, value))
    return None


def export_dot(analysis: Analysis, path) -> None:
    """Flow graph in DOT form: one node per cell, one edge per flow arrow.
    Critical cells are drawn doubled."""
    complex = analysis.complex
    ptr, idx = multiflow(complex, analysis.matching)
    critical = np.zeros(len(complex), dtype=bool)
    critical[analysis.matching.critical] = True
    lines = ["digraph flow {"]
    for c, (dim, crit) in enumerate(zip(complex.dims.tolist(), critical.tolist())):
        shape = "doublecircle" if crit else "circle"
        lines.append(f'  {c} [label="{c}:d{dim}" shape={shape}];')
    source = np.repeat(np.arange(len(complex)), np.diff(ptr))
    lines.extend(f"  {c} -> {t};" for c, t in zip(source.tolist(), idx.tolist()))
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
    for lo, up in analysis.matching.pairs.tolist():
        a = analysis.complex.barycenters[lo]
        b = analysis.complex.barycenters[up]
        row = [str(lo), str(up)] + [_fmt9(x) for x in a] + [_fmt9(x) for x in b]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def verify_report(report_path, input_path) -> tuple[bool, list[str]]:
    """Re-check a serialized report against its input: rebuild the complex
    from the echoed config, re-verify the matching axioms and check the
    reported alpha (the echoed one, or in sweep mode a default grid value,
    since every sweep answer is one). The reported matching, priced at that
    alpha, then goes through the same `Analysis` that `run` builds, and the
    objective, problem, recurrence, critical and gradient sections must equal
    the ones its document holds as JSON text. Nothing is solved, so the
    solver is trusted no further than the axioms.

    `gradient.constraint_rounds` could only be re-derived by solving again, so
    in constraint mode any JSON int >= 0 is taken as given; in sweep mode it
    must be 0. Any other value fails the gradient line. Otherwise a report
    that is not JSON, lacks a key, or holds a value of the wrong JSON type
    where one is read (an int outside int64 among them) raises ValueError
    naming the report and the key."""
    try:
        doc = json.loads(Path(report_path).read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{report_path}: {exc}") from None

    def path(at) -> str:
        return at if isinstance(at, str) else f"{at[0]}[{at[1]}]."

    def need(node, key, at="", kind=None, nullable=False):
        # `at` prefixes the key path: a string, or (list, index) for a list
        # entry, formatted only when the key or its type is wrong
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"{report_path}: report has no {path(at)}{key}")
        value = node[key]
        # json makes exact types: an int passes as a float, a bool only as a bool
        fits = type(value) is kind or (kind is float and type(value) is int)
        if kind is not None and not fits and not (nullable and value is None):
            raise ValueError(f"{report_path}: report has no {kind.__name__} {path(at)}{key}")
        # cell ids and counts go into int64 arrays
        if kind is int and fits and not -(2**63) <= value < 2**63:
            raise ValueError(f"{report_path}: report has no int64 {path(at)}{key}")
        return value

    def int_fields(section, keys):
        # the int64 values under `keys` in the entries of list `section`, one
        # list per key: one pass when all are good, else `need` walks the
        # entries in order and names the first bad one
        entries = need(doc, section, kind=list)
        try:
            cols = [[e[key] for e in entries] for key in keys]
        except (TypeError, KeyError):  # an entry is no dict, or lacks a key
            cols = None
        if cols is None or not all(
            set(map(type, col)) <= {int} and (not col or (-(2**63) <= min(col) and max(col) < 2**63))
            for col in cols
        ):
            rows = [[need(e, key, (section, i), int) for key in keys] for i, e in enumerate(entries)]
            cols = [list(col) for col in zip(*rows)]
        return entries, cols

    echo = need(doc, "config_echo", kind=dict)
    for key, (name, kind) in _CONFIG_KEYS.items():
        need(echo, key, "config_echo.", kind, nullable=getattr(PipelineConfig, name) is None)
    config = PipelineConfig.from_echo(echo)
    reported_counts = need(need(doc, "complex"), "counts", "complex.")
    objective = need(doc, "objective")
    total = need(objective, "total", "objective.", float)
    alpha = float(need(objective, "alpha", "objective.", float))
    _, (lower, upper) = int_fields("matching", ("lower", "upper"))
    pairs = list(zip(lower, upper))
    critical_entries, (critical,) = int_fields("critical", ("id",))
    problem, scc = need(doc, "problem"), need(doc, "scc")
    section = doc.get("gradient")

    sample = read_field_csv(input_path)
    config.validate(sample.dim)
    complex, vectors = _build_complex(config, sample)
    lines: list[str] = []

    def check(text: str, good: bool, failure: str = "FAIL") -> bool:
        lines.append(f"{text}: {'PASS' if good else failure}")
        return good

    counts = _counts(complex)
    ok = check(f"complex rebuild ({sum(counts.values())} cells)", _same(counts, reported_counts))
    matching = Matching(pairs, critical, 0.0)
    rep = verify_matching(complex, matching)
    failure = f"FAIL ({', '.join(sorted(rep.kinds()))})"
    if not check(f"matching axioms ({len(pairs)} pairs, {len(critical)} critical)", rep.ok, failure):
        return False, lines

    model = build_cost_model(complex, vectors, alpha)
    good = alpha in DEFAULT_ALPHA_GRID if config.gradient_mode == "sweep" else alpha == config.alpha
    ok &= check(f"objective alpha ({_fmt9(alpha)}, mode {config.gradient_mode})", good)

    matching = replace(matching, objective=evaluate_matching(model, matching))
    # constraint mode's reported rounds are taken as given (see the docstring)
    rounds = section.get("constraint_rounds") if isinstance(section, dict) else None
    counted = type(rounds) is int and rounds >= 0  # json makes exact types; a bool is no count
    derived = rounds if counted and config.gradient_mode == "constraints" else 0
    redone = Analysis(config, sample, complex, vectors, model, matching, derived).document

    mine = redone["objective"]
    ok &= check(
        f"objective recomputation ({_fmt9(matching.objective)} vs {_fmt9(total)})", _same(mine["total"], total)
    )
    split = ("matched", "cosine_sum", "critical")
    ok &= check(
        f"objective decomposition ({mine['matched']} matched, {mine['critical']} critical)",
        _same([objective.get(k) for k in split], [mine[k] for k in split]),
    )
    size = redone["problem"]
    ok &= check(f"problem size (N={size['N']}, m={size['m']})", _same(problem, size))
    ok &= check(f"recurrence round-trip ({len(redone['scc'])} components)", _same(scc, redone["scc"]))
    ok &= check("critical census round-trip", _same(critical_entries, redone["critical"]))
    # a rounds value that is no count is not taken, so it differs from the derived 0
    ok &= check(f"gradient section (mode {config.gradient_mode})", _same(section, redone.get("gradient")))
    return bool(ok), lines


def _same(reported, derived) -> bool:
    # equal as JSON text, keys sorted: unlike ==, true is not 1 and 1 is not 1.0;
    # marshal format 2 (no object references) is exact on types, values and key
    # order, and settles a report in the writer's key order 4-6x faster
    if marshal.dumps(reported, 2) == marshal.dumps(derived, 2):
        return True
    return json.dumps(reported, sort_keys=True) == json.dumps(derived, sort_keys=True)
