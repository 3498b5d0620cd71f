import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import combidyn.gradient
from combidyn import (
    FieldSample,
    ParseError,
    PipelineConfig,
    all_critical_threshold,
    evaluate_matching,
    export_arrows,
    export_dot,
    export_report,
    multiflow,
    preset_field,
    read_field_csv,
    read_landmarks_csv,
    read_relation_csv,
    run_pipeline,
    verify_report,
    write_field_csv,
)

from combidyn.pipeline import _report_text
from oracles import float_rows_by_loop


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_field_csv(path, preset_field("toy"))
    return path


@pytest.fixture()
def grad_toy_csv(tmp_path):
    path = tmp_path / "grad_toy.csv"
    write_field_csv(path, preset_field("grad_toy"))
    return path


class TestReadFieldCsv:
    def test_round_trip(self, toy_csv):
        sample = read_field_csv(toy_csv)
        assert sample.points.shape == (3, 2)
        assert np.allclose(sample.vectors[0], (0.0, 1.0))

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,v1,v2\n0,0,1,0\n\n ,, ,\n1,0,0,1\n")
        assert read_field_csv(path).points.shape == (2, 2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b,c,d\n0,0,1,0\n")
        with pytest.raises(ParseError, match="expected header") as exc:
            read_field_csv(path)
        assert exc.value.line == 1
        assert str(path) in str(exc.value)

    def test_odd_column_count(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,v1\n0,0,1\n")
        with pytest.raises(ParseError, match="even number"):
            read_field_csv(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,v1,v2\n0,0,1,0\n1,2,3\n")
        with pytest.raises(ParseError, match="expected 4 values") as exc:
            read_field_csv(path)
        assert exc.value.line == 3

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,v1,v2\n0,zero,1,0\n")
        with pytest.raises(ParseError) as exc:
            read_field_csv(path)
        assert exc.value.line == 2

    def test_non_finite(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,v1,v2\n0,0,inf,0\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_field_csv(path)

    def test_empty_and_headeronly(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_field_csv(path)
        path.write_text("x1,x2,v1,v2\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_field_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"x1,x2,v1,v2\n0,0,1,0\n1,0,0,\xff\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_field_csv(path)
        assert exc.value.line == 3
        assert str(path) in str(exc.value)

    def test_parse_error_is_value_error(self):
        err = ParseError("in.csv", 7, "boom")
        assert isinstance(err, ValueError)
        assert str(err) == "in.csv:7: boom"


class TestReadLandmarksCsv:
    def test_good(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("y1,y2\n0,0\n1,0\n")
        assert read_landmarks_csv(path).shape == (2, 2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("x1,x2\n0,0\n")
        with pytest.raises(ParseError, match="y1..yd"):
            read_landmarks_csv(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("y1,y2\n")
        with pytest.raises(ParseError, match="no landmark rows"):
            read_landmarks_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_bytes(b"y1,y2\n0,0\n1,\xe9\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_landmarks_csv(path)
        assert exc.value.line == 3
        assert str(path) in str(exc.value)


# entries whose parse must match float(): whitespace, underscores, signs,
# spelled-out and overflowing infinities, hex, a decimal comma, non-ASCII digits
# and minus sign, and plain garbage
FLOAT_CELLS = [
    " 1.5 ", "\t2\t", "\u00a01\u00a0", "1_000", "1__0", "_1", "1e1_0", "+3", "-0", "++1",
    ".5", "5.", "1e", "Infinity", "-infinity", "inf", "nan", "NaN", "nan(1)", "1e500",
    "-1e500", "0x10", "0b1", "1,5", "1.5j", "1d5", "\u0661\u0662", "\uff11\uff12",
    "\u0661.\u0665", "\u22121", "", " ", "zero",
]
# files whose bad lines come in different orders, blank rows in between
FLOAT_FILES = [
    [["0", "0", "1", "0"], ["0", "0", "inf", "0"], ["1", "2", "3"]],
    [["0", "0", "1", "0"], ["1", "2", "3"], ["0", "0", "inf", "0"]],
    [["0", "0", "nan", "0"], ["0", "x", "1", "0"]],
    [["0", "x", "1", "0"], ["0", "0", "nan", "0"]],
    [[], ["0", "0", "1", "0"], [" ", "", " ", ""], ["0", "y", "1", "0"], ["1", "2", "3"]],
    [["0", "0", "1", "0"], ["1", "2", "3", "4", "5"], ["0", "q", "1", "0"]],
    [["0", "0", "1", "0"], [], ["-0", "1e-320", "1.7976931348623157e308", "0.1"]],
]


class TestFloatRows:
    """The readers parse all rows in one numpy call; the per-row float()
    loop they replaced is the oracle, down to each ParseError's text and line."""

    @staticmethod
    def outcome(read):
        try:
            table = read()
        except ParseError as exc:
            return "error", str(exc), exc.line
        return "ok", table.shape, table.tobytes()

    @staticmethod
    def write(path, header, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def check_field(self, path, rows):
        written = self.write(path, ["x1", "x2", "v1", "v2"], rows)

        def read():
            sample = read_field_csv(path)
            return np.hstack([sample.points, sample.vectors])

        assert self.outcome(read) == self.outcome(lambda: float_rows_by_loop(path, written, 4))

    @pytest.mark.parametrize("cell", FLOAT_CELLS)
    def test_field_cell(self, tmp_path, cell):
        self.check_field(tmp_path / "f.csv", [["0", "0", "1", "0"], ["0", cell, "1", "0"]])

    @pytest.mark.parametrize("rows", FLOAT_FILES)
    def test_field_file(self, tmp_path, rows):
        self.check_field(tmp_path / "f.csv", rows)

    @pytest.mark.parametrize("cell", FLOAT_CELLS)
    def test_landmark_cell(self, tmp_path, cell):
        path = tmp_path / "lm.csv"
        written = self.write(path, ["y1", "y2"], [["0", "0"], [cell, "1"], ["2", "2"]])
        assert self.outcome(lambda: read_landmarks_csv(path)) == self.outcome(
            lambda: float_rows_by_loop(path, written, 2)
        )


class TestReadRelationCsv:
    def test_good(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("1,0\n1,1\n0,1\n")
        rel = read_relation_csv(path)
        assert rel.dtype == bool
        assert rel.shape == (3, 2)

    def test_non_binary(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("1,0\n2,1\n")
        with pytest.raises(ParseError, match="0 or 1") as exc:
            read_relation_csv(path)
        assert exc.value.line == 2

    def test_ragged(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(ParseError, match="expected 2 columns"):
            read_relation_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            read_relation_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_bytes(b"1,0\n\x80,1\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_relation_csv(path)
        assert exc.value.line == 2
        assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "read, text",
    [
        (read_field_csv, "x1,x2,v1,v2\n0,0,1,0\n1,0.5,0,-1\n"),
        (read_landmarks_csv, "y1,y2\n0,0\n1,0.25\n"),
        (read_relation_csv, "1,0\n0,1\n"),
    ],
)
def test_byte_order_mark_is_dropped(tmp_path, read, text):
    # spreadsheets save "CSV UTF-8" with a leading EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    def arrays(out):
        return (out.points, out.vectors) if isinstance(out, FieldSample) else (out,)

    for got, want in zip(arrays(read(marked)), arrays(read(plain)), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestConfigValidation:
    def test_defaults_pass(self):
        PipelineConfig().validate(point_dim=2)

    @pytest.mark.parametrize(
        "kwargs, dim, needle",
        [
            (dict(complex_kind="voronoi"), 2, "complex kind"),
            (dict(gradient_mode="anneal"), 2, "gradient mode"),
            (dict(alpha=2.5), 2, "alpha"),
            (dict(subdivide=-1), 2, "subdivide"),
            (dict(), 3, "delaunay2d"),
            (dict(complex_kind="cubical", side=1.0), 4, "cubical"),
            (dict(complex_kind="cubical"), 2, "side"),
            (dict(complex_kind="cubical", side=1.0, subdivide=1), 2, "simplicial"),
            (dict(complex_kind="dowker", radius=1.0), 2, "landmarks"),
            (dict(complex_kind="dowker", landmarks="lm.csv"), 2, "radius"),
            (dict(snap=True), 2, "snap"),
        ],
    )
    def test_rejections(self, kwargs, dim, needle):
        with pytest.raises(ValueError, match=needle):
            PipelineConfig(**kwargs).validate(point_dim=dim)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("kind, key", [("cubical", "side"), ("dowker", "radius")])
    def test_non_finite_side_and_radius_rejected(self, kind, key, value):
        config = PipelineConfig(complex_kind=kind, landmarks="lm.csv", **{key: value})
        with pytest.raises(ValueError, match=f"finite --{key} > 0"):
            config.validate(point_dim=2)

    def test_echo_round_trip(self):
        config = PipelineConfig(
            complex_kind="dowker",
            alpha=0.9,
            gradient_mode="sweep",
            radius=1.25,
            landmarks="lm.csv",
        )
        back = PipelineConfig.from_echo(config.echo())
        assert back == config


class TestRunPipeline:
    def test_toy(self, toy_csv):
        analysis = run_pipeline(PipelineConfig(alpha=0.75), toy_csv)
        assert analysis.complex.counts_by_dim() == {0: 3, 1: 3, 2: 1}
        assert analysis.matching.pairs.tolist() == [[0, 3], [1, 5], [2, 4]]
        assert analysis.matching.critical.tolist() == [6]
        assert analysis.alpha_effective == 0.75
        assert analysis.constraint_rounds == 0

        doc = analysis.document
        assert doc["problem"] == {"N": 7, "m": 16}
        assert doc["objective"]["total"] == 1.62867966
        assert doc["objective"]["matched"] == 3
        assert doc["objective"]["critical"] == 1
        assert doc["objective"]["alpha"] == 0.75
        assert doc["matching"] == [
            {"lower": 0, "upper": 3},
            {"lower": 1, "upper": 5},
            {"lower": 2, "upper": 4},
        ]
        assert doc["complex"]["counts"] == {"0": 3, "1": 3, "2": 1}
        assert len(doc["critical"]) == 1
        assert doc["critical"][0]["id"] == 6
        assert doc["critical"][0]["dim"] == 2
        assert doc["critical"][0]["barycenter"] == [1.0, pytest.approx(1 / 3)]
        assert doc["scc"] == [
            {"id": 0, "size": 6, "d": 0, "self_intersections": 0, "cells": [0, 1, 2, 3, 4, 5]},
            {"id": 1, "size": 1, "d": 2, "self_intersections": 0, "cells": [6]},
        ]
        assert "gradient" not in doc

    def test_sweep_mode(self, grad_toy_csv):
        analysis = run_pipeline(PipelineConfig(gradient_mode="sweep"), grad_toy_csv)
        assert analysis.alpha_effective == 0.14
        assert analysis.matching.pairs.tolist() == [[0, 3]]
        g = analysis.document["gradient"]
        assert g == {"mode": "sweep", "is_gradient": True, "constraint_rounds": 0}

    def test_constraints_mode(self, toy_csv):
        analysis = run_pipeline(
            PipelineConfig(alpha=0.75, gradient_mode="constraints"), toy_csv
        )
        assert analysis.matching.pairs.tolist() == [[1, 5], [2, 4], [3, 6]]
        assert analysis.constraint_rounds == 1
        g = analysis.document["gradient"]
        assert g == {"mode": "constraints", "is_gradient": True, "constraint_rounds": 1}

    def test_subdivision(self, toy_csv):
        analysis = run_pipeline(PipelineConfig(alpha=0.75, subdivide=1), toy_csv)
        assert analysis.complex.counts_by_dim() == {0: 7, 1: 12, 2: 6}

    def test_explicit_relation_orientation(self, tmp_path):
        #   p0 ~ L0 only, p1 ~ both, p2 ~ L1 only
        field = tmp_path / "f.csv"
        field.write_text("x1,x2,v1,v2\n0,0,1,0\n0.5,0,1,1\n1,0,0,1\n")
        lm = tmp_path / "lm.csv"
        lm.write_text("y1,y2\n0,0\n1,0\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("1,0\n1,1\n0,1\n")
        config = PipelineConfig(
            complex_kind="dowker", landmarks=str(lm), relation=str(rel), alpha=0.9
        )
        analysis = run_pipeline(config, field)
        assert analysis.complex.counts_by_dim() == {0: 2, 1: 1}
        edge = analysis.complex.cell_id((0, 1))
        # the edge's only witness is p1
        assert np.allclose(analysis.vectors[edge], (1.0, 1.0))

    def test_relation_shape_mismatch(self, tmp_path):
        field = tmp_path / "f.csv"
        field.write_text("x1,x2,v1,v2\n0,0,1,0\n1,0,0,1\n")
        lm = tmp_path / "lm.csv"
        lm.write_text("y1,y2\n0,0\n1,0\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("1,0\n1,1\n0,1\n")
        config = PipelineConfig(complex_kind="dowker", landmarks=str(lm), relation=str(rel))
        with pytest.raises(ValueError, match="does not match"):
            run_pipeline(config, field)

    def test_snap_path(self, tmp_path):
        field = tmp_path / "f.csv"
        rows = ["x1,x2,v1,v2"]
        pts = [(0.0, 0.0), (0.9, 0.1), (0.1, 1.1), (1.05, 0.95)]
        for x, y in pts:
            rows.append(f"{x},{y},1,0")
        field.write_text("\n".join(rows) + "\n")
        config = PipelineConfig(complex_kind="cubical", side=1.0, snap=True, alpha=0.5)
        analysis = run_pipeline(config, field)
        assert analysis.complex.counts_by_dim() == {0: 4, 1: 4, 2: 1}


class TestExports:
    def test_report_bytes_are_deterministic(self, toy_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        export_report(run_pipeline(PipelineConfig(alpha=0.75), toy_csv), a)
        export_report(run_pipeline(PipelineConfig(alpha=0.75), toy_csv), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_dot(self, toy_csv, tmp_path):
        analysis = run_pipeline(PipelineConfig(alpha=0.75), toy_csv)
        out = tmp_path / "flow.dot"
        export_dot(analysis, out)
        text = out.read_text()
        assert text.startswith("digraph flow {")
        assert text.count("doublecircle") == 1
        assert text.count("->") == len(multiflow(analysis.complex, analysis.matching).succ_idx)
        assert '6 [label="6:d2" shape=doublecircle];' in text

    def test_arrows(self, toy_csv, tmp_path):
        analysis = run_pipeline(PipelineConfig(alpha=0.75), toy_csv)
        out = tmp_path / "arrows.csv"
        export_arrows(analysis, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lower,upper,from_x1,from_x2,to_x1,to_x2"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("0,3,")


_ids = st.integers(-(2**40), 2**40)
# repr switches to exponent form below 1e-4 and from 1e16 on
_floats = st.one_of(
    st.floats(),
    st.sampled_from([1e-05, -2.5e-07, 1e16, 1.5e300, 0.0, -0.0, 5e-324]),
)
_scalars = st.one_of(st.none(), st.booleans(), _ids, _floats, st.text(max_size=4))
_entry_values = st.one_of(
    _ids, st.lists(_ids, max_size=5), st.lists(_floats, max_size=3), st.lists(_scalars, max_size=3), _scalars
)


@st.composite
def report_documents(draw):
    """Report-shaped documents: the three long lists hold the report's own
    entries, or entries of other keys and values, or no dict at all."""
    def long_list(entry):
        return draw(st.lists(st.one_of(entry, entry, _entry_values), max_size=5))

    pair = st.fixed_dictionaries({"lower": _ids, "upper": _ids})
    cell = st.fixed_dictionaries({
        "id": _ids, "dim": _ids, "vertices": st.lists(_ids, max_size=4),
        "barycenter": st.lists(_floats, max_size=3),
    })
    other = st.dictionaries(st.text(max_size=6), _entry_values, max_size=4)
    doc = {
        "config_echo": draw(st.dictionaries(st.text(max_size=6), _scalars, max_size=4)),
        "objective": draw(st.dictionaries(st.sampled_from(["total", "alpha", "matched"]), _floats)),
        "matching": long_list(pair),
        "critical": long_list(cell),
        "scc": long_list(other),
    }
    if draw(st.booleans()):
        doc["gradient"] = {"mode": "sweep", "is_gradient": draw(st.booleans())}
    return doc


class TestReportText:
    """The report writer against `json.dumps(doc, indent=2)`, which it must
    match byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(report_documents())
    def test_matches_json_dumps(self, doc):
        assert _report_text(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [{}, {"matching": []}, {"critical": [{}]}, {1: [2]}, {"scc": [{1: 2}]}, {"scc": [[1, 2], {"a": [True]}]}],
    )
    def test_edge_documents(self, doc):
        assert _report_text(doc) == json.dumps(doc, indent=2) + "\n"


# a report key, and how to remove it
MISSING_KEYS = [
    ("objective", lambda d: d.pop("objective")),
    ("objective.total", lambda d: d["objective"].pop("total")),
    ("objective.alpha", lambda d: d["objective"].pop("alpha")),
    ("matching[1].upper", lambda d: d["matching"][1].pop("upper")),
    ("matching[0].lower", lambda d: d["matching"].__setitem__(0, [0, 3])),
    ("critical[0].id", lambda d: d["critical"][0].pop("id")),
    ("complex.counts", lambda d: d["complex"].pop("counts")),
    ("config_echo.alpha", lambda d: d["config_echo"].pop("alpha")),
    ("config_echo", lambda d: d.pop("config_echo")),
    ("problem", lambda d: d.pop("problem")),
    ("scc", lambda d: d.pop("scc")),
    ("list matching", lambda d: d.__setitem__("matching", 5)),
    ("list critical", lambda d: d.__setitem__("critical", None)),
]

# a report value of a JSON type the check cannot read, and how to set it
MALFORMED_VALUES = [
    ("dict config_echo", lambda d: d.__setitem__("config_echo", [1])),
    ("float config_echo.alpha", lambda d: d["config_echo"].__setitem__("alpha", "x")),
    ("float config_echo.side", lambda d: d["config_echo"].__setitem__("side", "1")),
    ("int config_echo.subdivide", lambda d: d["config_echo"].__setitem__("subdivide", 1.5)),
    ("bool config_echo.snap", lambda d: d["config_echo"].__setitem__("snap", "false")),
    ("str config_echo.complex", lambda d: d["config_echo"].__setitem__("complex", None)),
    ("float objective.alpha", lambda d: d["objective"].__setitem__("alpha", "x")),
    ("float objective.total", lambda d: d["objective"].__setitem__("total", "107.8")),
    ("int matching[0].lower", lambda d: d["matching"][0].__setitem__("lower", "a")),
    ("int matching[2].upper", lambda d: d["matching"][2].__setitem__("upper", True)),
    ("int critical[0].id", lambda d: d["critical"][0].__setitem__("id", "a")),
]


class TestVerifyReport:
    def run_and_export(self, toy_csv, tmp_path, **kwargs):
        analysis = run_pipeline(PipelineConfig(alpha=0.75, **kwargs), toy_csv)
        report = tmp_path / "report.json"
        export_report(analysis, report)
        return report

    def test_pass(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        ok, lines = verify_report(report, toy_csv)
        assert ok
        assert len(lines) == 9
        assert all(line.endswith("PASS") for line in lines)

    def test_sweep_report_passes(self, grad_toy_csv, tmp_path):
        analysis = run_pipeline(PipelineConfig(gradient_mode="sweep"), grad_toy_csv)
        report = tmp_path / "report.json"
        export_report(analysis, report)
        ok, _ = verify_report(report, grad_toy_csv)
        assert ok

    def tamper(self, report, mutate):
        doc = json.loads(report.read_text())
        mutate(doc)
        report.write_text(json.dumps(doc, indent=2) + "\n")

    def test_tampered_objective(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, lambda d: d["objective"].__setitem__("total", 1.0))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert any("objective recomputation" in l and l.endswith("FAIL") for l in lines)

    def test_tampered_matching(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, lambda d: d["matching"][0].__setitem__("upper", 4))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert any("matching axioms" in l and "FAIL" in l for l in lines)

    def test_pair_listed_twice(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, lambda d: d["matching"].append({"lower": 0, "upper": 3}))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert lines[-1] == "matching axioms (4 pairs, 1 critical): FAIL (two_in, two_out)"

    @pytest.mark.parametrize("key, mutate", MISSING_KEYS, ids=[k for k, _ in MISSING_KEYS])
    def test_missing_key_names_report_and_key(self, toy_csv, tmp_path, key, mutate):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, mutate)
        with pytest.raises(ValueError) as info:
            verify_report(report, toy_csv)
        assert str(info.value) == f"{report}: report has no {key}"

    @pytest.mark.parametrize("key, mutate", MALFORMED_VALUES, ids=[k for k, _ in MALFORMED_VALUES])
    def test_malformed_value_names_report_and_key(self, toy_csv, tmp_path, key, mutate):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, mutate)
        with pytest.raises(ValueError) as info:
            verify_report(report, toy_csv)
        assert str(info.value) == f"{report}: report has no {key}"

    @pytest.mark.parametrize("content", [b"", b"not json", b'{"config_echo": \xff}'])
    def test_unreadable_report_names_report(self, toy_csv, tmp_path, content):
        report = tmp_path / "report.json"
        report.write_bytes(content)
        with pytest.raises(ValueError) as info:
            verify_report(report, toy_csv)
        assert str(info.value).startswith(f"{report}: ")

    def test_tampered_counts(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, lambda d: d["complex"]["counts"].__setitem__("2", 5))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert lines[0].endswith("FAIL")

    def test_tampered_scc(self, toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        self.tamper(report, lambda d: d["scc"][0].__setitem__("size", 2))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert any("recurrence round-trip" in l and l.endswith("FAIL") for l in lines)

    @pytest.mark.parametrize(
        "mode, line, mutate",
        [
            ("off", "problem size", lambda d: d["problem"].__setitem__("m", 999)),
            ("off", "problem size", lambda d: d["problem"].__setitem__("N", 8)),
            ("off", "objective decomposition", lambda d: d["objective"].__setitem__("matched", 2)),
            ("off", "objective decomposition", lambda d: d["objective"].__setitem__("critical", 0)),
            ("off", "objective decomposition", lambda d: d["objective"].__setitem__("cosine_sum", 2.0)),
            ("off", "gradient section",
             lambda d: d.__setitem__("gradient", {"mode": "off", "is_gradient": False, "constraint_rounds": 0})),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("is_gradient", False)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("mode", "sweep")),
            ("constraints", "gradient section", lambda d: d.pop("gradient")),
            ("constraints", "gradient section", lambda d: d.__setitem__("gradient", [])),
            ("sweep", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", 7)),
            ("sweep", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", False)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", -3)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", "many")),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", 1.5)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", None)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", True)),
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("constraint_rounds", 0.0)),
            ("off", "critical census", lambda d: d["critical"][0].__setitem__("dim", 1)),
            ("constraints", "critical census", lambda d: d["critical"][0].__setitem__("dim", 1)),
            ("off", "critical census", lambda d: d["critical"][0].__setitem__("vertices", [0, 1])),
            ("off", "critical census", lambda d: d["critical"][0].__setitem__("barycenter", [1.0, 0.3])),
            ("off", "recurrence round-trip", lambda d: d["scc"][0].__setitem__("cells", [0, 1, 2, 3, 4, 6])),
            ("constraints", "recurrence round-trip", lambda d: d["scc"][0].__setitem__("cells", [1])),
            ("off", "recurrence round-trip", lambda d: d["scc"][0].__setitem__("d", 1)),
            ("off", "recurrence round-trip", lambda d: d["scc"][0].__setitem__("self_intersections", 1)),
            # equal under Python's ==, but of another JSON type
            ("constraints", "gradient section", lambda d: d["gradient"].__setitem__("is_gradient", 1)),
            ("constraints", "recurrence round-trip", lambda d: d["scc"][0].__setitem__("size", 1.0)),
            ("constraints", "critical census", lambda d: d["critical"][0].__setitem__("dim", 0.0)),
            ("constraints", "objective decomposition",
             lambda d: d["objective"].__setitem__("matched", float(d["objective"]["matched"]))),
        ],
        ids=["m", "N", "matched", "critical", "cosine_sum", "section_added",
             "is_gradient", "mode", "section_dropped", "section_not_object",
             "sweep_rounds", "sweep_rounds_bool", "rounds_negative", "rounds_string",
             "rounds_fraction", "rounds_null", "rounds_bool", "rounds_float",
             "critical_dim", "critical_dim_constraints", "critical_vertices", "critical_barycenter",
             "scc_cells", "scc_cells_constraints", "scc_d", "scc_self_intersections",
             "is_gradient_int", "scc_size_float", "critical_dim_float", "matched_float"],
    )
    def test_tampered_derived_sections(self, toy_csv, tmp_path, mode, line, mutate):
        report = self.run_and_export(toy_csv, tmp_path, gradient_mode=mode)
        assert verify_report(report, toy_csv)[0]
        self.tamper(report, mutate)
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert [l for l in lines if l.endswith("FAIL")] == [
            l for l in lines if l.startswith(line)
        ]

    @pytest.mark.parametrize("mode", ["off", "constraints"])
    def test_key_order_is_free(self, toy_csv, tmp_path, mode):
        # sections compare as JSON text with sorted keys, so a report whose
        # entries list their keys in another order still passes
        report = self.run_and_export(toy_csv, tmp_path, gradient_mode=mode)

        def reorder(d):
            for k in ("scc", "critical"):
                d[k] = [dict(reversed(e.items())) for e in d[k]]
            for k in ("objective", "problem"):
                d[k] = dict(reversed(d[k].items()))

        self.tamper(report, reorder)
        ok, lines = verify_report(report, toy_csv)
        assert ok, lines

    @pytest.mark.parametrize("mode, alpha", [("off", 1.5), ("constraints", 1.5), ("sweep", 0.145)])
    def test_repriced_alpha(self, toy_csv, tmp_path, mode, alpha):
        # alpha and total re-priced together keep the objective lines passing;
        # only the alpha check can see it (0.145 is off the sweep grid)
        analysis = run_pipeline(PipelineConfig(alpha=0.75, gradient_mode=mode), toy_csv)
        report = tmp_path / "report.json"
        export_report(analysis, report)
        total = evaluate_matching(replace(analysis.cost_model, alpha=alpha), analysis.matching)
        self.tamper(report, lambda d: d["objective"].update(alpha=alpha, total=float(f"{total:.9g}")))
        ok, lines = verify_report(report, toy_csv)
        assert not ok
        assert [l for l in lines if l.endswith("FAIL")] == [
            l for l in lines if l.startswith("objective alpha")
        ]

    def test_sweep_threshold_alpha_passes(self, toy_csv, tmp_path, monkeypatch):
        # a grid on which the toy never turns gradient makes the sweep fall
        # back to the all-critical threshold, an alpha off the default grid
        monkeypatch.setattr(combidyn.gradient, "DEFAULT_ALPHA_GRID", (2.0,))
        analysis = run_pipeline(PipelineConfig(gradient_mode="sweep"), toy_csv)
        monkeypatch.undo()
        assert analysis.alpha_effective == all_critical_threshold(analysis.cost_model)
        assert analysis.alpha_effective not in combidyn.gradient.DEFAULT_ALPHA_GRID
        report = tmp_path / "report.json"
        export_report(analysis, report)
        ok, lines = verify_report(report, toy_csv)
        assert ok, lines

    def test_wrong_input_file(self, toy_csv, grad_toy_csv, tmp_path):
        report = self.run_and_export(toy_csv, tmp_path)
        ok, _ = verify_report(report, grad_toy_csv)
        assert not ok

    @staticmethod
    def lattice_round_trip(tmp_path, side, n, vectors, alpha):
        pts = np.array([(i * side, j * side) for i in range(n) for j in range(n)])
        field = tmp_path / "lattice.csv"
        write_field_csv(field, FieldSample(pts, np.broadcast_to(vectors, pts.shape)))
        analysis = run_pipeline(
            PipelineConfig(complex_kind="cubical", side=side, alpha=alpha), field
        )
        report = tmp_path / "lattice.json"
        export_report(analysis, report)
        return analysis, verify_report(report, field)

    def test_side_beyond_nine_digits_passes(self, tmp_path):
        # rebuilding at a 9-digit side moves critical barycenters across a
        # rounding boundary
        vectors = np.array([(1.0, 0.3 * i) for i in range(25)])
        analysis, (ok, lines) = self.lattice_round_trip(tmp_path, 0.123456789012, 5, vectors, 0.05)
        assert ok, lines
        assert analysis.document["config_echo"]["side"] == 0.123456789012

    def test_large_objective_passes(self, tmp_path):
        # 2209 critical cells: the 9-digit total is 4.4e-6 off the exact sum
        analysis, (ok, lines) = self.lattice_round_trip(tmp_path, 0.5, 24, (1e-13, 0.0), 0.66666664)
        assert analysis.document["objective"]["total"] == 1472.66661
        assert ok, lines
