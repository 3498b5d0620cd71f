import json

import numpy as np
import pytest

from combidyn import (
    FieldSample,
    ParseError,
    PipelineConfig,
    export_arrows,
    export_dot,
    export_report,
    preset_field,
    read_field_csv,
    read_landmarks_csv,
    read_relation_csv,
    run_pipeline,
    verify_report,
    write_field_csv,
)


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
        assert analysis.matching.matched == {0: 3, 1: 5, 2: 4}
        assert analysis.matching.critical == frozenset({6})
        assert analysis.alpha_effective == 0.75
        assert analysis.constraints == ()

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
        assert analysis.matching.matched == {0: 3}
        g = analysis.document["gradient"]
        assert g == {"mode": "sweep", "is_gradient": True, "constraint_rounds": 0}

    def test_constraints_mode(self, toy_csv):
        analysis = run_pipeline(
            PipelineConfig(alpha=0.75, gradient_mode="constraints"), toy_csv
        )
        assert analysis.matching.matched == {1: 5, 2: 4, 3: 6}
        assert len(analysis.constraints) == 1
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
        edge = analysis.complex.cell_by_vertices((0, 1))
        # the edge's only witness is p1
        assert np.allclose(analysis.vectors[edge.id], (1.0, 1.0))

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
        assert text.count("->") == sum(len(t) for t in analysis.flow.succ)
        assert '6 [label="6:d2" shape=doublecircle];' in text

    def test_arrows(self, toy_csv, tmp_path):
        analysis = run_pipeline(PipelineConfig(alpha=0.75), toy_csv)
        out = tmp_path / "arrows.csv"
        export_arrows(analysis, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lower,upper,from_x1,from_x2,to_x1,to_x2"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("0,3,")


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
        assert len(lines) == 8
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
        ],
        ids=["m", "N", "matched", "critical", "cosine_sum", "section_added",
             "is_gradient", "mode", "section_dropped"],
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
