import json

import pytest

from combidyn import read_field_csv
from combidyn.cli import main


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    assert main(["gen", "--preset", "toy", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_toy(self, toy_csv, capsys):
        sample = read_field_csv(toy_csv)
        assert sample.points.shape == (3, 2)

    def test_trajectory_overrides(self, tmp_path):
        path = tmp_path / "lorenz.csv"
        assert main(["gen", "--preset", "lorenz_desk", "--out", str(path), "--n", "10"]) == 0
        assert read_field_csv(path).points.shape == (10, 3)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--preset", "nope", "--out", str(tmp_path / "x.csv")])

    def test_overrides_rejected_for_grids(self, tmp_path, capsys):
        rc = main(["gen", "--preset", "toy", "--out", str(tmp_path / "x.csv"), "--n", "9"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_summary_and_files(self, toy_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        dot = tmp_path / "flow.dot"
        arrows = tmp_path / "arrows.csv"
        rc = main(
            [
                "run",
                str(toy_csv),
                "--alpha",
                "0.75",
                "--out",
                str(report),
                "--dot",
                str(dot),
                "--arrows",
                str(arrows),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "complex: 7 cells (3 d0 + 3 d1 + 1 d2)" in out
        assert "problem: N=7, m=16" in out
        assert "objective: 1.62867966 at alpha=0.75 (3 matched, 1 critical)" in out
        assert "recurrence: 1 multi-cell component(s), 1 critical cell(s)" in out
        assert report.exists() and dot.exists() and arrows.exists()
        doc = json.loads(report.read_text())
        assert doc["objective"]["total"] == 1.62867966

    def test_gradient_summary(self, tmp_path, capsys):
        field = tmp_path / "g.csv"
        main(["gen", "--preset", "grad_toy", "--out", str(field)])
        capsys.readouterr()
        rc = main(["run", str(field), "--gradient", "sweep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gradient: mode=sweep, is_gradient=True, constraint_rounds=0" in out

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nothing.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_dowker_without_relations(self, toy_csv, tmp_path, capsys):
        landmarks = tmp_path / "lm.csv"
        landmarks.write_text("y1,y2\n100,100\n")
        rc = main(["run", str(toy_csv), "--complex", "dowker", "--landmarks", str(landmarks),
                   "--radius", "1"])
        assert rc == 1
        assert "error: no data point relates to any landmark" in capsys.readouterr().err

    def test_delaunay_lost_points(self, tmp_path, capsys):
        # four points closer to one line than even the largest super-triangle reaches
        field = tmp_path / "line.csv"
        field.write_text("x1,x2,v1,v2\n0,0,1,0\n1,0,0,1\n3,9.332636185032189e-302,1,1\n2,0,1,0\n")
        rc = main(["run", str(field)])
        assert rc == 1
        assert capsys.readouterr().err == "error: points [0, 1, 2, 3] ended up in no triangle\n"

    def test_dowker_relation_shape(self, toy_csv, tmp_path, capsys):
        n = len(read_field_csv(toy_csv).points)
        landmarks = tmp_path / "lm.csv"
        landmarks.write_text("y1,y2\n0,0\n1,1\n")
        relation = tmp_path / "rel.csv"
        relation.write_text("1,0\n1,1\n")
        rc = main(["run", str(toy_csv), "--complex", "dowker", "--landmarks", str(landmarks),
                   "--relation", str(relation)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {relation}:1: relation shape (2, 2) does not match ({n}, 2) (points x landmarks)\n"
        )

    @pytest.mark.parametrize("mode", ["radius", "relation"])
    def test_dowker_landmark_dimension(self, toy_csv, tmp_path, capsys, mode):
        landmarks = tmp_path / "lm.csv"
        landmarks.write_text("y1,y2,y3\n0,0,0\n1,1,1\n")
        relation = tmp_path / "rel.csv"
        relation.write_text("1,0\n1,1\n0,1\n")
        extra = ["--radius", "1"] if mode == "radius" else ["--relation", str(relation)]
        rc = main(["run", str(toy_csv), "--complex", "dowker", "--landmarks", str(landmarks), *extra])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {landmarks}:1: landmarks have dimension 3, the field has 2\n"

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf"])
    def test_gen_non_finite_dt(self, tmp_path, capsys, dt):
        out = tmp_path / "lorenz.csv"
        # one token, so that argparse does not read "-inf" as a flag
        rc = main(["gen", "--preset", "lorenz_desk", "--out", str(out), f"--dt={dt}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: dt must be finite and positive, got {float(dt)}\n"
        assert not out.exists()

    def test_bad_flag_combo(self, toy_csv, capsys):
        rc = main(["run", str(toy_csv), "--complex", "cubical"])
        assert rc == 1
        assert "side" in capsys.readouterr().err


class TestVerify:
    def test_pass_and_fail(self, toy_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["run", str(toy_csv), "--alpha", "0.75", "--out", str(report)])
        capsys.readouterr()

        assert main(["verify", "--report", str(report), "--input", str(toy_csv)]) == 0
        assert "verify: PASS" in capsys.readouterr().out

        doc = json.loads(report.read_text())
        doc["objective"]["total"] = 0.0
        report.write_text(json.dumps(doc, indent=2) + "\n")
        assert main(["verify", "--report", str(report), "--input", str(toy_csv)]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_missing_report(self, toy_csv, tmp_path, capsys):
        rc = main(["verify", "--report", str(tmp_path / "no.json"), "--input", str(toy_csv)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_report(self, toy_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["run", str(toy_csv), "--alpha", "0.75", "--out", str(report)])
        doc = json.loads(report.read_text())
        del doc["matching"][0]["upper"]
        report.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert main(["verify", "--report", str(report), "--input", str(toy_csv)]) == 1
        assert capsys.readouterr().err == f"error: {report}: report has no matching[0].upper\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [("matching", "lower", 10**30), ("critical", "id", -(10**30))],
        ids=["lower-1e30", "id-minus-1e30"],
    )
    def test_cell_id_outside_int64(self, toy_csv, tmp_path, capsys, section, key, value):
        report = tmp_path / "report.json"
        main(["run", str(toy_csv), "--alpha", "0.75", "--out", str(report)])
        doc = json.loads(report.read_text())
        doc[section][0][key] = value
        report.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert main(["verify", "--report", str(report), "--input", str(toy_csv)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {report}: report has no int64 {section}[0].{key}\n"
        assert "Traceback" not in err
