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
