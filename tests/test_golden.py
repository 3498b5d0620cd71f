"""Byte-level pins of `combidyn run` outputs on the shipped presets.

Each case writes a preset field, runs the CLI with a JSON report and compares
the report's SHA-256 with a digest recorded before the flow, SCC and cost
layers were rewritten. The constrained `lotka_volterra` case was recorded once
constrained solves ran on HiGHS; the depth-first search before that never
finished it. The Delaunay `lotka_volterra` report, the Dowker report and the
cubical `intro` DOT and arrow files were recorded before the complex, vectors
and pairs became arrays. A refactor that keeps behaviour keeps these bytes; a
change that moves one must say why and re-record it.
"""

import hashlib
import json

import pytest

from combidyn.cli import main
from combidyn.pipeline import _report_text

GOLDEN = [
    ("toy", ["--alpha", "0.75", "--gradient", "off"],
     "84be9dba8452de392578b16855dc06c72752fbc73148c4f02589e2136dde88af"),
    ("toy", ["--alpha", "0.75", "--gradient", "constraints"],
     "0a031e728d97f0d2fc0bbbe36d6dd7345f47444a13fd0ef4913a54015806d38f"),
    ("grad_toy", ["--gradient", "sweep"],
     "11ab9b56ba874daeed5e40c2496aa8292283dc4d8cf381020847cbcd468b4890"),
    ("sink", ["--subdivide", "1"],
     "95c6a76ebe137633b38cff6b4cebcc60d1cfb3c9704cefc9f5d9d937491ef58a"),
    ("intro", ["--complex", "cubical", "--side", "0.44", "--alpha", "0.9"],
     "f32f5f125a5fe460e2bd738dbc65f7a19defaf8806a8d2f3e4cc3307c44103d8"),
    ("lotka_volterra", ["--complex", "cubical", "--side", "10", "--alpha", "0.3"],
     "e2b70be994ce63c2e88c7868bd78226737df3f8ee53926f076ff8b7b8bf9f1c3"),
    ("lorenz_desk", ["--complex", "cubical", "--side", "6", "--snap", "--alpha", "0.9"],
     "7869c03be6ce0924e8f6a5819a8d34c0205d903a247c0de2c89e5395103dd245"),
    ("lotka_volterra", ["--complex", "cubical", "--side", "10", "--alpha", "0.3", "--gradient", "constraints"],
     "6cf13ea414a6d2a803174906d8c3bf5c26d046354722fde6baca21d0d0114f6c"),
    ("lotka_volterra", ["--alpha", "0.95"],
     "2ee72d3e4939bc774b0e621fae8c4738dca86463c6f85684e89eee5fdeeb81d8"),
]


@pytest.mark.parametrize(
    "preset, flags, digest", GOLDEN, ids=[f"{p}-{i}" for i, (p, _, _) in enumerate(GOLDEN)]
)
def test_report_digest(tmp_path, preset, flags, digest):
    field = tmp_path / "field.csv"
    report = tmp_path / "report.json"
    assert main(["gen", "--preset", preset, "--out", str(field)]) == 0
    assert main(["run", str(field), *flags, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    # the writer renders the long lists itself, and must match json.dumps
    doc = json.loads(report.read_text())
    assert _report_text(doc) == json.dumps(doc, indent=2) + "\n"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dowker_report_digest(tmp_path, monkeypatch):
    # the report echoes the landmark path, so it is kept relative
    monkeypatch.chdir(tmp_path)
    grid = (-3, -1, 1, 3)
    (tmp_path / "lm.csv").write_text("y1,y2\n" + "".join(f"{x},{y}\n" for x in grid for y in grid))
    assert main(["gen", "--preset", "intro", "--out", "field.csv"]) == 0
    assert main(["run", "field.csv", "--complex", "dowker", "--landmarks", "lm.csv",
                 "--radius", "1.5", "--alpha", "0.9", "--out", "report.json"]) == 0
    assert _sha256(tmp_path / "report.json") == (
        "95c8ac159c144a50fe07fb3090d2ef62fbfec66c7311e4c6db689ba510462946"
    )
    doc = json.loads((tmp_path / "report.json").read_text())
    assert _report_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_dot_and_arrows_digests(tmp_path):
    field, dot, arrows = tmp_path / "field.csv", tmp_path / "flow.dot", tmp_path / "arrows.csv"
    assert main(["gen", "--preset", "intro", "--out", str(field)]) == 0
    assert main(["run", str(field), "--complex", "cubical", "--side", "0.44", "--alpha", "0.9",
                 "--dot", str(dot), "--arrows", str(arrows)]) == 0
    assert _sha256(dot) == "0f1423660fc880ac098dd02584398ea69bbb3dd1454f840a86e5c791cb92da12"
    assert _sha256(arrows) == "ef0a315e07d3d36de7b2d7cd72bb0bb62747a115d729ee514017e2ecead10cb5"
