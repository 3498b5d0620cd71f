"""Byte-level pins of `combidyn run` reports on the shipped presets.

Each case writes a preset field, runs the CLI with a JSON report and compares
the report's SHA-256 with a digest recorded before the flow, SCC and cost
layers were rewritten. The last case was recorded once constrained solves
ran on HiGHS; the depth-first search before that never finished it. A
refactor that keeps behaviour keeps these bytes; a change that moves one must
say why and re-record it.
"""

import hashlib

import pytest

from combidyn.cli import main

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
