"""The benchmark's span tracer (`perfbench/spans.py`) wraps functions that it
looks up by name in combidyn's modules. A renamed or deleted one makes every
traced benchmark run fail, so each name is checked here."""

import sys
from pathlib import Path

import pytest

from combidyn import PipelineConfig, preset_field, run_pipeline, write_field_csv

BENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import spans  # noqa: E402

SITES = [(module, attr) for module, attrs in spans._SITES.items() for attr in attrs]


@pytest.mark.parametrize(
    "module, attr", SITES, ids=[f"{m.__name__}.{a}" for m, a in SITES]
)
def test_site_exists(module, attr):
    assert callable(getattr(module, attr, None))


def test_installed_wraps_and_restores_every_site():
    before = [getattr(m, a) for m, a in SITES]
    with spans.installed(spans.Tracer()):
        assert all(getattr(m, a) is not f for (m, a), f in zip(SITES, before))
    assert all(getattr(m, a) is f for (m, a), f in zip(SITES, before))


def test_constraint_rounds_counter_matches_report(tmp_path):
    # perfbench counts gradient.constraint_rounds as calls of the bnb layer
    path = tmp_path / "toy.csv"
    write_field_csv(path, preset_field("toy"))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        analysis = run_pipeline(PipelineConfig(alpha=0.75, gradient_mode="constraints"), path)
    bnb = sum(s.name == "gradient.bnb" for s in tracer.spans)
    assert bnb == analysis.constraint_rounds == analysis.document["gradient"]["constraint_rounds"] == 1
