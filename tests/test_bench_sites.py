"""The benchmark's span tracer (`perfbench/spans.py`) wraps functions that it
looks up by name in combidyn's modules. A renamed or deleted one makes every
traced benchmark run fail, so each name is checked here."""

import sys
from pathlib import Path

import pytest

from combidyn import PipelineConfig, export_report, preset_field, run_pipeline, verify_report, write_field_csv

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


@pytest.mark.parametrize("mode", ["off", "sweep", "constraints"])
def test_traced_run_and_verify_nest(tmp_path, mode):
    # the spans of one run and one verify, as the benchmark worker records
    # them: every span inside its parent, and the recurrence derived once each
    path, report = tmp_path / "toy.csv", tmp_path / "report.json"
    write_field_csv(path, preset_field("toy"))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("op.run"):
            export_report(run_pipeline(PipelineConfig(alpha=0.75, gradient_mode=mode), path), report)
        with tracer.span("op.verify"):
            ok, lines = verify_report(report, path)
    assert ok, lines
    assert spans.check_nesting(tracer.spans) == []
    for root in spans.ROOTS:
        assert [s.name for s in spans.under(tracer.spans, root)].count("dynamics.scc") == 1
