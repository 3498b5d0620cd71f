"""The package's public surface, and what importing it loads.

No mode of the pipeline loads `scipy.optimize`, constraint mode included:
constraint mode searches on the same sparse assignment solver as the other
modes, and `scipy.optimize` would add about a third of the package's import
time. A top-level import of it anywhere in the package would fail here. The
check starts a fresh interpreter, since the test process itself has the
module loaded (the tests' HiGHS oracle imports it)."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import combidyn

# every name `from combidyn import *` gives; a new public name shows up here
PUBLIC = [
    "Analysis", "CellComplex", "CostModel", "CycleReport", "DEFAULT_ALPHA_GRID",
    "FieldSample", "GridSpec", "MODELS", "Matching", "MatchingProblem",
    "PRESETS", "ParseError", "PipelineConfig", "SccInfo", "SearchFrontier",
    "VerificationReport", "Violation", "alpha_sweep",
    "assign_dowker_average", "assign_vertex_average", "barycentric_subdivision",
    "build_cost_model", "build_problem", "classify_recurrence", "cubical_grid",
    "delaunay_2d", "dowker_complex_from_matrix", "dowker_relation", "evaluate_matching",
    "export_arrows", "export_dot", "export_report", "gen_grid_field", "gen_lorenz_trajectory",
    "is_gradient", "multiflow", "objective_decomposition", "preset_field",
    "read_field_csv", "read_landmarks_csv", "read_relation_csv", "run_pipeline",
    "simplicial_complex", "snap_to_lattice", "solve_branch_and_bound", "solve_exact",
    "solve_gradient_constrained", "verify_matching", "verify_report", "write_field_csv",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 50
    assert sorted(combidyn.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(combidyn, name)


def test_submodule_names_resolve():
    modules = [importlib.import_module(f"combidyn.{m.name}") for m in pkgutil.iter_modules(combidyn.__path__)]
    assert len(modules) == 10
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import json, sys

def loaded():
    return "scipy.optimize" in sys.modules

seen = {}
import combidyn
from combidyn import PipelineConfig, preset_field, run_pipeline, write_field_csv
seen["import"] = loaded()
path = sys.argv[1]
write_field_csv(path, preset_field("toy"))
run_pipeline(PipelineConfig(alpha=0.75), path)
seen["off"] = loaded()
sweep = run_pipeline(PipelineConfig(gradient_mode="sweep"), path)
seen["sweep"] = loaded()
done = run_pipeline(PipelineConfig(alpha=0.75, gradient_mode="constraints"), path)
seen["constraints"] = loaded()
print(json.dumps({
    "loaded": seen,
    "sweep": [sweep.cost_model.alpha, sweep.matching.pairs.tolist()],
    "constraints": [
        done.matching.pairs.tolist(),
        done.matching.critical.tolist(),
        done.constraint_rounds,
        done.matching.objective,
        done.document["gradient"],
    ],
}))
"""


def test_scipy_optimize_never_loaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "toy.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["loaded"] == {"import": False, "off": False, "sweep": False, "constraints": False}
    assert out["sweep"] == [0.14, []]
    matched, critical, rounds, objective, section = out["constraints"]
    assert matched == [[1, 5], [2, 4], [3, 6]]
    assert critical == [0]
    assert rounds == 1
    # three pair costs plus alpha for the one critical cell
    expected = 2 * (1 - 1 / math.sqrt(2)) + (1 - 1 / math.sqrt(5)) + 0.75
    assert math.isclose(objective, expected, abs_tol=1e-12)
    assert section == {"mode": "constraints", "is_gradient": True, "constraint_rounds": 1}
