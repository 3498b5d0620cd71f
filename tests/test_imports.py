"""Constraint mode's HiGHS solver comes from `scipy.optimize`, which takes
about a third of the package's import time. It is imported on the first
constrained solve only, so runs in the other modes never load it; a top-level
import of it anywhere in the package would fail here. Each check starts a
fresh interpreter, since the test process itself has the module loaded."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    "sweep": [sweep.alpha_effective, sorted(sweep.matching.matched.items())],
    "constraints": [
        sorted(done.matching.matched.items()),
        sorted(done.matching.critical),
        done.constraint_rounds,
        done.matching.objective,
        done.document["gradient"],
    ],
}))
"""


def test_highs_loaded_on_first_constrained_solve(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "toy.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["loaded"] == {"import": False, "off": False, "sweep": False, "constraints": True}
    assert out["sweep"] == [0.14, []]
    matched, critical, rounds, objective, section = out["constraints"]
    assert matched == [[1, 5], [2, 4], [3, 6]]
    assert critical == [0]
    assert rounds == 1
    # three pair costs plus alpha for the one critical cell
    expected = 2 * (1 - 1 / math.sqrt(2)) + (1 - 1 / math.sqrt(5)) + 0.75
    assert math.isclose(objective, expected, abs_tol=1e-12)
    assert section == {"mode": "constraints", "is_gradient": True, "constraint_rounds": 1}
