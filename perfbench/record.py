"""Record perfbench/reference.json at the current commit.

    python3 perfbench/record.py

Runs every workload of BENCHMARK.json once untraced and once traced at the
default seed and writes, for each workload: the pinned result of every
instance (objective, effective alpha, is_gradient, report SHA-256), which
later runs at the default seed are checked against; the end-to-end and
per-layer figures; and each layer's share of run_s. The environment the
figures were taken in is recorded alongside. Re-record only in a change that
explains why the pinned results moved.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _check_catalogue(bench: dict) -> None:
    catalogue = json.loads((HERE / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        have = [(m["name"], m["unit"], m["better"]) for m in catalogue[section]]
        if want != have:
            raise SystemExit(f"metrics.json {section} does not match BENCHMARK.json")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main() -> int:
    from workloads import DEFAULT_SEED

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _check_catalogue(bench)
    path = HERE / "reference.json"
    # the default-seed checks compare against this file, so start it empty
    path.write_text(json.dumps({"references": {}}) + "\n")

    references, baseline = {}, {}
    for w in bench["workloads"]:
        name = w["name"]
        plain, detail = _run(name, DEFAULT_SEED, bench["run_seconds"], 0)
        traced, tdetail = _run(name, DEFAULT_SEED, bench["run_seconds"], 1)
        references[name] = detail["facts"]
        shares = [p["run_share"] for p in tdetail["passes"] if p["traced"]]
        baseline[name] = {
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "run_share": {k: statistics.median(s.get(k, 0.0) for s in shares)
                          for k in sorted({k for s in shares for k in s})},
        }

    doc = {
        "default_seed": DEFAULT_SEED,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "cpu": _cpu_model(),
            "run_seconds": bench["run_seconds"],
        },
        "references": references,
        "baseline": baseline,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
