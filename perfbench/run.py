"""combidyn benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload cubical_orbits --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout (combidyn is imported from `src/`,
nothing needs installing). The workloads, metrics and their units are the ones
in BENCHMARK.json; perfbench/metrics.json says which layer each metric
belongs to and what it should move, and perfbench/reference.json holds the
pinned results for the default seed and the recorded baseline.

Every run happens in fresh child processes, one at a time, with
COMBIDYN_THREADS unset:

* with `--trace 0`, two set-up probes (import combidyn, write the inputs,
  exit) and then the measured worker; set-up time is the median over the
  three, and peak memory is the worker's own;
* with `--trace 1`, one worker whose odd passes are traced.

Prints one line per metric with its unit, the correctness status, and as the
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--workload all` does this for every workload in turn. Exits 1
when any operation or check failed, 2 when a run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# kill the worker after this long; the run as a whole must end within 180 s
HARD_LIMIT_S = 170.0
SETUP_PROBES = 2


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; return its JSON line and its start time."""
    env = {k: v for k, v in os.environ.items() if k != "COMBIDYN_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker killed after {deadline - started:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return dict(json.loads(lines[-1]), started=started)


def _tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100)[p - 1]
            return f"{text}, p{p} {q:.4f} s (n={n})"
    return f"{text} (n={n}, too few for a tail percentile)"


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the processes for one benchmark run; return metrics and the worker's result."""
    deadline = time.monotonic() + HARD_LIMIT_S
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = _spawn([*common, "--seconds", "0", "--setup-only"], deadline)
                setups.append(probe["ready"] - probe["started"])
        res = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)], deadline)
        setups.append(res["ready"] - res["started"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "run_s": statistics.median(p["run_s"] for p in plain),
            "verify_s": statistics.median(p["verify_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }, res
    traced = [p for p in passes if p["traced"]]
    names = {k for p in traced for k in p["layers"]}
    metrics = {k: statistics.median(p["layers"].get(k, 0.0) for p in traced) for k in names}
    metrics["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                   - statistics.median(p["run_s"] for p in plain))
    return metrics, res


def run_one(workload: str, seed: int, seconds: int, trace: int, wanted: list[dict]) -> int:
    """Measure one workload, print its metrics and result line; 0 if correct."""
    try:
        measured, res = measure(workload, seed, seconds, trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
    correct = not res["failures"]

    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{len(res['passes'])} passes x {res['instances']} instance(s)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not trace and res["run_op_s"]:
        print(f"  run_s per operation: {_tail(res['run_op_s'])}")
    print(f"  ops_failed_frac {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for line in res["changed"]:
        print(f"  CHANGED {line}")
    for line in res["failures"][:20]:
        print(f"  FAIL {line}")
    print(f"  correct: {'yes' if correct else 'NO'}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "combidyn" / "__init__.py").is_file():
        print(f"error: no combidyn sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in (*names, "all"):
        print(f"error: unknown workload {args.workload!r}; have {', '.join(names)}, all", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    codes = [run_one(name, args.seed, args.seconds, args.trace, wanted)
             for name in (names if args.workload == "all" else [args.workload])]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
