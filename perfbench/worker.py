"""One measured run of one workload, in a fresh process.

Started by run.py, never by hand. Imports combidyn from the checkout's `src/`,
writes the workload's seeded input CSVs into `--work`, then runs passes over
the instances until `--seconds` are used up (at least two passes, so that
report bytes can be compared between repetitions). With `--trace 1` traced
passes alternate with untraced ones, starting untraced, so that tracing
overhead and report bytes can be compared within the run.

The last line on standard output is one JSON object for run.py; the full
record, spans included, goes to `--out`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from combidyn.datagen import write_field_csv  # noqa: E402
from combidyn.pipeline import PipelineConfig, export_report, run_pipeline, verify_report  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# no pass starts once the run is this old, whatever --seconds says, so the
# whole process stays well inside run.py's hard limit
LAST_START_S = 60.0


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget("operation exceeded its wall budget")


def _doc_facts(doc: dict) -> dict:
    return {
        "objective": doc["objective"]["total"],
        "alpha": doc["objective"]["alpha"],
        "is_gradient": doc.get("gradient", {}).get("is_gradient"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    instances = workload.make(args.seed)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i, inst in enumerate(instances):
        path = work / f"input{i:02d}.csv"
        write_field_csv(path, inst.sample)
        inputs.append(path)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        ref_doc = json.loads((Path(__file__).parent / "reference.json").read_text())
        reference = ref_doc["references"].get(args.workload)

    signal.signal(signal.SIGALRM, _alarm)
    budget = workload.op_budget_s
    first_bytes: dict[int, bytes] = {}
    facts: list[dict | None] = [None] * len(instances)
    failures: list[str] = []  # one line per problem, operation or run level
    failed_ops = 0
    changed: list[str] = []
    run_op_s: list[float] = []
    passes: list[dict] = []
    tracers = []
    attempted = 0

    def one_op(p: int, i: int, tracer) -> tuple[float, float, list[str]]:
        """Run and verify instance i; return both times and the problems."""
        report = work / f"report{i:02d}.json"
        root = tracer.span if tracer else (lambda name: nullcontext())
        export = tracer.wrap(export_report, "pipeline.report") if tracer else export_report
        if tracer:
            tracer.op = i
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            t0 = time.perf_counter()
            with root("op.run"):
                analysis = run_pipeline(PipelineConfig(**instances[i].config), inputs[i])
                export(analysis, report)
            t1 = time.perf_counter()
            with root("op.verify"):
                ok, lines = verify_report(report, inputs[i])
            t2 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

        where = f"pass {p} instance {i}"
        problems = []
        if t2 - t0 > budget:
            problems.append(f"{where}: took {t2 - t0:.3f} s, budget {budget} s")
        if not ok:
            problems.append(f"{where}: verify_report FAIL: {'; '.join(lines)}")
        data = report.read_bytes()
        got = _doc_facts(analysis.document)
        if i not in first_bytes:
            first_bytes[i] = data
            facts[i] = dict(got, sha256=hashlib.sha256(data).hexdigest())
            if reference is not None:
                ref = reference[i]
                for key in ("alpha", "is_gradient"):
                    if got[key] != ref[key]:
                        problems.append(f"{where}: {key} {got[key]} != reference {ref[key]}")
                if not math.isclose(got["objective"], ref["objective"], rel_tol=2e-8, abs_tol=1e-9):
                    problems.append(f"{where}: objective {got['objective']} != reference {ref['objective']}")
                if facts[i]["sha256"] != ref["sha256"]:
                    changed.append(f"instance {i}: report sha256 {facts[i]['sha256']} != reference {ref['sha256']}")
        elif data != first_bytes[i]:
            problems.append(f"{where}: report bytes differ from pass 0{' (traced)' if tracer else ''}")
        return t1 - t0, t2 - t1, problems

    start = time.perf_counter()
    while True:
        p = len(passes)
        tracer = spans.Tracer() if args.trace and p % 2 == 1 else None
        run_s = verify_s = 0.0
        t_pass = time.perf_counter()
        with spans.installed(tracer) if tracer else nullcontext():
            for i in range(len(instances)):
                attempted += 1
                try:
                    r, v, problems = one_op(p, i, tracer)
                except Exception as exc:  # a failed operation is counted, the run goes on
                    problems, r, v = [f"pass {p} instance {i}: {type(exc).__name__}: {exc}"], 0.0, 0.0
                failures.extend(problems)
                failed_ops += bool(problems)
                run_s += r
                verify_s += v
                if not problems:
                    run_op_s.append(r)
        summary = {"traced": tracer is not None, "wall_s": time.perf_counter() - t_pass,
                   "run_s": run_s, "verify_s": verify_s}
        if tracer:
            tracers.append((p, tracer))
            summary.update(_traced_summary(tracer, run_s + verify_s, failures, p))
        passes.append(summary)

        elapsed = time.perf_counter() - start
        longest = max(s["wall_s"] for s in passes)
        if elapsed + longest > LAST_START_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
            break

    if len(passes) < MIN_PASSES:
        failures.append(f"only {len(passes)} pass(es) ran; report determinism unchecked")
    result = {
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "instances": len(instances),
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures,
        "changed": changed,
        "facts": facts,
        "run_op_s": run_op_s,
        "passes": passes,
    }
    if args.out:
        detail = dict(result, spans=[
            {"pass": p, **vars(s)} for p, tracer in tracers for s in tracer.spans
        ])
        Path(args.out).write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


def _traced_summary(tracer, op_total: float, failures: list[str], p: int) -> dict:
    """Per-layer metrics of one traced pass, the layers' shares of run time,
    and the fidelity checks: spans nest, and the self times add up to the
    wall time the operation timers measured."""
    layers = spans.layer_metrics(tracer.spans)
    for problem in spans.check_nesting(tracer.spans):
        failures.append(f"pass {p} trace: {problem}")
    covered = sum(v for k, v in layers.items() if k.endswith("_s"))
    if abs(covered - op_total) > 1e-3 + 1e-3 * op_total:
        failures.append(f"pass {p} trace: self times add to {covered:.6f} s, operations took {op_total:.6f} s")
    run_spans = spans.under(tracer.spans, "op.run")
    run_total = sum(s.duration for s in run_spans if s.parent is None)
    run_layers = spans.layer_metrics(run_spans)
    share = {k[:-2]: v / run_total for k, v in run_layers.items() if k.endswith("_s")}
    return {"layers": layers, "run_share": share}


if __name__ == "__main__":
    sys.exit(main())
