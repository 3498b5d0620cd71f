"""Predator-prey field on a coarse grid.

Samples the two-species model on a 9x9 grid over [20,100]x[10,70], triangulates
it, and solves at alpha=0.95. Both recurrent components should circle the
interior equilibrium at (60, 40). The same field is then solved in constraint
mode, which excludes cycles until the cheapest matching at that alpha is
gradient: no multi-cell component may remain. Both written reports are
round-tripped through the verifier before the script reports success.
"""

import argparse
from pathlib import Path

import numpy as np

from combidyn import (
    PipelineConfig,
    export_report,
    preset_field,
    run_pipeline,
    verify_report,
    write_field_csv,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=Path("out/lotka_volterra"))
    ap.add_argument("--alpha", type=float, default=0.95)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    field_csv = args.out / "field.csv"
    write_field_csv(field_csv, preset_field("lotka_volterra"))
    analysis = run_pipeline(
        PipelineConfig(complex_kind="delaunay2d", alpha=args.alpha), field_csv
    )

    print(f"complex: {analysis.complex.counts_by_dim()}, m={analysis.problem.m}")
    print(f"objective: {analysis.matching.objective:.6f} at alpha={args.alpha}")
    for info in analysis.recurrence.multi_cell():
        center = np.mean([analysis.complex.barycenter(c) for c in info.cells], axis=0)
        print(f"  scc {info.id}: {info.size} cells, d={info.d}, "
              f"center ({center[0]:.1f}, {center[1]:.1f})")
    ok = verified(analysis, args.out / "report.json", field_csv)

    gradient = run_pipeline(
        PipelineConfig(complex_kind="delaunay2d", alpha=args.alpha, gradient_mode="constraints"),
        field_csv,
    )
    print()
    print(f"constraint mode: objective {gradient.matching.objective:.6f} at alpha={args.alpha} "
          f"after {len(gradient.constraints)} excluded cycle(s)")
    print(f"  multi-cell components left: {len(gradient.recurrence.multi_cell())}")
    ok &= not gradient.recurrence.multi_cell()
    ok &= verified(gradient, args.out / "report_gradient.json", field_csv)
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def verified(analysis, report, field_csv) -> bool:
    export_report(analysis, report)
    ok, lines = verify_report(report, field_csv)
    for line in lines:
        print(line)
    return ok


if __name__ == "__main__":
    raise SystemExit(main())
