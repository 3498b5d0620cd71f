"""Cubical pipeline on a 3-d trajectory.

Integrates a short chaotic trajectory, snaps the samples to a side-6 lattice
(merging duplicates by averaging their vectors), and runs the cubical pipeline
at alpha=0.9. With trajectory data the complex is mostly vertices and edges;
the recurrent part traces where the orbit revisits itself.
"""

import argparse
from pathlib import Path

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
    ap.add_argument("--out", type=Path, default=Path("out/lorenz"))
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--side", type=float, default=6.0)
    ap.add_argument("--n", type=int, default=300, help="trajectory length")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    field_csv = args.out / "trajectory.csv"
    write_field_csv(field_csv, preset_field("lorenz_desk", n=args.n))
    config = PipelineConfig(
        complex_kind="cubical", side=args.side, snap=True, alpha=args.alpha
    )
    analysis = run_pipeline(config, field_csv)

    counts = analysis.complex.counts_by_dim()
    print(f"trajectory: {len(analysis.sample.points)} samples, "
          f"{counts[0]} distinct lattice sites after snapping")
    print(f"complex: {counts}, m={analysis.document['problem']['m']}")
    print(f"objective: {analysis.matching.objective:.6f} at alpha={args.alpha}")
    for info in analysis.recurrence.multi_cell():
        print(f"  scc {info.id}: {info.size} cells, d={info.d}")
    print(f"critical cells: {len(analysis.matching.critical)}")

    report = args.out / "report.json"
    export_report(analysis, report)
    ok, lines = verify_report(report, field_csv)
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
