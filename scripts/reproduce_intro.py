"""Two circular orbits around a repelling stationary point.

Samples the planar field with an attracting limit cycle at r=1 and a repelling
one at r=2 on a 16x16 grid, runs the cubical pipeline at alpha=0.9, and prints
where the recurrent components sit. Writes report/flow/arrow files next to the
input so the result can be inspected or re-verified with the CLI.
"""

import argparse
from pathlib import Path

import numpy as np

from combidyn import (
    PipelineConfig,
    export_arrows,
    export_dot,
    export_report,
    preset_field,
    run_pipeline,
    write_field_csv,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=Path("out/intro"))
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--side", type=float, default=0.44)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    field_csv = args.out / "field.csv"
    write_field_csv(field_csv, preset_field("intro"))
    config = PipelineConfig(complex_kind="cubical", side=args.side, alpha=args.alpha)
    analysis = run_pipeline(config, field_csv)

    counts = analysis.complex.counts_by_dim()
    print(f"complex: {counts}, m={analysis.document['problem']['m']}")
    print(f"objective: {analysis.matching.objective:.6f} at alpha={args.alpha}")
    for info in analysis.recurrence.multi_cell():
        radii = [np.linalg.norm(analysis.complex.barycenters[c]) for c in info.cells]
        print(f"  orbit scc {info.id}: {info.size} cells, dims {info.dims_present}, "
              f"mean radius {np.mean(radii):.3f}")
    for c in analysis.matching.critical.tolist():
        r = np.linalg.norm(analysis.complex.barycenters[c])
        print(f"  critical cell {c}: dim {analysis.complex.dims[c]}, radius {r:.3f}")

    export_report(analysis, args.out / "report.json")
    export_dot(analysis, args.out / "flow.dot")
    export_arrows(analysis, args.out / "arrows.csv")
    print(f"outputs -> {args.out}/")


if __name__ == "__main__":
    main()
