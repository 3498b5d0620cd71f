"""Command line front end.

Three subcommands:

* gen: write one of the built-in sample fields to CSV.
* run: full pipeline on a field CSV; prints a summary, optionally writes the
  JSON report, DOT flow graph, and arrow segments.
* verify: re-check a previously written report against its input file.
"""

from __future__ import annotations

import argparse
import sys

from . import datagen
from .pipeline import (
    COMPLEX_KINDS,
    GRADIENT_MODES,
    PipelineConfig,
    export_arrows,
    export_dot,
    export_report,
    run_pipeline,
    verify_report,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combidyn",
        description="Combinatorial dynamics from sampled vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a built-in sample field to CSV")
    gen.add_argument("--preset", required=True, choices=sorted(datagen.PRESETS))
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--n", type=int, default=None, help="trajectory length (lorenz presets)")
    gen.add_argument("--dt", type=float, default=None, help="Euler step (lorenz presets)")

    run = sub.add_parser("run", help="build, solve and analyze a sampled field")
    run.add_argument("input", help="field CSV (header x1..xd,v1..vd)")
    run.add_argument("--complex", default="delaunay2d", choices=COMPLEX_KINDS)
    run.add_argument("--alpha", type=float, default=0.5, help="critical-cell cost in [0,2]")
    run.add_argument("--subdivide", type=int, default=0, help="barycentric subdivision rounds")
    run.add_argument("--gradient", default="off", choices=GRADIENT_MODES)
    run.add_argument("--side", type=float, default=None, help="cubical lattice pitch")
    run.add_argument("--radius", type=float, default=None, help="dowker ball radius")
    run.add_argument("--landmarks", default=None, help="dowker landmark CSV (header y1..yd)")
    run.add_argument("--relation", default=None, help="explicit 0/1 dowker relation CSV")
    run.add_argument("--snap", action="store_true", help="snap samples onto the cubical lattice")
    run.add_argument("--out", default=None, help="JSON report path")
    run.add_argument("--dot", default=None, help="DOT flow graph path")
    run.add_argument("--arrows", default=None, help="arrow segment CSV path")

    ver = sub.add_parser("verify", help="re-check a report against its input field")
    ver.add_argument("--report", required=True, help="JSON report from `run --out`")
    ver.add_argument("--input", required=True, help="the field CSV the report was built from")

    return parser


def _cmd_gen(args) -> int:
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.dt is not None:
        overrides["dt"] = args.dt
    sample = datagen.preset_field(args.preset, **overrides)
    datagen.write_field_csv(args.out, sample)
    print(f"{args.preset}: {len(sample.points)} points (d={sample.dim}) -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    # the config flags are named after their config_echo keys
    config = PipelineConfig.from_echo(vars(args))
    analysis = run_pipeline(config, args.input)

    counts = analysis.complex.counts_by_dim()
    count_str = " + ".join(f"{n} d{d}" for d, n in sorted(counts.items()))
    print(f"complex: {len(analysis.complex)} cells ({count_str})")
    size = analysis.document["problem"]
    print(f"problem: N={size['N']}, m={size['m']}")
    obj = analysis.document["objective"]
    print(
        f"objective: {obj['total']} at alpha={obj['alpha']} "
        f"({obj['matched']} matched, {obj['critical']} critical)"
    )
    multi = analysis.recurrence.multi_cell()
    print(
        f"recurrence: {len(multi)} multi-cell component(s), "
        f"{len(analysis.matching.critical)} critical cell(s)"
    )
    for info in multi:
        print(
            f"  scc {info.id}: {info.size} cells, d={info.d}, "
            f"{len(info.self_intersections)} self-intersection(s)"
        )
    if "gradient" in analysis.document:
        g = analysis.document["gradient"]
        print(
            f"gradient: mode={g['mode']}, is_gradient={g['is_gradient']}, "
            f"constraint_rounds={g['constraint_rounds']}"
        )

    if args.out:
        export_report(analysis, args.out)
        print(f"report -> {args.out}")
    if args.dot:
        export_dot(analysis, args.dot)
        print(f"flow graph -> {args.dot}")
    if args.arrows:
        export_arrows(analysis, args.arrows)
        print(f"arrows -> {args.arrows}")
    return 0


def _cmd_verify(args) -> int:
    ok, lines = verify_report(args.report, args.input)
    for line in lines:
        print(line)
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
