"""Combinatorial dynamics from sampled vector fields.

Pipeline: build a cell complex over the sample points (Delaunay, cubical
lattice, or Dowker), average the sample vectors onto cells, pick the cheapest
partial self-matching of the complex under a cosine-alignment cost, and read
the resulting discrete flow: critical cells, cycles, strongly connected
components. Gradient (cycle-free) matchings are available by alpha sweep or
by constraints that forbid each cyclic component of the flow until none is
left.
"""

from .builders import (
    DowkerRelation,
    cubical_grid,
    delaunay_2d,
    dowker_complex,
    dowker_complex_from_matrix,
    snap_to_lattice,
)
from .complexes import CellComplex, barycentric_subdivision, simplicial_complex
from .costs import CostModel, build_cost_model, cosine_distance, critical_angle, displacement
from .datagen import (
    FieldSample,
    GridSpec,
    MODELS,
    PRESETS,
    gen_grid_field,
    gen_lorenz_trajectory,
    preset_field,
    write_field_csv,
)
from .dynamics import CycleReport, FlowGraph, SccInfo, classify_recurrence, is_gradient, multiflow
from .gradient import DEFAULT_ALPHA_GRID, all_critical_threshold, alpha_sweep, solve_gradient_constrained
from .pipeline import (
    Analysis,
    ParseError,
    PipelineConfig,
    export_arrows,
    export_dot,
    export_report,
    read_field_csv,
    read_landmarks_csv,
    read_relation_csv,
    run_pipeline,
    verify_report,
)
from .solver import (
    Matching,
    MatchingProblem,
    SearchFrontier,
    VerificationReport,
    Violation,
    assignment_objective,
    build_problem,
    evaluate_matching,
    objective_decomposition,
    repair,
    solve_branch_and_bound,
    solve_exact,
    verify_matching,
)
from .vectors import assign_dowker_average, assign_vertex_average

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CellComplex",
    "CostModel",
    "CycleReport",
    "DEFAULT_ALPHA_GRID",
    "DowkerRelation",
    "FieldSample",
    "FlowGraph",
    "GridSpec",
    "Matching",
    "MatchingProblem",
    "MODELS",
    "ParseError",
    "PipelineConfig",
    "PRESETS",
    "SccInfo",
    "SearchFrontier",
    "VerificationReport",
    "Violation",
    "all_critical_threshold",
    "alpha_sweep",
    "assign_dowker_average",
    "assign_vertex_average",
    "assignment_objective",
    "barycentric_subdivision",
    "build_cost_model",
    "build_problem",
    "classify_recurrence",
    "cosine_distance",
    "critical_angle",
    "cubical_grid",
    "delaunay_2d",
    "displacement",
    "dowker_complex",
    "dowker_complex_from_matrix",
    "evaluate_matching",
    "export_arrows",
    "export_dot",
    "export_report",
    "gen_grid_field",
    "gen_lorenz_trajectory",
    "is_gradient",
    "multiflow",
    "objective_decomposition",
    "preset_field",
    "read_field_csv",
    "read_landmarks_csv",
    "read_relation_csv",
    "repair",
    "run_pipeline",
    "simplicial_complex",
    "snap_to_lattice",
    "solve_branch_and_bound",
    "solve_exact",
    "solve_gradient_constrained",
    "verify_matching",
    "verify_report",
    "write_field_csv",
]
