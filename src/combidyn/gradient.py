"""Gradient structure of a matching.

A matching is a discrete gradient field exactly when the flow it induces has
no nontrivial recurrence, i.e. the arrows admit a compatible Lyapunov order.
This module decides that property, finds the alpha regime where the optimum
becomes gradient, and solves the matching program under explicit no-cycle
side constraints via lazy cut generation: each round forbids every cyclic
component of the flow at once, one row per component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .complexes import CellComplex, pair_rows
# build_cost_model is unused here but stays a module attribute: perfbench/spans.py
# traces the layers through this module's globals
from .costs import CostModel, build_cost_model  # noqa: F401
from .dynamics import _flow_successors, _sccs
from .solver import (
    Matching,
    MatchingProblem,
    build_problem,
    evaluate_matching,
    solve_branch_and_bound,
    solve_exact,
)

__all__ = [
    "is_gradient",
    "all_critical_threshold",
    "alpha_sweep",
    "solve_gradient_constrained",
    "DEFAULT_ALPHA_GRID",
]

# 2.00, 1.99, ..., 0.00; descending so the sweep stops at the loosest gradient alpha
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(round(0.01 * k, 2) for k in range(200, -1, -1))


def is_gradient(complex: CellComplex, matching: Matching) -> bool:
    """Decide acyclicity of the induced flow: True when no strongly connected
    component has more than one cell. Self-loops of single-cell components
    do not count: in the flow those are the critical cells."""
    return not _cyclic_components(complex, matching)


def _cyclic_components(complex: CellComplex, matching: Matching) -> list[np.ndarray]:
    """Cells of every multi-cell strongly connected component of the flow,
    ascending, components in the order of their smallest cell."""
    _, order, bounds = _sccs(*_flow_successors(complex, matching))
    return [order[bounds[k] : bounds[k + 1]] for k in np.flatnonzero(np.diff(bounds) > 1)]


def all_critical_threshold(cost_model: CostModel) -> float:
    """Largest alpha at which the everything-critical matching is optimal:
    half the cheapest pair cost. Infinite when no pair exists at all."""
    if not len(cost_model.pair_costs):
        return math.inf
    t = float(cost_model.pair_costs.min()) / 2.0
    if t <= 0.0:
        warnings.warn(
            "a pair cost is exactly zero; the all-critical regime is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return t


def alpha_sweep(
    complex: CellComplex,
    cost_model: CostModel,
    alpha_grid: tuple[float, ...] | None = None,
) -> tuple[float, Matching]:
    """Walk alpha downward and return the first grid value whose optimal
    matching is gradient, together with that matching.

    Pair costs do not depend on alpha, so the sweep builds the program and
    its assignment graph once from `cost_model`, and re-prices only the
    diagonals at each grid value; `replace` carries the graph to each step.
    The model's own alpha is not used. A step that returns the same pairs as
    the step before is not tested for acyclicity again. If no grid value
    works (on the default grid only when alpha 0 ties the all-critical
    matching with a cycle of zero-cost pairs), fall back to the all-critical
    matching at its threshold alpha.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(alpha_grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly descending")
    if grid[0] > 2.0 or grid[-1] < 0.0:
        raise ValueError("alpha grid must lie within [0, 2]")

    problem = build_problem(cost_model, complex)
    pair_costs = problem.costs[: problem.n_pairs]
    cyclic: dict[int, int] | None = None  # the last matching found not gradient
    for alpha in grid:
        costs = np.concatenate([pair_costs, np.full(problem.n_cells, alpha)])
        matching = solve_exact(replace(problem, costs=costs))
        # the same pairs induce the same flow, so only a new matching is tested
        if matching.matched == cyclic:
            continue
        if is_gradient(complex, matching):
            return alpha, matching
        cyclic = matching.matched

    t = all_critical_threshold(cost_model)
    if not math.isfinite(t):
        raise RuntimeError("sweep failed on a complex with no admissible pairs")
    model = replace(cost_model, alpha=t)
    every = Matching(matched={}, critical=frozenset(range(len(complex))), objective=0.0)
    return t, Matching(every.matched, every.critical, evaluate_matching(model, every))


def solve_gradient_constrained(
    problem: MatchingProblem,
    complex: CellComplex,
    max_rounds: int = 10000,
) -> tuple[Matching, int]:
    """Cheapest gradient matching at the problem's own alpha.

    Lazy loop: solve, and while the flow has multi-cell strongly connected
    components, forbid each of them and solve again. Returns the matching and
    the number of re-solves. The first solve has no rows and goes to the
    sparse assignment solver `solve_exact`; later ones go to HiGHS'
    branch-and-cut (`solve_branch_and_bound`), whose choice among tied optima
    is its own.

    A component's row says that at most all but one of the pairs with both
    cells inside it may be selected together. Inside a multi-cell component a
    matched lower cell's only successor is its partner, and a matched upper
    cell's only predecessor there is its partner, since no coface leads back
    to it; critical cells are singletons. So the component is a union of
    whole pairs, and any matching that selects all of them rebuilds every
    arrow of the component and is cyclic: the row cuts off no gradient
    matching. A component that is one simple cycle gives the classic cycle
    inequality.
    """
    cuts: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for rounds in range(max_rounds):
        matching = solve_branch_and_bound(problem, tuple(cuts)) if cuts else solve_exact(problem)
        components = _cyclic_components(complex, matching)
        if not components:
            return matching, rounds
        for cells in components:
            pairs = [(c, matching.matched[c]) for c in cells.tolist() if c in matching.matched]
            cut = frozenset(pair_rows(problem.pairs, problem.n_cells, pairs).tolist())
            if cut in seen:
                raise RuntimeError("cycle constraint repeated; solver is not separating")
            seen.add(cut)
            cuts.append(cut)
    raise RuntimeError(f"no gradient matching found within {max_rounds} rounds")
