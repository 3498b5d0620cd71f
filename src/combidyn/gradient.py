"""Gradient structure of a matching.

A matching is a discrete gradient field exactly when the flow it induces has
no nontrivial recurrence, i.e. the arrows admit a compatible Lyapunov order;
`dynamics.is_gradient` decides that property. This module finds the first
alpha on the fixed grid `DEFAULT_ALPHA_GRID` where the optimum becomes
gradient, and solves the matching program under explicit no-cycle side
constraints via lazy cut generation: each round forbids every cyclic
component of the flow (`dynamics.cyclic_components`) at once, one row per
component, and resumes one best-first branch-and-bound whose open nodes are
kept across the rounds. Neither mode takes a tuning parameter; the
search's one budget is `solver.MAX_SEARCH_NODES`.
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
from .dynamics import cyclic_components, is_gradient
from .solver import (
    Matching,
    MatchingProblem,
    SearchFrontier,
    _check_finite,
    _selection_matching,
    build_problem,
    evaluate_matching,
    solve_branch_and_bound,
    solve_exact,
)

__all__ = [
    "all_critical_threshold",
    "alpha_sweep",
    "solve_gradient_constrained",
    "DEFAULT_ALPHA_GRID",
]

# 2.00, 1.99, ..., 0.00; descending so the sweep stops at the loosest gradient alpha
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(round(0.01 * k, 2) for k in range(200, -1, -1))


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


def alpha_sweep(complex: CellComplex, cost_model: CostModel) -> tuple[float, Matching]:
    """Walk alpha down `DEFAULT_ALPHA_GRID` and return the first grid value
    whose optimal matching is gradient, together with that matching.

    Pair costs do not depend on alpha, so the sweep builds the program and
    its assignment graph once from `cost_model`, checks every cost it can
    price (the pair costs and the grid) once, and at each grid value prices
    the graph with new diagonals and reads LAPJVsp's pair selection back
    (`AssignmentGraph.select`). Steps are compared by their selections; a
    `Matching` is built only where acyclicity is tested. The model's own
    alpha is not used.

    A matching M costs c(M) + alpha * k(M), linear in alpha, and the optimum
    is the lower envelope of these lines, so a matching the solver returns at
    two grid values is optimal on every grid value between them. The sweep
    therefore does not solve every grid value. From the current index i,
    whose matching is cyclic, it gallops to i+1, i+2, i+4, ... (clamped to
    the last index) until the returned pairs differ, then bisects back to the
    first index k whose pairs differ, and tests acyclicity only there: k's
    alpha is the answer when its matching is gradient, and the walk goes on
    from k otherwise. Each grid index is solved at most once.

    Tie rule: between two grid values that return the same pairs, every grid
    value is taken to return them. A rival optimum the solver could return
    inside such a run ties the matching there with equal c and k, and is not
    seen. Without ties this is the answer of testing every grid value.

    If the pairs still have not changed at alpha 0, the last grid value
    (only when alpha 0 ties the all-critical matching with a cycle of
    zero-cost pairs), fall back to the all-critical matching at its
    threshold alpha.
    """
    grid = DEFAULT_ALPHA_GRID
    problem = build_problem(cost_model, complex)
    pairs, pair_costs, graph = problem.pairs, problem.costs[: problem.n_pairs], problem.graph
    selected: dict[int, np.ndarray] = {}  # grid index -> the solver's pair selection there

    def costs(k: int) -> np.ndarray:
        return np.concatenate([pair_costs, np.full(problem.n_cells, grid[k])])

    def select(k: int) -> np.ndarray:
        if k not in selected:
            selected[k] = graph.select(costs(k))
        return selected[k]

    # LAPJVsp never returns on NaN, so every cost the sweep can price is
    # checked before the first solve: the pair costs, then the grid
    bad = [j for j, a in enumerate(grid) if not math.isfinite(a)]
    _check_finite(pairs, costs(bad[0] if bad else 0))
    k = 0
    while True:
        hit = select(k)
        matching = _selection_matching(pairs, costs(k), hit)
        if is_gradient(complex, matching):
            return grid[k], matching
        k = _first_change(lambda j: not np.array_equal(select(j), hit), k, len(grid) - 1)
        if k is None:
            break

    t = all_critical_threshold(cost_model)
    every = Matching(pairs=(), critical=np.arange(len(complex)), objective=0.0)
    return t, replace(every, objective=evaluate_matching(replace(cost_model, alpha=t), every))


def _first_change(differs, k: int, last: int) -> int | None:
    """First index j in (k, last] with `differs(j)`, or None when the last
    index does not differ. Gallops to k+1, k+2, k+4, ... (clamped to `last`)
    until an index differs, then bisects back between it and the last index
    found not to differ. Exact when the indices that differ form one run up
    to `last`; otherwise it returns some index that differs whose
    predecessor does not."""
    lo, step = k, 1
    while lo < last:
        j = min(k + step, last)
        if differs(j):
            hi = j
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if differs(mid) else (mid, hi)
            return hi
        lo, step = j, 2 * step
    return None


def solve_gradient_constrained(problem: MatchingProblem, complex: CellComplex) -> tuple[Matching, int]:
    """Cheapest gradient matching at the problem's own alpha.

    Lazy loop: solve, and while the flow has multi-cell strongly connected
    components, forbid each of them and solve again. Returns the matching and
    the number of re-solves. The first solve has no rows and goes to the
    sparse assignment solver `solve_exact`; later ones go to the best-first
    branch-and-bound `solve_branch_and_bound`. All rounds share one
    `SearchFrontier`, seeded with the first solve, so each round resumes the
    search where the last one stopped. Among tied optima the round returns
    the first node in (bound, creation) order. The node budget
    `MAX_SEARCH_NODES` also bounds the rounds: each round's node violates the
    rows cut from its matching, so no node is returned twice and rounds <=
    nodes created + 1. Running out raises a RuntimeError naming the round.

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
    matching = solve_exact(problem)
    frontier = SearchFrontier()
    frontier.seed(problem, matching)
    cuts: dict[frozenset[int], None] = {}  # the rows so far, in the order they were cut
    rounds = 0
    while components := cyclic_components(complex, matching):
        for cells in components:
            inside = matching.pairs[np.isin(matching.pairs[:, 0], cells)]
            cut = frozenset(pair_rows(problem.pairs, problem.n_cells, inside).tolist())
            if cut in cuts:
                raise RuntimeError("cycle constraint repeated; solver is not separating")
            cuts[cut] = None
        rounds += 1
        try:
            matching = solve_branch_and_bound(problem, tuple(cuts), frontier)
        except RuntimeError as err:
            raise RuntimeError(f"round {rounds}: {err}") from None
    return matching, rounds
