"""Gradient structure of a matching.

A matching is a discrete gradient field exactly when the flow it induces has
no nontrivial recurrence, i.e. the arrows admit a compatible Lyapunov order.
This module decides that property, finds the alpha regime where the optimum
becomes gradient, and solves the matching program under explicit no-cycle
side constraints via lazy cut generation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .complexes import CellComplex
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
    "CycleConstraint",
    "is_gradient",
    "all_critical_threshold",
    "alpha_sweep",
    "solve_gradient_constrained",
    "DEFAULT_ALPHA_GRID",
]

# 2.00, 1.99, ..., 0.00; descending so the sweep stops at the loosest gradient alpha
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(round(0.01 * k, 2) for k in range(200, -1, -1))


@dataclass(frozen=True)
class CycleConstraint:
    """At most |arc_set| - 1 of these pair variables may be selected together.
    Selecting all of them would reproduce the offending cycle."""

    arc_set: frozenset[int]

    @property
    def bound(self) -> int:
        return len(self.arc_set) - 1


def is_gradient(
    complex: CellComplex, matching: Matching
) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """Decide acyclicity of the induced flow.

    Returns (True, None) for a gradient matching, otherwise (False, witness)
    where the witness is the matched (lower, upper) arrow set of a shortest
    recurrent cycle. Ties break toward smaller cell ids.
    """
    cycle = _shortest_cycle(*_flow_successors(complex, matching))
    if cycle is None:
        return True, None
    arcs = [(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]) if matching.matched.get(a) == b]
    return False, tuple(sorted(arcs))


def _shortest_cycle(ptr: np.ndarray, idx: np.ndarray) -> tuple[int, ...] | None:
    """A shortest cycle inside a multi-node strongly connected component of the
    CSR graph (ptr, idx), as its node sequence from its first node; among equal
    lengths the smaller sequence wins. None when there is no such component.

    Self-loops of single-node components do not count: in the flow those are
    the critical cells, which are never on a cycle (classify_recurrence checks
    this), so every multi-cell component holds matched cells only.
    """
    _, order, bounds = _sccs(ptr, idx)
    best: tuple[int, tuple[int, ...]] | None = None
    for cid in np.flatnonzero(np.diff(bounds) > 1).tolist():
        scc = order[bounds[cid] : bounds[cid + 1]].tolist()
        succ = {u: idx[ptr[u] : ptr[u + 1]].tolist() for u in scc}
        for start in scc:
            # a longer cycle never wins the (len, path) order
            limit = best[0] if best is not None else len(scc)
            path = _shortest_cycle_through(succ, start, limit)
            if path is not None and (best is None or (len(path), path) < best):
                best = (len(path), path)
    return None if best is None else best[1]


def _shortest_cycle_through(
    succ: dict[int, list[int]], start: int, limit: int
) -> tuple[int, ...] | None:
    """BFS within one strongly connected piece, the keys of `succ`; first
    return to `start` is a shortest cycle through it. The search stops after
    cycles of `limit` cells and returns None when none is that short."""
    parent: dict[int, int] = {}
    frontier = [start]
    seen = {start}
    for _ in range(limit):
        nxt: list[int] = []
        for u in frontier:
            for v in succ[u]:
                if v not in succ:
                    continue
                if v == start:
                    path = [u]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return tuple(path)
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return None


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

    Pair costs do not depend on alpha, so the sweep builds the program once
    from `cost_model` and re-prices only its diagonals at each grid value;
    the model's own alpha is not used. A step that returns the same pairs as
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
        ok, _ = is_gradient(complex, matching)
        if ok:
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
) -> tuple[Matching, tuple[CycleConstraint, ...]]:
    """Cheapest gradient matching at the problem's own alpha.

    Lazy loop: solve, test acyclicity, forbid the witness cycle's arrows from
    co-occurring, repeat. Returns the matching and every generated constraint.
    The first round has no rows and goes to the sparse assignment solver
    `solve_exact`; later rounds go to HiGHS' branch-and-cut
    (`solve_branch_and_bound`), whose choice among tied optima is its own.
    """
    constraints: list[CycleConstraint] = []
    seen: set[frozenset[int]] = set()
    for _ in range(max_rounds):
        if constraints:
            matching = solve_branch_and_bound(
                problem, tuple(c.arc_set for c in constraints)
            )
        else:
            matching = solve_exact(problem)
        ok, witness = is_gradient(complex, matching)
        if ok:
            return matching, tuple(constraints)
        assert witness is not None
        arc_set = frozenset(problem.pair_var(lo, up) for lo, up in witness)
        if arc_set in seen:
            raise RuntimeError("cycle constraint repeated; solver is not separating")
        seen.add(arc_set)
        constraints.append(CycleConstraint(arc_set))
    raise RuntimeError(f"no gradient matching found within {max_rounds} rounds")
