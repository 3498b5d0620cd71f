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
from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex
from .costs import CostModel, build_cost_model
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
    succ = _flow_successors(complex, matching)
    # A critical cell is never on a cycle of the flow (classify_recurrence
    # checks this), so every multi-cell component holds matched cells only.
    _, order, bounds = _sccs(succ)
    cyclic = np.flatnonzero(np.diff(bounds) > 1).tolist()
    if not cyclic:
        return True, None

    best: tuple[int, tuple[int, ...]] | None = None
    for cid in cyclic:
        scc = order[bounds[cid] : bounds[cid + 1]].tolist()
        members = set(scc)
        for start in scc:
            path = _shortest_cycle_through(succ, members, start)
            if path is not None and (best is None or (len(path), path) < best):
                best = (len(path), path)
    assert best is not None
    cycle = best[1]
    arcs = []
    k = len(cycle)
    for t in range(k):
        a, b = cycle[t], cycle[(t + 1) % k]
        if matching.matched.get(a) == b:
            arcs.append((a, b))
    return False, tuple(sorted(arcs))


def _shortest_cycle_through(
    succ: list[tuple[int, ...]], members: set[int], start: int
) -> tuple[int, ...] | None:
    """BFS within one strongly connected piece; first return to `start` is a
    shortest cycle through it."""
    parent: dict[int, int] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in succ[u]:
                if v not in members:
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
    if not cost_model.pair_costs:
        return math.inf
    t = min(cost_model.pair_costs.values()) / 2.0
    if t <= 0.0:
        warnings.warn(
            "a pair cost is exactly zero; the all-critical regime is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return t


def alpha_sweep(
    complex: CellComplex,
    vectors,
    alpha_grid: tuple[float, ...] | None = None,
    backend: str = "auto",
) -> tuple[float, Matching]:
    """Walk alpha downward and return the first grid value whose optimal
    matching is gradient, together with that matching.

    Pair costs do not depend on alpha, so they are built once and reused.
    If no grid value works (possible only off the default grid), fall back to
    the all-critical matching at its threshold alpha.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(alpha_grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly descending")
    if grid[0] > 2.0 or grid[-1] < 0.0:
        raise ValueError("alpha grid must lie within [0, 2]")

    base = build_cost_model(complex, vectors, alpha=grid[0])
    for alpha in grid:
        model = CostModel(alpha=alpha, pair_costs=base.pair_costs, n_cells=base.n_cells)
        problem = build_problem(model, complex)
        matching = solve_exact(problem, backend=backend)
        ok, _ = is_gradient(complex, matching)
        if ok:
            return alpha, matching

    t = all_critical_threshold(base)
    if not math.isfinite(t):
        raise RuntimeError("sweep failed on a complex with no admissible pairs")
    model = CostModel(alpha=t, pair_costs=base.pair_costs, n_cells=base.n_cells)
    every = Matching(matched={}, critical=frozenset(c.id for c in complex.cells), objective=0.0)
    return t, Matching(every.matched, every.critical, evaluate_matching(model, every))


def solve_gradient_constrained(
    problem: MatchingProblem,
    complex: CellComplex,
    max_rounds: int = 10000,
) -> tuple[Matching, tuple[CycleConstraint, ...]]:
    """Cheapest gradient matching at the problem's own alpha.

    Lazy loop: solve, test acyclicity, forbid the witness cycle's arrows from
    co-occurring, repeat. Returns the matching and every generated constraint.
    The first round may use the fast backend; once rows exist, only the
    branch-and-bound backend understands them.
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
