"""Exact solvers for the cell matching program.

The program has one binary variable per admissible pair plus one diagonal
variable per cell, and one constraint per cell: exactly one incident variable
is selected. Feasible selections are exactly the partial matchings of the
admissibility graph with the unmatched cells declared critical.

Two interchangeable backends:

* bipartite: cells split by dimension parity always 2-color the admissibility
  graph, so the program reduces to a square assignment problem with one dummy
  row/column per cell for the stay-critical option. Polynomial, used by
  default.
* branch_and_bound: depth-first search over pair variables in index order,
  bounding with static per-cell minimum shares. Slower, but it is the only
  backend that survives extra cycle-elimination rows, and it returns the
  lexicographically smallest optimal selection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .complexes import CellComplex
from .costs import CostModel

__all__ = [
    "MatchingProblem",
    "Matching",
    "build_problem",
    "solve_exact",
    "solve_bipartite",
    "solve_branch_and_bound",
    "Violation",
    "VerificationReport",
    "verify_matching",
    "repair",
    "assignment_objective",
    "evaluate_matching",
    "objective_decomposition",
]


@dataclass
class MatchingProblem:
    variables: list[tuple[int, int]]  # admissible pairs first, then (k, k) diagonals
    costs: list[float]
    cell_vars: list[list[int]]  # per cell, indices of incident variables
    dims: list[int]
    n_pairs: int

    @property
    def n_cells(self) -> int:
        return len(self.cell_vars)

    @property
    def m(self) -> int:
        return len(self.variables)

    def diagonal_var(self, cell: int) -> int:
        return self.n_pairs + cell

    def pair_var(self, lower: int, upper: int) -> int:
        # pairs are sorted by (lower, upper); bisect would do, dict is simpler
        try:
            return self._pair_index[(lower, upper)]
        except AttributeError:
            self._pair_index = {pq: i for i, pq in enumerate(self.variables[: self.n_pairs])}
            return self._pair_index[(lower, upper)]


def build_problem(cost_model: CostModel, complex: CellComplex) -> MatchingProblem:
    n = len(complex)
    if cost_model.n_cells != n:
        raise ValueError("cost model and complex disagree on cell count")
    pairs = sorted(cost_model.pair_costs)
    variables = pairs + [(k, k) for k in range(n)]
    costs = [cost_model.pair_costs[pq] for pq in pairs] + [cost_model.alpha] * n
    cell_vars: list[list[int]] = [[] for _ in range(n)]
    for i, (lo, up) in enumerate(pairs):
        cell_vars[lo].append(i)
        cell_vars[up].append(i)
    for k in range(n):
        cell_vars[k].append(len(pairs) + k)
    return MatchingProblem(
        variables=variables,
        costs=costs,
        cell_vars=cell_vars,
        dims=[c.dim for c in complex.cells],
        n_pairs=len(pairs),
    )


@dataclass(frozen=True)
class Matching:
    """A partial self-matching of the complex: lower cell -> codim-1 coface,
    plus the set of cells left critical."""

    matched: dict[int, int]
    critical: frozenset[int]
    objective: float

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.matched.items())

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.matched) | self.critical

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.matched.values()) | self.critical


def evaluate_matching(cost_model: CostModel, matching: Matching) -> float:
    """Canonical objective of a matching: pair costs in (lower, upper) order,
    then alpha per critical cell, summed exactly."""
    terms = [cost_model.pair_costs[pq] for pq in matching.pairs()]
    terms += [cost_model.alpha] * len(matching.critical)
    return math.fsum(terms)


def _selection_to_matching(problem: MatchingProblem, selected: list[int]) -> Matching:
    matched = {}
    critical = set()
    for v in selected:
        i, j = problem.variables[v]
        if i == j:
            critical.add(i)
        else:
            matched[i] = j
    objective = math.fsum(problem.costs[v] for v in sorted(selected))
    return Matching(matched=matched, critical=frozenset(critical), objective=objective)


def solve_bipartite(problem: MatchingProblem) -> Matching:
    """Assignment-problem reduction.

    Rows are even-parity cells plus one dummy per odd cell; columns are odd
    cells plus one dummy per even cell. A cell paired with its own dummy stays
    critical; the dummy-dummy block is free so unused dummies never interfere.
    """
    n = problem.n_cells
    if n == 0:
        return Matching(matched={}, critical=frozenset(), objective=0.0)
    evens = [k for k in range(n) if problem.dims[k] % 2 == 0]
    odds = [k for k in range(n) if problem.dims[k] % 2 == 1]
    epos = {k: i for i, k in enumerate(evens)}
    opos = {k: i for i, k in enumerate(odds)}
    ne, no = len(evens), len(odds)

    M = np.full((ne + no, no + ne), np.inf)
    M[ne:, no:] = 0.0
    pair_at: dict[tuple[int, int], int] = {}
    for v in range(problem.n_pairs):
        lo, up = problem.variables[v]
        e, o = (lo, up) if problem.dims[lo] % 2 == 0 else (up, lo)
        r, c = epos[e], opos[o]
        M[r, c] = problem.costs[v]
        pair_at[(r, c)] = v
    for k in evens:
        M[epos[k], no + epos[k]] = problem.costs[problem.diagonal_var(k)]
    for k in odds:
        M[ne + opos[k], opos[k]] = problem.costs[problem.diagonal_var(k)]

    rows, cols = linear_sum_assignment(M)
    selected = []
    for r, c in zip(rows, cols):
        if r < ne and c < no:
            selected.append(pair_at[(r, c)])
        elif r < ne:
            selected.append(problem.diagonal_var(evens[r]))
        elif c < no:
            selected.append(problem.diagonal_var(odds[c]))
    return _selection_to_matching(problem, selected)


def solve_branch_and_bound(
    problem: MatchingProblem, constraints: tuple[frozenset[int], ...] = ()
) -> Matching:
    """Depth-first exact search over pair variables, diagonals completed at the
    leaves. Among equal optima the first selection in depth-first order wins,
    which is the lexicographically smallest selected index set.

    `constraints` are sets of pair-variable indices of which at most |set| - 1
    may be selected together (cycle elimination rows).
    """
    npair = problem.n_pairs
    n = problem.n_cells
    if n == 0:
        return Matching(matched={}, critical=frozenset(), objective=0.0)
    costs = problem.costs
    variables = problem.variables

    cons = [frozenset(c) for c in constraints]
    for c in cons:
        if not c or any(v >= npair for v in c):
            raise ValueError("constraints must be non-empty sets of pair variable indices")
    limits = [len(c) - 1 for c in cons]
    counts = [0] * len(cons)
    cons_of_var: dict[int, list[int]] = {}
    for ci, c in enumerate(cons):
        for v in c:
            cons_of_var.setdefault(v, []).append(ci)

    # Static lower bound on covering a cell: half a pair cost (the pair covers
    # two cells) or its own diagonal, whichever is least.
    share = [0.0] * n
    for k in range(n):
        best = costs[problem.diagonal_var(k)]
        for v in problem.cell_vars[k]:
            if v < npair:
                best = min(best, costs[v] / 2.0)
        share[k] = best

    covered = [False] * n
    best_val = math.inf
    best_sel: list[int] | None = None
    sel: list[int] = []

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * npair + 1000))

    def descend(k: int, cost_so_far: float, potential: float, diag_tail: float) -> None:
        nonlocal best_val, best_sel
        if cost_so_far + potential >= best_val + 1e-12:
            return
        if k == npair:
            value = cost_so_far + diag_tail
            if value < best_val:
                best_val = value
                best_sel = sel.copy()
            return
        i, j = variables[k]
        if not covered[i] and not covered[j]:
            blocked = any(counts[ci] >= limits[ci] for ci in cons_of_var.get(k, ()))
            if not blocked:
                covered[i] = covered[j] = True
                for ci in cons_of_var.get(k, ()):
                    counts[ci] += 1
                sel.append(k)
                descend(
                    k + 1,
                    cost_so_far + costs[k],
                    potential - share[i] - share[j],
                    diag_tail - costs[problem.diagonal_var(i)] - costs[problem.diagonal_var(j)],
                )
                sel.pop()
                for ci in cons_of_var.get(k, ()):
                    counts[ci] -= 1
                covered[i] = covered[j] = False
        descend(k + 1, cost_so_far, potential, diag_tail)

    descend(0, 0.0, math.fsum(share), math.fsum(costs[npair:]))
    assert best_sel is not None
    selected = best_sel + [problem.diagonal_var(c) for c in range(n) if c not in _covered_cells(problem, best_sel)]
    return _selection_to_matching(problem, selected)


def _covered_cells(problem: MatchingProblem, pair_vars: list[int]) -> set[int]:
    out: set[int] = set()
    for v in pair_vars:
        i, j = problem.variables[v]
        out.add(i)
        out.add(j)
    return out


_BACKENDS = {"bipartite": solve_bipartite, "branch_and_bound": solve_branch_and_bound}


def solve_exact(problem: MatchingProblem, backend: str = "auto") -> Matching:
    """Global minimizer of the matching program. Deterministic; `auto` uses the
    polynomial bipartite backend."""
    if backend == "auto":
        backend = "bipartite"
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; have auto, {sorted(_BACKENDS)}") from None
    return fn(problem)


@dataclass(frozen=True)
class Violation:
    kind: str
    cells: tuple[int, ...]
    detail: str


@dataclass
class VerificationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def _admissible(complex: CellComplex, lower: int, upper: int) -> bool:
    """(lower, upper) is a face-coface pair one dimension apart; ids outside
    the complex never are."""
    return 0 <= upper < len(complex) and lower in complex.codim1_faces(upper)


def verify_matching(complex: CellComplex, matching, critical=None) -> VerificationReport:
    """Check the partial-matching axioms: each matched pair admissible, the map
    single-valued and injective, no cell both source and target, every cell
    covered, and the critical set disjoint from the pairs.

    Accepts a Matching, or a raw iterable of (lower, upper) pairs together
    with an explicit critical set (which the Matching form carries itself).
    """
    if isinstance(matching, Matching):
        pairs = matching.pairs()
        critical = set(matching.critical)
    else:
        pairs = [tuple(p) for p in matching]
        critical = set(critical or ())

    violations: list[Violation] = []

    lowers: dict[int, int] = {}
    uppers: dict[int, int] = {}
    for lo, up in pairs:
        if not _admissible(complex, lo, up):
            violations.append(
                Violation("non_admissible", (lo, up), f"({lo}, {up}) is not a codim-1 face pair")
            )
        lowers[lo] = lowers.get(lo, 0) + 1
        uppers[up] = uppers.get(up, 0) + 1
    for lo, cnt in sorted(lowers.items()):
        if cnt > 1:
            violations.append(Violation("two_out", (lo,), f"cell {lo} matched upward {cnt} times"))
    for up, cnt in sorted(uppers.items()):
        if cnt > 1:
            violations.append(Violation("two_in", (up,), f"cell {up} receives {cnt} matches"))
    for c in sorted(set(lowers) & set(uppers)):
        violations.append(
            Violation("in_and_out", (c,), f"cell {c} is both a source and a target")
        )
    for c in sorted(critical & (set(lowers) | set(uppers))):
        violations.append(
            Violation("critical_in_pair", (c,), f"critical cell {c} also appears in a pair")
        )
    all_ids = {c.id for c in complex.cells}
    for c in sorted(all_ids - set(lowers) - set(uppers) - critical):
        violations.append(Violation("uncovered", (c,), f"cell {c} is neither matched nor critical"))
    for c in sorted((set(lowers) | set(uppers) | critical) - all_ids):
        violations.append(Violation("unknown_cell", (c,), f"cell {c} is not in the complex"))
    return VerificationReport(violations)


def assignment_objective(cost_model: CostModel, assignment) -> float:
    """Objective of a full (possibly inadmissible) assignment under the square
    formulation: diagonal alpha, admissible pair cost, penalty otherwise."""
    terms = []
    for i, j in sorted(assignment):
        if i == j:
            terms.append(cost_model.alpha)
        elif (i, j) in cost_model.pair_costs:
            terms.append(cost_model.pair_costs[(i, j)])
        else:
            terms.append(cost_model.penalty)
    return math.fsum(terms)


def repair(complex: CellComplex, cost_model: CostModel, assignment) -> Matching:
    """Replace every inadmissible selected pair (i, j) with the two diagonals
    i and j. Each swap trades the penalty for 2*alpha, so the objective drops
    whenever there was anything to repair.

    The input must cover every cell exactly once (diagonals counted once).
    """
    entries = [tuple(e) for e in assignment]
    seen = [0] * len(complex)
    for i, j in entries:
        if i == j:
            seen[i] += 1
        else:
            seen[i] += 1
            seen[j] += 1
    bad = [k for k, cnt in enumerate(seen) if cnt != 1]
    if bad:
        raise ValueError(f"assignment does not cover cell {bad[0]} exactly once")

    matched = {}
    critical = set()
    for i, j in entries:
        if i == j:
            critical.add(i)
        elif _admissible(complex, i, j):
            matched[i] = j
        else:
            critical.add(i)
            critical.add(j)
    out = Matching(matched=matched, critical=frozenset(critical), objective=0.0)
    return Matching(matched=matched, critical=out.critical, objective=evaluate_matching(cost_model, out))


def objective_decomposition(matching: Matching, cost_model: CostModel) -> tuple[int, float, int]:
    """Split the objective into (matched count, sum of pair cosines, critical
    count); matched - cosine_sum + critical * alpha recovers the objective."""
    cosine_sum = math.fsum(1.0 - cost_model.pair_costs[pq] for pq in matching.pairs())
    return len(matching.matched), cosine_sum, len(matching.critical)
