"""Exact solvers for the cell matching program.

The program has one binary variable per admissible pair plus one diagonal
variable per cell, and one constraint per cell: exactly one incident variable
is selected. Feasible selections are exactly the partial matchings of the
admissibility graph with the unmatched cells declared critical.

One exact solver per problem class:

* solve_exact, the plain program: cells split by dimension parity always
  2-color the admissibility graph, so the program reduces to a square
  assignment problem with one dummy row/column per cell for the stay-critical
  option. Polynomial.
* solve_branch_and_bound, the program plus cycle-exclusion rows: a binary
  integer program solved by HiGHS' branch-and-cut (`scipy.optimize.milp`)
  with a relative gap of 0. Among equal optima it returns the one HiGHS'
  deterministic search reaches, which follows no documented order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import csr_array

from .complexes import CellComplex
from .costs import CostModel

__all__ = [
    "MatchingProblem",
    "Matching",
    "build_problem",
    "solve_exact",
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


def solve_exact(problem: MatchingProblem) -> Matching:
    """Global minimizer of the plain matching program, by assignment-problem
    reduction. Deterministic.

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
    """Exact optimum of the program plus cycle-exclusion rows, by HiGHS'
    branch-and-cut.

    `constraints` are sets of pair-variable indices of which at most |set| - 1
    may be selected together (cycle elimination rows). The relative gap is 0,
    so HiGHS stops only at a proven optimum; the default 1e-4 would accept
    worse answers. No time limit is set, so the result does not depend on the
    speed of the machine. Among equal optima the choice is HiGHS' own,
    deterministic but not lexicographic.
    """
    n = problem.n_cells
    if n == 0:
        return Matching(matched={}, critical=frozenset(), objective=0.0)
    cuts = [sorted(c) for c in constraints]
    for c in cuts:
        if not c or c[0] < 0 or c[-1] >= problem.n_pairs:
            raise ValueError("constraints must be non-empty sets of pair variable indices")

    rows = problem.cell_vars + cuts
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=indptr[-1])
    A = csr_array((np.ones(len(indices)), indices, indptr), shape=(len(rows), problem.m))
    lower = np.concatenate([np.ones(n), np.full(len(cuts), -np.inf)])
    upper = np.concatenate([np.ones(n), [len(c) - 1 for c in cuts]])
    res = milp(
        problem.costs,
        constraints=LinearConstraint(A, lower, upper),
        integrality=np.ones(problem.m),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS found no optimum: {res.message}")
    return _selection_to_matching(problem, np.flatnonzero(res.x > 0.5).tolist())


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
