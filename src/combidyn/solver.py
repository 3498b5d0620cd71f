"""Exact solvers for the cell matching program.

The program has one binary variable per admissible pair plus one diagonal
variable per cell, and one constraint per cell: exactly one incident variable
is selected. Feasible selections are exactly the partial matchings of the
admissibility graph with the unmatched cells declared critical.

One exact solver per problem class:

* solve_exact, the plain program: cells split by dimension parity always
  2-color the admissibility graph, so the program reduces to a minimum-weight
  perfect matching on a sparse bipartite graph with one dummy per cell for the
  stay-critical option, solved by scipy's LAPJVsp (Jonker & Volgenant 1987).
  Polynomial; memory linear in the number of pairs and cells. The graph's
  shape depends only on the pairs and cell dimensions, so `build_problem`
  lays it out once and a solve only prices its edges.
* solve_branch_and_bound, the program plus cycle-exclusion rows: a binary
  integer program solved by HiGHS' branch-and-cut (`scipy.optimize.milp`)
  with a relative gap of 0. Among equal optima it returns the one HiGHS'
  deterministic search reaches, which follows no documented order.
  `scipy.optimize` is imported on the first such solve: it takes about a
  third of the package's import time, and only constraint mode needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .complexes import CellComplex, pair_rows
from .costs import CostModel

__all__ = [
    "AssignmentGraph",
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


@dataclass(frozen=True, eq=False)
class AssignmentGraph:
    """The sparse bipartite graph `solve_exact` hands to LAPJVsp, laid out
    once per problem; a solve only prices its edges.

    Rows are even-parity cells plus one dummy per odd cell; columns are odd
    cells plus one dummy per even cell. Edges: each admissible pair, each cell
    to its own dummy (the cell stays critical), and each pair's two dummies to
    each other at cost 0, so the dummies of a matched pair cover one another.
    Listed in that order, edge k < m carries variable k's cost; `order` sorts
    them into CSR order (rows ascending, columns ascending within a row), the
    order `indices` and `indptr` describe. LAPJVsp's choice among tied optima
    depends on that order, so it is the one scipy's COO-to-CSR conversion
    gives.

    The layout depends only on the problem's `pairs` and `dims`; it keeps
    those arrays to tell whether it still fits a problem.
    """

    pairs: np.ndarray
    dims: np.ndarray
    pair_row: np.ndarray  # (n_pairs,) row of each pair's even cell
    pair_col: np.ndarray  # (n_pairs,) column of its odd cell
    order: np.ndarray  # (2 * n_pairs + n_cells,) edge of each CSR slot
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def build(cls, pairs: np.ndarray, dims: np.ndarray) -> "AssignmentGraph":
        even = np.asarray(dims) % 2 == 0
        n = len(even)
        ne = int(even.sum())
        no = n - ne
        pos = np.empty(n, dtype=np.intp)  # index of a cell among its own parity
        pos[even] = np.arange(ne)
        pos[~even] = np.arange(no)
        lo, up = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        lo_even = even[lo]
        r = pos[np.where(lo_even, lo, up)]
        c = pos[np.where(lo_even, up, lo)]
        rows = np.concatenate([r, np.where(even, pos, ne + pos), ne + c])
        cols = np.concatenate([c, np.where(even, no + pos, pos), no + r])
        order = np.lexsort((cols, rows))  # no edge is listed twice
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(pairs, dims, r, c, order, cols[order], indptr)

    def weighted(self, costs: np.ndarray) -> csr_array:
        """The graph with variable k's edge at costs[k] and the dummy pairs at 0."""
        weights = np.concatenate([np.asarray(costs, dtype=float), np.zeros(len(self.pair_row))])
        weights = weights[self.order]
        # scipy drops explicit zeros; the smallest subnormal is absorbed by any
        # sum with a normal float, so it keeps the edge without moving a cost
        weights[weights == 0.0] = np.nextafter(0.0, 1.0)
        n = len(self.indptr) - 1
        return csr_array((weights, self.indices, self.indptr), shape=(n, n))


@dataclass
class MatchingProblem:
    """Variables are the admissible pairs, rows of `pairs` in (lower, upper)
    order, then one diagonal (stay critical) per cell; `costs` prices them in
    that order.

    `graph` is the assignment graph `solve_exact` prices. `build_problem`
    lays it out and `dataclasses.replace` carries it, so problems that differ
    only in costs share it. A problem without one, or whose `pairs` or `dims`
    are not the arrays it was laid out for, gets a new one per solve.
    """

    pairs: np.ndarray  # (n_pairs, 2)
    costs: np.ndarray  # (n_pairs + n_cells,)
    dims: np.ndarray  # (n_cells,)
    graph: AssignmentGraph | None = field(default=None, repr=False, compare=False)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_cells(self) -> int:
        return len(self.dims)

    @property
    def m(self) -> int:
        return len(self.costs)

    def diagonal_var(self, cell: int) -> int:
        return self.n_pairs + cell

    def pair_var(self, lower: int, upper: int) -> int:
        row = int(pair_rows(self.pairs, self.n_cells, [(lower, upper)])[0])
        if row < 0:
            raise KeyError((lower, upper))
        return row

    def assignment_graph(self) -> AssignmentGraph:
        """`graph` when it fits `pairs` and `dims`, else a new layout."""
        g = self.graph
        if g is not None and g.pairs is self.pairs and g.dims is self.dims:
            return g
        return AssignmentGraph.build(self.pairs, self.dims)


def build_problem(cost_model: CostModel, complex: CellComplex) -> MatchingProblem:
    n = len(complex)
    if cost_model.n_cells != n:
        raise ValueError("cost model and complex disagree on cell count")
    return MatchingProblem(
        pairs=cost_model.pairs,
        costs=np.concatenate([cost_model.pair_costs, np.full(n, cost_model.alpha)]),
        dims=complex.dims,
        graph=AssignmentGraph.build(cost_model.pairs, complex.dims),
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
    terms = cost_model.costs_of(matching.pairs()).tolist()
    terms += [cost_model.alpha] * len(matching.critical)
    return math.fsum(terms)


def _selection_to_matching(problem: MatchingProblem, selected: np.ndarray) -> Matching:
    """Matching of the ascending selected variable indices; the objective is
    re-summed from the problem's own costs."""
    is_pair = selected < problem.n_pairs
    lo, up = problem.pairs[selected[is_pair]].T
    return Matching(
        matched=dict(zip(lo.tolist(), up.tolist())),
        critical=frozenset((selected[~is_pair] - problem.n_pairs).tolist()),
        objective=math.fsum(problem.costs[selected].tolist()),
    )


def solve_exact(problem: MatchingProblem) -> Matching:
    """Global minimizer of the plain matching program, by a sparse
    minimum-weight perfect matching (LAPJVsp) on the problem's assignment
    graph (see `AssignmentGraph`). Deterministic.
    """
    n = problem.n_cells
    if n == 0:
        return Matching(matched={}, critical=frozenset(), objective=0.0)
    graph = problem.assignment_graph()
    _, col_of_row = min_weight_full_bipartite_matching(graph.weighted(problem.costs))
    hit = col_of_row[graph.pair_row] == graph.pair_col
    lo, up = problem.pairs.T
    critical = np.ones(n, dtype=bool)
    critical[lo[hit]] = critical[up[hit]] = False
    selected = np.concatenate([np.flatnonzero(hit), problem.n_pairs + np.flatnonzero(critical)])
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
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = problem.n_cells
    if n == 0:
        return Matching(matched={}, critical=frozenset(), objective=0.0)
    cuts = [sorted(c) for c in constraints]
    for c in cuts:
        if not c or c[0] < 0 or c[-1] >= problem.n_pairs:
            raise ValueError("constraints must be non-empty sets of pair variable indices")

    # row k lists the variables of cell k in ascending order: its pairs, then
    # its diagonal; the cut rows follow
    pair_var = np.arange(problem.n_pairs)
    cell = np.concatenate([problem.pairs[:, 0], problem.pairs[:, 1], np.arange(n)])
    col = np.concatenate([pair_var, pair_var, problem.n_pairs + np.arange(n)])
    indices = np.concatenate(
        [col[np.lexsort((col, cell))], np.array([v for c in cuts for v in c], dtype=np.intp)]
    )
    row_len = np.concatenate(
        [np.bincount(cell, minlength=n), np.array([len(c) for c in cuts], dtype=np.intp)]
    )
    indptr = np.zeros(n + len(cuts) + 1, dtype=np.intp)
    np.cumsum(row_len, out=indptr[1:])
    A = csr_array((np.ones(len(indices)), indices, indptr), shape=(n + len(cuts), problem.m))
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
    return _selection_to_matching(problem, np.flatnonzero(res.x > 0.5))


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


def _cell_ids(values) -> np.ndarray:
    """Cell ids as int64; integral floats pass, any other value raises."""
    ids = np.asarray(values)
    if ids.dtype.kind in "iu":
        return ids.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        out = ids.astype(np.int64)
    bad = out != ids
    if bad.any():
        raise ValueError(f"cell id {ids[bad][0]} is not an integer")
    return out


def verify_matching(complex: CellComplex, matching, critical=None) -> VerificationReport:
    """Check the partial-matching axioms: each matched pair admissible, the map
    single-valued and injective, no cell both source and target, every cell
    covered, and the critical set disjoint from the pairs.

    Accepts a Matching, or a raw iterable of (lower, upper) pairs together
    with an explicit critical set (which the Matching form carries itself).
    Ids may be negative or out of range; those are reported, not indexed.
    """
    if isinstance(matching, Matching):
        P = _cell_ids([list(matching.matched), list(matching.matched.values())]).T
        P = P[np.argsort(P[:, 0])]  # lowers are distinct: the order of pairs()
        critical = matching.critical
    else:
        P = _cell_ids([tuple(p) for p in matching]).reshape(-1, 2)
    crit = _cell_ids(list(critical or ()))
    n = len(complex)

    violations: list[Violation] = []
    for lo, up in P[complex.pair_index(P) < 0].tolist():
        violations.append(
            Violation("non_admissible", (lo, up), f"({lo}, {up}) is not a codim-1 face pair")
        )
    # every id named anywhere, ascending, with how often it is a lower, an
    # upper and a critical cell; ids may be negative or out of range, so
    # they are sorted, not counted by position
    ids = np.concatenate([P[:, 0], P[:, 1], crit])
    role = np.repeat([0, 1, 2], [len(P), len(P), len(crit)])
    order = np.argsort(ids)
    ids = ids[order]
    first = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    named = ids[first]
    run = np.cumsum(first) - 1
    counts = np.bincount(3 * run + role[order], minlength=3 * len(named))
    n_lower, n_upper, n_crit = counts.reshape(-1, 3).T

    for lo, cnt in zip(named[n_lower > 1].tolist(), n_lower[n_lower > 1].tolist()):
        violations.append(Violation("two_out", (lo,), f"cell {lo} matched upward {cnt} times"))
    for up, cnt in zip(named[n_upper > 1].tolist(), n_upper[n_upper > 1].tolist()):
        violations.append(Violation("two_in", (up,), f"cell {up} receives {cnt} matches"))
    for c in named[(n_lower > 0) & (n_upper > 0)].tolist():
        violations.append(
            Violation("in_and_out", (c,), f"cell {c} is both a source and a target")
        )
    for c in named[(n_crit > 0) & (n_lower + n_upper > 0)].tolist():
        violations.append(
            Violation("critical_in_pair", (c,), f"critical cell {c} also appears in a pair")
        )
    known = (named >= 0) & (named < n)
    covered = np.zeros(n, dtype=bool)
    covered[named[known]] = True
    for c in np.flatnonzero(~covered).tolist():
        violations.append(Violation("uncovered", (c,), f"cell {c} is neither matched nor critical"))
    for c in named[~known].tolist():
        violations.append(Violation("unknown_cell", (c,), f"cell {c} is not in the complex"))
    return VerificationReport(violations)


def assignment_objective(cost_model: CostModel, assignment) -> float:
    """Objective of a full (possibly inadmissible) assignment under the square
    formulation: diagonal alpha, admissible pair cost, penalty otherwise."""
    ends = np.asarray(sorted(assignment), dtype=np.int64).reshape(-1, 2)
    rows = pair_rows(cost_model.pairs, cost_model.n_cells, ends)
    priced = np.append(cost_model.pair_costs, cost_model.penalty)[rows]  # row -1 is the penalty
    return math.fsum(np.where(ends[:, 0] == ends[:, 1], cost_model.alpha, priced).tolist())


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

    admissible = (complex.pair_index(entries) >= 0).tolist()
    matched = {}
    critical = set()
    for (i, j), ok in zip(entries, admissible):
        if i == j:
            critical.add(i)
        elif ok:
            matched[i] = j
        else:
            critical.add(i)
            critical.add(j)
    out = Matching(matched=matched, critical=frozenset(critical), objective=0.0)
    return Matching(matched=matched, critical=out.critical, objective=evaluate_matching(cost_model, out))


def objective_decomposition(matching: Matching, cost_model: CostModel) -> tuple[int, float, int]:
    """Split the objective into (matched count, sum of pair cosines, critical
    count); matched - cosine_sum + critical * alpha recovers the objective."""
    cosine_sum = math.fsum((1.0 - cost_model.costs_of(matching.pairs())).tolist())
    return len(matching.matched), cosine_sum, len(matching.critical)
