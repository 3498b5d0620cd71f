"""Exact solvers for the cell matching program.

The program has one binary variable per admissible pair plus one diagonal
variable per cell, and one constraint per cell: exactly one incident variable
is selected. Feasible selections are exactly the partial matchings of the
admissibility graph with the unmatched cells declared critical. Every solver
returns its selection as a `Matching` of two arrays: the selected rows of the
problem's `pairs` and the critical cells.

One exact solver per problem class:

* solve_exact, the plain program: cells split by dimension parity always
  2-color the admissibility graph, so the program reduces to a minimum-weight
  perfect matching on a sparse bipartite graph with one dummy per cell for the
  stay-critical option, solved by scipy's LAPJVsp (Jonker & Volgenant 1987).
  Polynomial; memory linear in the number of pairs and cells. The graph's
  shape depends only on the pairs and cell dimensions, so a `MatchingProblem`
  lays it out once, on construction, and a solve only prices its edges.
* solve_branch_and_bound, the program plus cycle-exclusion rows: an exact
  best-first branch-and-bound whose nodes forbid variables and are bounded by
  LAPJVsp on the same assignment graph with those variables' edges left out.
  A split node's children are solved together, as the blocks of one
  block-diagonal graph per LAPJVsp call, up to `MAX_BATCH_ROWS` rows a call.
  Among equal optima it returns the first solution that violates no row, in
  (bound, node creation) order. A `SearchFrontier` keeps the open nodes
  between calls, so a call with more rows resumes the search, up to
  `MAX_SEARCH_NODES` nodes in all.

`AssignmentGraph.select` is the one LAPJVsp call and the only code that knows
the graph's CSR layout; given `forbid`, a mask of variables per row, it solves
one graph per row, with those variables' edges left out.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

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
    "SearchFrontier",
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
    """The sparse bipartite graph every solver hands to LAPJVsp, laid out
    once per problem; a solve only prices its edges. `select` is the one
    place that prices it and calls LAPJVsp.

    Rows are even-parity cells plus one dummy per odd cell; columns are odd
    cells plus one dummy per even cell. Edges: each admissible pair, each cell
    to its own dummy (the cell stays critical), and each pair's two dummies to
    each other at cost 0, so the dummies of a matched pair cover one another.
    Listed in that order, edge k < m carries variable k's cost; `order` sorts
    them into CSR order (rows ascending, columns ascending within a row), the
    order `indices` and `indptr` describe, and `slot` is its inverse, the CSR
    slot of each edge. LAPJVsp's choice among tied optima depends on that
    order, so it is the one scipy's COO-to-CSR conversion gives.
    """

    pair_row: np.ndarray  # (n_pairs,) row of each pair's even cell
    pair_col: np.ndarray  # (n_pairs,) column of its odd cell
    order: np.ndarray  # (2 * n_pairs + n_cells,) edge of each CSR slot
    slot: np.ndarray  # (2 * n_pairs + n_cells,) CSR slot of each edge
    indices: np.ndarray
    indptr: np.ndarray
    _priced: object = field(default=None, init=False, repr=False)  # what `select` re-prices

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
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(r, c, order, slot, cols[order], indptr)

    def _weights(self, costs: np.ndarray) -> np.ndarray:
        """Edge weights in CSR order: variable k's edge at costs[k], the dummy
        pairs at 0."""
        weights = np.concatenate([np.asarray(costs, dtype=float), np.zeros(len(self.pair_row))])
        weights = weights[self.order]
        # scipy drops explicit zeros; the smallest subnormal is absorbed by any
        # sum with a normal float, so it keeps the edge without moving a cost
        weights[weights == 0.0] = np.nextafter(0.0, 1.0)
        return weights

    def select(self, costs: np.ndarray, forbid: np.ndarray | None = None) -> np.ndarray:
        """Pair selection, a boolean mask over the pairs, of LAPJVsp's optimum
        on the graph priced by `costs`, one per variable and finite: LAPJVsp
        never returns on NaN. The graph keeps one priced CSR array and
        re-prices it in place, which skips scipy's sparse-array construction
        and checks; calls on one graph must not overlap.

        With `forbid`, a (k, m) mask of variables, it returns (k, n_pairs):
        row j is the selection with row j's variables' edges left out, the
        kept edges in their CSR order. The k graphs are the blocks of one
        block-diagonal graph per call, up to `MAX_BATCH_ROWS` rows a call.
        LAPJVsp's shortest paths never leave a block, and on every case tried
        each block got the matching a call on its own returns."""
        n = len(self.indptr) - 1
        if forbid is None:
            if self._priced is None:
                priced = csr_array((self._weights(costs), self.indices, self.indptr), shape=(n, n))
                object.__setattr__(self, "_priced", priced)
            else:
                self._priced.data[:] = self._weights(costs)
            _, col_of_row = min_weight_full_bipartite_matching(self._priced)
            return col_of_row[self.pair_row] == self.pair_col
        weights = self._weights(costs)
        edges = len(weights)
        per_call = max(1, MAX_BATCH_ROWS // max(n, 1))
        hits = []
        for i in range(0, len(forbid), per_call):
            block = forbid[i : i + per_call]
            k = len(block)
            keep = np.ones((k, edges), dtype=bool)
            keep[:, self.slot[: block.shape[1]]] = ~block
            offset = n * np.arange(k)[:, None]
            kept = np.concatenate([[0], np.cumsum(keep)])
            starts = (edges * np.arange(k)[:, None] + self.indptr[:-1]).ravel()
            union = csr_array(
                (
                    np.broadcast_to(weights, keep.shape)[keep],
                    (self.indices + offset)[keep],
                    kept[np.append(starts, k * edges)],
                ),
                shape=(k * n, k * n),
            )
            _, col_of_row = min_weight_full_bipartite_matching(union)
            hits.append(col_of_row.reshape(k, n)[:, self.pair_row] - offset == self.pair_col)
        return np.concatenate(hits)


# Rows one LAPJVsp call may hold when `AssignmentGraph.select` solves several
# masked graphs together. scipy's fixed cost per call, about 150 us of
# sparse-array construction and checks, dominates small graphs, but past some
# 2,000 rows one call on a union of blocks costs more than a call per block.
# Measured on a 2-core host, six children in one call against six calls:
# 25-225 rows each, 0.22-0.47 ms against 0.92-1.20 ms; 961 rows each
# (cubical `intro`), 3.42 ms against 2.67 ms. Whole searches on 12x12 and
# 16x16 `intro` lattices: 529 cells, 0.64 s with a call per child against
# 0.46-0.48 s with three to five per call; 961 cells, 11.6 s against
# 12.6-12.9 s with two or three. This cap gives three per call at 529 cells
# and one at 961.
MAX_BATCH_ROWS = 1_600


@dataclass
class MatchingProblem:
    """Variables are the admissible pairs, rows of `pairs` in (lower, upper)
    order, then one diagonal (stay critical) per cell; `costs` prices them in
    that order.

    `graph` is the assignment graph of `pairs` and `dims`, laid out on
    construction, so no problem carries another problem's layout.
    """

    pairs: np.ndarray  # (n_pairs, 2)
    costs: np.ndarray  # (n_pairs + n_cells,)
    dims: np.ndarray  # (n_cells,)
    graph: AssignmentGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.graph = AssignmentGraph.build(self.pairs, self.dims)

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


def build_problem(cost_model: CostModel, complex: CellComplex) -> MatchingProblem:
    n = len(complex)
    if cost_model.n_cells != n:
        raise ValueError("cost model and complex disagree on cell count")
    return MatchingProblem(
        pairs=cost_model.pairs,
        costs=np.concatenate([cost_model.pair_costs, np.full(n, cost_model.alpha)]),
        dims=complex.dims,
    )


@dataclass(frozen=True, eq=False)
class Matching:
    """A partial self-matching of the complex as arrays: `pairs` is (k, 2)
    int64, one (lower, upper) row per matched lower cell and its codim-1
    coface, sorted by (lower, upper); `critical` holds the cells left
    critical, ascending. Construction sorts both and keeps repeats, so the
    order they were built in never shows and `verify_matching` sees a cell
    named twice."""

    pairs: np.ndarray
    critical: np.ndarray
    objective: float

    def __post_init__(self):
        pairs = _cell_ids(self.pairs).reshape(-1, 2)
        object.__setattr__(self, "pairs", pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])
        object.__setattr__(self, "critical", np.sort(_cell_ids(self.critical).reshape(-1)))


def evaluate_matching(cost_model: CostModel, matching: Matching) -> float:
    """Canonical objective of a matching: pair costs in (lower, upper) order,
    then alpha per critical cell, summed exactly."""
    terms = cost_model.costs_of(matching.pairs).tolist()
    terms += [cost_model.alpha] * len(matching.critical)
    return math.fsum(terms)


def _check_finite(pairs: np.ndarray, costs: np.ndarray) -> None:
    """Raise a ValueError naming the first variable whose cost is not finite:
    LAPJVsp never returns on NaN."""
    bad = np.flatnonzero(~np.isfinite(costs))
    if len(bad):
        v = int(bad[0])
        var = f"pair {tuple(pairs[v].tolist())}" if v < len(pairs) else f"diagonal of cell {v - len(pairs)}"
        raise ValueError(f"cost of variable {v} ({var}) is {costs[v]}, not finite")


def _critical_and_objective(pairs: np.ndarray, costs: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, float]:
    """Cells left critical by the pair selection `hit`, and its objective:
    the selected variables' costs in variable order, summed exactly."""
    lo, up = pairs.T
    critical = np.ones(len(costs) - len(pairs), dtype=bool)
    critical[lo[hit]] = critical[up[hit]] = False
    return critical, math.fsum(costs[np.concatenate([hit, critical])].tolist())


def _selection_matching(pairs: np.ndarray, costs: np.ndarray, hit: np.ndarray) -> Matching:
    critical, objective = _critical_and_objective(pairs, costs, hit)
    return Matching(pairs[hit], np.flatnonzero(critical), objective)


def solve_exact(problem: MatchingProblem) -> Matching:
    """Global minimizer of the plain matching program, by a sparse
    minimum-weight perfect matching (LAPJVsp) on the problem's assignment
    graph (see `AssignmentGraph`). Deterministic. A cost that is not finite
    raises a ValueError naming its variable: LAPJVsp never returns on NaN.
    """
    _check_finite(problem.pairs, problem.costs)
    return _selection_matching(problem.pairs, problem.costs, problem.graph.select(problem.costs))


MAX_SEARCH_NODES = 200_000  # nodes one `SearchFrontier` may create, read at each push


@dataclass(eq=False)
class SearchFrontier:
    """The open nodes of `solve_branch_and_bound`'s search on one problem,
    kept between calls: a call with more rows resumes from them instead of
    starting over. Rows only ever remove selections, so the open nodes still
    cover every selection the new rows allow, and their bounds still hold.

    Every node is solved when it is made. A heap entry is (bound, created,
    forbidden, selected): the node's LAPJVsp optimum, a lower bound on its
    selections; its creation counter; the mask of the m variables it
    forbids; and its optimal pair selection, both masks packed by
    `np.packbits`. The search raises a RuntimeError when it would create more
    than `MAX_SEARCH_NODES` nodes.
    """

    heap: list = field(default_factory=list, init=False)
    created: int = field(default=0, init=False)

    def seed(self, problem: MatchingProblem, root: Matching) -> None:
        """Push `root`, `solve_exact`'s matching of `problem`, as the root
        node, so the search does not solve it again."""
        hit = np.zeros(problem.n_pairs, dtype=bool)
        hit[pair_rows(problem.pairs, problem.n_cells, root.pairs)] = True
        self.push(root.objective, np.packbits(np.zeros(problem.m, dtype=bool)), np.packbits(hit))

    def push(self, bound: float, forbidden: np.ndarray, selected: np.ndarray):
        if self.created >= MAX_SEARCH_NODES:
            raise RuntimeError(
                f"branch-and-bound ran out of its budget of {MAX_SEARCH_NODES} nodes "
                f"({self.created} created, {len(self.heap)} open)"
            )
        heapq.heappush(self.heap, (bound, self.created, forbidden, selected))
        self.created += 1


def solve_branch_and_bound(
    problem: MatchingProblem,
    constraints: tuple[frozenset[int], ...] = (),
    frontier: SearchFrontier | None = None,
) -> Matching:
    """Exact optimum of the program plus cycle-exclusion rows, by best-first
    branch-and-bound over the assignment graph of `solve_exact`.

    `constraints` are sets of pair-variable indices of which at most |set| - 1
    may be selected together (cycle elimination rows). A node forbids a set
    of variables; its bound is the LAPJVsp optimum on the assignment graph
    with their edges left out, the kept edges in their CSR order. Nodes pop
    in (bound, creation) order. A popped solution that selects every pair of
    some row is split on the smallest such row (the first listed among equal
    sizes), S = {s_1 < ... < s_k}, into k children: child j forbids s_j and
    fixes s_1..s_{j-1}, where fixing a pair forbids every other variable at
    its two cells. The first popped solution that violates no row is optimal,
    and among equal optima it is the one returned.

    A node's children are solved together as soon as it is split, by one
    masked `AssignmentGraph.select`, and pushed with their own bounds.

    Every child has a full matching. The pairs fixed along its path are all
    selected by its parent's solution, so they are disjoint; they are the
    only variables left at their cells, and every other cell keeps its
    diagonal. A child that would forbid a pair an ancestor fixed would leave
    that pair's cells no variable, so it is not made.

    `frontier` carries the open nodes from a previous call on the same
    problem (and is left holding the returned node); without one the search
    starts from `solve_exact`'s root.
    """
    n = problem.n_cells
    cuts = [np.array(sorted(c), dtype=np.int32) for c in constraints]
    for c in cuts:
        if not len(c) or c[0] < 0 or c[-1] >= problem.n_pairs:
            raise ValueError("constraints must be non-empty sets of pair variable indices")
    if frontier is None:
        frontier = SearchFrontier()
    if frontier.created == 0:
        frontier.seed(problem, solve_exact(problem))

    row_len = np.array([len(c) for c in cuts], dtype=np.intp)
    row_vars = np.concatenate([np.empty(0, dtype=np.int32), *cuts])
    row_of = np.repeat(np.arange(len(cuts)), row_len)
    # the pair variables at cell c are at_cell[cell_ptr[c]:cell_ptr[c + 1]]
    ends = problem.pairs.ravel()
    at_cell = np.argsort(ends, kind="stable") // 2
    cell_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n), out=cell_ptr[1:])

    heap = frontier.heap
    while heap:
        entry = heapq.heappop(heap)
        _, _, forbidden, selected = entry
        hit = np.unpackbits(selected, count=problem.n_pairs).view(bool)
        violated = np.bincount(row_of[hit[row_vars]], minlength=len(cuts)) == row_len
        if not violated.any():
            heapq.heappush(heap, entry)
            return _selection_matching(problem.pairs, problem.costs, hit)
        row = cuts[int(np.argmin(np.where(violated, row_len, np.iinfo(np.intp).max)))]
        # the node's forbidden variables, then those of each pair fixed so far
        mask = np.unpackbits(forbidden, count=problem.m).view(bool)
        children = []
        for s in row.tolist():
            lo, up = problem.pairs[s]
            # a pair an ancestor fixed has lost its lower cell's diagonal
            if not mask[problem.n_pairs + lo]:
                children.append(mask.copy())
                children[-1][s] = True
            # fixing s forbids every other variable at its two cells
            mask[at_cell[cell_ptr[lo] : cell_ptr[lo + 1]]] = True
            mask[at_cell[cell_ptr[up] : cell_ptr[up + 1]]] = True
            mask[[problem.n_pairs + lo, problem.n_pairs + up]] = True
            mask[s] = False
        if not children:
            continue
        for child, child_hit in zip(children, problem.graph.select(problem.costs, np.array(children))):
            _, objective = _critical_and_objective(problem.pairs, problem.costs, child_hit)
            frontier.push(objective, np.packbits(child), np.packbits(child_hit))
    raise RuntimeError("no selection satisfies the rows")


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

    def raise_if_invalid(self) -> None:
        """Raise a ValueError naming the first violation, if there is one."""
        if self.violations:
            first = self.violations[0]
            raise ValueError(f"matching is not valid: {first.kind}: {first.detail}")


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
    covered, the critical cells disjoint from the pairs, and none named twice.

    Accepts a Matching, or a raw iterable of (lower, upper) pairs together
    with an explicit iterable of critical cells (which the Matching form
    carries itself). Ids may be negative or out of range; those are
    reported, not indexed.
    """
    if isinstance(matching, Matching):
        P, crit = matching.pairs, matching.critical
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
    for c, cnt in zip(named[n_crit > 1].tolist(), n_crit[n_crit > 1].tolist()):
        violations.append(Violation("two_critical", (c,), f"cell {c} is critical {cnt} times"))
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

    entries = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
    keep = complex.pair_index(entries) >= 0
    # a diagonal (i, i) is never admissible; each dropped row leaves its cells critical
    out = Matching(entries[keep], np.unique(entries[~keep]), 0.0)
    return replace(out, objective=evaluate_matching(cost_model, out))


def objective_decomposition(matching: Matching, cost_model: CostModel) -> tuple[int, float, int]:
    """Split the objective into (matched count, sum of pair cosines, critical
    count); matched - cosine_sum + critical * alpha recovers the objective."""
    cosine_sum = math.fsum((1.0 - cost_model.costs_of(matching.pairs)).tolist())
    return len(matching.pairs), cosine_sum, len(matching.critical)
