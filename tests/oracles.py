"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: exhaustive enumeration instead of
search, rational arithmetic instead of floating-point filters. Slow is fine;
these only run on small instances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def enumerate_selections(problem):
    """Yield (selected_variable_tuple, objective) for every feasible selection
    of the matching program: each subset of pairwise-disjoint admissible pairs,
    completed by diagonals on the uncovered cells. Objectives are exact fsum
    over selected costs in variable-index order, matching the solver's own
    canonical summation."""
    pair_vars = list(range(problem.n_pairs))
    n = problem.n_cells
    for r in range(len(pair_vars) + 1):
        for combo in itertools.combinations(pair_vars, r):
            used: set[int] = set()
            ok = True
            for v in combo:
                i, j = problem.variables[v]
                if i in used or j in used:
                    ok = False
                    break
                used.add(i)
                used.add(j)
            if not ok:
                continue
            selected = list(combo) + [
                problem.n_pairs + c for c in range(n) if c not in used
            ]
            objective = math.fsum(problem.costs[v] for v in selected)
            yield tuple(selected), objective


def brute_force_optimum(problem, cuts=()):
    """Exact optimal objective by full enumeration. Each cut is a set of pair
    variables that may not all be selected together."""
    return min(
        objective
        for selected, objective in enumerate_selections(problem)
        if not any(set(cut) <= set(selected) for cut in cuts)
    )


def circumcircle_has_no_point_inside(points, triangle, others) -> bool:
    """Empty-circumcircle check in exact rational arithmetic, written from the
    determinant definition and nothing else."""
    ax, ay = (Fraction(float(points[triangle[0]][k])) for k in (0, 1))
    bx, by = (Fraction(float(points[triangle[1]][k])) for k in (0, 1))
    cx, cy = (Fraction(float(points[triangle[2]][k])) for k in (0, 1))
    orient = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    assert orient != 0, "degenerate triangle in output"
    for p in others:
        dx, dy = Fraction(float(points[p][0])), Fraction(float(points[p][1]))
        m = [
            [ax - dx, ay - dy, (ax - dx) ** 2 + (ay - dy) ** 2],
            [bx - dx, by - dy, (bx - dx) ** 2 + (by - dy) ** 2],
            [cx - dx, cy - dy, (cx - dx) ** 2 + (cy - dy) ** 2],
        ]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det * orient > 0:  # strictly inside
            return False
    return True


def dowker_cells_by_subsets(points, landmarks, radius):
    """Expected Dowker cells by direct definition: every landmark subset some
    data point is within `radius` of all of. Returns a set of sorted vertex
    tuples (including singletons)."""
    points = np.asarray(points, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    cells: set[tuple[int, ...]] = set()
    n_lm = len(landmarks)
    for size in range(1, n_lm + 1):
        for combo in itertools.combinations(range(n_lm), size):
            for p in points:
                if all(np.linalg.norm(landmarks[j] - p) < radius for j in combo):
                    cells.add(combo)
                    break
    return cells


def euler_characteristic(counts: dict[int, int]) -> int:
    return sum((-1) ** d * n for d, n in counts.items())


def sccs_by_reachability(succ):
    """Strongly connected components of an indexed adjacency list by
    definition: u and v share a component when each reaches the other.
    Returns sorted member tuples, ordered by smallest member."""
    n = len(succ)
    reach = []
    for u in range(n):
        seen = {u}
        stack = [u]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(seen)
    comps = {tuple(v for v in range(n) if v in reach[u] and u in reach[v]) for u in range(n)}
    return sorted(comps)


def shortest_cycle_by_bfs(succ):
    """Shortest cycle inside a multi-node strongly connected component by a
    breadth-first search, run to the end, from every node of every such
    component; ties toward the smaller node sequence. Returns the sequence
    from its first node, or None."""
    best = None
    for comp in sccs_by_reachability(succ):
        if len(comp) < 2:
            continue
        members = set(comp)
        for start in comp:
            parent = {}
            frontier = [start]
            seen = {start}
            path = None
            while frontier and path is None:
                nxt = []
                for u in frontier:
                    for v in succ[u]:
                        if v not in members:
                            continue
                        if v == start:
                            path = [u]
                            while path[-1] != start:
                                path.append(parent[path[-1]])
                            path = tuple(reversed(path))
                            break
                        if v not in seen:
                            seen.add(v)
                            parent[v] = u
                            nxt.append(v)
                    if path is not None:
                        break
                frontier = nxt
            if path is not None and (best is None or (len(path), path) < best):
                best = (len(path), path)
    return None if best is None else best[1]
