"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: exhaustive enumeration instead of
search, rational arithmetic instead of floating-point filters. Slow is fine;
these only run on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from combidyn.builders import _SUPER_SCALES, _incircle, _orient2d
from combidyn.complexes import pair_rows
from combidyn.dynamics import _flow_successors
from combidyn.gradient import DEFAULT_ALPHA_GRID, is_gradient
from combidyn.pipeline import ParseError
from combidyn.solver import Matching, build_problem, evaluate_matching, solve_exact


def enumerate_selections(problem):
    """Yield (selected_variable_tuple, objective) for every feasible selection
    of the matching program: each subset of pairwise-disjoint admissible pairs,
    completed by diagonals on the uncovered cells. Objectives are exact fsum
    over selected costs in variable-index order, matching the solver's own
    canonical summation."""
    pair_vars = list(range(problem.n_pairs))
    pairs = problem.pairs.tolist()
    costs = problem.costs.tolist()
    n = problem.n_cells
    for r in range(len(pair_vars) + 1):
        for combo in itertools.combinations(pair_vars, r):
            used: set[int] = set()
            ok = True
            for v in combo:
                i, j = pairs[v]
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
            objective = math.fsum(costs[v] for v in selected)
            yield tuple(selected), objective


def brute_force_optimum(problem, cuts=()):
    """Exact optimal objective by full enumeration. Each cut is a set of pair
    variables that may not all be selected together."""
    return min(
        objective
        for selected, objective in enumerate_selections(problem)
        if not any(set(cut) <= set(selected) for cut in cuts)
    )


def milp_optimum(problem, cuts=()):
    """Exact optimal objective by HiGHS' branch-and-cut (`scipy.optimize.milp`)
    on the program written out as an integer program: one equality row per
    cell over its incident variables, one row per cut allowing at most
    |cut| - 1 of its pair variables. The relative gap is 0, so HiGHS stops
    only at a proven optimum. The objective is the fsum of the selected
    costs in variable-index order."""
    n, m = problem.n_cells, problem.m
    if n == 0:
        return 0.0
    cuts = [sorted(c) for c in cuts]
    pair_var = np.arange(problem.n_pairs)
    cell = np.concatenate([problem.pairs[:, 0], problem.pairs[:, 1], np.arange(n)])
    col = np.concatenate([pair_var, pair_var, problem.n_pairs + np.arange(n)])
    rows = np.concatenate([cell, np.repeat(n + np.arange(len(cuts)), [len(c) for c in cuts])])
    cols = np.concatenate([col, np.array([v for c in cuts for v in c], dtype=np.intp)])
    A = csr_array((np.ones(len(rows)), (rows, cols)), shape=(n + len(cuts), m))
    lower = np.concatenate([np.ones(n), np.full(len(cuts), -np.inf)])
    upper = np.concatenate([np.ones(n), [len(c) - 1 for c in cuts]])
    res = milp(
        problem.costs,
        constraints=LinearConstraint(A, lower, upper),
        integrality=np.ones(m),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return math.fsum(problem.costs[res.x > 0.5].tolist())


def dense_assignment_selection(problem):
    """Optimal selection of the plain program (no cut rows) by the dense
    square assignment reduction: rows are even-parity cells plus one dummy per
    odd cell, columns odd cells plus one dummy per even cell, missing edges
    are `inf` and the dummy-dummy block is free. Returns the selected variable
    indices, sorted. Memory is quadratic in the cell count."""
    n = problem.n_cells
    evens = [k for k in range(n) if problem.dims[k] % 2 == 0]
    odds = [k for k in range(n) if problem.dims[k] % 2 == 1]
    epos = {k: i for i, k in enumerate(evens)}
    opos = {k: i for i, k in enumerate(odds)}
    ne, no = len(evens), len(odds)

    M = np.full((ne + no, no + ne), np.inf)
    M[ne:, no:] = 0.0
    pair_at = {}
    for v in range(problem.n_pairs):
        lo, up = problem.pairs[v].tolist()
        e, o = (lo, up) if problem.dims[lo] % 2 == 0 else (up, lo)
        r, c = epos[e], opos[o]
        M[r, c] = problem.costs[v]
        pair_at[(r, c)] = v
    for k in evens:
        M[epos[k], no + epos[k]] = problem.costs[problem.n_pairs + k]
    for k in odds:
        M[ne + opos[k], opos[k]] = problem.costs[problem.n_pairs + k]

    selected = []
    for r, c in zip(*linear_sum_assignment(M)):
        if r < ne and c < no:
            selected.append(pair_at[(r, c)])
        elif r < ne:
            selected.append(problem.n_pairs + evens[r])
        elif c < no:
            selected.append(problem.n_pairs + odds[c])
    return sorted(selected)


def assignment_matrix_by_coo(problem):
    """The sparse assignment graph of the plain program, built from scratch
    as one COO matrix and converted by scipy: rows are even-parity cells plus
    one dummy per odd cell, columns odd cells plus one dummy per even cell;
    edges are the pairs at their costs, each cell to its own dummy at its
    diagonal cost, and each pair's two dummies to each other at cost 0. Zero
    weights become the smallest subnormal, which scipy keeps. Returns the
    matrix and the (row, column) of each pair."""
    n = problem.n_cells
    even = np.asarray(problem.dims) % 2 == 0
    ne = int(even.sum())
    no = n - ne
    pos = np.empty(n, dtype=np.intp)
    pos[even] = np.arange(ne)
    pos[~even] = np.arange(no)
    lo, up = problem.pairs.T
    lo_even = even[lo]
    r = pos[np.where(lo_even, lo, up)]
    c = pos[np.where(lo_even, up, lo)]
    rows = np.concatenate([r, np.where(even, pos, ne + pos), ne + c])
    cols = np.concatenate([c, np.where(even, no + pos, pos), no + r])
    weights = np.concatenate([np.asarray(problem.costs, dtype=float), np.zeros(len(r))])
    weights[weights == 0.0] = np.nextafter(0.0, 1.0)
    return csr_array((weights, (rows, cols)), shape=(n, n)), r, c


def sparse_selection_by_coo(problem):
    """Optimal selection of the plain program by LAPJVsp on
    `assignment_matrix_by_coo`: the pairs whose edge is matched, then the
    diagonals of the cells no matched pair covers. Returns the selected
    variable indices, sorted."""
    n = problem.n_cells
    if n == 0:
        return []
    matrix, r, c = assignment_matrix_by_coo(problem)
    _, col_of_row = min_weight_full_bipartite_matching(matrix)
    hit = col_of_row[r] == c
    critical = np.ones(n, dtype=bool)
    critical[problem.pairs[hit].ravel()] = False
    return np.flatnonzero(hit).tolist() + (problem.n_pairs + np.flatnonzero(critical)).tolist()


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


def gradient_optimum(complex, problem):
    """Objective of the cheapest gradient matching, by full enumeration: the
    cheapest selection whose flow, given by `_flow_successors`, has only
    single-cell strongly connected components by `sccs_by_reachability`."""
    n_pairs = problem.n_pairs
    for objective, selected in sorted((obj, sel) for sel, obj in enumerate_selections(problem)):
        chosen = [v for v in selected if v < n_pairs]
        matching = Matching(
            pairs=problem.pairs[chosen],
            critical=[v - n_pairs for v in selected if v >= n_pairs],
            objective=objective,
        )
        ptr, idx = _flow_successors(complex, matching)
        succ = [idx[a:b].tolist() for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]
        if all(len(comp) == 1 for comp in sccs_by_reachability(succ)):
            return objective
    raise AssertionError("no gradient selection; the all-critical one always is")


def alpha_sweep_by_grid(complex, cost_model):
    """`gradient.alpha_sweep` by solving every grid value in turn: the first
    grid alpha whose `solve_exact` optimum is gradient, with that matching,
    testing acyclicity only when the pairs differ from the step before, and
    like the sweep the last grid value with the all-critical matching when
    the pairs at alpha 0 are still the last cyclic ones."""
    problem = build_problem(cost_model, complex)
    pair_costs = problem.costs[: problem.n_pairs]
    cyclic = None  # pairs of the last matching found not gradient
    for alpha in DEFAULT_ALPHA_GRID:
        costs = np.concatenate([pair_costs, np.full(problem.n_cells, alpha)])
        matching = solve_exact(replace(problem, costs=costs))
        if cyclic is not None and np.array_equal(matching.pairs, cyclic):
            continue
        if is_gradient(complex, matching):
            return alpha, matching
        cyclic = matching.pairs
    return DEFAULT_ALPHA_GRID[-1], Matching(pairs=(), critical=np.arange(len(complex)), objective=0.0)


def closure_by_walk(complex, cell):
    """The cell and all its faces, by a depth-first walk over codim-1 faces."""
    acc = {cell}
    stack = [cell]
    while stack:
        for f in complex.codim1_faces(stack.pop()):
            if f not in acc:
                acc.add(f)
                stack.append(f)
    return acc


def flow_successors_by_closure(complex, matching):
    """CSR successors (ptr, idx) of the flow, one closure walk per critical
    cell: rows listed as matched lower -> partner, matched upper -> its other
    codim-1 faces, critical cell -> its sorted closure, then grouped by cell
    with a stable sort. Takes the matching as given, like `_flow_successors`."""
    n = len(complex)
    lower, upper = matching.pairs.T
    partner = np.full(n, -1, dtype=np.intp)
    partner[upper] = lower
    owner = np.repeat(np.arange(n), np.diff(complex.face_ptr))
    spread = (partner[owner] >= 0) & (complex.face_idx != partner[owner])
    critical = matching.critical.tolist()
    closures = [sorted(closure_by_walk(complex, c)) for c in critical]
    closed = np.array([f for cl in closures for f in cl], dtype=np.intp)
    rows = np.concatenate(
        [lower, owner[spread], np.repeat(np.array(critical, dtype=np.intp), list(map(len, closures)))]
    )
    cols = np.concatenate([upper, complex.face_idx[spread], closed])
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")]


def cubical_cells_by_sites(points, side):
    """Elementary cubes of lattice points by per-site enumeration: for every
    site, every axis subset and every corner offset, look the corner up in a
    site dict. Returns (snapped vertices, set of sorted vertex-id tuples)."""
    points = np.asarray(points, dtype=float)
    origin = points.min(axis=0)
    idx = np.rint((points - origin) / side).astype(int)
    site_of = {tuple(int(k) for k in row): i for i, row in enumerate(idx)}
    d = points.shape[1]
    cells: set[tuple[int, ...]] = set()
    for key in site_of:
        for k in range(d + 1):
            for spanned in itertools.combinations(range(d), k):
                corners = []
                for offs in itertools.product((0, 1), repeat=k):
                    corner = list(key)
                    for a, o in zip(spanned, offs):
                        corner[a] += o
                    c = site_of.get(tuple(corner))
                    if c is None:
                        break
                    corners.append(c)
                else:
                    cells.add(tuple(sorted(corners)))
    return origin + idx * side, cells


def row_codes_by_lexsort(rows):
    """Dense code per row of an int matrix, equal iff the rows are equal and
    ordered like the rows' lexicographic order, by one lexsort over the
    columns and a scan for changes between neighbouring sorted rows."""
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=np.int64)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    code = np.empty(len(rows), dtype=np.int64)
    code[order] = np.cumsum(new) - 1
    return code


def simplicial_closure_by_stack(simplices):
    """Every nonempty subset of every generator, by popping a generator and
    pushing its one-smaller subsets. Returns a set of sorted vertex tuples."""
    closed: set[tuple[int, ...]] = set()
    stack = [tuple(sorted(set(s))) for s in simplices]
    while stack:
        s = stack.pop()
        if not s or s in closed:
            continue
        closed.add(s)
        if len(s) > 1:
            stack.extend(s[:i] + s[i + 1 :] for i in range(len(s)))
    return closed


def complex_arrays(vertices, kind, cells):
    """Every array of a CellComplex, from its cells' vertex tuples by
    definition: cells ordered by (vertex count, vertex ids), the codim-1 faces
    of a cell found among its vertex subsets of the face size, barycenters as
    per-cell means."""
    vertices = np.asarray(vertices, dtype=float)
    ordered = sorted(cells, key=lambda v: (len(v), v))
    ids = {v: i for i, v in enumerate(ordered)}
    if kind == "simplex":
        dims = [len(v) - 1 for v in ordered]
        face_size = [len(v) - 1 for v in ordered]
    else:
        dims = [len(v).bit_length() - 1 for v in ordered]
        face_size = [len(v) // 2 for v in ordered]
    faces = [
        sorted(ids[f] for f in itertools.combinations(v, size) if f in ids)
        for v, size in zip(ordered, face_size)
    ]

    def csr(lists):
        ptr = np.zeros(len(lists) + 1, dtype=np.intp)
        np.cumsum([len(x) for x in lists], out=ptr[1:])
        return ptr, np.array([x for xs in lists for x in xs], dtype=np.intp)

    vert_ptr, vert_idx = csr(ordered)
    face_ptr, face_idx = csr(faces)
    pairs = sorted((f, c) for c, fs in enumerate(faces) for f in fs)
    return {
        "dims": np.array(dims, dtype=np.intp),
        "vert_ptr": vert_ptr,
        "vert_idx": vert_idx,
        "face_ptr": face_ptr,
        "face_idx": face_idx,
        "pairs": np.array(pairs, dtype=np.intp).reshape(-1, 2),
        "barycenters": np.array([vertices[list(v)].mean(axis=0) for v in ordered]).reshape(
            -1, vertices.shape[1]
        ),
    }


def delaunay_triangles_by_scan(points):
    """Triangles of incremental Bowyer-Watson that tests every live triangle's
    circumcircle at every insertion: points in input order, the package's
    super-triangle sizes and predicates, a point on a circumcircle counts as
    outside, and the first size whose triangles hold every point wins.
    Quadratic. It checks the walk and the cavity search, so it shares the
    package's exact predicates, which `circumcircle_has_no_point_inside`
    checks from the determinant. Returns a set of sorted vertex-id triples."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    for scale in _SUPER_SCALES:
        s = scale * span
        work = np.vstack(
            [
                pts,
                [cx - 16 * s, cy - 9 * s],
                [cx + 16 * s, cy - 9 * s],
                [cx, cy + 16 * s],
            ]
        ).tolist()
        real = {t for t in _scan(work, n) if max(t) < n}
        if {v for t in real for v in t} == set(range(n)):
            break
    return real


def _scan(work, n):
    def strictly_inside(tri, p):
        a, b, c = (work[k] for k in tri)
        s = _orient2d(*a, *b, *c)
        assert s != 0, f"degenerate triangle {tri} in triangulation"
        return _incircle(*a, *b, *c, *p) * s > 0

    triangles: set[tuple[int, int, int]] = {(n, n + 1, n + 2)}
    for i in range(n):
        cavity = [t for t in triangles if strictly_inside(t, work[i])]
        assert cavity, f"insertion point {i} fell outside the triangulation"
        edge_count: dict[tuple[int, int], int] = {}
        for t in cavity:
            triangles.remove(t)
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                edge_count[e] = edge_count.get(e, 0) + 1
        for e, cnt in edge_count.items():
            if cnt == 1:
                triangles.add(tuple(sorted((e[0], e[1], i))))
    return triangles


def matching_violations_by_loop(complex, pairs, critical):
    """(kind, cells, detail) of every matching-axiom violation of a raw pair
    list and critical set, by counting ids in dicts and comparing Python sets.
    Same kinds, order and messages as `verify_matching`."""
    out = []
    for k in np.flatnonzero(complex.pair_index(pairs) < 0).tolist():
        lo, up = pairs[k]
        out.append(("non_admissible", (lo, up), f"({lo}, {up}) is not a codim-1 face pair"))
    lowers: dict[int, int] = {}
    uppers: dict[int, int] = {}
    for lo, up in pairs:
        lowers[lo] = lowers.get(lo, 0) + 1
        uppers[up] = uppers.get(up, 0) + 1
    critical = set(critical)
    for lo, cnt in sorted(lowers.items()):
        if cnt > 1:
            out.append(("two_out", (lo,), f"cell {lo} matched upward {cnt} times"))
    for up, cnt in sorted(uppers.items()):
        if cnt > 1:
            out.append(("two_in", (up,), f"cell {up} receives {cnt} matches"))
    for c in sorted(set(lowers) & set(uppers)):
        out.append(("in_and_out", (c,), f"cell {c} is both a source and a target"))
    for c in sorted(critical & (set(lowers) | set(uppers))):
        out.append(("critical_in_pair", (c,), f"critical cell {c} also appears in a pair"))
    all_ids = set(range(len(complex)))
    for c in sorted(all_ids - set(lowers) - set(uppers) - critical):
        out.append(("uncovered", (c,), f"cell {c} is neither matched nor critical"))
    for c in sorted((set(lowers) | set(uppers) | critical) - all_ids):
        out.append(("unknown_cell", (c,), f"cell {c} is not in the complex"))
    return out


def float_rows_by_loop(path, rows, width):
    """The data rows after the header of a CSV, parsed one row at a time with
    `float()` and checked in file order: width, then parse, then finiteness.
    Blank rows are skipped. Same ParseErrors as `pipeline._float_table`."""
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ParseError(path, ln, f"expected {width} values, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ParseError(path, ln, str(exc)) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(path, ln, "non-finite value")
        out.append(vals)
    return np.asarray(out, dtype=float).reshape(-1, width)


def snap_by_site_dict(points, vectors, side):
    """`snap_to_lattice` by a per-point loop: group points by rounded lattice
    site in a dict, emit sites in sorted order, and average each group with
    `mean(axis=0)`. Returns (site points, mean vectors)."""
    points = np.asarray(points, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    origin = points.min(axis=0)
    idx = np.rint((points - origin) / side).astype(np.int64)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(map(tuple, idx.tolist())):
        groups.setdefault(key, []).append(i)
    keys = sorted(groups)
    sites = np.array([origin + np.array(k) * side for k in keys])
    return sites, np.array([vectors[groups[k]].mean(axis=0) for k in keys])


def cosine_distance(u, v) -> float:
    """1 - cos(angle between u and v), clamped into [0, 2], for one pair of
    vectors: the cost `build_cost_model` gives a pair, written per pair."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero vectors")
    d = 1.0 - float(np.dot(u, v)) / (nu * nv)
    return min(2.0, max(0.0, d))


def displacement(complex, pair):
    """Barycenter of the upper cell minus barycenter of the lower cell."""
    lo, up = pair
    return complex.barycenters[up] - complex.barycenters[lo]


def penalty(alpha: float) -> float:
    """Cost of a structurally forbidden pair in the paper's square
    formulation of the program; always above two diagonals, so dropping such
    a pair pays."""
    return max(2.0 * alpha + 1.0, 3.0)


def assignment_objective(cost_model, assignment) -> float:
    """Objective of a full (possibly inadmissible) assignment under the square
    formulation: diagonal alpha, admissible pair cost, `penalty` otherwise."""
    ends = np.asarray(sorted(assignment), dtype=np.int64).reshape(-1, 2)
    rows = pair_rows(cost_model.pairs, cost_model.n_cells, ends)
    priced = np.append(cost_model.pair_costs, penalty(cost_model.alpha))[rows]  # row -1 is the penalty
    return math.fsum(np.where(ends[:, 0] == ends[:, 1], cost_model.alpha, priced).tolist())


def repair(complex, cost_model, assignment):
    """Replace every inadmissible selected pair (i, j) of a square-formulation
    assignment with the two diagonals i and j. Each swap trades the penalty
    for 2*alpha, so the objective drops whenever there was anything to
    repair. The input must cover every cell exactly once (diagonals counted
    once)."""
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
