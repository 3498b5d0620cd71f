import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

import combidyn.solver
from combidyn import (
    DEFAULT_ALPHA_GRID,
    CostModel,
    Matching,
    MatchingProblem,
    assign_vertex_average,
    build_cost_model,
    build_problem,
    cubical_grid,
    evaluate_matching,
    objective_decomposition,
    simplicial_complex,
    solve_branch_and_bound,
    solve_exact,
    verify_matching,
)

from combidyn.complexes import pair_rows
from combidyn.datagen import MODELS, GridSpec
from conftest import (
    problem_for,
    random_cubical_instance,
    random_instance,
    random_simplicial_instance,
    run_snippet,
)
from oracles import (
    assignment_matrix_by_coo,
    assignment_objective,
    brute_force_optimum,
    dense_assignment_selection,
    matching_violations_by_loop,
    milp_optimum,
    penalty,
    repair,
    sparse_selection_by_coo,
)

TOY_ALPHA = 0.75
TOY_OBJECTIVE = 1.6286796564403576  # 3 * (1 - 1/sqrt(2)) + alpha

# Every pair of a 3x2x3 cubical lattice costs exactly twice some grid alpha,
# and every cell alpha 1.23: LAPJVsp never returns. Costs scaled by 64 hang
# too, costs scaled by 100 and rounded to integers do not, so it looks like
# a floating-point livelock on near-tied reduced costs.
LIVELOCK = """
import itertools
import numpy as np
from combidyn import DEFAULT_ALPHA_GRID, MatchingProblem, cubical_grid, solve_exact
K = cubical_grid(np.array(list(itertools.product(range(3), range(2), range(3))), float), 1.0)
grid_index = [
    116, 191, 191, 178, 134, 199, 163, 113, 135, 148, 140, 185, 156, 159, 137, 110,
    184, 140, 111, 162, 128, 135, 183, 125, 189, 116, 161, 135, 197, 145, 148, 174,
    117, 106, 189, 136, 199, 194, 166, 163, 194, 143, 154, 183, 112, 136, 102, 109,
    176, 153, 104, 111, 169, 179, 155, 114, 192, 182, 172, 128, 122, 194, 139, 118,
    130, 110, 169, 181, 163, 146, 110, 159, 111, 101, 102, 101, 186, 200, 155, 105,
    174, 169, 113, 156, 157, 190, 190, 125, 127, 193, 147, 119, 172, 183, 138, 102,
    137, 184, 118, 114, 157, 190, 174, 121, 116, 176, 128, 101, 185, 195, 175, 157,
    186, 141, 162, 125, 119, 124, 198, 135, 106, 110, 175, 101, 147, 129, 173, 130,
    131, 118, 194, 185, 121, 148, 116, 166, 132, 152, 124, 172, 143, 106, 172, 181,
    105, 100, 178, 128, 188, 190, 107, 139, 174, 168, 161, 111, 158, 141, 118, 137,
    163, 192, 195, 127, 109, 136, 126, 123, 148, 160,
]
pair_costs = 2.0 * np.array(DEFAULT_ALPHA_GRID)[grid_index]
costs = np.concatenate([pair_costs, np.full(len(K), 1.23)])
solve_exact(MatchingProblem(pairs=K.pairs, costs=costs, dims=K.dims))
"""

NAN_DIAGONAL = """
from dataclasses import replace
import numpy as np
from combidyn import assign_vertex_average, build_cost_model, build_problem, delaunay_2d
from combidyn import preset_field, solve_exact
sample = preset_field("toy")
K = delaunay_2d(sample.points)
problem = build_problem(build_cost_model(K, assign_vertex_average(K, sample.vectors), 0.5), K)
costs = problem.costs.copy()
costs[problem.n_pairs:] = np.nan
solve_exact(replace(problem, costs=costs))
"""


class TestProblem:
    def test_variable_layout(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        assert p.n_cells == 7
        assert p.n_pairs == 9
        assert p.m == 16
        pairs = [tuple(pq) for pq in p.pairs.tolist()]
        assert pairs == sorted(pairs)
        assert all(lo < up for lo, up in pairs)
        assert p.costs.shape == (16,)
        for k in range(7):
            assert p.n_pairs + k == 9 + k
            assert p.costs[p.n_pairs + k] == TOY_ALPHA
        assert pair_rows(p.pairs, p.n_cells, pairs).tolist() == list(range(len(pairs)))

    def test_cell_incidence(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.5)
        # each pair variable joins a cell and a codim-1 coface of it
        assert np.array_equal(p.pairs, K.pairs)
        assert np.array_equal(p.dims[p.pairs[:, 1]], p.dims[p.pairs[:, 0]] + 1)
        # every vertex under two edges, every edge between two vertices and under the triangle
        assert np.bincount(p.pairs.ravel(), minlength=p.n_cells).tolist() == [2, 2, 2, 3, 3, 3, 3]

    def test_cell_count_mismatch(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        model.n_cells = 99
        with pytest.raises(ValueError, match="cell count"):
            build_problem(model, K)


class TestSolve:
    def test_toy_optimum(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        for solve in (solve_exact, solve_branch_and_bound):
            m = solve(p)
            assert m.pairs.tolist() == [[0, 3], [1, 5], [2, 4]]
            assert m.critical.tolist() == [6]
            assert m.objective == pytest.approx(TOY_OBJECTIVE, abs=1e-12)

    def test_single_vertex(self):
        K = simplicial_complex(np.array([[0.0, 0.0]]), [(0,)])
        p = problem_for(K, np.array([[1.0, 0.0]]), 0.3)
        m = solve_exact(p)
        assert m.pairs.tolist() == []
        assert m.critical.tolist() == [0]
        assert m.objective == pytest.approx(0.3)

    def test_nan_costs_fail_fast(self):
        # LAPJVsp never returns on NaN costs; the child is killed if it hangs
        done = run_snippet(NAN_DIAGONAL, timeout=30)
        assert done.returncode == 1
        assert "ValueError: cost of variable 9 (diagonal of cell 0) is nan" in done.stderr

    @pytest.mark.xfail(
        raises=subprocess.TimeoutExpired,
        strict=True,
        reason="LAPJVsp livelocks on some exactly tied finite costs",
    )
    def test_tied_costs_livelock(self):
        # a known solver hang, kept visible: the child is killed after the
        # timeout; a fix makes this pass, and strict=True then fails it
        done = run_snippet(LIVELOCK, timeout=6)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cost_named(self, toy, bad):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.5)
        costs = p.costs.copy()
        costs[[2, 5]] = bad
        for solve in (solve_exact, solve_branch_and_bound):
            with pytest.raises(ValueError, match=rf"variable 2 \(pair \(1, 3\)\) is {bad}, not finite"):
                solve(replace(p, costs=costs))

    def test_backends_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            K, vectors, alpha = random_instance(rng, small=True)
            p = problem_for(K, vectors, alpha)
            best_obj = brute_force_optimum(p)
            bip = solve_exact(p)
            bnb = solve_branch_and_bound(p)
            assert bip.objective == pytest.approx(best_obj, abs=1e-9)
            assert bnb.objective == pytest.approx(best_obj, abs=1e-9)
            assert verify_matching(K, bip).ok
            assert verify_matching(K, bnb).ok

    def test_solution_objective_is_canonical(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            K, vectors, alpha = random_instance(rng)
            model = build_cost_model(K, vectors, alpha)
            m = solve_exact(build_problem(model, K))
            assert m.objective == evaluate_matching(model, m)


def same_matching(a, b):
    """Equal pairs, critical cells and objective."""
    return (
        np.array_equal(a.pairs, b.pairs)
        and np.array_equal(a.critical, b.critical)
        and a.objective == b.objective
    )


def selection(problem, matching):
    """The matching's selected variable indices, sorted."""
    pairs = pair_rows(problem.pairs, problem.n_cells, matching.pairs).tolist()
    return sorted(pairs + [problem.n_pairs + c for c in matching.critical.tolist()])


class TestSparseAssignment:
    """solve_exact against the dense square assignment reduction
    (`oracles.dense_assignment_selection`) and against full enumeration."""

    def test_matches_dense_reference(self):
        # no zero vectors: generic costs have a unique optimum, so both
        # solvers must return the same selection, not just the same objective
        rng = np.random.default_rng(53)
        for _ in range(150):
            if rng.random() < 0.7:
                K, vectors = random_simplicial_instance(rng, allow_zero_vectors=False)
            else:
                K, vectors = random_cubical_instance(rng)
            p = problem_for(K, vectors, float(rng.uniform(0.0, 2.0)))
            m = solve_exact(p)
            dense = dense_assignment_selection(p)
            assert selection(p, m) == dense
            assert m.objective == math.fsum(p.costs[v] for v in dense)
            assert verify_matching(K, m).ok

    def test_exact_zeros_and_ties(self):
        # costs and alpha on a quarter grid of [0, 2]: pairs costing exactly
        # 0 and exactly 2 * alpha, alpha 0, and many tied optima; the sums are
        # exact, so every optimal selection has the same objective
        rng = np.random.default_rng(59)
        grid = np.arange(9) * 0.25
        seen_zero_cost = seen_zero_alpha = seen_two_alpha = False
        for _ in range(150):
            K, _, _ = random_instance(rng, small=True)
            alpha = float(rng.choice(grid))
            costs = rng.choice(grid, size=len(K.pairs)).tolist()
            model = CostModel(alpha=alpha, pairs=K.pairs, pair_costs=np.array(costs), n_cells=len(K))
            p = build_problem(model, K)
            m = solve_exact(p)
            assert verify_matching(K, m).ok
            assert m.objective == evaluate_matching(model, m)
            assert m.objective == brute_force_optimum(p)
            assert m.objective == math.fsum(p.costs[v] for v in dense_assignment_selection(p))
            seen_zero_cost |= 0.0 in costs
            seen_zero_alpha |= alpha == 0.0
            seen_two_alpha |= 2 * alpha in costs
        assert seen_zero_cost and seen_zero_alpha and seen_two_alpha

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.0])
    def test_no_pairs_single_parity(self, alpha):
        # isolated vertices: every cell even, no pair, all cells critical
        K = simplicial_complex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0,), (1,), (2,)])
        p = problem_for(K, np.tile([1.0, 0.0], (3, 1)), alpha)
        assert p.n_pairs == 0
        m = solve_exact(p)
        assert m.pairs.tolist() == []
        assert m.critical.tolist() == [0, 1, 2]
        assert m.objective == 3 * alpha
        assert selection(p, m) == dense_assignment_selection(p)

    def test_large_lattice_memory(self):
        # 36,481 cells: the dense reduction would need a 10.6 GB matrix
        side = 0.07
        points = GridSpec((-95 * side / 2, -95 * side / 2), side, (96, 96)).points()
        K = cubical_grid(points, side)
        assert len(K) == 36481
        vectors = assign_vertex_average(K, MODELS["intro"](points))
        p = problem_for(K, vectors, 0.9)
        tracemalloc.start()
        try:
            m = solve_exact(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200e6
        assert verify_matching(K, m).ok


def random_problem(rng):
    if rng.random() < 0.6:
        K, vectors = random_simplicial_instance(rng)
    else:
        K, vectors = random_cubical_instance(rng)
    return K, problem_for(K, vectors, float(rng.uniform(0.0, 2.0)))


def assert_same_solve(p):
    """solve_exact on the prepared graph picks the selection the per-call
    COO construction picks, with the same objective."""
    m = solve_exact(p)
    expected = sparse_selection_by_coo(p)
    # pairs may come in any row order here, so no pair_rows lookup
    var = {pq: k for k, pq in enumerate(map(tuple, p.pairs.tolist()))}
    chosen = [var[pq] for pq in map(tuple, m.pairs.tolist())]
    assert sorted(chosen + [p.n_pairs + c for c in m.critical.tolist()]) == expected
    assert m.objective == math.fsum(p.costs[v] for v in expected)


class TestAssignmentGraph:
    """The graph a `MatchingProblem` lays out on construction against the
    COO matrix built per call (`oracles.sparse_selection_by_coo`): LAPJVsp
    breaks ties by edge order, so equal optima are not enough; the
    selections must be equal."""

    def test_matrix_is_the_coo_matrix(self, monkeypatch):
        # the CSR array `select` prices and hands to LAPJVsp, on its first
        # call (even trials) and re-priced in place (odd trials)
        priced = []
        lapjvsp = combidyn.solver.min_weight_full_bipartite_matching

        def recorded(graph):
            priced.append(graph)
            return lapjvsp(graph)

        monkeypatch.setattr(combidyn.solver, "min_weight_full_bipartite_matching", recorded)
        rng = np.random.default_rng(61)
        for trial in range(60):
            _, p = random_problem(rng)
            if trial % 2:
                # pairs out of (lower, upper) order: their edges reach each
                # row out of column order, and CSR order must sort them
                perm = rng.permutation(p.n_pairs)
                costs = np.concatenate([p.costs[perm], p.costs[p.n_pairs :]])
                p = MatchingProblem(pairs=p.pairs[perm], costs=costs, dims=p.dims)
                assert_same_solve(p)
            priced.clear()
            p.graph.select(p.costs)
            (got,) = priced
            want, _, _ = assignment_matrix_by_coo(p)
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_random_problems(self):
        rng = np.random.default_rng(67)
        for _ in range(150):
            assert_same_solve(random_problem(rng)[1])

    def test_exact_zeros_and_ties(self):
        # pair costs 0 and exactly 2 * alpha, alpha 0, and many tied optima
        rng = np.random.default_rng(71)
        grid = np.arange(9) * 0.25
        seen_zero_cost = seen_zero_alpha = seen_two_alpha = False
        for _ in range(150):
            K, _ = random_problem(rng)
            alpha = float(rng.choice(grid))
            costs = rng.choice(grid, size=len(K.pairs))
            model = CostModel(alpha=alpha, pairs=K.pairs, pair_costs=costs, n_cells=len(K))
            assert_same_solve(build_problem(model, K))
            seen_zero_cost |= bool((costs == 0.0).any())
            seen_zero_alpha |= alpha == 0.0
            seen_two_alpha |= bool((costs == 2 * alpha).any())
        assert seen_zero_cost and seen_zero_alpha and seen_two_alpha

    def test_sweep_grid_through_replace(self):
        # the problems of the alpha sweep's grid, made by dataclasses.replace
        rng = np.random.default_rng(73)
        for _ in range(8):
            _, p = random_problem(rng)
            for alpha in DEFAULT_ALPHA_GRID:
                costs = np.concatenate([p.costs[: p.n_pairs], np.full(p.n_cells, alpha)])
                assert_same_solve(replace(p, costs=costs))

    def test_hand_built_problem(self, toy):
        _, K, vectors = toy
        built = problem_for(K, vectors, TOY_ALPHA)
        p = MatchingProblem(pairs=K.pairs, costs=built.costs, dims=K.dims)
        assert_same_solve(p)
        assert same_matching(solve_exact(p), solve_exact(built))

    def test_stale_graph_is_not_reused(self):
        # two complexes with equal cell and pair counts but different pairs:
        # vertices 0..3 under the edges (0, 1), (2, 3) or (0, 1), (1, 2)
        points = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        A = simplicial_complex(points, [(0, 1), (2, 3)])
        B = simplicial_complex(points, [(0, 1), (1, 2), (3,)])
        assert (len(A), len(A.pairs)) == (len(B), len(B.pairs))
        assert not np.array_equal(A.pairs, B.pairs)
        rng = np.random.default_rng(79)
        for _ in range(20):
            pa = problem_for(A, rng.normal(size=(len(A), 2)), 0.4)
            pb = problem_for(B, rng.normal(size=(len(B), 2)), 0.4)
            q = replace(pa, pairs=pb.pairs, dims=pb.dims, costs=pb.costs)
            assert_same_solve(q)
            assert same_matching(solve_exact(q), solve_exact(pb))
        copy = replace(pa, pairs=pa.pairs.copy())
        assert same_matching(solve_exact(copy), solve_exact(pa))

    def test_masked_select_is_select_without_the_pairs(self, monkeypatch):
        # row j of a masked select is the plain select of the problem without
        # row j's forbidden pairs: a cell's row and column do not depend on
        # the pairs, so the kept edges keep their CSR order; a small
        # MAX_BATCH_ROWS splits the rows over several LAPJVsp calls
        rng = np.random.default_rng(83)
        sizes = []  # rows of each LAPJVsp call
        lapjvsp = combidyn.solver.min_weight_full_bipartite_matching

        def counted(graph):
            sizes.append(graph.shape[0])
            return lapjvsp(graph)

        monkeypatch.setattr(combidyn.solver, "min_weight_full_bipartite_matching", counted)
        split = 0
        for _ in range(40):
            _, p = random_problem(rng)
            per_call = int(rng.integers(1, 4))
            monkeypatch.setattr(combidyn.solver, "MAX_BATCH_ROWS", per_call * p.n_cells)
            k = int(rng.integers(1, 8))
            forbid = np.zeros((k, p.m), dtype=bool)
            forbid[:, : p.n_pairs] = rng.random((k, p.n_pairs)) < rng.uniform(0.0, 0.6)
            sizes.clear()
            got = p.graph.select(p.costs, forbid)
            assert got.shape == (k, p.n_pairs)
            assert len(sizes) == -(-k // per_call) and sum(sizes) == k * p.n_cells
            split += len(sizes) > 1
            for row, hit in zip(forbid[:, : p.n_pairs], got):
                keep = ~row
                q = MatchingProblem(
                    pairs=p.pairs[keep],
                    costs=np.concatenate([p.costs[: p.n_pairs][keep], p.costs[p.n_pairs :]]),
                    dims=p.dims,
                )
                assert not hit[row].any()
                assert np.array_equal(hit[keep], q.graph.select(q.costs))
        assert split >= 20


class TestConstraints:
    def test_forbidding_the_optimum(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        base = solve_branch_and_bound(p)
        banned = frozenset(pair_rows(p.pairs, p.n_cells, base.pairs).tolist())
        m = solve_branch_and_bound(p, constraints=(banned,))
        chosen = set(pair_rows(p.pairs, p.n_cells, m.pairs).tolist())
        assert len(chosen & banned) < len(banned)
        assert m.pairs.tolist() == [[1, 5], [2, 4], [3, 6]]
        assert m.critical.tolist() == [0]
        expected = 2 * (1 - 1 / math.sqrt(2)) + (1 - 1 / math.sqrt(5)) + TOY_ALPHA
        assert m.objective == pytest.approx(expected, abs=1e-9)
        assert verify_matching(K, m).ok

    def test_matches_brute_force_with_random_cuts(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            K, vectors, alpha = random_instance(rng, small=True)
            p = problem_for(K, vectors, alpha)
            n_cuts = int(rng.integers(0, 4)) if p.n_pairs else 0
            cuts = tuple(
                frozenset(rng.choice(p.n_pairs, size=min(int(rng.integers(1, 5)), p.n_pairs), replace=False).tolist())
                for _ in range(n_cuts)
            )
            m = solve_branch_and_bound(p, constraints=cuts)
            assert m.objective == brute_force_optimum(p, cuts)
            assert verify_matching(K, m).ok
            chosen = set(pair_rows(p.pairs, p.n_cells, m.pairs).tolist())
            assert all(not cut <= chosen for cut in cuts)

    @pytest.mark.parametrize("extent", [3, 4])
    def test_matches_milp_oracle_on_lattices(self, extent):
        # 25 and 49 cells, too many to enumerate: HiGHS is the reference.
        # Each round cuts a random part of the last optimum, so the row binds,
        # and adds one random row, which may be slack
        rng = np.random.default_rng(43 + extent)
        pts = np.array([(i, j) for i in range(extent) for j in range(extent)], dtype=float)
        K = cubical_grid(pts, side=1.0)
        for _ in range(10):
            p = problem_for(K, assign_vertex_average(K, rng.normal(size=(len(pts), 2))),
                            float(rng.uniform(0.0, 1.5)))
            cuts = []
            m = solve_exact(p)
            for _ in range(4):
                chosen = selection(p, m)[: len(m.pairs)]
                if chosen:
                    size = min(int(rng.integers(1, 7)), len(chosen))
                    cuts.append(frozenset(rng.choice(chosen, size=size, replace=False).tolist()))
                size = int(rng.integers(1, 5))
                cuts.append(frozenset(rng.choice(p.n_pairs, size=size, replace=False).tolist()))
                m = solve_branch_and_bound(p, constraints=tuple(cuts))
                assert m.objective == milp_optimum(p, cuts)
                assert verify_matching(K, m).ok
                assert all(not cut <= set(selection(p, m)) for cut in cuts)

    def test_recursion_limit_untouched(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        # start from the interpreter default, whatever earlier tests left
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            solve_branch_and_bound(p, constraints=(frozenset(range(p.n_pairs)),))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)

    def test_zero_cells(self):
        p = MatchingProblem(pairs=np.empty((0, 2), dtype=np.intp), costs=np.empty(0), dims=np.empty(0, dtype=np.intp))
        for m in (solve_exact(p), solve_branch_and_bound(p)):
            assert (m.pairs.shape, m.critical.shape, m.objective) == ((0, 2), (0,), 0.0)

    def test_constraint_validation(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.5)
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset(),))
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset({p.n_pairs}),))
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset({-1}),))


@st.composite
def bipartite_blocks(draw):
    """2-7 random sparse bipartite graphs, 1-40 rows each, as CSR arrays with
    columns ascending in each row. Each has a perfect matching, and all are
    priced from one family: tied integers 5-9, uniform floats, or odd
    eighths. None of these is twice a grid alpha, the family that makes
    LAPJVsp livelock (`test_tied_costs_livelock`)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["integer", "uniform", "eighth"]))
    blocks = []
    for r in draw(st.lists(st.integers(1, 40), min_size=2, max_size=7)):
        edge = rng.random((r, r)) < rng.uniform(0.0, 0.4)
        edge[np.arange(r), rng.permutation(r)] = True
        rows, cols = np.nonzero(edge)
        costs = {
            "integer": lambda k: rng.integers(5, 10, k).astype(float),
            "uniform": lambda k: rng.uniform(0.01, 2.0, k),
            "eighth": lambda k: (2 * rng.integers(0, 16, k) + 1) / 8,
        }[family](len(rows))
        blocks.append(csr_array((costs, (rows, cols)), shape=(r, r)))
    return blocks


class TestBlockUnion:
    """`solve_branch_and_bound` solves a node's children as the blocks of one
    block-diagonal graph; LAPJVsp must return each block's own matching."""

    @settings(max_examples=150, deadline=None)
    @given(bipartite_blocks())
    def test_each_block_gets_its_own_matching(self, blocks):
        sizes = [b.shape[0] for b in blocks]
        first_row = np.cumsum([0, *sizes])
        first_edge = np.cumsum([0, *[b.nnz for b in blocks]])
        union = csr_array(
            (
                np.concatenate([b.data for b in blocks]),
                np.concatenate([b.indices + r for b, r in zip(blocks, first_row)]),
                np.concatenate([[0], *[b.indptr[1:] + e for b, e in zip(blocks, first_edge)]]),
            ),
            shape=(first_row[-1], first_row[-1]),
        )
        _, col_of_row = min_weight_full_bipartite_matching(union)
        for b, r in zip(blocks, first_row):
            _, own = min_weight_full_bipartite_matching(b)
            assert np.array_equal(col_of_row[r : r + b.shape[0]] - r, own)


class TestVerify:
    def test_valid(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (1, 5), (2, 4)], [6], 0.0))
        assert report.ok
        assert report.kinds() == set()

    def test_non_admissible(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 6), (1, 5), (2, 4)], [3], 0.0))
        assert "non_admissible" in report.kinds()

    def test_two_out(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (0, 4), (1, 5)], [2, 6], 0.0))
        assert "two_out" in report.kinds()

    def test_two_in(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (1, 3), (2, 4)], [5, 6], 0.0))
        assert "two_in" in report.kinds()

    def test_in_and_out(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (3, 6), (2, 4)], [1, 5], 0.0))
        assert "in_and_out" in report.kinds()

    def test_critical_in_pair(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (1, 5), (2, 4)], [3, 6], 0.0))
        assert "critical_in_pair" in report.kinds()

    def test_uncovered(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (1, 5), (2, 4)], [], 0.0))
        assert report.kinds() == {"uncovered"}
        assert report.violations[0].cells == (6,)

    def test_unknown_cell(self, toy):
        _, K, _ = toy
        report = verify_matching(K, Matching([(0, 3), (1, 5), (2, 4)], [6, 99], 0.0))
        assert "unknown_cell" in report.kinds()

    def test_out_of_range_pair_ids(self, toy):
        _, K, _ = toy
        # -1 must not wrap around to the last cell, the triangle whose face 5 is
        report = verify_matching(K, Matching([(0, 3), (1, 7), (2, 4), (5, -1)], [6], 0.0))
        assert [(v.kind, v.cells) for v in report.violations] == [
            ("non_admissible", (1, 7)),
            ("non_admissible", (5, -1)),
            ("unknown_cell", (-1,)),
            ("unknown_cell", (7,)),
        ]

    def test_non_integer_ids_rejected(self, toy):
        _, K, _ = toy
        assert verify_matching(K, Matching([(0, 3.0), (1, 5), (2, 4)], [6], 0.0)).ok
        with pytest.raises(ValueError, match="cell id 3.5 is not an integer"):
            verify_matching(K, Matching([(0, 3.5), (1, 5), (2, 4)], [6], 0.0))
        with pytest.raises(ValueError, match="cell id nan is not an integer"):
            verify_matching(K, Matching([(0, 3), (1, 5), (2, 4)], [6, math.nan], 0.0))

    @pytest.mark.parametrize(
        "pairs, named",
        [
            ([(10**30, 1)], "1000000000000000000000000000000"),
            ([(2**63, 1)], "9223372036854775808"),
            ([(1, -(2**63) - 1)], "-9223372036854775809"),
            (np.array([(2**63, 1)], dtype=np.uint64), "9223372036854775808"),
            (np.array([(1, 2**64 - 1)], dtype=np.uint64), "18446744073709551615"),
            ([(2.0**63, 1)], "9.223372036854776e+18"),
        ],
        ids=["int-1e30", "int-2**63", "int-below-int64", "uint64-2**63", "uint64-max", "float-2**63"],
    )
    def test_ids_outside_int64_rejected(self, pairs, named):
        # named as given: no OverflowError, no float for an int, no wrap to a negative id
        with pytest.raises(ValueError, match=f"^cell id {re.escape(named)} is outside int64$"):
            Matching(pairs, [], 0.0)

    def test_int64_extremes_kept(self):
        m = Matching([(-(2**63), 2**63 - 1)], np.array([2**63 - 1], dtype=np.uint64), 0.0)
        assert m.pairs.tolist() == [[-(2**63), 2**63 - 1]]
        assert m.critical.tolist() == [2**63 - 1]
        assert m.pairs.dtype == m.critical.dtype == np.int64

    def test_matches_loop_oracle(self):
        """Same violations, in the same order with the same messages, as the
        dict-counting loop, on optimal matchings with random damage: repeated,
        dropped, negative and out-of-range ids."""
        rng = np.random.default_rng(29)
        for _ in range(400):
            K, vectors, alpha = random_instance(rng)
            n = len(K)
            m = solve_exact(problem_for(K, vectors, alpha))
            assert verify_matching(K, m).violations == []
            pairs, critical = list(map(tuple, m.pairs.tolist())), set(m.critical.tolist())
            for _ in range(int(rng.integers(0, 4))):
                what = rng.integers(4)
                if what == 0 and pairs:
                    pairs.append(pairs[rng.integers(len(pairs))])
                elif what == 1 and pairs:
                    critical.update(pairs.pop(rng.integers(len(pairs))))
                elif what == 2:
                    pairs.append(tuple(rng.integers(-3, n + 3, 2).tolist()))
                else:
                    critical ^= {int(rng.integers(-2, n + 2))}
            # a Matching sorts its pairs, so the oracle gets them sorted too
            pairs = sorted(pairs)
            got = verify_matching(K, Matching(pairs, sorted(critical), 0.0)).violations
            assert [(v.kind, v.cells, v.detail) for v in got] == matching_violations_by_loop(
                K, pairs, critical
            )


class TestRepair:
    def test_inadmissible_pair_becomes_critical(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        fixed = repair(K, model, [(0, 6), (1, 5), (2, 4), (3, 3)])
        assert fixed.pairs.tolist() == [[1, 5], [2, 4]]
        assert fixed.critical.tolist() == [0, 3, 6]
        assert verify_matching(K, fixed).ok

    def test_objective_drop_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            K, vectors, alpha = random_instance(rng, small=True)
            model = build_cost_model(K, vectors, alpha)
            # pair cells off arbitrarily, ignoring admissibility
            perm = list(rng.permutation(range(len(K))))
            assignment = [
                tuple(sorted((perm[i], perm[i + 1]))) for i in range(0, len(perm) - 1, 2)
            ]
            if len(perm) % 2:
                assignment.append((perm[-1], perm[-1]))
            before = assignment_objective(model, assignment)
            fixed = repair(K, model, assignment)
            n_bad = sum(
                1 for i, j in assignment if i != j and K.pair_index([(i, j)])[0] < 0
            )
            saved = n_bad * (penalty(model.alpha) - 2 * model.alpha)
            assert fixed.objective == pytest.approx(before - saved, abs=1e-9)
            assert verify_matching(K, fixed).ok

    def test_coverage_check(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        with pytest.raises(ValueError, match="exactly once"):
            repair(K, model, [(0, 3), (0, 4)])


class TestDecomposition:
    def test_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            K, vectors, alpha = random_instance(rng)
            model = build_cost_model(K, vectors, alpha)
            m = solve_exact(build_problem(model, K))
            n_matched, cosine_sum, n_critical = objective_decomposition(m, model)
            assert n_matched == len(m.pairs)
            assert n_critical == len(m.critical)
            recovered = n_matched - cosine_sum + n_critical * alpha
            assert recovered == pytest.approx(m.objective, abs=1e-9)

    def test_toy(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, TOY_ALPHA)
        m = solve_exact(build_problem(model, K))
        n_matched, cosine_sum, n_critical = objective_decomposition(m, model)
        assert (n_matched, n_critical) == (3, 1)
        assert cosine_sum == pytest.approx(3 / math.sqrt(2), abs=1e-12)


class TestMatchingArrays:
    def test_shuffled_input_and_repeats(self, toy):
        # rows and critical ids in any order come back in the report's order:
        # pairs by lower cell, critical cells ascending
        rng = np.random.default_rng(83)
        for _ in range(10):
            K, vectors, alpha = random_instance(rng)
            m = solve_exact(problem_for(K, vectors, alpha))
            pairs = m.pairs[rng.permutation(len(m.pairs))].tolist()
            critical = rng.permutation(m.critical).tolist()
            shuffled = Matching(pairs, critical, m.objective)
            assert shuffled.pairs.tolist() == sorted(pairs)
            assert shuffled.critical.tolist() == sorted(critical)
            assert shuffled.pairs.dtype == shuffled.critical.dtype == np.int64
            assert same_matching(shuffled, m)
        # a repeated pair or critical cell is kept, and verify_matching sees it
        _, K, _ = toy
        twice = Matching([(2, 4), (0, 3), (1, 5), (0, 3)], [6], 0.0)
        assert twice.pairs.tolist() == [[0, 3], [0, 3], [1, 5], [2, 4]]
        assert verify_matching(K, twice).kinds() == {"two_out", "two_in"}
        again = Matching([(0, 3), (1, 5), (2, 4)], [6, 6], 0.0)
        assert [(v.kind, v.detail) for v in verify_matching(K, again).violations] == [
            ("two_critical", "cell 6 is critical 2 times")
        ]
