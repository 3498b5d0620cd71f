import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    repair,
    simplicial_complex,
    solve_branch_and_bound,
    solve_exact,
    verify_matching,
)

from combidyn.datagen import MODELS, GridSpec
from conftest import (
    problem_for,
    random_cubical_instance,
    random_instance,
    random_simplicial_instance,
)
from oracles import (
    assignment_matrix_by_coo,
    brute_force_optimum,
    dense_assignment_selection,
    matching_violations_by_loop,
    sparse_selection_by_coo,
)

TOY_ALPHA = 0.75
TOY_OBJECTIVE = 1.6286796564403576  # 3 * (1 - 1/sqrt(2)) + alpha


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
            assert p.diagonal_var(k) == 9 + k
            assert p.costs[p.diagonal_var(k)] == TOY_ALPHA
        for i, (lo, up) in enumerate(pairs):
            assert p.pair_var(lo, up) == i
        with pytest.raises(KeyError):
            p.pair_var(3, 0)

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
            assert m.matched == {0: 3, 1: 5, 2: 4}
            assert m.critical == frozenset({6})
            assert m.objective == pytest.approx(TOY_OBJECTIVE, abs=1e-12)

    def test_single_vertex(self):
        K = simplicial_complex(np.array([[0.0, 0.0]]), [(0,)])
        p = problem_for(K, np.array([[1.0, 0.0]]), 0.3)
        m = solve_exact(p)
        assert m.matched == {}
        assert m.critical == frozenset({0})
        assert m.objective == pytest.approx(0.3)

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


def selection(problem, matching):
    """The matching's selected variable indices, sorted."""
    pairs = [problem.pair_var(lo, up) for lo, up in matching.pairs()]
    return sorted(pairs + [problem.diagonal_var(c) for c in matching.critical])


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
        assert m.matched == {}
        assert m.critical == frozenset({0, 1, 2})
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
    # pairs may come in any row order here, so no pair_var lookup
    var = {pq: k for k, pq in enumerate(map(tuple, p.pairs.tolist()))}
    assert sorted([var[pq] for pq in m.pairs()] + [p.diagonal_var(c) for c in m.critical]) == expected
    assert m.objective == math.fsum(p.costs[v] for v in expected)


class TestAssignmentGraph:
    """The graph `build_problem` lays out once against the COO matrix built
    per call (`oracles.sparse_selection_by_coo`): LAPJVsp breaks ties by edge
    order, so equal optima are not enough; the selections must be equal."""

    def test_matrix_is_the_coo_matrix(self):
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
            got = p.assignment_graph().weighted(p.costs)
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
        # the alpha sweep re-prices the diagonals with dataclasses.replace,
        # which carries the graph
        rng = np.random.default_rng(73)
        for _ in range(8):
            _, p = random_problem(rng)
            for alpha in DEFAULT_ALPHA_GRID:
                costs = np.concatenate([p.costs[: p.n_pairs], np.full(p.n_cells, alpha)])
                q = replace(p, costs=costs)
                assert q.assignment_graph() is p.graph
                assert_same_solve(q)

    def test_hand_built_problem(self, toy):
        _, K, vectors = toy
        built = problem_for(K, vectors, TOY_ALPHA)
        p = MatchingProblem(pairs=K.pairs, costs=built.costs, dims=K.dims)
        assert p.graph is None
        assert_same_solve(p)
        assert solve_exact(p) == solve_exact(built)

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
            assert q.graph is pa.graph
            assert q.assignment_graph() is not pa.graph
            assert_same_solve(q)
            assert solve_exact(q) == solve_exact(pb)
        # an equal copy of the pairs is a different array: laid out anew
        copy = replace(pa, pairs=pa.pairs.copy())
        assert copy.assignment_graph() is not pa.graph
        assert solve_exact(copy) == solve_exact(pa)


class TestConstraints:
    def test_forbidding_the_optimum(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        base = solve_branch_and_bound(p)
        banned = frozenset(
            p.pair_var(lo, up) for lo, up in base.pairs()
        )
        m = solve_branch_and_bound(p, constraints=(banned,))
        chosen = {p.pair_var(lo, up) for lo, up in m.pairs()}
        assert len(chosen & banned) < len(banned)
        assert m.matched == {1: 5, 2: 4, 3: 6}
        assert m.critical == frozenset({0})
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
            chosen = {p.pair_var(lo, up) for lo, up in m.pairs()}
            assert all(not cut <= chosen for cut in cuts)

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

    def test_constraint_validation(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.5)
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset(),))
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset({p.n_pairs}),))
        with pytest.raises(ValueError):
            solve_branch_and_bound(p, constraints=(frozenset({-1}),))


class TestVerify:
    def test_valid(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (1, 5), (2, 4)], critical={6})
        assert report.ok
        assert report.kinds() == set()

    def test_non_admissible(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 6), (1, 5), (2, 4)], critical={3})
        assert "non_admissible" in report.kinds()

    def test_two_out(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (0, 4), (1, 5)], critical={2, 6})
        assert "two_out" in report.kinds()

    def test_two_in(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (1, 3), (2, 4)], critical={5, 6})
        assert "two_in" in report.kinds()

    def test_in_and_out(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (3, 6), (2, 4)], critical={1, 5})
        assert "in_and_out" in report.kinds()

    def test_critical_in_pair(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (1, 5), (2, 4)], critical={3, 6})
        assert "critical_in_pair" in report.kinds()

    def test_uncovered(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (1, 5), (2, 4)], critical=set())
        assert report.kinds() == {"uncovered"}
        assert report.violations[0].cells == (6,)

    def test_unknown_cell(self, toy):
        _, K, _ = toy
        report = verify_matching(K, [(0, 3), (1, 5), (2, 4)], critical={6, 99})
        assert "unknown_cell" in report.kinds()

    def test_out_of_range_pair_ids(self, toy):
        _, K, _ = toy
        # -1 must not wrap around to the last cell, the triangle whose face 5 is
        report = verify_matching(K, [(0, 3), (2, 4), (5, -1), (1, 7)], critical={6})
        assert [(v.kind, v.cells) for v in report.violations] == [
            ("non_admissible", (5, -1)),
            ("non_admissible", (1, 7)),
            ("unknown_cell", (-1,)),
            ("unknown_cell", (7,)),
        ]

    def test_non_integer_ids_rejected(self, toy):
        _, K, _ = toy
        assert verify_matching(K, [(0, 3.0), (1, 5), (2, 4)], critical={6}).ok
        with pytest.raises(ValueError, match="cell id 3.5 is not an integer"):
            verify_matching(K, [(0, 3.5), (1, 5), (2, 4)], critical={6})
        with pytest.raises(ValueError, match="cell id nan is not an integer"):
            verify_matching(K, [(0, 3), (1, 5), (2, 4)], critical={6, math.nan})

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
            pairs, critical = m.pairs(), set(m.critical)
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
            rng.shuffle(pairs)
            got = verify_matching(K, pairs, critical).violations
            assert [(v.kind, v.cells, v.detail) for v in got] == matching_violations_by_loop(
                K, pairs, critical
            )


class TestRepair:
    def test_inadmissible_pair_becomes_critical(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        fixed = repair(K, model, [(0, 6), (1, 5), (2, 4), (3, 3)])
        assert fixed.matched == {1: 5, 2: 4}
        assert fixed.critical == frozenset({0, 3, 6})
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
            from combidyn import assignment_objective

            before = assignment_objective(model, assignment)
            fixed = repair(K, model, assignment)
            n_bad = sum(
                1 for i, j in assignment if i != j and K.pair_index([(i, j)])[0] < 0
            )
            saved = n_bad * (model.penalty - 2 * model.alpha)
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
            assert n_matched == len(m.matched)
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


class TestMatchingViews:
    def test_domain_image(self):
        m = Matching(matched={0: 3, 1: 5}, critical=frozenset({6}), objective=0.0)
        assert m.domain == frozenset({0, 1, 6})
        assert m.image == frozenset({3, 5, 6})
        assert m.pairs() == [(0, 3), (1, 5)]
