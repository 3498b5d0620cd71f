import math
import sys

import numpy as np
import pytest

from combidyn import (
    Matching,
    build_cost_model,
    build_problem,
    evaluate_matching,
    objective_decomposition,
    repair,
    simplicial_complex,
    solve_branch_and_bound,
    solve_exact,
    verify_matching,
)

from conftest import problem_for, random_instance
from oracles import brute_force_optimum

TOY_ALPHA = 0.75
TOY_OBJECTIVE = 1.6286796564403576  # 3 * (1 - 1/sqrt(2)) + alpha


class TestProblem:
    def test_variable_layout(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, TOY_ALPHA)
        assert p.n_cells == 7
        assert p.n_pairs == 9
        assert p.m == 16
        pairs = p.variables[: p.n_pairs]
        assert pairs == sorted(pairs)
        assert all(lo < up for lo, up in pairs)
        assert p.variables[p.n_pairs :] == [(k, k) for k in range(7)]
        for k in range(7):
            assert p.variables[p.diagonal_var(k)] == (k, k)
            assert p.costs[p.diagonal_var(k)] == TOY_ALPHA
        for i, (lo, up) in enumerate(pairs):
            assert p.pair_var(lo, up) == i

    def test_cell_incidence(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.5)
        hits = [0] * p.m
        for vs in p.cell_vars:
            for v in vs:
                hits[v] += 1
        assert all(h == 2 for h in hits[: p.n_pairs])
        assert all(h == 1 for h in hits[p.n_pairs :])

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
        vectors = {0: np.array([1.0, 0.0])}
        p = problem_for(K, vectors, 0.3)
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
            cells = sorted(c.id for c in K.cells)
            # pair cells off arbitrarily, ignoring admissibility
            perm = list(rng.permutation(cells))
            assignment = [
                tuple(sorted((perm[i], perm[i + 1]))) for i in range(0, len(perm) - 1, 2)
            ]
            if len(perm) % 2:
                assignment.append((perm[-1], perm[-1]))
            from combidyn import assignment_objective

            before = assignment_objective(model, assignment)
            fixed = repair(K, model, assignment)
            n_bad = sum(
                1 for i, j in assignment if i != j and (i, j) not in model.pair_costs
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
