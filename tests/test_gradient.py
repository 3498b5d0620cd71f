import math

import numpy as np
import pytest

import combidyn.gradient
from combidyn import (
    DEFAULT_ALPHA_GRID,
    all_critical_threshold,
    alpha_sweep,
    assign_vertex_average,
    build_cost_model,
    build_problem,
    is_gradient,
    multiflow,
    preset_field,
    simplicial_complex,
    solve_exact,
    solve_gradient_constrained,
    strongly_connected_components,
)
from combidyn.dynamics import _sccs

from conftest import problem_for, random_cubical_instance, random_simplicial_instance, to_csr
from oracles import gradient_optimum, sccs_by_reachability


def cyclic_cells(K, m):
    return [s.cells for s in strongly_connected_components(multiflow(K, m)).multi_cell()]


class TestIsGradient:
    def test_toy_cycle_witness(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.75))
        assert is_gradient(K, m) is False
        # the three vertex-edge pairs (0, 3), (1, 5), (2, 4) form one cycle
        assert cyclic_cells(K, m) == [(0, 1, 2, 3, 4, 5)]

    def test_all_critical_is_gradient(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.05))
        assert m.pairs.tolist() == []
        assert is_gradient(K, m) is True

    def test_grad_toy_recovers(self, grad_toy):
        _, K, vectors = grad_toy
        m15 = solve_exact(problem_for(K, vectors, 0.15))
        assert is_gradient(K, m15) is False and cyclic_cells(K, m15)
        m14 = solve_exact(problem_for(K, vectors, 0.14))
        assert m14.pairs.tolist() == [[0, 3]]
        assert m14.objective == pytest.approx(0.95846, abs=1e-5)
        assert is_gradient(K, m14) is True


class TestThreshold:
    def test_toy_value(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        t = all_critical_threshold(model)
        assert t == min(model.pair_costs.tolist()) / 2
        assert t == pytest.approx((1 - 1 / math.sqrt(2)) / 2, abs=1e-12)
        below = solve_exact(problem_for(K, vectors, round(t - 0.01, 6)))
        assert below.pairs.tolist() == []

    def test_grad_toy_value(self, grad_toy):
        _, K, vectors = grad_toy
        model = build_cost_model(K, vectors, alpha=0.5)
        assert all_critical_threshold(model) == pytest.approx(0.129232, abs=1e-5)

    def test_no_pairs(self):
        K = simplicial_complex(np.array([[0.0, 0.0]]), [(0,)])
        model = build_cost_model(K, np.ones((1, 2)), alpha=0.5)
        assert all_critical_threshold(model) == math.inf

    def test_zero_cost_warns(self):
        K = simplicial_complex(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])
        vectors = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        model = build_cost_model(K, vectors, alpha=0.5)
        with pytest.warns(RuntimeWarning, match="zero"):
            t = all_critical_threshold(model)
        assert t == 0.0


class TestSweep:
    def test_two_step_grid(self, grad_toy):
        _, K, vectors = grad_toy
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5), alpha_grid=(0.15, 0.14))
        assert alpha == 0.14
        assert m.pairs.tolist() == [[0, 3]]

    def test_fallback_to_threshold(self, grad_toy):
        _, K, vectors = grad_toy
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5), alpha_grid=(0.15,))
        assert alpha == pytest.approx(0.129232, abs=1e-5)
        assert m.pairs.tolist() == []
        assert len(m.critical) == 7
        assert m.objective == pytest.approx(7 * alpha, abs=1e-9)

    def test_gradient_tested_once_per_new_matching(self, toy, monkeypatch):
        _, K, vectors = toy
        calls = []

        def counting(complex, matching):
            calls.append(matching.pairs.tolist())
            return is_gradient(complex, matching)

        monkeypatch.setattr(combidyn.gradient, "is_gradient", counting)
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5))
        assert (alpha, m.pairs.tolist()) == (0.14, [])
        steps = [
            solve_exact(problem_for(K, vectors, a)).pairs.tolist()
            for a in DEFAULT_ALPHA_GRID
            if a >= alpha
        ]
        assert len(steps) == 187
        changed = [s for i, s in enumerate(steps) if i == 0 or s != steps[i - 1]]
        assert calls == changed == [[[0, 3], [1, 5], [2, 4]], []]

    def test_default_grid_shape(self):
        assert DEFAULT_ALPHA_GRID[0] == 2.0
        assert DEFAULT_ALPHA_GRID[-1] == 0.0
        assert len(DEFAULT_ALPHA_GRID) == 201
        assert all(a > b for a, b in zip(DEFAULT_ALPHA_GRID, DEFAULT_ALPHA_GRID[1:]))

    def test_grid_validation(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, 0.5)
        with pytest.raises(ValueError, match="empty"):
            alpha_sweep(K, model, alpha_grid=())
        with pytest.raises(ValueError, match="descending"):
            alpha_sweep(K, model, alpha_grid=(0.1, 0.2))
        with pytest.raises(ValueError, match="within"):
            alpha_sweep(K, model, alpha_grid=(2.5, 1.0))
        with pytest.raises(ValueError, match="within"):
            alpha_sweep(K, model, alpha_grid=(1.0, -0.1))


class TestConstrainedSolve:
    def test_toy(self, toy):
        _, K, vectors = toy
        p = problem_for(K, vectors, 0.75)
        m, rounds = solve_gradient_constrained(p, K)
        assert m.pairs.tolist() == [[1, 5], [2, 4], [3, 6]]
        assert m.critical.tolist() == [0]
        assert is_gradient(K, m) is True
        assert rounds == 1
        assert m.objective == gradient_optimum(K, p)

    def test_grad_toy(self, grad_toy):
        _, K, vectors = grad_toy
        p = problem_for(K, vectors, 0.15)
        m, rounds = solve_gradient_constrained(p, K)
        # {0: 3, 1: 5} and {0: 3, 2: 4} tie exactly; which one comes back is
        # the MIP solver's choice
        assert rounds == 1
        assert m.objective == gradient_optimum(K, p)
        assert m.objective == pytest.approx(1.00136, abs=1e-5)
        assert is_gradient(K, m) is True

    def test_gradient_input_needs_no_rounds(self, grad_toy):
        _, K, vectors = grad_toy
        m, rounds = solve_gradient_constrained(problem_for(K, vectors, 0.14), K)
        assert rounds == 0
        assert m.pairs.tolist() == [[0, 3]]

    def test_round_budget(self, toy):
        _, K, vectors = toy
        with pytest.raises(RuntimeError, match="0 rounds"):
            solve_gradient_constrained(problem_for(K, vectors, 0.75), K, max_rounds=0)

    def test_two_components_cut_in_one_round(self):
        # two disjoint copies of the toy triangle: both cycles are cut at once
        sample = preset_field("toy")
        points = np.vstack([sample.points, sample.points + (10.0, 0.0)])
        K = simplicial_complex(points, [(0, 1, 2), (3, 4, 5)])
        vectors = assign_vertex_average(K, np.vstack([sample.vectors, sample.vectors]))
        p = problem_for(K, vectors, 0.75)
        assert len(cyclic_cells(K, solve_exact(p))) == 2
        m, rounds = solve_gradient_constrained(p, K)
        assert rounds == 1
        assert is_gradient(K, m) is True
        assert m.objective == gradient_optimum(K, p)

    def test_matches_gradient_oracle(self):
        rng = np.random.default_rng(41)
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
        cut = 0
        for trial in range(300):
            if trial % 4:
                K, vectors = random_simplicial_instance(rng)
            else:
                K, vectors = random_cubical_instance(rng, max_extent=2)
            alpha = alphas[trial % 7] if trial % 2 else float(rng.uniform(0.0, 2.0))
            p = problem_for(K, vectors, alpha)
            m, rounds = solve_gradient_constrained(p, K)
            cut += rounds > 0
            assert is_gradient(K, m) is True
            assert m.objective == gradient_optimum(K, p)
        assert cut >= 40


class TestTarjan:
    """The flow's SCC routine: scipy's strong components (Pearce's variant of
    Tarjan's algorithm), renumbered by smallest node."""

    @staticmethod
    def partition(succ):
        _, order, bounds = _sccs(*to_csr(succ))
        return [tuple(order[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]

    def test_two_cycle_and_isolated(self):
        assert self.partition([(1,), (0,), ()]) == [(0, 1), (2,)]

    def test_nested(self):
        succ = [(1,), (2,), (0, 3), (4,), (3,)]
        assert self.partition(succ) == [(0, 1, 2), (3, 4)]

    def test_chain_is_singletons(self):
        assert self.partition([(1,), (2,), ()]) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        labels, order, bounds = _sccs(*to_csr([]))
        assert len(labels) == len(order) == 0
        assert bounds.tolist() == [0]

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            density = rng.uniform(0.0, 0.4)
            succ = [
                tuple(int(v) for v in np.flatnonzero(rng.random(n) < density))
                for _ in range(n)
            ]
            labels, order, bounds = _sccs(*to_csr(succ))
            expected = sccs_by_reachability(succ)
            assert self.partition(succ) == expected
            # components are numbered by smallest member
            for cid, comp in enumerate(expected):
                assert all(labels[c] == cid for c in comp)
