import math

import numpy as np
import pytest

from combidyn import (
    CycleConstraint,
    DEFAULT_ALPHA_GRID,
    all_critical_threshold,
    alpha_sweep,
    build_cost_model,
    build_problem,
    is_gradient,
    simplicial_complex,
    solve_exact,
    solve_gradient_constrained,
)
from combidyn.dynamics import _flow_successors, _sccs
from combidyn.gradient import _shortest_cycle

from conftest import problem_for, random_cubical_instance, random_instance
from oracles import brute_force_optimum, sccs_by_reachability, shortest_cycle_by_bfs


class TestIsGradient:
    def test_toy_cycle_witness(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.75))
        ok, witness = is_gradient(K, m)
        assert not ok
        assert witness == ((0, 3), (1, 5), (2, 4))

    def test_all_critical_is_gradient(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.05))
        assert m.matched == {}
        assert is_gradient(K, m) == (True, None)

    def test_grad_toy_recovers(self, grad_toy):
        _, K, vectors = grad_toy
        ok15, witness = is_gradient(K, solve_exact(problem_for(K, vectors, 0.15)))
        assert not ok15 and witness
        m14 = solve_exact(problem_for(K, vectors, 0.14))
        assert m14.matched == {0: 3}
        assert m14.objective == pytest.approx(0.95846, abs=1e-5)
        assert is_gradient(K, m14) == (True, None)

    # Each search stops once it is deeper than the shortest cycle found so
    # far; the cycle must equal the one searches run to the end pick.

    def test_witness_matches_unbounded_search(self):
        rng = np.random.default_rng(17)
        cyclic = 0
        for trial in range(400):
            if trial % 4:
                K, vectors, _ = random_instance(rng)
            else:
                K, vectors = random_cubical_instance(rng, max_extent=6)
            m = solve_exact(problem_for(K, vectors, float(rng.uniform(0.5, 2.0))))
            cycle = shortest_cycle_by_bfs(_flow_successors(K, m))
            if cycle is None:
                assert is_gradient(K, m) == (True, None)
                continue
            cyclic += 1
            arrows = zip(cycle, cycle[1:] + cycle[:1])
            witness = tuple(sorted((a, b) for a, b in arrows if m.matched.get(a) == b))
            assert is_gradient(K, m) == (False, witness)
        assert cyclic >= 50

    def test_shortest_cycle_matches_unbounded_search(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            density = rng.uniform(0.05, 0.35)
            succ = [
                tuple(int(v) for v in np.flatnonzero(rng.random(n) < density))
                for _ in range(n)
            ]
            assert _shortest_cycle(succ) == shortest_cycle_by_bfs(succ)


class TestThreshold:
    def test_toy_value(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.5)
        t = all_critical_threshold(model)
        assert t == min(model.pair_costs.values()) / 2
        assert t == pytest.approx((1 - 1 / math.sqrt(2)) / 2, abs=1e-12)
        below = solve_exact(problem_for(K, vectors, round(t - 0.01, 6)))
        assert below.matched == {}

    def test_grad_toy_value(self, grad_toy):
        _, K, vectors = grad_toy
        model = build_cost_model(K, vectors, alpha=0.5)
        assert all_critical_threshold(model) == pytest.approx(0.129232, abs=1e-5)

    def test_no_pairs(self):
        K = simplicial_complex(np.array([[0.0, 0.0]]), [(0,)])
        model = build_cost_model(K, {0: np.ones(2)}, alpha=0.5)
        assert all_critical_threshold(model) == math.inf

    def test_zero_cost_warns(self):
        K = simplicial_complex(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])
        vectors = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]), 2: np.array([1.0, 1.0])}
        model = build_cost_model(K, vectors, alpha=0.5)
        with pytest.warns(RuntimeWarning, match="zero"):
            t = all_critical_threshold(model)
        assert t == 0.0


class TestSweep:
    def test_two_step_grid(self, grad_toy):
        _, K, vectors = grad_toy
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5), alpha_grid=(0.15, 0.14))
        assert alpha == 0.14
        assert m.matched == {0: 3}

    def test_fallback_to_threshold(self, grad_toy):
        _, K, vectors = grad_toy
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5), alpha_grid=(0.15,))
        assert alpha == pytest.approx(0.129232, abs=1e-5)
        assert m.matched == {}
        assert len(m.critical) == 7
        assert m.objective == pytest.approx(7 * alpha, abs=1e-9)

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
        m, constraints = solve_gradient_constrained(p, K)
        assert m.matched == {1: 5, 2: 4, 3: 6}
        assert m.critical == frozenset({0})
        assert is_gradient(K, m) == (True, None)
        assert len(constraints) == 1
        assert constraints[0].arc_set == frozenset(
            p.pair_var(lo, up) for lo, up in ((0, 3), (1, 5), (2, 4))
        )
        assert constraints[0].bound == 2

    def test_grad_toy(self, grad_toy):
        _, K, vectors = grad_toy
        p = problem_for(K, vectors, 0.15)
        m, constraints = solve_gradient_constrained(p, K)
        # {0: 3, 1: 5} and {0: 3, 2: 4} tie exactly; which one comes back is
        # the MIP solver's choice
        assert len(constraints) == 1
        assert m.objective == brute_force_optimum(p, [c.arc_set for c in constraints])
        assert m.objective == pytest.approx(1.00136, abs=1e-5)
        assert is_gradient(K, m) == (True, None)

    def test_gradient_input_needs_no_rounds(self, grad_toy):
        _, K, vectors = grad_toy
        m, constraints = solve_gradient_constrained(problem_for(K, vectors, 0.14), K)
        assert constraints == ()
        assert m.matched == {0: 3}

    def test_round_budget(self, toy):
        _, K, vectors = toy
        with pytest.raises(RuntimeError, match="0 rounds"):
            solve_gradient_constrained(problem_for(K, vectors, 0.75), K, max_rounds=0)


class TestCycleConstraint:
    def test_bound(self):
        c = CycleConstraint(frozenset({1, 4, 7}))
        assert c.bound == 2


class TestTarjan:
    """The flow's SCC routine: scipy's strong components (Pearce's variant of
    Tarjan's algorithm), renumbered by smallest node."""

    @staticmethod
    def partition(succ):
        _, order, bounds = _sccs(succ)
        return [tuple(order[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]

    def test_two_cycle_and_isolated(self):
        assert self.partition([(1,), (0,), ()]) == [(0, 1), (2,)]

    def test_nested(self):
        succ = [(1,), (2,), (0, 3), (4,), (3,)]
        assert self.partition(succ) == [(0, 1, 2), (3, 4)]

    def test_chain_is_singletons(self):
        assert self.partition([(1,), (2,), ()]) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        labels, order, bounds = _sccs([])
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
            labels, order, bounds = _sccs(succ)
            expected = sccs_by_reachability(succ)
            assert self.partition(succ) == expected
            # components are numbered by smallest member
            for cid, comp in enumerate(expected):
                assert all(labels[c] == cid for c in comp)
