import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import combidyn.gradient
import combidyn.solver
from combidyn import (
    DEFAULT_ALPHA_GRID,
    all_critical_threshold,
    alpha_sweep,
    assign_vertex_average,
    build_cost_model,
    build_problem,
    Matching,
    classify_recurrence,
    cubical_grid,
    evaluate_matching,
    is_gradient,
    preset_field,
    simplicial_complex,
    solve_exact,
    solve_gradient_constrained,
    verify_matching,
)
from combidyn.datagen import GridSpec
from combidyn.dynamics import _flow_successors, _sccs, cyclic_components

from conftest import (
    KINDS,
    complexes,
    problem_for,
    random_cubical_instance,
    random_simplicial_instance,
    recorded_frontiers,
    successor_lists,
    to_csr,
)
from oracles import alpha_sweep_by_grid, gradient_optimum, sccs_by_reachability


def cyclic_cells(K, m):
    return [s.cells for s in classify_recurrence(K, m).multi_cell()]


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
        # cyclic at 0.15, gradient at 0.14, the next default grid value
        _, K, vectors = grad_toy
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5))
        assert alpha == 0.14
        assert m.pairs.tolist() == [[0, 3]]

    def test_fallback_to_threshold(self, grad_toy, monkeypatch):
        # on a grid that ends at 0.15 the pairs never change, and the sweep
        # falls back to the all-critical matching
        _, K, vectors = grad_toy
        monkeypatch.setattr(combidyn.gradient, "DEFAULT_ALPHA_GRID", (0.15,))
        alpha, m = alpha_sweep(K, build_cost_model(K, vectors, 0.5))
        assert alpha == pytest.approx(0.129232, abs=1e-5)
        assert m.pairs.tolist() == []
        assert len(m.critical) == 7
        assert m.objective == pytest.approx(7 * alpha, abs=1e-9)

    def test_no_pairs(self):
        # three vertices, no edge: the empty matching is gradient at the first
        # grid value, so the infinite threshold is never reached
        K = simplicial_complex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0,), (1,), (2,)])
        alpha, m = alpha_sweep(K, build_cost_model(K, np.ones((3, 2)), alpha=0.5))
        assert alpha == 2.0
        assert m.pairs.tolist() == []
        assert m.critical.tolist() == [0, 1, 2]
        assert m.objective == 6.0
        assert alpha_sweep_by_grid(K, build_cost_model(K, np.ones((3, 2)), alpha=0.5))[0] == 2.0

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

    @pytest.mark.parametrize("where", ["grid", "pair"])
    def test_non_finite_cost_raises_before_any_solve(self, toy, monkeypatch, where):
        # LAPJVsp never returns on NaN, so the sweep checks every cost it can
        # price before its first selection; a selection here fails the test
        _, K, vectors = toy
        model = build_cost_model(K, vectors, 0.5)
        if where == "grid":
            monkeypatch.setattr(combidyn.gradient, "DEFAULT_ALPHA_GRID", (2.0, 1.0, math.nan))
            message = r"variable 9 \(diagonal of cell 0\) is nan, not finite"
        else:
            costs = model.pair_costs.copy()
            costs[2] = math.nan
            model = replace(model, pair_costs=costs)
            message = r"variable 2 \(pair \(1, 3\)\) is nan, not finite"
        selections = []
        monkeypatch.setattr(combidyn.solver.AssignmentGraph, "select", lambda g, c, forbid=None: selections.append(c))
        with pytest.raises(ValueError, match=message):
            alpha_sweep(K, model)
        assert selections == []

    def test_default_grid_shape(self):
        assert DEFAULT_ALPHA_GRID[0] == 2.0
        assert DEFAULT_ALPHA_GRID[-1] == 0.0
        assert len(DEFAULT_ALPHA_GRID) == 201
        assert all(a > b for a, b in zip(DEFAULT_ALPHA_GRID, DEFAULT_ALPHA_GRID[1:]))


def traced_sweep(K, model):
    """`alpha_sweep`'s answer, plus the alpha of every LAPJVsp selection
    (`AssignmentGraph.select`) and the verdict of every `is_gradient` call it
    made, in order."""
    solved, tested = [], []
    select = combidyn.solver.AssignmentGraph.select

    def solve(graph, costs, forbid=None):
        solved.append(float(costs[len(graph.pair_row)]))  # the diagonal is the alpha
        return select(graph, costs, forbid)

    def test(complex, matching):
        tested.append(is_gradient(complex, matching))
        return tested[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combidyn.solver.AssignmentGraph, "select", solve)
        mp.setattr(combidyn.gradient, "is_gradient", test)
        alpha, m = alpha_sweep(K, model)
    return alpha, m, solved, tested


def assert_valid_sweep(K, model, alpha, m, solved, tested):
    """The sweep's answer holds up on its own: no grid value solved twice,
    every matching tested before the answer cyclic, and the answer either a
    grid alpha with the gradient optimum `solve_exact` returns there, or the
    all-critical fallback after the last grid value."""
    grid = DEFAULT_ALPHA_GRID
    assert len(set(solved)) == len(solved)
    assert set(solved) <= set(grid)
    assert not any(tested[:-1])
    if alpha in grid:
        assert tested[-1] is True
        want = solve_exact(build_problem(replace(model, alpha=alpha), K))
        assert np.array_equal(m.pairs, want.pairs)
        assert m.objective == want.objective
        assert is_gradient(K, m) is True
    else:
        assert grid[-1] in solved and not tested[-1]
        assert alpha == all_critical_threshold(model)
        assert m.pairs.tolist() == []


def runs_are_contiguous(K, model):
    """True when each matching `solve_exact` returns along the default grid
    fills one run of consecutive grid values. Then the bisection finds every
    change, and the sweep must agree with the grid walk."""
    problem = build_problem(model, K)
    pair_costs = problem.costs[: problem.n_pairs]
    steps = []
    for a in DEFAULT_ALPHA_GRID:
        costs = np.concatenate([pair_costs, np.full(len(K), a)])
        steps.append(tuple(solve_exact(replace(problem, costs=costs)).pairs.flat))
    starts = [s for i, s in enumerate(steps) if i == 0 or s != steps[i - 1]]
    return len(starts) == len(set(starts))


@st.composite
def sweep_models(draw, K):
    """A cost model on K, most of them rich in exact ties: cosine costs of
    random vectors, or of vectors half of which are zero (those pairs cost
    2); or pair costs on the quarter grid 0, 0.25, ..., 2, where a pair
    ties its two cells left critical at the grid alphas 0.25, 0.5, 0.75 and
    1. Costs of exactly twice an arbitrary grid alpha are left out: on some
    of them LAPJVsp itself never returns (`test_solver.py`,
    `test_tied_costs_livelock`)."""
    kind = draw(st.sampled_from(["field", "zero_vectors", "quarter_grid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(len(K), K.barycenters.shape[1]))
    if kind == "zero_vectors":
        vectors[rng.random(len(K)) < 0.5] = 0.0
    model = build_cost_model(K, vectors, 0.5)
    if kind == "quarter_grid":
        model = replace(model, pair_costs=0.25 * rng.integers(0, 9, len(model.pair_costs)))
    return model


class TestSweepSearch:
    """The gallop-and-bisect sweep against the grid walk that solves every
    grid value (`oracles.alpha_sweep_by_grid`)."""

    @pytest.mark.parametrize("kind, d", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_grid_walk(self, kind, d, data):
        K = data.draw(complexes(kind, d))
        model = data.draw(sweep_models(K))
        alpha, m, solved, tested = traced_sweep(K, model)
        assert_valid_sweep(K, model, alpha, m, solved, tested)
        want_alpha, want = alpha_sweep_by_grid(K, model)
        if alpha != want_alpha or not np.array_equal(m.pairs, want.pairs):
            # only a tie can tell them apart: the solver returned some
            # matching, then another, then the first one again
            assert not runs_are_contiguous(K, model)

    def test_tie_example(self):
        # pairs (2, 5) and (5, 6) both cost 2, so the cyclic matching
        # (0, 4), (1, 3), (2, 5) and the gradient one (0, 4), (1, 3), (5, 6)
        # tie at every alpha. The solver returns the gradient one at 1.75
        # only; the grid walk stops there, while the sweep never solves 1.75
        # and stops at 1.0.
        K = simplicial_complex(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]), [(0, 1, 2)])
        model = replace(
            build_cost_model(K, np.ones((len(K), 2)), 0.5),
            pair_costs=np.array([2.0, 1.5, 0.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]),
        )
        assert K.pairs.tolist() == [
            [0, 3], [0, 4], [1, 3], [1, 5], [2, 4], [2, 5], [3, 6], [4, 6], [5, 6]
        ]
        alpha, m, solved, tested = traced_sweep(K, model)
        assert (alpha, m.pairs.tolist()) == (1.0, [[0, 4], [1, 3]])
        assert_valid_sweep(K, model, alpha, m, solved, tested)
        assert 1.75 not in solved
        want_alpha, want = alpha_sweep_by_grid(K, model)
        assert (want_alpha, want.pairs.tolist()) == (1.75, [[0, 4], [1, 3], [5, 6]])
        rival = solve_exact(build_problem(replace(model, alpha=1.76), K))
        assert rival.pairs.tolist() == [[0, 4], [1, 3], [2, 5]]
        assert is_gradient(K, rival) is False
        priced = replace(model, alpha=1.75)
        assert evaluate_matching(priced, rival) == evaluate_matching(priced, want)
        assert not runs_are_contiguous(K, model)

    @pytest.mark.parametrize("preset", ["toy", "grad_toy"])
    def test_solve_count(self, preset, request):
        _, K, vectors = request.getfixturevalue(preset)
        _, _, solved, _ = traced_sweep(K, build_cost_model(K, vectors, 0.5))
        assert len(set(solved)) == len(solved)
        distinct = {tuple(solve_exact(problem_for(K, vectors, a)).pairs.flat) for a in solved}
        per_matching = 2 * math.ceil(math.log2(len(DEFAULT_ALPHA_GRID))) + 1
        assert len(solved) < per_matching * len(distinct)


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
        # {0: 3, 1: 5} and {0: 3, 2: 4} tie exactly; the search returns the
        # first node in (bound, creation) order
        assert m.pairs.tolist() == [[0, 3], [2, 4]]
        assert rounds == 1
        assert m.objective == gradient_optimum(K, p)
        assert m.objective == pytest.approx(1.00136, abs=1e-5)
        assert is_gradient(K, m) is True

    def test_gradient_input_needs_no_rounds(self, grad_toy):
        _, K, vectors = grad_toy
        m, rounds = solve_gradient_constrained(problem_for(K, vectors, 0.14), K)
        assert rounds == 0
        assert m.pairs.tolist() == [[0, 3]]

    def test_node_budget(self, toy, monkeypatch):
        _, K, vectors = toy
        # the toy's one cut splits the root into three children; a budget of
        # three nodes runs out at the last of them
        monkeypatch.setattr(combidyn.solver, "MAX_SEARCH_NODES", 3)
        with pytest.raises(RuntimeError, match=r"round 1: .*budget of 3 nodes \(3 created"):
            solve_gradient_constrained(problem_for(K, vectors, 0.75), K)
        monkeypatch.setattr(combidyn.solver, "MAX_SEARCH_NODES", 4)
        m, _ = solve_gradient_constrained(problem_for(K, vectors, 0.75), K)
        assert is_gradient(K, m) is True

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

    @staticmethod
    def oracle_instances():
        """300 seeded instances of at most 12 cells, one in four cubical."""
        rng = np.random.default_rng(41)
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
        for trial in range(300):
            if trial % 4:
                K, vectors = random_simplicial_instance(rng)
            else:
                K, vectors = random_cubical_instance(rng, max_extent=2)
            alpha = alphas[trial % 7] if trial % 2 else float(rng.uniform(0.0, 2.0))
            yield K, problem_for(K, vectors, alpha)

    def test_matches_gradient_oracle(self, monkeypatch):
        frontiers = recorded_frontiers(monkeypatch)
        cut = 0
        for K, p in self.oracle_instances():
            m, rounds = solve_gradient_constrained(p, K)
            cut += rounds > 0
            assert is_gradient(K, m) is True
            assert m.objective == gradient_optimum(K, p)
            # no round returns a node twice, so the node budget bounds the rounds
            assert rounds <= frontiers[-1].created
        assert cut >= 40

    def test_children_solved_together(self, monkeypatch):
        # a noisy rotational field on a 3x3 lattice (25 cells): one round
        # splits three nodes into 20 children, and each split is one LAPJVsp
        # call, so the search makes 4 calls (with the root's) for 21 nodes
        points = GridSpec((-1.0, -1.0), 1.0, (3, 3)).points()
        vectors = np.stack([-points[:, 1], points[:, 0]], axis=1)
        vectors += 0.1 * np.random.default_rng(0).standard_normal(points.shape)
        K = cubical_grid(points, 1.0)
        frontiers = recorded_frontiers(monkeypatch)
        rows = []
        lapjvsp = combidyn.solver.min_weight_full_bipartite_matching

        def counted(graph):
            rows.append(graph.shape[0])
            return lapjvsp(graph)

        monkeypatch.setattr(combidyn.solver, "min_weight_full_bipartite_matching", counted)
        p = problem_for(K, assign_vertex_average(K, vectors), 0.7)
        m, rounds = solve_gradient_constrained(p, K)
        assert (m.objective, rounds, frontiers[0].created) == (2.474080549748288, 1, 21)
        assert len(rows) == 4 < frontiers[0].created
        assert sum(rows) == 21 * len(K)

    def test_every_child_has_a_full_matching(self, monkeypatch):
        # why a child is never infeasible: the pairs fixed along its path are
        # disjoint and the only variable left at their cells, and every other
        # cell keeps its diagonal, so together they select each cell once
        masks = []
        push = combidyn.solver.SearchFrontier.push

        def recorded(frontier, bound, forbidden, selected):
            masks.append(forbidden)
            push(frontier, bound, forbidden, selected)

        monkeypatch.setattr(combidyn.solver.SearchFrontier, "push", recorded)
        children = 0
        for K, p in self.oracle_instances():
            masks.clear()
            solve_gradient_constrained(p, K)
            lo, up = p.pairs.T
            for packed in masks[1:]:  # the first is the root
                forbid = np.unpackbits(packed, count=p.m).view(bool)
                diagonal = ~forbid[p.n_pairs :]
                fixed = ~forbid[: p.n_pairs] & ~diagonal[lo] & ~diagonal[up]
                cover = diagonal + np.bincount(p.pairs[fixed].ravel(), minlength=p.n_cells)
                assert (cover == 1).all()
                children += 1
        assert children == 353

    def test_resumed_search_matches_fresh(self, monkeypatch):
        # every round resumes the shared frontier; a fresh search with the
        # same rows must reach the same optimum
        search = combidyn.gradient.solve_branch_and_bound
        calls = []

        def both(problem, constraints, frontier):
            resumed = search(problem, constraints, frontier)
            calls.append(resumed.objective == search(problem, constraints).objective)
            return resumed

        monkeypatch.setattr(combidyn.gradient, "solve_branch_and_bound", both)
        for K, p in self.oracle_instances():
            solve_gradient_constrained(p, K)
        assert len(calls) >= 40 and all(calls)


class TestSelection:
    def test_solve_exact_builds_its_selection(self):
        # solve_exact is LAPJVsp's raw selection turned into a Matching: the
        # same pairs, the uncovered cells critical, the selected variables'
        # costs summed exactly
        for K, p in TestConstrainedSolve.oracle_instances():
            hit = p.graph.select(p.costs)
            critical = np.setdiff1d(np.arange(p.n_cells), p.pairs[hit])
            chosen = np.concatenate([np.flatnonzero(hit), p.n_pairs + critical])
            want = Matching(p.pairs[hit], critical, math.fsum(p.costs[chosen].tolist()))
            got = solve_exact(p)
            assert np.array_equal(got.pairs, want.pairs)
            assert np.array_equal(got.critical, want.critical)
            assert got.objective.hex() == want.objective.hex()

    def test_every_lapjvsp_call_is_in_select(self, monkeypatch):
        # AssignmentGraph.select is the one place that calls LAPJVsp, for
        # the plain solve, the sweep and the branch-and-bound alike
        select = combidyn.solver.AssignmentGraph.select.__code__
        lapjvsp = combidyn.solver.min_weight_full_bipartite_matching
        callers = []

        def recorded(graph):
            callers.append(sys._getframe(1).f_code)
            return lapjvsp(graph)

        monkeypatch.setattr(combidyn.solver, "min_weight_full_bipartite_matching", recorded)
        frontiers = recorded_frontiers(monkeypatch)
        points = GridSpec((-1.0, -1.0), 1.0, (3, 3)).points()
        vectors = np.stack([-points[:, 1], points[:, 0]], axis=1)
        vectors += 0.1 * np.random.default_rng(0).standard_normal(points.shape)
        K = cubical_grid(points, 1.0)
        vectors = assign_vertex_average(K, vectors)
        solve_exact(problem_for(K, vectors, 0.7))
        alpha_sweep(K, build_cost_model(K, vectors, 0.7))
        _, rounds = solve_gradient_constrained(problem_for(K, vectors, 0.7), K)
        assert rounds == 1 and frontiers[0].created > 1
        assert len(callers) > 5
        assert all(code is select for code in callers)


@st.composite
def valid_matchings(draw, K):
    """A random partial matching of K, from none to a maximal one, with every
    unmatched cell critical."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([0.0, 0.75, 1.0]))
    used = np.zeros(len(K), dtype=bool)
    pairs = []
    for lo, up in K.pairs[rng.permutation(len(K.pairs))].tolist():
        if not used[lo] and not used[up] and rng.random() < keep:
            pairs.append((lo, up))
            used[lo] = used[up] = True
    return Matching(pairs=pairs, critical=np.flatnonzero(~used), objective=0.0)


class TestGradientArrows:
    """`is_gradient` reads the gradient arrows only; the full flow, closure
    arcs of the critical cells included, must have the same multi-cell
    components (by reachability, `oracles.sccs_by_reachability`)."""

    @pytest.mark.parametrize("kind, d", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_full_flow(self, kind, d, data):
        K = data.draw(complexes(kind, d))
        m = data.draw(valid_matchings(K))
        assert verify_matching(K, m).ok
        full = sccs_by_reachability(successor_lists(*_flow_successors(K, m)))
        multi = [c for c in full if len(c) > 1]
        assert is_gradient(K, m) is (not multi)
        assert [tuple(c.tolist()) for c in cyclic_components(K, m)] == multi


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
