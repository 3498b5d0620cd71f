import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combidyn import (
    Matching,
    build_cost_model,
    build_problem,
    classify_recurrence,
    multiflow,
    solve_exact,
)
from combidyn.dynamics import _flow_successors

from conftest import KINDS, complexes, problem_for, random_instance, successor_lists
from oracles import closure_by_walk, flow_successors_by_closure, sccs_by_reachability


class TestMultiflow:
    def test_toy_successors(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.75))
        flow = multiflow(K, m)
        assert successor_lists(flow.succ_ptr, flow.succ_idx) == [
            (3,),
            (5,),
            (4,),
            (1,),
            (0,),
            (2,),
            (0, 1, 2, 3, 4, 5, 6),
        ]
        assert flow.dims.tolist() == [0, 0, 0, 1, 1, 1, 2]
        assert flow.critical.tolist() == [6]

    def test_critical_maps_to_closure_with_self_loop(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.05))
        flow = multiflow(K, m)
        succ = successor_lists(flow.succ_ptr, flow.succ_idx)
        for c in range(len(K)):
            assert c in succ[c]
            assert succ[c] == tuple(sorted(K.closure(c)))

    def test_invalid_matching_rejected(self, toy):
        _, K, _ = toy
        bad = Matching(pairs=[(0, 3)], critical=(), objective=0.0)
        with pytest.raises(ValueError, match="not valid"):
            multiflow(K, bad)


@st.composite
def matchings(draw, K):
    """Every cell critical; a maximal random matching with no critical cell
    named (the flow takes the matching as given); or a random partial
    matching with the uncovered cells critical."""
    mode = draw(st.sampled_from(["all_critical", "no_critical", "random"]))
    if mode == "all_critical":
        return Matching(pairs=(), critical=np.arange(len(K)), objective=0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = 1.0 if mode == "no_critical" else rng.random()
    used = np.zeros(len(K), dtype=bool)
    pairs = []
    for lo, up in K.pairs[rng.permutation(len(K.pairs))].tolist():
        if not used[lo] and not used[up] and rng.random() < keep:
            pairs.append((lo, up))
            used[lo] = used[up] = True
    critical = () if mode == "no_critical" else np.flatnonzero(~used)
    return Matching(pairs=pairs, critical=critical, objective=0.0)



class TestFlowSuccessors:
    """The array closure of critical cells against one depth-first closure
    walk per critical cell (`oracles.flow_successors_by_closure`)."""

    @pytest.mark.parametrize("kind, d", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_closure_walk(self, kind, d, data):
        K = data.draw(complexes(kind, d))
        m = data.draw(matchings(K))
        ptr, idx = _flow_successors(K, m)
        want_ptr, want_idx = flow_successors_by_closure(K, m)
        assert np.array_equal(ptr, want_ptr)
        assert np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("kind, d", KINDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_closure_matches_walk(self, kind, d, data):
        K = data.draw(complexes(kind, d))
        for c in range(len(K)):
            assert K.closure(c) == frozenset(closure_by_walk(K, c))
        cell, face = K.closures([len(K) - 1, 0, len(K) - 1])
        want = sorted(
            (c, f) for c in {0, len(K) - 1} for f in closure_by_walk(K, c)
        )
        assert list(zip(cell.tolist(), face.tolist())) == want


class TestRecurrence:
    @pytest.mark.parametrize("kind, d", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reachability_on_full_flow(self, kind, d, data):
        # read off the gradient arrows, the report must be that of the full
        # flow, closure arcs of the critical cells included
        K = data.draw(complexes(kind, d))
        m = data.draw(matchings(K))
        succ = successor_lists(*_flow_successors(K, m))
        comps = sccs_by_reachability(succ)  # ranked by smallest cell
        report = classify_recurrence(K, m)
        assert report.n_components == len(comps)
        assert report.scc_id.tolist() == [
            cid for _, cid in sorted((c, cid) for cid, comp in enumerate(comps) for c in comp)
        ]
        want = [
            (cid, comp, tuple(c for c in comp if sum(s in comp for s in succ[c]) > 1), len(comp) == 1)
            for cid, comp in enumerate(comps)
            if len(comp) > 1 or comp[0] in succ[comp[0]]
        ]
        got = [(s.id, s.cells, s.self_intersections, s.is_critical_singleton) for s in report.sccs]
        assert got == want
        dims = K.dims[m.critical].tolist()
        assert report.critical_census == {k: dims.count(k) for k in sorted(set(dims))}

    def test_toy_components(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.75))
        report = classify_recurrence(K, m)
        assert report.n_components == 2
        assert report.scc_id.tolist() == [0, 0, 0, 0, 0, 0, 1]

        orbit, crit = report.sccs
        assert orbit.cells == (0, 1, 2, 3, 4, 5)
        assert orbit.size == 6
        assert orbit.d == 0
        assert orbit.dims_present == (0, 1)
        assert orbit.self_intersections == ()
        assert not orbit.is_critical_singleton

        assert crit.cells == (6,)
        assert crit.is_critical_singleton
        assert crit.d == 2
        assert report.critical_census == {2: 1}
        assert report.multi_cell() == [orbit]
        assert report.critical_singletons() == [crit]

    def test_all_critical(self, toy):
        _, K, vectors = toy
        m = solve_exact(problem_for(K, vectors, 0.05))
        report = classify_recurrence(K, m)
        assert report.n_components == 7
        assert len(report.critical_singletons()) == 7
        assert report.multi_cell() == []
        assert report.critical_census == {0: 3, 1: 3, 2: 1}

    def test_grad_toy_cycle_dims(self, grad_toy):
        _, K, vectors = grad_toy
        m = solve_exact(problem_for(K, vectors, 0.15))
        report = classify_recurrence(K, m)
        cyclic = report.multi_cell()
        assert cyclic
        assert all(s.d == 0 and s.dims_present == (0, 1) for s in cyclic)

    def test_component_numbering_is_by_smallest_cell(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            K, vectors, alpha = random_instance(rng)
            m = solve_exact(problem_for(K, vectors, alpha))
            report = classify_recurrence(K, m)
            assert report.scc_id is not None
            mins = {}
            for c, cid in enumerate(report.scc_id.tolist()):
                mins.setdefault(cid, c)
            assert list(mins) == sorted(mins, key=lambda cid: mins[cid])
            assert [mins[cid] for cid in sorted(mins)] == sorted(mins.values())

    def test_structural_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            K, vectors, alpha = random_instance(rng)
            m = solve_exact(problem_for(K, vectors, alpha))
            flow = multiflow(K, m)
            report = classify_recurrence(K, m)
            succ = successor_lists(flow.succ_ptr, flow.succ_idx)
            singles = {s.cells[0] for s in report.critical_singletons()}
            assert singles == set(m.critical)
            for info in report.multi_cell():
                assert not set(info.cells) & set(m.critical)
                members = set(info.cells)
                recomputed = tuple(
                    c
                    for c in info.cells
                    if sum(1 for s in succ[c] if s in members) > 1
                )
                assert recomputed == info.self_intersections
