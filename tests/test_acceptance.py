"""End-to-end acceptance gate.

One test per shipped guarantee, each pinned to explicit tolerances and wall
clock budgets. Everything here runs the public API the way a user would;
low-level edge cases live in the per-module suites.
"""

import math
import time

import numpy as np
import pytest

from combidyn import (
    PipelineConfig,
    assign_vertex_average,
    barycentric_subdivision,
    build_cost_model,
    build_problem,
    classify_recurrence,
    delaunay_2d,
    evaluate_matching,
    export_report,
    is_gradient,
    preset_field,
    run_pipeline,
    solve_branch_and_bound,
    solve_exact,
    solve_gradient_constrained,
    verify_matching,
    verify_report,
    write_field_csv,
)

from conftest import (
    problem_for,
    random_instance,
    random_simplicial_instance,
    recorded_frontiers,
)
from oracles import assignment_objective, brute_force_optimum, euler_characteristic, penalty, repair


def pipeline_on_preset(tmp_path, preset, **cfg):
    path = tmp_path / f"{preset}.csv"
    write_field_csv(path, preset_field(preset))
    t0 = time.monotonic()
    analysis = run_pipeline(PipelineConfig(**cfg), path)
    elapsed = time.monotonic() - t0
    return analysis, elapsed, path


def test_criterion_01_toy_cost_matrix_and_matching(toy):
    _, K, vectors = toy
    t0 = time.monotonic()
    model = build_cost_model(K, vectors, alpha=0.75)
    matching = solve_exact(build_problem(model, K))
    elapsed = time.monotonic() - t0

    assert model.costs_of([(0, 3)])[0] == pytest.approx(0.29, abs=0.005)
    assert model.costs_of([(1, 3)])[0] == pytest.approx(1.71, abs=0.005)
    assert model.costs_of([(3, 6)])[0] == pytest.approx(0.55, abs=0.005)
    assert model.costs_of([(4, 6)])[0] == pytest.approx(1.00, abs=0.005)
    # hand-derived from the cost definition: 1 - 1/sqrt(10)
    assert model.costs_of([(5, 6)])[0] == pytest.approx(1 - 1 / math.sqrt(10), abs=1e-12)
    assert model.alpha == 0.75

    assert matching.pairs.tolist() == [[0, 3], [1, 5], [2, 4]]
    assert matching.critical.tolist() == [6]
    assert matching.objective == pytest.approx(3 * (1 - 1 / math.sqrt(2)) + 0.75, abs=1e-12)
    assert elapsed < 1.0


def test_criterion_02_exact_solver_matches_enumeration():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for _ in range(120):
        K, vectors, alpha = random_instance(rng, small=True)
        assert len(K) <= 12
        p = problem_for(K, vectors, alpha)
        best_obj = brute_force_optimum(p)
        assert solve_exact(p).objective == best_obj
        assert solve_branch_and_bound(p).objective == best_obj
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_solver_outputs_always_verify():
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(1000):
        K, vectors, alpha = random_instance(rng)
        m = solve_exact(problem_for(K, vectors, alpha))
        if not verify_matching(K, m).ok:
            failures += 1
    assert failures == 0


def test_criterion_04_repair_is_admissible_and_strictly_cheaper():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        K, vectors, alpha = random_instance(rng)
        model = build_cost_model(K, vectors, alpha)
        perm = list(rng.permutation(range(len(K))))
        assignment = [
            tuple(sorted((perm[i], perm[i + 1]))) for i in range(0, len(perm) - 1, 2)
        ]
        if len(perm) % 2:
            assignment.append((perm[-1], perm[-1]))
        n_bad = sum(1 for i, j in assignment if i != j and K.pair_index([(i, j)])[0] < 0)
        if n_bad == 0:
            continue
        checked += 1
        before = assignment_objective(model, assignment)
        fixed = repair(K, model, assignment)
        assert verify_matching(K, fixed).ok
        drop_per_pair = penalty(model.alpha) - 2 * model.alpha
        assert drop_per_pair > 0
        assert before - fixed.objective >= n_bad * drop_per_pair - 1e-9


def test_criterion_05_gradient_recovery(grad_toy):
    _, K, vectors = grad_toy

    m15 = solve_exact(problem_for(K, vectors, 0.15))
    assert is_gradient(K, m15) is False
    cycle_dims = {
        s.dims_present for s in classify_recurrence(K, m15).multi_cell()
    }
    assert (0, 1) in cycle_dims  # recurrent vertex-edge cycle

    m14 = solve_exact(problem_for(K, vectors, 0.14))
    assert is_gradient(K, m14) is True

    model15 = build_cost_model(K, vectors, alpha=0.15)
    constrained, rounds = solve_gradient_constrained(build_problem(model15, K), K)
    assert is_gradient(K, constrained) is True
    assert rounds >= 1
    # fair comparison: both gradient matchings priced at the same alpha
    assert constrained.objective <= evaluate_matching(model15, m14) + 1e-12

    rng = np.random.default_rng(55)
    for _ in range(50):
        Kr, vr = random_simplicial_instance(rng)
        model = build_cost_model(Kr, vr, alpha=0.5)
        t = float(model.pair_costs.min()) / 2
        assert t > 0
        alpha = min(2.0, t) * 0.99
        m = solve_exact(problem_for(Kr, vr, alpha))
        assert m.pairs.shape == (0, 2)
        assert m.critical.tolist() == list(range(len(Kr)))


def test_criterion_06_circular_orbits_on_cubical_grid(tmp_path):
    analysis, elapsed, _ = pipeline_on_preset(
        tmp_path, "intro", complex_kind="cubical", side=0.44, alpha=0.90
    )
    assert elapsed < 30.0

    multi = analysis.recurrence.multi_cell()
    assert len(multi) >= 2
    seen = set()
    for info in multi:
        assert not seen & set(info.cells)
        seen |= set(info.cells)

    def mean_radius(info):
        return float(
            np.mean([np.linalg.norm(analysis.complex.barycenters[c]) for c in info.cells])
        )

    # the attracting orbit near r=1 comes out as a vertex-edge component, the
    # repelling orbit near r=2 as an edge-square component
    attracting = [s for s in multi if s.dims_present == (0, 1) and 0.5 < mean_radius(s) < 1.5]
    repelling = [s for s in multi if s.dims_present == (1, 2) and 1.5 < mean_radius(s) < 2.5]
    assert len(attracting) == 1
    assert len(repelling) == 1

    central = [
        c
        for c in analysis.matching.critical.tolist()
        if analysis.complex.dims[c] == 2
        and np.linalg.norm(analysis.complex.barycenters[c]) <= 0.66
    ]
    assert len(central) >= 1


def test_criterion_07_predator_prey_grid(tmp_path):
    analysis, elapsed, path = pipeline_on_preset(
        tmp_path, "lotka_volterra", complex_kind="delaunay2d", alpha=0.95
    )
    assert elapsed < 60.0

    # our deterministic construction; sizes stated for the record
    assert analysis.complex.counts_by_dim() == {0: 81, 1: 208, 2: 128}
    assert analysis.document["problem"]["m"] == 1217

    report = tmp_path / "lv.json"
    export_report(analysis, report)
    ok, lines = verify_report(report, path)
    assert ok, lines

    multi = analysis.recurrence.multi_cell()
    assert len(multi) >= 2
    for info in multi:
        center = np.mean([analysis.complex.barycenters[c] for c in info.cells], axis=0)
        assert np.linalg.norm(center - (60.0, 40.0)) < 15.0


def test_criterion_08_trajectory_snap_pipeline(tmp_path):
    analysis, elapsed, path = pipeline_on_preset(
        tmp_path, "lorenz_desk", complex_kind="cubical", side=6.0, snap=True, alpha=0.9
    )
    assert elapsed < 60.0

    report = tmp_path / "lorenz.json"
    export_report(analysis, report)
    ok, lines = verify_report(report, path)
    assert ok, lines

    assert len(analysis.recurrence.multi_cell()) >= 1


def test_criterion_09_subdivision_and_refined_critical_point():
    rng = np.random.default_rng(9)
    for _ in range(20):
        K, vectors = random_simplicial_instance(rng)
        S, sv = barycentric_subdivision(K, vectors)
        assert S.euler_characteristic() == K.euler_characteristic()
        assert euler_characteristic(S.counts_by_dim()) == euler_characteristic(
            K.counts_by_dim()
        )
        d = K.dim
        factor = math.factorial(d + 1)
        assert S.counts_by_dim()[d] == K.counts_by_dim()[d] * factor
        assert sv.shape == (len(S), 2)

    sample = preset_field("sink")
    K = delaunay_2d(sample.points)
    S, sv = barycentric_subdivision(K, assign_vertex_average(K, sample.vectors))
    matching = solve_exact(build_problem(build_cost_model(S, sv, alpha=0.75), S))
    crit = matching.critical.tolist()
    assert len(crit) == 1
    assert S.dims[crit[0]] == 0
    b = S.barycenters[crit[0]]
    assert np.allclose(b, (0.0, 0.0), atol=1e-12)

    # the refined stationary cell sits inside the two triangles around the origin
    def contains(tri_vids, q):
        a, bb, c = (K.vertices[v] for v in tri_vids)
        M = np.column_stack([bb - a, c - a])
        lam = np.linalg.solve(M, np.asarray(q, dtype=float) - a)
        return lam.min() >= -1e-9 and lam.sum() <= 1 + 1e-9

    central = [
        K.vertex_ids(c)
        for c in range(len(K))
        if K.dims[c] == 2 and contains(K.vertex_ids(c), (0.0, 0.0))
    ]
    assert len(central) == 2
    assert any(contains(vids, b) for vids in central)


@pytest.mark.parametrize(
    "cfg",
    [
        dict(complex_kind="cubical", side=10.0, alpha=0.3),
        dict(complex_kind="cubical", side=10.0, alpha=0.6),
        dict(complex_kind="delaunay2d", alpha=0.95),
    ],
    ids=["cubical-0.3", "cubical-0.6", "delaunay-0.95"],
)
def test_criterion_10_constraint_mode_on_predator_prey(tmp_path, cfg):
    analysis, elapsed, path = pipeline_on_preset(
        tmp_path, "lotka_volterra", gradient_mode="constraints", **cfg
    )
    assert elapsed < 5.0

    assert analysis.recurrence.multi_cell() == []
    assert analysis.document["gradient"]["is_gradient"] is True

    report = tmp_path / "lv.json"
    export_report(analysis, report)
    ok, lines = verify_report(report, path)
    assert ok, lines


def test_constraint_mode_on_intro_annulus(tmp_path, monkeypatch):
    # the annulus needs 80 rounds of cuts; each resumes one search frontier
    frontiers = recorded_frontiers(monkeypatch)
    analysis, elapsed, _ = pipeline_on_preset(
        tmp_path, "intro", complex_kind="cubical", side=0.44, alpha=0.5,
        gradient_mode="constraints",
    )
    assert elapsed < 5.0
    assert analysis.matching.objective == 107.82404860194904
    assert analysis.constraint_rounds == 80
    # the node count does not depend on the machine's speed
    assert [f.created for f in frontiers] == [480]
    assert analysis.constraint_rounds <= frontiers[0].created
    assert analysis.document["gradient"]["is_gradient"] is True
    assert analysis.recurrence.multi_cell() == []
