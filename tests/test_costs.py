import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combidyn import (
    CostModel,
    assign_vertex_average,
    barycentric_subdivision,
    build_cost_model,
    cosine_distance,
    critical_angle,
    cubical_grid,
    delaunay_2d,
    displacement,
    simplicial_complex,
)
from combidyn.vectors import ZERO_TOL

nonzero_vec = st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)
).filter(lambda v: math.hypot(*v) > 1e-6)


class TestCosineDistance:
    def test_reference_angles(self):
        assert cosine_distance((0, 1), (1, 0)) == pytest.approx(1.0)
        assert cosine_distance((1, 0), (3, 0)) == pytest.approx(0.0)
        assert cosine_distance((1, 0), (-2, 0)) == pytest.approx(2.0)
        assert cosine_distance((1, 0), (1, 1)) == pytest.approx(1 - 1 / math.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_distance((0, 0), (1, 0))
        with pytest.raises(ValueError):
            cosine_distance((1, 0), (0, 0))

    @given(nonzero_vec, nonzero_vec)
    def test_range(self, u, v):
        assert 0.0 <= cosine_distance(u, v) <= 2.0

    @given(nonzero_vec, nonzero_vec, st.floats(0, 2 * math.pi, allow_nan=False))
    def test_rotation_invariance(self, u, v, theta):
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        assert cosine_distance(R @ u, R @ v) == pytest.approx(
            cosine_distance(u, v), abs=1e-9
        )

    @given(nonzero_vec, nonzero_vec, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_scale_invariance(self, u, v, a, b):
        assert cosine_distance(a * np.asarray(u), b * np.asarray(v)) == pytest.approx(
            cosine_distance(u, v), abs=1e-9
        )


class TestDisplacement:
    def test_edge_to_triangle(self, toy):
        _, K, _ = toy
        edge = K.cell_by_vertices((0, 2))
        top = K.cell_by_vertices((0, 1, 2))
        assert np.allclose(displacement(K, (edge.id, top.id)), (0.0, 1.0 / 3.0))

    def test_vertex_to_edge(self, toy):
        _, K, _ = toy
        v = K.cell_by_vertices((0,))
        e = K.cell_by_vertices((0, 1))
        assert np.allclose(displacement(K, (v.id, e.id)), (0.5, 0.5))


class TestCostModel:
    def test_toy_spot_values(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.75)
        assert model.pair_cost(0, 3) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        assert model.pair_cost(1, 3) == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-12)
        assert model.pair_cost(0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_cell_costs_two(self, toy):
        _, K, _ = toy
        vectors = {c.id: np.array([1.0, 0.0]) for c in K.cells}
        v0 = K.cell_by_vertices((0,))
        vectors[v0.id] = np.zeros(2)
        model = build_cost_model(K, vectors, alpha=0.5)
        for up in K.codim1_cofaces(v0.id):
            assert model.pair_cost(v0.id, up) == 2.0

    def test_penalty(self):
        assert CostModel(alpha=0.5, pair_costs={}, n_cells=0).penalty == 3.0
        assert CostModel(alpha=1.0, pair_costs={}, n_cells=0).penalty == 3.0
        assert CostModel(alpha=1.5, pair_costs={}, n_cells=0).penalty == 4.0

    def test_alpha_validation(self, toy):
        _, K, vectors = toy
        with pytest.raises(ValueError):
            build_cost_model(K, vectors, alpha=-0.01)
        with pytest.raises(ValueError):
            build_cost_model(K, vectors, alpha=2.01)

    def test_missing_vector_rejected(self, toy):
        _, K, _ = toy
        with pytest.raises(ValueError):
            build_cost_model(K, {0: np.ones(2)}, alpha=0.5)

    @pytest.mark.parametrize("kind", ["delaunay", "subdivided", "cubical2d", "cubical3d"])
    def test_equals_per_pair_cosine_distance(self, kind):
        rng = np.random.default_rng(9)
        if kind == "cubical3d":
            pts = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)], float)
            K = cubical_grid(pts * 0.7, 0.7)
        elif kind == "cubical2d":
            pts = np.array([(i, j) for i in range(5) for j in range(4)], float)
            K = cubical_grid(pts * 1.3, 1.3)
        else:
            K = delaunay_2d(rng.uniform(-3, 3, size=(40, 2)))
        data = rng.normal(size=(len(K.vertices), K.point_dim))
        data *= rng.choice([1e-9, 1.0, 1e7], size=(len(data), 1))
        data[rng.random(len(data)) < 0.2] = 0.0
        vectors = assign_vertex_average(K, data)
        if kind == "subdivided":
            K, vectors = barycentric_subdivision(K, vectors)
        model = build_cost_model(K, vectors, alpha=0.8)
        assert any(cost == 2.0 for cost in model.pair_costs.values())
        for lo, up in (p.as_tuple() for p in K.admissible_pairs()):
            v = vectors[lo]
            if np.linalg.norm(v) < ZERO_TOL:
                expected = 2.0
            else:
                expected = cosine_distance(v, displacement(K, (lo, up)))
            assert model.pair_cost(lo, up) == expected

    def test_zero_displacement_rejected(self):
        K = simplicial_complex(np.zeros((2, 2)), [(0, 1)])
        with pytest.raises(ValueError, match="zero vectors"):
            build_cost_model(K, {c.id: np.ones(2) for c in K.cells}, alpha=0.5)


class TestCriticalAngle:
    def test_reference_points(self):
        assert critical_angle(0.0) == pytest.approx(0.0)
        assert critical_angle(1.0) == pytest.approx(math.pi / 2)
        assert critical_angle(2.0) == pytest.approx(math.pi)

    @given(st.floats(0, 2, allow_nan=False))
    def test_monotone(self, alpha):
        assert 0.0 <= critical_angle(alpha) <= math.pi
