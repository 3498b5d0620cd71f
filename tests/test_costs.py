import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combidyn import (
    assign_vertex_average,
    barycentric_subdivision,
    build_cost_model,
    cubical_grid,
    delaunay_2d,
    simplicial_complex,
)
from combidyn.vectors import ZERO_TOL
from oracles import cosine_distance, displacement, penalty

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
        edge, top = K.cell_id((0, 2)), K.cell_id((0, 1, 2))
        assert np.allclose(displacement(K, (edge, top)), (0.0, 1.0 / 3.0))

    def test_vertex_to_edge(self, toy):
        _, K, _ = toy
        v, e = K.cell_id((0,)), K.cell_id((0, 1))
        assert np.allclose(displacement(K, (v, e)), (0.5, 0.5))


class TestCostModel:
    def test_toy_spot_values(self, toy):
        _, K, vectors = toy
        model = build_cost_model(K, vectors, alpha=0.75)
        assert model.costs_of([(0, 3)])[0] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        assert model.costs_of([(1, 3)])[0] == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-12)
        assert model.costs_of([(0, 4)])[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_cell_costs_two(self, toy):
        _, K, _ = toy
        vectors = np.tile([1.0, 0.0], (len(K), 1))
        v0 = K.cell_id((0,))
        vectors[v0] = 0.0
        model = build_cost_model(K, vectors, alpha=0.5)
        ups = K.pairs[K.pairs[:, 0] == v0, 1].tolist()
        assert len(ups) == 2
        for up in ups:
            assert model.costs_of([(v0, up)])[0] == 2.0

    def test_penalty(self):
        assert penalty(0.5) == 3.0
        assert penalty(1.0) == 3.0
        assert penalty(1.5) == 4.0

    def test_alpha_validation(self, toy):
        _, K, vectors = toy
        with pytest.raises(ValueError):
            build_cost_model(K, vectors, alpha=-0.01)
        with pytest.raises(ValueError):
            build_cost_model(K, vectors, alpha=2.01)

    def test_missing_vector_rejected(self, toy):
        _, K, _ = toy
        with pytest.raises(ValueError):
            build_cost_model(K, np.ones((1, 2)), alpha=0.5)

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
        assert (model.pair_costs == 2.0).any()
        assert model.pairs is K.pairs and model.pair_costs.shape == (len(K.pairs),)
        for lo, up in K.pairs.tolist():
            v = vectors[lo]
            if np.linalg.norm(v) < ZERO_TOL:
                expected = 2.0
            else:
                expected = cosine_distance(v, displacement(K, (lo, up)))
            assert model.costs_of([(lo, up)])[0] == expected

    def test_zero_displacement_rejected(self):
        K = simplicial_complex(np.zeros((2, 2)), [(0, 1)])
        with pytest.raises(ValueError, match="zero vectors"):
            build_cost_model(K, np.ones((len(K), 2)), alpha=0.5)
