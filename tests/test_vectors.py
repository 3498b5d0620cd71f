import numpy as np
import pytest

from combidyn import (
    assign_dowker_average,
    assign_vertex_average,
    cubical_grid,
    delaunay_2d,
    dowker_complex_from_matrix,
    dowker_relation,
    simplicial_complex,
)


class TestVertexAverage:
    def test_toy_values(self, toy):
        sample, K, vectors = toy
        assert vectors.shape == (len(K), 2)
        for v in range(3):
            assert np.allclose(vectors[K.cell_id((v,))], sample.vectors[v])
        assert np.allclose(
            vectors[K.cell_id((0, 2))], (sample.vectors[0] + sample.vectors[2]) / 2
        )
        assert np.allclose(vectors[K.cell_id((0, 1, 2))], np.zeros(2))

    def test_equals_per_cell_mean(self):
        rng = np.random.default_rng(4)
        pts = np.array([(i, j, k) for i in range(3) for j in range(2) for k in range(2)], float)
        for K in (cubical_grid(pts, 1.0), delaunay_2d(rng.uniform(-1, 1, size=(30, 2)))):
            data = rng.normal(size=(len(K.vertices), K.point_dim)) * 10.0 ** rng.integers(-8, 8)
            got = assign_vertex_average(K, data)
            for c in range(len(K)):
                assert np.array_equal(got[c], data[list(K.vertex_ids(c))].mean(axis=0))

    def test_missing_vertex_rejected(self):
        K = simplicial_complex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
        with pytest.raises(ValueError, match="vertex 2"):
            assign_vertex_average(K, np.ones((2, 2)))


class TestDowkerAverage:
    def test_witness_mean(self):
        landmarks = np.array([[0.0, 0.0], [1.0, 0.0]])
        points = np.array([[0.1, 0.0], [0.9, 0.0], [0.5, 0.0]])
        K, witness = dowker_complex_from_matrix(landmarks, dowker_relation(points, landmarks, 0.75))
        data = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        vectors = assign_dowker_average(K, witness, data)
        # only point 2 sits within 0.75 of both landmarks
        assert np.allclose(vectors[K.cell_id((0, 1))], (2.0, 2.0))
        assert np.allclose(vectors[K.cell_id((0,))], ((1.0, 0.0) + np.array([2.0, 2.0])) / 2)

    def test_empty_witness_rejected(self, toy):
        _, K, _ = toy
        witness = {c: (0,) for c in range(len(K))}
        witness[0] = ()
        with pytest.raises(ValueError, match="witness"):
            assign_dowker_average(K, witness, np.ones((1, 2)))
