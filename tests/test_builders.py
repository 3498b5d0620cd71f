import warnings

import numpy as np
import pytest

from combidyn import (
    DowkerRelation,
    FieldSample,
    cubical_grid,
    delaunay_2d,
    dowker_complex,
    dowker_complex_from_matrix,
    snap_to_lattice,
)

from oracles import circumcircle_has_no_point_inside, dowker_cells_by_subsets


def vertex_sets(K, dim=None):
    """Vertex ids of every cell, or of every cell of one dimension, in id order."""
    return [K.vertex_ids(c) for c in range(len(K)) if dim is None or K.dims[c] == dim]


class TestDelaunay:
    def test_three_points_one_triangle(self):
        pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        K = delaunay_2d(pts)
        assert K.counts_by_dim() == {0: 3, 1: 3, 2: 1}

    def test_all_input_points_become_vertices(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, size=(30, 2))
        K = delaunay_2d(pts)
        assert K.counts_by_dim()[0] == 30
        assert np.allclose(K.vertices, pts)

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pts = rng.uniform(-1, 1, size=(12, 2))
            K = delaunay_2d(pts)
            triangles = vertex_sets(K, 2)
            for tri in triangles:
                others = [i for i in range(len(pts)) if i not in tri]
                assert circumcircle_has_no_point_inside(pts, tri, others)

    def test_cocircular_square_deterministic(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        first = delaunay_2d(pts)
        triangles = sorted(vertex_sets(first, 2))
        assert len(triangles) == 2
        for _ in range(5):
            again = sorted(vertex_sets(delaunay_2d(pts), 2))
            assert again == triangles

    def test_lattice_grid_counts(self):
        pts = np.array([(10.0 * i, 10.0 * j) for i in range(9) for j in range(9)])
        K = delaunay_2d(pts)
        assert K.counts_by_dim() == {0: 81, 1: 208, 2: 128}
        assert K.euler_characteristic() == 1

    def test_collinear_points_make_a_path(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        K = delaunay_2d(pts)
        assert K.counts_by_dim() == {0: 4, 1: 3}
        edges = sorted(vertex_sets(K, 1))
        assert edges == [(0, 2), (1, 2), (1, 3)]  # consecutive along the line

    def test_duplicate_points_rejected(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            delaunay_2d(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            delaunay_2d(np.array([(0.0, 0.0), (1.0, 0.0)]))


class TestCubicalGrid:
    def test_single_square(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        K = cubical_grid(pts, side=1.0)
        assert K.counts_by_dim() == {0: 4, 1: 4, 2: 1}
        assert K.kind == "cube"
        assert K.dims[K.cell_id((0, 1, 2, 3))] == 2

    def test_two_by_three_patch(self):
        pts = np.array([(i, j) for i in range(2) for j in range(3)], dtype=float)
        K = cubical_grid(pts, side=1.0)
        assert K.counts_by_dim() == {0: 6, 1: 7, 2: 2}
        assert K.euler_characteristic() == 1

    def test_missing_corner_drops_square(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        K = cubical_grid(pts, side=1.0)
        assert K.counts_by_dim() == {0: 3, 1: 2}

    def test_three_dimensional_cube(self):
        pts = np.array(
            [(i, j, k) for i in range(2) for j in range(2) for k in range(2)],
            dtype=float,
        )
        K = cubical_grid(pts, side=1.0)
        assert K.counts_by_dim() == {0: 8, 1: 12, 2: 6, 3: 1}
        assert K.euler_characteristic() == 1

    def test_scaled_and_offset_lattice(self):
        pts = np.array([(0.22 + 0.44 * i, 0.22 + 0.44 * j) for i in range(3) for j in range(3)])
        K = cubical_grid(pts, side=0.44)
        assert K.counts_by_dim() == {0: 9, 1: 12, 2: 4}

    def test_off_lattice_point_rejected(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)])
        with pytest.raises(ValueError, match="lattice"):
            cubical_grid(pts, side=1.0)

    def test_duplicate_site_rejected(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
        with pytest.raises(ValueError, match=r"points 1 and 3 snap to the same lattice site \(1, 0\)"):
            cubical_grid(pts, side=1.0)

    def test_index_overflow_rejected_before_cast(self):
        pts = np.array([(0.0, 0.0), (1e12, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="axis 0 spans 1e\\+21 lattice sites"):
                cubical_grid(pts, side=1e-9)


class TestSnapToLattice:
    def test_merges_and_averages(self):
        sample = FieldSample(
            np.array([(0.1, 0.1), (-0.1, 0.05), (0.95, 0.0)]),
            np.array([(1.0, 0.0), (0.0, 1.0), (2.0, 2.0)]),
        )
        snapped = snap_to_lattice(sample, side=1.0)
        assert len(snapped.points) == 2
        order = np.lexsort(snapped.points.T[::-1])
        pts = snapped.points[order]
        vecs = snapped.vectors[order]
        # lattice is anchored at the per-axis minimum (-0.1, 0.0)
        assert np.allclose(pts, [(-0.1, 0.0), (0.9, 0.0)])
        assert np.allclose(vecs, [(0.5, 0.5), (2.0, 2.0)])

    def test_snapped_points_feed_the_grid(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 3, size=(40, 2))
        sample = FieldSample(pts, rng.normal(size=(40, 2)))
        snapped = snap_to_lattice(sample, side=1.0)
        K = cubical_grid(snapped.points, side=1.0)
        assert K.counts_by_dim()[0] == len(snapped.points)


class TestDowker:
    def test_metric_ball_matches_subset_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = rng.uniform(-1, 1, size=(8, 2))
            landmarks = rng.uniform(-1, 1, size=(5, 2))
            radius = float(rng.uniform(0.4, 1.4))
            K, witness = dowker_complex(DowkerRelation(data, landmarks, radius))
            got = set(vertex_sets(K))
            expected = dowker_cells_by_subsets(data, landmarks, radius)
            assert got == expected

    def test_witness_map(self):
        data = np.array([(0.0, 0.0), (2.0, 0.0)])
        landmarks = np.array([(0.0, 0.5), (0.0, -0.5), (2.0, 0.5)])
        K, witness = dowker_complex(DowkerRelation(data, landmarks, radius=1.0))
        assert witness[K.cell_id((0, 1))] == (0,)
        assert witness[K.cell_id((2,))] == (1,)

    def test_explicit_relation_matrix(self):
        # landmarks as rows, data points as columns
        rel = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        landmarks = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        K, witness = dowker_complex_from_matrix(landmarks, rel)
        got = sorted(vertex_sets(K))
        assert got == [(0,), (0, 1), (1,), (1, 2), (2,)]

    def test_unrelated_landmark_absent(self):
        rel = np.array([[1], [0]], dtype=bool)
        landmarks = np.array([(0.0, 0.0), (5.0, 0.0)])
        K, _ = dowker_complex_from_matrix(landmarks, rel)
        assert vertex_sets(K) == [(0,)]

    def test_empty_relation_rejected(self):
        data = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        landmarks = np.array([(100.0, 100.0)])
        with pytest.raises(ValueError, match="no data point relates to any landmark"):
            dowker_complex(DowkerRelation(data, landmarks, radius=1.0))

    def test_landmark_blowup_guard(self):
        data = np.zeros((1, 2))
        landmarks = np.zeros((25, 2))
        landmarks[:, 0] = np.linspace(0, 0.1, 25)
        with pytest.raises(ValueError, match="landmark"):
            dowker_complex(DowkerRelation(data, landmarks, radius=10.0))
