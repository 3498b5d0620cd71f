import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import Delaunay

from combidyn import (
    FieldSample,
    cubical_grid,
    delaunay_2d,
    dowker_complex_from_matrix,
    dowker_relation,
    snap_to_lattice,
)

from combidyn.builders import _collinear, _locate, _orient2d
from combidyn.datagen import GridSpec
from oracles import (
    circumcircle_has_no_point_inside,
    delaunay_triangles_by_scan,
    dowker_cells_by_subsets,
    snap_by_site_dict,
)


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

    @pytest.mark.parametrize(
        "pts, pair",
        [
            # three copies: the first copy and the first later one
            ([(0, 0), (1, 0), (0, 0), (0, 1), (0, 0)], (0, 2)),
            # the earliest repeat in input order, not in coordinate order
            ([(5, 5), (0, 0), (1, 1), (5, 5), (0, 0)], (0, 3)),
            ([(1, 1), (0.0, 1), (2, 0), (-0.0, 1)], (1, 3)),
        ],
    )
    def test_duplicate_message_names_first_repeat(self, pts, pair):
        with pytest.raises(ValueError, match=f"duplicate points at indices {pair[0]} and {pair[1]}$"):
            delaunay_2d(np.array(pts, dtype=float))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 0.5], [2.0, bad]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"point 3 at \[{bad}, 0\.5\] is not finite"):
                delaunay_2d(pts)

    def test_exactly_collinear_points_make_a_path(self):
        k = np.random.default_rng(4).permutation(40)
        pts = np.stack([k * 0.375 - 2.0, k * -0.125 + 7.0], axis=1)  # exact in binary
        K = delaunay_2d(pts)
        assert K.counts_by_dim() == {0: 40, 1: 39}
        order = np.argsort(pts[:, 0])
        assert sorted(vertex_sets(K, 1)) == sorted(
            tuple(sorted(e)) for e in zip(order[:-1].tolist(), order[1:].tolist())
        )

    def test_collinear_test_is_exact(self):
        k = np.arange(30.0)
        line = np.stack([k * 0.375 - 2.0, k * -0.125 + 7.0], axis=1)
        assert _collinear(line)
        off = line.copy()
        off[17, 1] = np.nextafter(off[17, 1], np.inf)  # one ulp off the line
        assert not _collinear(off)
        # rounded decimal lines: the float filter leaves rows to the exact test
        for step in (0.1, 0.3, 1 / 3):
            pts = np.stack([k * step, k * 3 * step + 0.7], axis=1)
            rowwise = all(_orient2d(*pts[0], *pts[1], *p) == 0 for p in pts[2:].tolist())
            assert _collinear(pts) == rowwise

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            delaunay_2d(np.array([(0.0, 0.0), (1.0, 0.0)]))

    def test_walk_budget_raises_on_corrupt_adjacency(self):
        # three counterclockwise triangles of the unit square, each claiming
        # the next as its neighbour across every edge: a walk towards point 4
        # at (10, 10) goes round the cycle until its budget runs out
        X, Y = [0.0, 1.0, 1.0, 0.0, 10.0], [0.0, 0.0, 1.0, 1.0, 10.0]
        tri = [[0, 1, 2], [0, 2, 3], [0, 1, 3]]
        nbr = [[1, 1, 1], [2, 2, 2], [0, 0, 0]]
        with pytest.raises(RuntimeError, match="point 4: the walk found no triangle within 3 steps"):
            _locate(X, Y, tri, nbr, 0, 4)


def _pythagorean_ring(r):
    """Every integer point on the circle of radius r, exactly cocircular."""
    pts = {
        (sx * x, sy * y)
        for x in range(r + 1)
        for y in [math.isqrt(r * r - x * x)]
        if x * x + y * y == r * r
        for sx in (-1, 1)
        for sy in (-1, 1)
    }
    return np.array(sorted(pts), dtype=float)


def _jittered_grid(w, h, rng, jitter=0.3):
    grid = np.array([(i, j) for i in range(w) for j in range(h)], dtype=float)
    return grid + rng.uniform(-jitter, jitter, grid.shape)


@st.composite
def point_sets(draw):
    kind = draw(st.sampled_from(["jittered", "grid", "shuffled", "ring", "exact_ring", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 0.44, 2.0**-5, 1e3]))
    offset = draw(st.sampled_from([0.0, -3.3, 1e4]))
    if kind in ("jittered", "grid", "shuffled"):
        w, h = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        pts = _jittered_grid(w, h, rng, jitter=0.3 if kind == "jittered" else 0.0)
        if kind == "shuffled":
            pts = pts[rng.permutation(len(pts))]
    elif kind == "ring":
        theta = 2 * math.pi * np.arange(draw(st.integers(3, 48))) / 48
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif kind == "exact_ring":
        ring = _pythagorean_ring(65)
        pts = ring[rng.choice(len(ring), draw(st.integers(3, len(ring))), replace=False)]
    else:
        pts = rng.uniform(-1, 1, (draw(st.integers(3, 60)), 2))
    if kind in ("ring", "exact_ring") and draw(st.booleans()):
        at = draw(st.integers(0, len(pts)))
        pts = np.insert(pts, at, [0.0, 0.0], axis=0)
    return pts * scale + offset


class TestDelaunayAgainstScan:
    """The adjacency walk gives exactly the triangles of the quadratic scan,
    including every tie the cocircular rule breaks."""

    @settings(max_examples=80, deadline=None)
    @given(point_sets())
    def test_walk_equals_scan(self, pts):
        assert set(vertex_sets(delaunay_2d(pts), 2)) == delaunay_triangles_by_scan(pts)

    @pytest.mark.parametrize(
        "name",
        ["delaunay_jitter", "grid12", "shuffled10", "random150", "ring40_centre", "exact_ring325"],
    )
    def test_fixed_inputs(self, name):
        rng = np.random.default_rng(1)
        if name == "delaunay_jitter":  # the benchmark's 324 points at seed 1
            pitch = 6.6 / 17
            grid = GridSpec((-3.3, -3.3), pitch, (18, 18)).points()
            pts = grid + rng.uniform(-0.3 * pitch, 0.3 * pitch, grid.shape)
        elif name == "grid12":
            pts = _jittered_grid(12, 12, rng, jitter=0.0)
        elif name == "shuffled10":
            pts = _jittered_grid(10, 10, rng, jitter=0.0)[rng.permutation(100)]
        elif name == "random150":
            pts = rng.uniform(-1, 1, (150, 2))
        elif name == "ring40_centre":
            theta = 2 * math.pi * np.arange(40) / 40
            pts = np.vstack([np.stack([np.cos(theta), np.sin(theta)], axis=1), [0.0, 0.0]])
        else:
            pts = np.vstack([[0.0, 0.0], _pythagorean_ring(325)])
        assert set(vertex_sets(delaunay_2d(pts), 2)) == delaunay_triangles_by_scan(pts)


class TestDelaunayAgainstQhull:
    """On generic input every triangle is one of Qhull's. The two sets are not
    equal: the finite super-triangle drops a few Delaunay triangles along the
    convex hull (see the builders module docstring)."""

    @pytest.mark.parametrize(
        "kind, n",
        [("random", 50), ("random", 1000), ("random", 10_000), ("jittered", 30), ("jittered", 100)],
    )
    def test_triangles_are_qhull_triangles(self, kind, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1, 1, (n, 2)) if kind == "random" else _jittered_grid(n, n, rng)
        ours = set(vertex_sets(delaunay_2d(pts), 2))
        qhull = set(map(tuple, np.sort(Delaunay(pts).simplices, axis=1).tolist()))
        assert ours <= qhull
        assert len(qhull) - len(ours) < 0.01 * len(qhull) + 3

    def test_three_points_kept_by_a_larger_super_triangle(self):
        # 4 of 400 uniform 3-point draws on [-1, 1]^2 lose every triangle to
        # the first super-triangle like this one; the rebuild keeps it
        pts = np.array([[-0.6174364, 0.37486964], [-0.54870211, 0.67923401], [-0.82157348, -0.62097055]])
        assert vertex_sets(delaunay_2d(pts), 2) == [(0, 1, 2)]

    def test_points_within_rounding_of_a_line(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0000000000000004], [2.0, 2.0]])
        triangles = vertex_sets(delaunay_2d(pts), 2)
        assert sorted(triangles) == sorted(delaunay_triangles_by_scan(pts))
        assert {v for t in triangles for v in t} == {0, 1, 2, 3}
        for tri in triangles:
            others = [i for i in range(len(pts)) if i not in tri]
            assert circumcircle_has_no_point_inside(pts, tri, others)

    def test_points_closer_to_a_line_than_the_largest_super_triangle_reaches(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 2.0**-1000], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"^points \[0, 1, 2, 3\] ended up in no triangle$"):
            delaunay_2d(pts)


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

    @pytest.mark.parametrize("d, n, side", [(2, 50, 0.7), (3, 80, 0.5), (2, 600, 1.0), (3, 900, 1.5)])
    def test_equals_per_site_loop_bit_for_bit(self, d, n, side):
        # hundreds of points per site in the larger cases; the -0.0 entries
        # check that a lone negative zero averages to +0.0, as mean() gives
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 3, size=(n, d))
        vecs = rng.normal(size=(n, d)) * 1e3
        vecs[rng.random(vecs.shape) < 0.1] = -0.0
        snapped = snap_to_lattice(FieldSample(pts, vecs), side)
        sites, means = snap_by_site_dict(pts, vecs, side)
        assert snapped.points.tobytes() == sites.tobytes()
        assert snapped.vectors.tobytes() == means.tobytes()


class TestDowker:
    def test_metric_ball_matches_subset_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = rng.uniform(-1, 1, size=(8, 2))
            landmarks = rng.uniform(-1, 1, size=(5, 2))
            radius = float(rng.uniform(0.4, 1.4))
            K, witness = dowker_complex_from_matrix(landmarks, dowker_relation(data, landmarks, radius))
            got = set(vertex_sets(K))
            expected = dowker_cells_by_subsets(data, landmarks, radius)
            assert got == expected

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_relation_bitwise_equal_to_norm(self, d):
        # each distance is tested at its own value and at the next float up,
        # so the two forms agree only if every distance is bitwise the same
        rng = np.random.default_rng(d)
        data = rng.uniform(-1, 1, size=(40, d))
        landmarks = rng.uniform(-1, 1, size=(7, d))
        dist = np.linalg.norm(landmarks[:, None] - data[None], axis=2)
        for radius in np.unique(dist):
            for r in (radius, np.nextafter(radius, np.inf)):
                assert np.array_equal(dowker_relation(data, landmarks, r), dist < r)

    def test_relation_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dowker_relation(np.zeros((3, 3)), np.zeros((2, 2)), 1.0)

    def test_relation_memory(self):
        # 300 landmarks x 20,000 points in 3-d: an (L, P, d) difference array
        # and its squares alone would take 6 L P 8 bytes
        rng = np.random.default_rng(5)
        data = rng.uniform(-1, 1, size=(20_000, 3))
        landmarks = rng.uniform(-1, 1, size=(300, 3))
        tracemalloc.start()
        try:
            rel = dowker_relation(data, landmarks, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rel.shape == (300, 20_000)
        assert peak < 4 * 300 * 20_000 * 8

    def test_witness_map(self):
        data = np.array([(0.0, 0.0), (2.0, 0.0)])
        landmarks = np.array([(0.0, 0.5), (0.0, -0.5), (2.0, 0.5)])
        K, witness = dowker_complex_from_matrix(landmarks, dowker_relation(data, landmarks, 1.0))
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
            dowker_complex_from_matrix(landmarks, dowker_relation(data, landmarks, 1.0))

    def test_landmark_blowup_guard(self):
        data = np.zeros((1, 2))
        landmarks = np.zeros((25, 2))
        landmarks[:, 0] = np.linspace(0, 0.1, 25)
        with pytest.raises(ValueError, match="landmark"):
            dowker_complex_from_matrix(landmarks, dowker_relation(data, landmarks, 10.0))
