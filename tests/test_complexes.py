import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import combidyn.complexes
from combidyn import (
    CellComplex,
    barycentric_subdivision,
    cubical_grid,
    delaunay_2d,
    simplicial_complex,
)
from combidyn.complexes import _row_codes, _unique_rows

from combidyn.datagen import GridSpec

from conftest import random_simplicial_instance
from oracles import (
    complex_arrays,
    cubical_cells_by_sites,
    euler_characteristic,
    row_codes_by_lexsort,
    simplicial_closure_by_stack,
)


def triangle():
    pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    return simplicial_complex(pts, [(0, 1, 2)])


class TestCellComplex:
    def test_cells_sorted_by_dim_then_vertices(self):
        K = triangle()
        specs = [(int(K.dims[c]), K.vertex_ids(c)) for c in range(len(K))]
        assert specs == sorted(specs)
        assert len(K) == 7

    def test_face_closure_required(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="face"):
            CellComplex(pts, "simplex", [np.array([(0, 1, 2)]), np.array([(0,), (1,), (2,)])])

    def test_rows_sorted_and_deduplicated(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        K = CellComplex(
            pts,
            "simplex",
            [np.array([(2, 1), (1, 0), (0, 2), (2, 1)]), np.array([(2,), (0,), (1,)]), np.array([(1, 2)])],
        )
        assert [K.vertex_ids(c) for c in range(len(K))] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize(
        "kind, cells, needle",
        [
            ("prism", [np.array([(0,)])], "kind"),
            ("simplex", [np.array([(0, 0)])], r"cell \(0, 0\) has a repeated"),
            ("simplex", [np.array([(0,), (3,)])], r"cell \(3,\) has a repeated or unknown vertex"),
            ("simplex", [np.array([(-1,)])], "unknown vertex"),
            ("simplex", [np.empty((1, 0), dtype=int)], "k >= 1"),
            ("simplex", [np.array([0, 1])], r"\(n, k\) arrays"),
            ("cube", [np.array([(0,), (1,), (2,)]), np.array([(0, 1, 2)])], "power-of-two"),
        ],
    )
    def test_bad_cells_rejected(self, kind, cells, needle):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match=needle):
            CellComplex(pts, kind, cells)

    @pytest.mark.parametrize("missing, square", [((2, 3), (0, 1, 2, 3)), ((4, 5), (0, 1, 4, 5))])
    def test_missing_cube_face_named_with_its_square(self, missing, square):
        # two squares sharing edge (0, 1): one spans x and y, the other x and
        # z, so the y and z sides are each asked for by one square only
        pts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)], float)
        edges = [e for e in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 5), (4, 5)] if e != missing]
        cells = [np.arange(6)[:, None], np.array(edges), np.array([(0, 1, 2, 3), (0, 1, 4, 5)])]
        message = f"complex not closed under faces: {missing} of {square} missing"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CellComplex(pts, "cube", cells)

    def test_closure(self):
        K = triangle()
        top = K.cell_id((0, 1, 2))
        assert K.closure(top) == frozenset(range(7))
        v = K.cell_id((0,))
        assert K.closure(v) == frozenset({v})

    def test_admissible_pairs_triangle(self):
        K = triangle()
        pairs = [tuple(p) for p in K.pairs.tolist()]
        assert pairs == sorted(pairs)
        # every vertex under two edges, every edge under the triangle
        assert len(pairs) == 9
        for lo, up in pairs:
            assert K.dims[up] == K.dims[lo] + 1
            assert lo in K.codim1_faces(up)

    def test_single_square_has_12_admissible_pairs(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        K = cubical_grid(pts, side=1.0)
        assert K.counts_by_dim() == {0: 4, 1: 4, 2: 1}
        assert K.pairs.shape == (12, 2)

    def test_barycenter(self):
        K = triangle()
        assert np.allclose(K.barycenters[K.cell_id((0, 1, 2))], (1.0, 1.0 / 3.0))
        assert np.allclose(K.barycenters[K.cell_id((0, 2))], (1.0, 0.0))

    @pytest.mark.parametrize("kind", ["delaunay", "cubical3d"])
    def test_arrays_agree_with_per_cell_definitions(self, kind):
        rng = np.random.default_rng(3)
        if kind == "delaunay":
            K = delaunay_2d(rng.uniform(-1, 1, size=(40, 2)))
        else:
            pts = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(2)], float)
            K = cubical_grid(pts, side=1.0)
        faces = {c: K.codim1_faces(c) for c in range(len(K))}
        expected_pairs = sorted((f, c) for c in range(len(K)) for f in faces[c])
        assert [tuple(p) for p in K.pairs.tolist()] == expected_pairs
        for c in range(len(K)):
            vids = K.vertex_ids(c)
            assert list(faces[c]) == sorted(faces[c])
            assert all(set(K.vertex_ids(f)) < set(vids) for f in faces[c])
            assert K.cell_id(vids) == c
            # bit-identical to the per-cell mean
            assert np.array_equal(K.barycenters[c], K.vertices[list(vids)].mean(axis=0))
        assert np.array_equal(K.pair_index(K.pairs), np.arange(len(K.pairs)))
        assert K.pair_index(K.pairs[:, ::-1]).max() == -1
        assert K.pair_index([(-1, 0), (0, len(K)), (len(K), 0)]).tolist() == [-1, -1, -1]

    def test_euler_characteristic(self):
        K = triangle()
        assert K.euler_characteristic() == 1
        assert K.euler_characteristic() == euler_characteristic(K.counts_by_dim())

    def test_cell_id_missing(self):
        K = triangle()
        with pytest.raises(KeyError):
            K.cell_id((0, 3))


ARRAYS = ("dims", "vert_ptr", "vert_idx", "face_ptr", "face_idx", "pairs", "barycenters")


def assert_arrays_equal(K, expected):
    for name in ARRAYS:
        got = getattr(K, name)
        assert got.shape == expected[name].shape, name
        assert np.array_equal(got, expected[name]), name


class TestAgainstReference:
    @pytest.mark.parametrize("d", [2, 3])
    def test_cubical_grid_matches_site_enumeration(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(15):
            shape = rng.integers(2, 8 if d == 2 else 5, size=d)
            sites = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), -1).reshape(-1, d)
            sites = sites[rng.random(len(sites)) < 0.8]
            if len(sites) == 0:
                continue
            sites = sites[rng.permutation(len(sites))]
            side = float(rng.uniform(0.1, 2.0))
            points = rng.uniform(-5, 5, size=d) + sites * side
            K = cubical_grid(points, side)
            snapped, cells = cubical_cells_by_sites(points, side)
            assert np.array_equal(K.vertices, snapped)
            assert_arrays_equal(K, complex_arrays(snapped, "cube", cells))

    def test_simplicial_closure_matches_stack_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            # repeated ids inside a generator and repeated generators
            gens = [tuple(rng.integers(0, n, size=rng.integers(1, 6)).tolist()) for _ in range(rng.integers(1, 6))]
            gens += gens[: int(rng.integers(0, 3))]
            vertices = rng.normal(size=(n, 2))
            K = simplicial_complex(vertices, gens)
            assert_arrays_equal(K, complex_arrays(vertices, "simplex", simplicial_closure_by_stack(gens)))

    def test_cubical_grid_memory(self):
        # 160 x 160 points, 101,761 cells; the arrays themselves hold 11 MB
        side = 0.07
        points = GridSpec((0.0, 0.0), side, (160, 160)).points()
        tracemalloc.start()
        try:
            K = cubical_grid(points, side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(K) == 101761
        assert peak < 45e6


@st.composite
def int_matrices(draw):
    """Int matrices of width 1-8 with repeated rows and negative entries. At
    the wider bounds the packed keys overflow int64, so the rank step runs;
    at the widest the ids alone lie over 2**63 apart."""
    k = draw(st.integers(1, 8))
    bound = draw(st.sampled_from([2, 1000, 2**31, 2**62]))
    row = st.lists(st.integers(-bound, bound), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, k)


class TestRowCodes:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    # ids spanning exactly 2**63 must be ranked, or the packing overflows
    @example(np.array([[0, -4611686018427387903, 4611686018427387904]]))
    def test_equal_to_lexsort_reference(self, rows):
        codes = row_codes_by_lexsort(rows)
        assert np.array_equal(_row_codes(rows), codes)
        assert np.array_equal(_unique_rows(rows), rows[np.unique(codes, return_index=True)[1]])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_means_bitwise_equal_to_numpy_mean(self, d):
        rng = np.random.default_rng(d)
        table = rng.normal(size=(12, d)) * 10.0 ** rng.integers(-3, 4, size=(12, d))
        K = simplicial_complex(rng.normal(size=(12, 2)), [rng.choice(12, 8, replace=False) for _ in range(4)])
        means = K.cell_means(table)
        widths = []
        for start, V in K._blocks():
            widths.append(V.shape[1])
            assert means[start : start + len(V)].tobytes() == table[V].mean(axis=1).tobytes()
        assert widths == list(range(1, 9))

    def test_cubical_8x8x8_matches_site_enumeration(self, monkeypatch):
        # 512 vertices and 8 corners a cube: 512**8 > 2**63, so the keys of
        # the cubes' rows are ranked part way
        ranked = []
        rank = combidyn.complexes._dense_rank
        monkeypatch.setattr(combidyn.complexes, "_dense_rank", lambda keys: ranked.append(len(keys)) or rank(keys))
        points = GridSpec((0.0, 0.0, 0.0), 0.5, (8, 8, 8)).points()
        points = points[np.random.default_rng(9).permutation(len(points))]
        K = cubical_grid(points, 0.5)
        snapped, cells = cubical_cells_by_sites(points, 0.5)
        assert_arrays_equal(K, complex_arrays(snapped, "cube", cells))
        assert ranked


class TestSimplicialClosure:
    def test_closes_under_subsets(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.8), (3.0, 1.6)])
        K = simplicial_complex(pts, [(0, 1, 2), (1, 2, 3)])
        assert K.counts_by_dim() == {0: 4, 1: 5, 2: 2}

    def test_duplicate_generators_collapse(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0)])
        K = simplicial_complex(pts, [(0, 1), (1, 0), (0, 1)])
        assert K.counts_by_dim() == {0: 2, 1: 1}


class TestSubdivision:
    def test_single_triangle_counts(self):
        K = triangle()
        K2, _ = barycentric_subdivision(K, np.tile([1.0, 0.0], (len(K), 1)))
        assert K2.counts_by_dim() == {0: 7, 1: 12, 2: 6}
        assert K2.euler_characteristic() == 1

    def test_single_edge_counts(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0)])
        K = simplicial_complex(pts, [(0, 1)])
        K2, _ = barycentric_subdivision(K, np.ones((len(K), 2)))
        assert K2.counts_by_dim() == {0: 3, 1: 2}

    def test_vectors_inherited_from_carrier(self):
        K = triangle()
        # tag every original cell with a distinct vector
        vectors = np.array([(float(c), -float(c)) for c in range(len(K))])
        K2, vec2 = barycentric_subdivision(K, vectors)
        assert vec2.shape == (len(K2), 2)
        original = {tuple(v) for v in vectors}
        for c in range(len(K2)):
            assert tuple(vec2[c]) in original
        # all six new triangles sit inside the original one and inherit its tag
        top = K.cell_id((0, 1, 2))
        for c in range(len(K2)):
            if K2.dims[c] == 2:
                assert np.array_equal(vec2[c], vectors[top])
        # new vertices at original barycenters keep the original cell's vector
        for c in range(len(K)):
            new_v = K2.cell_id((c,))
            assert np.allclose(K2.barycenters[new_v], K.barycenters[c])
            assert np.array_equal(vec2[new_v], vectors[c])

    def test_boundary_edges_inherit_edge_vectors(self):
        K = triangle()
        vectors = np.array([(float(c) + 1.0, 0.0) for c in range(len(K))])
        K2, vec2 = barycentric_subdivision(K, vectors)

        def cross(u, v):
            return u[0] * v[1] - u[1] * v[0]

        for c in range(len(K2)):
            if K2.dims[c] != 1:
                continue
            a, b = (K2.barycenters[v] for v in K2.vertex_ids(c))
            for e in range(len(K)):
                if K.dims[e] != 1:
                    continue
                p, q = (K.barycenters[v] for v in K.vertex_ids(e))
                seg = q - p
                # does the new edge lie inside the original edge segment?
                if (
                    abs(cross(seg, a - p)) < 1e-12
                    and abs(cross(seg, b - p)) < 1e-12
                    and min(p[0], q[0]) - 1e-12 <= min(a[0], b[0])
                    and max(a[0], b[0]) <= max(p[0], q[0]) + 1e-12
                ):
                    assert np.array_equal(vec2[c], vectors[e])

    def test_top_cell_multiplication_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            K, vectors = random_simplicial_instance(rng, allow_zero_vectors=False)
            K2, _ = barycentric_subdivision(K, vectors)
            assert K2.euler_characteristic() == K.euler_characteristic()
            d = K.dim
            assert K2.counts_by_dim()[d] == math.factorial(d + 1) * K.counts_by_dim()[d]

    def test_cubical_rejected(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        K = cubical_grid(pts, side=1.0)
        with pytest.raises(ValueError, match="simplicial"):
            barycentric_subdivision(K, np.ones((len(K), 2)))

    def test_missing_vector_rejected(self):
        K = triangle()
        with pytest.raises(ValueError, match="vector"):
            barycentric_subdivision(K, np.ones((1, 2)))
