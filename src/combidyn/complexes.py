"""Cell complexes held as arrays.

A complex numbers its cells 0..N-1 in (dim, vertex_ids) order and keeps every
table the pipeline reads as one numpy array: cell dimensions, per-cell vertex
ids and codimension-1 faces in CSR form, barycenters, and the admissible
(face, coface) pairs. Simplicial and cubical cells share the same container
and differ only in how their codim-1 faces are enumerated, so the matching and
flow machinery never has to care which kind it is working on.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "CellComplex",
    "pair_rows",
    "simplicial_complex",
    "barycentric_subdivision",
]

def _cube_dim(n_corners: int) -> int:
    d = n_corners.bit_length() - 1
    if 1 << d != n_corners:
        raise ValueError(f"cube must have a power-of-two corner count, got {n_corners}")
    return d


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Dense integer code per row of an int matrix, equal iff the rows are
    equal and ordered like the rows' lexicographic order."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=np.int64)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    code = np.empty(len(rows), dtype=np.int64)
    code[order] = np.cumsum(new) - 1
    return code


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an int matrix, in lexicographic order."""
    return rows[np.unique(_row_codes(rows), return_index=True)[1]]


def _cube_faces(V: np.ndarray, coords: np.ndarray) -> list[np.ndarray]:
    """Codim-1 faces of axis-aligned cubes with sorted corner rows V: split
    the corners by min/max on each spanned axis. Corner coordinates come from
    one shared vertex table, so exact float comparison is safe here. Returns
    one (n, k/2) array per face slot, in spanned-axis order, low side first."""
    n, k = V.shape
    pts = coords[V]
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    spanned = lo != hi
    bad = spanned.sum(axis=1) != _cube_dim(k)
    rows = np.arange(n)
    masks = []
    # each cube's spanned axes, ascending
    for a in np.argsort(~spanned, axis=1, kind="stable")[:, : _cube_dim(k)].T:
        for side in (lo[rows, a], hi[rows, a]):
            masks.append(pts[rows, :, a] == side[:, None])
            bad |= masks[-1].sum(axis=1) != k // 2
    if bad.any():
        raise ValueError(f"corners {tuple(V[bad][0].tolist())} do not span an axis-aligned cube")
    return [V[mask].reshape(n, k // 2) for mask in masks]


def _find(keys: np.ndarray, wanted) -> np.ndarray:
    """Index of each wanted value in ascending unique int64 `keys`, or -1
    where it is absent."""
    at = np.searchsorted(keys, wanted)
    padded = np.append(keys, np.iinfo(np.int64).min)
    return np.where(padded[at] == wanted, at, -1)


def pair_rows(pairs: np.ndarray, n_cells: int, queries) -> np.ndarray:
    """Row in `pairs`, an (m, 2) array sorted by (lower, upper) over cells
    0..n_cells-1, of each (lower, upper) in `queries`, or -1 where there is no
    such row. Ids outside the complex are never found."""
    lower, upper = np.asarray(queries, dtype=np.int64).reshape(-1, 2).T
    inside = (lower >= 0) & (lower < n_cells) & (upper >= 0) & (upper < n_cells)
    keys = pairs[:, 0].astype(np.int64) * n_cells + pairs[:, 1]
    return _find(keys, np.where(inside, lower * n_cells + upper, -1))


class CellComplex:
    """Finite cell complex, closed under faces, with dense integer cell ids.

    `kind` is "simplex" or "cube" for the whole complex; `cells` holds (n, k)
    arrays of vertex ids, one per vertex count k. Rows are sorted, duplicates
    dropped, and cells numbered in (dim, vertex_ids) order, so every id order is
    also a dimension order. Each codim-1 face of each cell must itself be a cell.

    Arrays, all read-only by convention:

    * `vertices`: (n, d) vertex coordinates.
    * `dims`: (N,) cell dimensions.
    * `vert_ptr`, `vert_idx`: CSR vertex ids; cell c has the ascending ids
      `vert_idx[vert_ptr[c]:vert_ptr[c + 1]]`.
    * `face_ptr`, `face_idx`: CSR codim-1 faces, ascending, in the same form.
    * `barycenters`: (N, d) mean of each cell's vertices.
    * `pairs`: (m, 2) admissible (face, coface) pairs one dimension apart,
      sorted by (lower, upper).
    """

    def __init__(self, vertices: np.ndarray, kind: str, cells: Iterable[np.ndarray]):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be an (n, d) array")
        if kind not in ("simplex", "cube"):
            raise ValueError(f"unknown cell kind {kind!r}; expected 'simplex' or 'cube'")
        self.kind = kind

        by_width: dict[int, list[np.ndarray]] = {}
        for rows in cells:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.ndim != 2 or rows.shape[1] == 0:
                raise ValueError("cells must come as (n, k) arrays of vertex ids, k >= 1")
            by_width.setdefault(rows.shape[1], []).append(np.sort(rows, axis=1))
        ordered = [_unique_rows(np.concatenate(by_width[k])) for k in sorted(by_width)]
        for V in ordered:
            bad = (V[:, 0] < 0) | (V[:, -1] >= len(self.vertices)) | (V[:, 1:] == V[:, :-1]).any(axis=1)
            if bad.any():
                raise ValueError(f"cell {tuple(V[bad][0].tolist())} has a repeated or unknown vertex")

        sizes = np.repeat(np.array(sorted(by_width), dtype=np.intp), [len(V) for V in ordered])
        self.vert_ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.vert_ptr[1:])
        self.vert_idx = np.concatenate([V.ravel() for V in ordered] + [np.empty(0, np.intp)])
        if self.kind == "simplex":
            self.dims = sizes - 1
        else:
            corners, inverse = np.unique(sizes, return_inverse=True)
            self.dims = np.array([_cube_dim(k) for k in corners.tolist()], dtype=np.intp)[inverse]

        # look every codim-1 face up among the cells with its vertex count
        blocks = {V.shape[1]: (start, V) for start, V in self._blocks()}
        upper, lower = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for k, (start, V) in blocks.items():
            if k == 1:
                continue
            if self.kind == "simplex":
                slots = [np.delete(V, i, axis=1) for i in range(k)]
            else:
                slots = _cube_faces(V, self.vertices)
            queries = np.concatenate(slots)
            face_start, table = blocks.get(queries.shape[1], (0, queries[:0]))
            codes = _row_codes(np.concatenate([table, queries]))
            at = _find(codes[: len(table)], codes[len(table) :])
            if (at < 0).any():
                miss = int(np.flatnonzero(at < 0)[0])
                raise ValueError(
                    f"complex not closed under faces: {tuple(queries[miss].tolist())} "
                    f"of {tuple(V[miss % len(V)].tolist())} missing"
                )
            upper.append(np.tile(np.arange(start, start + len(V)), len(slots)))
            lower.append(face_start + at)

        upper, lower = np.concatenate(upper), np.concatenate(lower)
        self.face_idx = lower[np.lexsort((lower, upper))]
        self.face_ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(np.bincount(upper, minlength=len(sizes)), out=self.face_ptr[1:])
        by_face = np.lexsort((upper, lower))
        self.pairs = np.stack([lower[by_face], upper[by_face]], axis=1)
        self.barycenters = self.cell_means(self.vertices)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def point_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def dim(self) -> int:
        return int(self.dims.max()) if len(self.dims) else -1

    def _check(self, cell_id: int) -> int:
        if not 0 <= cell_id < len(self):
            raise KeyError(f"no cell with id {cell_id}")
        return cell_id

    def vertex_ids(self, cell_id: int) -> tuple[int, ...]:
        c = self._check(cell_id)
        return tuple(self.vert_idx[self.vert_ptr[c] : self.vert_ptr[c + 1]].tolist())

    def cell_id(self, vids: Iterable[int]) -> int:
        """Id of the cell with exactly these vertices."""
        key = np.array(sorted(vids), dtype=np.intp)
        sizes = np.diff(self.vert_ptr)
        ids = np.flatnonzero(sizes == len(key))
        rows = self.vert_idx[self.vert_ptr[ids][:, None] + np.arange(len(key))]
        hit = ids[(rows == key).all(axis=1)]
        if not hit.size:
            raise KeyError(f"no cell with vertices {tuple(key.tolist())}")
        return int(hit[0])

    def counts_by_dim(self) -> dict[int, int]:
        d, n = np.unique(self.dims, return_counts=True)
        return dict(zip(d.tolist(), n.tolist()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in self.counts_by_dim().items())

    # -- incidence ----------------------------------------------------------

    def codim1_faces(self, cell_id: int) -> tuple[int, ...]:
        c = self._check(cell_id)
        return tuple(self.face_idx[self.face_ptr[c] : self.face_ptr[c + 1]].tolist())

    def closure(self, cell_id: int) -> frozenset[int]:
        """The cell and all its faces, every codimension."""
        acc = {self._check(cell_id)}
        stack = [cell_id]
        while stack:
            c = stack.pop()
            for f in self.face_idx[self.face_ptr[c] : self.face_ptr[c + 1]].tolist():
                if f not in acc:
                    acc.add(f)
                    stack.append(f)
        return frozenset(acc)

    def pair_index(self, queries) -> np.ndarray:
        """Row in `pairs` of each (lower, upper) in `queries`, or -1 where it
        is not an admissible pair of this complex."""
        return pair_rows(self.pairs, len(self), queries)

    # -- geometry -----------------------------------------------------------

    def _blocks(self):
        """(first id, (n, k) vertex rows) for each block of cells with k
        vertices; a block is a contiguous id range with sorted rows."""
        sizes = np.diff(self.vert_ptr)
        starts = np.flatnonzero(np.diff(sizes, prepend=0)).tolist()
        for start, stop in zip(starts, starts[1:] + [len(sizes)]):
            rows = self.vert_idx[self.vert_ptr[start] : self.vert_ptr[stop]]
            yield start, rows.reshape(stop - start, -1)

    def cell_means(self, table: np.ndarray) -> np.ndarray:
        """(N, d) mean of a per-vertex table over each cell's vertices, one
        grouped mean per block of cells with the same vertex count."""
        table = np.asarray(table, dtype=float)
        out = np.empty((len(self), table.shape[1]))
        for start, V in self._blocks():
            out[start : start + len(V)] = table[V].mean(axis=1)
        return out


def simplicial_complex(vertices: np.ndarray, simplices: Iterable[Iterable[int]]) -> CellComplex:
    """Build a simplicial complex from any generating set, closing under subsets
    one vertex count at a time, from the widest generators down."""
    by_width: dict[int, list[list[int]]] = {}
    for s in simplices:
        s = sorted(set(s))
        if s:
            by_width.setdefault(len(s), []).append(s)
    blocks = {k: np.array(rows, dtype=np.intp) for k, rows in by_width.items()}
    for k in range(max(blocks, default=1), 1, -1):
        V = blocks[k] = _unique_rows(blocks[k])
        faces = [np.delete(V, i, axis=1) for i in range(k)]
        blocks[k - 1] = np.concatenate(faces + [blocks.get(k - 1, faces[0][:0])])
    return CellComplex(vertices, "simplex", blocks.values())


def barycentric_subdivision(
    complex: CellComplex, vectors: np.ndarray
) -> tuple[CellComplex, np.ndarray]:
    """Subdivide a simplicial complex; each cell's vector passes to the cells
    carved out of its interior. `vectors` is (N, d), one row per cell.

    The subdivision is the order complex of the face poset: one vertex per
    original cell, placed at its barycenter, and one simplex per chain of
    proper faces. A chain's carrier is the largest cell in it, which is the
    unique original cell whose interior contains the new simplex, so the new
    vector of a chain is the old vector of its carrier.
    """
    if complex.kind != "simplex":
        raise ValueError("barycentric subdivision supports simplicial complexes only")
    vectors = np.asarray(vectors, dtype=float)
    if len(vectors) != len(complex):
        raise ValueError(f"expected one vector per cell ({len(complex)}), got {len(vectors)}")

    # flags_at[c] = the chains that step down from c one dimension at a time
    # to a vertex; every chain is a subset of one. Ids ascend with dimension,
    # so each chain is sorted and its last entry is the carrier.
    flags_at: list[list[tuple[int, ...]]] = []
    for c in range(len(complex)):  # id order is dimension order
        below = [ch + (c,) for f in complex.codim1_faces(c) for ch in flags_at[f]]
        flags_at.append(below or [(c,)])
    chains = [ch for per_cell in flags_at for ch in per_cell]
    subdivided = simplicial_complex(complex.barycenters.copy(), chains)
    # a new cell's vertices are old cell ids; its carrier is the largest
    carrier = subdivided.vert_idx[subdivided.vert_ptr[1:] - 1]
    return subdivided, vectors[carrier]
