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


_KEY_SPAN = 2**63  # packed keys lie in [0, 2**63)


def _dense_rank(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each int64 key among the distinct keys, and their count."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.zeros(len(keys), dtype=np.int64)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    np.cumsum(new, out=new)
    code = np.empty_like(new)
    code[order] = new
    return code, int(new[-1]) + 1 if len(new) else 0


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of an int matrix, equal iff the rows are equal
    and ordered like the rows' lexicographic order: the ids less the matrix
    minimum, so negative ids sort too, packed as digits of one base. Where
    the next digit would overflow int64, the packed prefix is densely ranked
    and packing goes on from the ranks. Ids so far apart that a digit would
    overflow even after a rank are first replaced by their ranks among the
    matrix's values."""
    rows = np.asarray(rows, dtype=np.int64)
    n, k = rows.shape
    if not n:
        return np.zeros(0, dtype=np.int64)
    lo = int(rows.min())
    base = int(rows.max()) - lo + 1
    if base * n >= _KEY_SPAN:  # a ranked prefix holds up to n values
        values, inverse = np.unique(rows.ravel(), return_inverse=True)
        rows, base = inverse.reshape(n, k).astype(np.int64), len(values)
    elif lo:
        rows = rows - lo  # exact: every difference lies in [0, 2**63)
    key = rows[:, 0].copy()
    span = base
    for j in range(1, k):
        if span * base > _KEY_SPAN:
            key, span = _dense_rank(key)
        key *= base
        key += rows[:, j]
        span *= base
    return key


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """Dense integer code per row of an int matrix, equal iff the rows are
    equal and ordered like the rows' lexicographic order."""
    return _dense_rank(_row_keys(rows))[0]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an int matrix, in lexicographic order."""
    codes = _row_codes(rows)
    unique = np.empty((int(codes.max(initial=-1)) + 1, rows.shape[1]), dtype=rows.dtype)
    unique[codes] = rows
    return unique


# Numpy reduces the 2-8 columns of a cell along axis 1 several times slower
# than a loop of whole-column operations, so the kernels below loop over
# columns.


def _column_count(mask: np.ndarray) -> np.ndarray:
    """True entries in each row of an (n, k) bool matrix."""
    count = mask[:, 0].astype(np.intp)
    for j in range(1, mask.shape[1]):
        count += mask[:, j]
    return count


def _cube_faces(V: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codim-1 faces of axis-aligned cubes with sorted corner rows V: split
    the corners by min/max on each spanned axis. Corner coordinates come from
    one shared vertex table, so exact float comparison is safe here. Returns
    (cube, faces): for each axis, the rows of V that span it, then their
    low-side corner rows, then their high-side rows, so face row i belongs to
    cube row cube[i]."""
    n, k = V.shape
    dim, half = _cube_dim(k), k // 2
    spans = np.zeros(n, dtype=np.intp)
    bad = np.zeros(n, dtype=bool)
    sides = []  # per axis: (spanned, corners at its minimum, at its maximum)
    for x in coords.T:
        P = x[V]
        lo, hi = P[:, 0].copy(), P[:, 0].copy()
        for j in range(1, k):
            np.minimum(lo, P[:, j], out=lo)
            np.maximum(hi, P[:, j], out=hi)
        spanned = lo != hi
        low, high = P == lo[:, None], P == hi[:, None]
        bad |= spanned & ((_column_count(low) != half) | (_column_count(high) != half))
        spans += spanned
        sides.append((spanned, low, high))
    bad |= spans != dim
    if bad.any():
        raise ValueError(f"corners {tuple(V[bad][0].tolist())} do not span an axis-aligned cube")
    cube, faces = [], []
    for spanned, low, high in sides:
        at, keep = np.flatnonzero(spanned), spanned[:, None]
        cube += [at, at]
        faces += [V[low & keep], V[high & keep]]
    return np.concatenate(cube), np.concatenate(faces).reshape(-1, half)


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
    also a dimension order. Each codim-1 face of each cell must itself be a cell:
    faces are listed as one (owner, face rows) pair per vertex count, and a
    missing one raises a ValueError naming it and its owner.

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
            bad = (V[:, 0] < 0) | (V[:, -1] >= len(self.vertices))
            for j in range(1, V.shape[1]):
                bad |= V[:, j] == V[:, j - 1]
            if bad.any():
                raise ValueError(f"cell {tuple(V[bad][0].tolist())} has a repeated or unknown vertex")

        widths, counts = sorted(by_width), [len(V) for V in ordered]
        sizes = np.repeat(np.array(widths, dtype=np.intp), counts)
        self.vert_ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.vert_ptr[1:])
        self.vert_idx = np.concatenate([V.ravel() for V in ordered] + [np.empty(0, np.intp)])
        block_dims = [k - 1 if self.kind == "simplex" else _cube_dim(k) for k in widths]
        self.dims = np.repeat(np.array(block_dims, dtype=np.intp), counts)

        # look every codim-1 face up among the cells with its vertex count
        blocks = {V.shape[1]: (start, V) for start, V in self._blocks()}
        upper, lower = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for k, (start, V) in blocks.items():
            if k == 1:
                continue
            if self.kind == "simplex":
                owner = np.tile(np.arange(len(V)), k)
                queries = np.concatenate([np.delete(V, i, axis=1) for i in range(k)])
            else:
                owner, queries = _cube_faces(V, self.vertices)
            face_start, table = blocks.get(queries.shape[1], (0, queries[:0]))
            # the table's rows are sorted and distinct, so its keys ascend
            keys = _row_keys(np.concatenate([table, queries]))
            at = _find(keys[: len(table)], keys[len(table) :])
            if (at < 0).any():
                miss = int(np.flatnonzero(at < 0)[0])
                raise ValueError(
                    f"complex not closed under faces: {tuple(queries[miss].tolist())} "
                    f"of {tuple(V[owner[miss]].tolist())} missing"
                )
            upper.append(start + owner)
            lower.append(face_start + at)

        # each (upper, lower) appears once, so one sort of packed keys orders it
        upper, lower = np.concatenate(upper), np.concatenate(lower)
        n = len(sizes)
        self.face_idx = lower[np.argsort(upper * n + lower, kind="stable")]
        self.face_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(upper, minlength=n), out=self.face_ptr[1:])
        by_face = np.argsort(lower * n + upper, kind="stable")
        self.pairs = np.empty((len(by_face), 2), dtype=np.intp)
        np.take(lower, by_face, out=self.pairs[:, 0])
        np.take(upper, by_face, out=self.pairs[:, 1])
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
        same = np.ones(len(ids), dtype=bool)
        for j, v in enumerate(key.tolist()):
            same &= rows[:, j] == v
        hit = ids[same]
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
        return frozenset(self.closures([self._check(cell_id)])[1].tolist())

    def closures(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """(cell, face) rows of the closures of `cells`, each cell with itself
        and all its faces, sorted by (cell, face) without repeats. Rows grow
        one codimension at a time through the codim-1 face table and are
        deduplicated at each step, so shared faces are not walked twice."""
        n = len(self)
        cells = np.unique(np.asarray(cells, dtype=np.intp))
        src, dst = cells, cells
        keys = [cells * n + cells]
        while len(dst):
            start = self.face_ptr[dst]
            count = self.face_ptr[dst + 1] - start
            src = np.repeat(src, count)
            # slot of each new row inside its cell's face list
            offset = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
            key = np.unique(src * n + self.face_idx[np.repeat(start, count) + offset])
            src, dst = key // n, key % n
            keys.append(key)
        key = np.concatenate(keys)
        key.sort()  # rows of different codimensions never coincide
        return key // n, key % n

    def pair_index(self, queries) -> np.ndarray:
        """Row in `pairs` of each (lower, upper) in `queries`, or -1 where it
        is not an admissible pair of this complex."""
        return pair_rows(self.pairs, len(self), queries)

    # -- geometry -----------------------------------------------------------

    def _blocks(self):
        """(first id, (n, k) vertex rows) for each block of cells with k
        vertices; a block is a contiguous id range with sorted rows."""
        sizes = np.diff(self.vert_ptr)  # ascending, as ids follow vertex counts
        start = 0
        while start < len(sizes):
            stop = int(np.searchsorted(sizes, sizes[start], side="right"))
            rows = self.vert_idx[self.vert_ptr[start] : self.vert_ptr[stop]]
            yield start, rows.reshape(stop - start, -1)
            start = stop

    def cell_means(self, table: np.ndarray) -> np.ndarray:
        """(N, d) mean of a per-vertex table over each cell's vertices, one
        grouped mean per block of cells with the same vertex count."""
        table = np.asarray(table, dtype=float)
        out = np.empty((len(self), table.shape[1]))
        for start, V in self._blocks():
            if V.shape[1] >= 8 and table.shape[1] == 1:
                # numpy sums 8 or more adjacent terms pairwise: keep its mean
                out[start : start + len(V)] = table[V].mean(axis=1)
                continue
            # summed in vertex order, then divided, as numpy's mean does here
            acc = table[V[:, 0]]
            for j in range(1, V.shape[1]):
                acc += table[V[:, j]]
            np.divide(acc, V.shape[1], out=out[start : start + len(V)])
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
