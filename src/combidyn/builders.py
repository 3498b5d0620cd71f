"""Complex builders: 2D Delaunay, axis-aligned cubical grids, Dowker complexes.

The Delaunay triangulation is incremental Bowyer-Watson with exact orientation
and in-circle predicates (float filter, exact rational fallback). Degenerate
inputs are the norm here, not the exception: regular grids make every quad
cocircular, so the diagonal choice must come from a deterministic rule rather
than from rounding noise. The rule used is: a point exactly on a circumcircle
counts as outside, and points are inserted in input order. Both together fix
the triangulation of any cocircular family by the lexicographic index of its
points.

Each insertion touches only the triangles near the new point. Triangles are
stored counterclockwise with their three neighbours. A visibility walk
(Devillers, Pion & Teillaud, "Walking in a triangulation", 2002) starts at the
triangle created last and crosses any edge with the point strictly outside,
until the triangle holding the point is reached. The cavity, the triangles
whose circumcircle holds the point strictly, then grows from there by
breadth-first search across neighbours. It is the set a scan of every
triangle would find: the holding triangle always conflicts, and a conflicting
triangle that does not hold the point has a neighbour on the point's side
whose circumcircle, on that side, contains its own, so every conflicting
triangle is joined to the holding one through conflicting triangles. The
cavity is refilled by a fan of triangles from its boundary edges to the point.
On jittered grids in input order the walk is a few steps long; points in
random order make it about the square root of the point count.

The enclosing super-triangle is finite, so a thin triangle along the convex
hull whose circumcircle reaches one of its corners is never created: the
complex can miss a few Delaunay triangles along the hull (1 to 5 of some 630
on 324 jittered grid points, 4 to 8 of some 1,980 on 1,000 uniform points),
and every triangle it keeps is a Delaunay triangle. When some point loses
every triangle this way (three points of a thin triangle, or points within
rounding of one line), the build is repeated with the super-triangle 2**20,
then 2**40, then 2**60 times larger; the first build that covers every point
is kept, so any input the first size covers gets the same triangles as before.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .complexes import CellComplex, _find, _row_codes, _row_keys, simplicial_complex
from .datagen import FieldSample

__all__ = [
    "delaunay_2d",
    "cubical_grid",
    "snap_to_lattice",
    "dowker_relation",
    "dowker_complex_from_matrix",
]

# Error-bound coefficients for the floating-point predicate filters, in the
# style of adaptive-precision arithmetic: if |det| exceeds the bound the float
# sign is certain, otherwise recompute with Fractions (exact, since binary
# floats are rationals).
_EPS = np.finfo(float).eps / 2
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

# Sizes of the super-triangle, in multiples of the points' span, tried in turn
# until every point lies in a triangle. 2**60 keeps points within rounding of
# one line (circumradius about span / eps = 2**52 spans) and its corners' squares
# far from overflow.
_SUPER_SCALES = (1.0, 2.0**20, 2.0**40, 2.0**60)


def _orient2d(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the signed area of triangle abc (+1 counterclockwise)."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    errbound = _ORIENT_BOUND * (abs(detleft) + abs(detright))
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    F = Fraction
    det = (F(ax) - F(cx)) * (F(by) - F(cy)) - (F(ay) - F(cy)) * (F(bx) - F(cx))
    return (det > 0) - (det < 0)


def _incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Sign of the in-circle determinant: +1 iff d is strictly inside the
    circumcircle of the counterclockwise triangle abc."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bcdet = bdx * cdy - cdx * bdy
    cadet = cdx * ady - adx * cdy
    abdet = adx * bdy - bdx * ady
    det = alift * bcdet + blift * cadet + clift * abdet
    permanent = (
        alift * (abs(bdx * cdy) + abs(cdx * bdy))
        + blift * (abs(cdx * ady) + abs(adx * cdy))
        + clift * (abs(adx * bdy) + abs(bdx * ady))
    )
    errbound = _INCIRCLE_BOUND * permanent
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    F = Fraction
    adx, ady = F(ax) - F(dx), F(ay) - F(dy)
    bdx, bdy = F(bx) - F(dx), F(by) - F(dy)
    cdx, cdy = F(cx) - F(dx), F(cy) - F(dy)
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


def _locate(X, Y, tri, nbr, t, i) -> int:
    """Triangle holding point i, by a visibility walk from triangle t: cross
    an edge that has the point strictly on its outer side until no edge has.
    On a Delaunay triangulation the walk never revisits a triangle, so a walk
    longer than the triangle count means the adjacency is corrupt."""
    px, py = X[i], Y[i]
    came = -1  # the point is strictly inside the edge just crossed: skip it
    for _ in range(len(tri)):
        a, b, c = tri[t]
        na, nb, nc = nbr[t]
        ax, ay, bx, by, cx, cy = X[a], Y[a], X[b], Y[b], X[c], Y[c]
        if na != came and _orient2d(bx, by, cx, cy, px, py) < 0:
            came, t = t, na
        elif nb != came and _orient2d(cx, cy, ax, ay, px, py) < 0:
            came, t = t, nb
        elif nc != came and _orient2d(ax, ay, bx, by, px, py) < 0:
            came, t = t, nc
        else:
            return t
        if t < 0:
            break
    raise RuntimeError(
        f"point {i}: the walk found no triangle within {len(tri)} steps; "
        "the triangle adjacency is corrupt"
    )


def _check_points(pts: np.ndarray) -> None:
    """Reject non-finite and repeated points, naming the first offender."""
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"point {i} at {pts[i].tolist()} is not finite")
    # stable, so each run of equal rows is in input order; -0.0 == 0.0
    order = np.lexsort(pts.T[::-1])
    rows = pts[order]
    same = np.concatenate([[False], (rows[1:] == rows[:-1]).all(axis=1)])
    if same.any():
        first = order[np.maximum.accumulate(np.where(same, 0, np.arange(len(pts))))]
        k = np.flatnonzero(same)[np.argmin(order[same])]
        raise ValueError(f"duplicate points at indices {first[k]} and {order[k]}")


def _collinear(pts: np.ndarray) -> bool:
    """True iff every point lies on the line through points 0 and 1: the float
    filter of _orient2d over all rows at once, the exact test only for the
    rows it leaves undecided."""
    (ax, ay), (bx, by) = pts[0], pts[1]
    cx, cy = pts[2:].T
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    if (np.abs(det) > _ORIENT_BOUND * (np.abs(detleft) + np.abs(detright))).any():
        return False
    return all(_orient2d(ax, ay, bx, by, x, y) == 0 for x, y in pts[2:].tolist())


def delaunay_2d(points) -> CellComplex:
    """Delaunay triangulation of planar points as a simplicial complex.

    Fully collinear input degenerates gracefully to the path of consecutive
    edges along the line. Anything with three or more finite points and no
    duplicates is accepted, except where even the largest super-triangle
    swallows every triangle of some point (points much closer to one line
    than rounding): that raises a ValueError naming the points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("delaunay_2d expects an (n, 2) point array")
    n = len(pts)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    _check_points(pts)
    if _collinear(pts):
        order = np.lexsort(pts.T[::-1])
        return simplicial_complex(pts, np.stack([order[:-1], order[1:]], axis=1))

    # Super-triangle comfortably containing everything; its vertices get the
    # indices n, n+1, n+2 and are dropped at the end. Only when it swallows
    # every triangle of some point is the build repeated with a larger one.
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    for scale in _SUPER_SCALES:
        s = scale * span
        corners = [[cx - 16 * s, cy - 9 * s], [cx + 16 * s, cy - 9 * s], [cx, cy + 16 * s]]
        work = np.vstack([pts, corners])
        # Python floats: the predicates run several times faster on them
        # than on numpy scalars.
        tri = _bowyer_watson(work[:, 0].tolist(), work[:, 1].tolist(), n)
        real = np.array([t for t in tri if max(t) < n], dtype=np.intp).reshape(-1, 3)
        covered = np.zeros(n, dtype=bool)
        covered[real] = True
        missing = np.flatnonzero(~covered)
        if not len(missing):
            return simplicial_complex(pts, real)
    raise ValueError(f"points {missing.tolist()} ended up in no triangle")


def _bowyer_watson(X, Y, n) -> list:
    """Triangles after inserting points 0..n-1 in order into the super-triangle
    (n, n+1, n+2). tri[t] lists a triangle counterclockwise; nbr[t][k] is the
    triangle across the edge opposite tri[t][k], or -1 on the outer hull."""
    tri = [[n, n + 1, n + 2]]
    nbr = [[-1, -1, -1]]

    for i in range(n):
        px, py = X[i], Y[i]
        t = _locate(X, Y, tri, nbr, len(tri) - 1, i)
        # cavity: the triangles whose circumcircle holds point i strictly
        inside = {t: True}
        cavity = [t]
        boundary = []  # (u, v, triangle across, its slot pointing back)
        for s in cavity:
            verts, across = tri[s], nbr[s]
            for k, o in enumerate(across):
                if o >= 0 and o not in inside:
                    a, b, c = tri[o]
                    inside[o] = _incircle(X[a], Y[a], X[b], Y[b], X[c], Y[c], px, py) > 0
                    if inside[o]:
                        cavity.append(o)
                if o < 0 or not inside[o]:
                    back = nbr[o].index(s) if o >= 0 else -1
                    boundary.append((verts[k - 2], verts[k - 1], o, back))
        # fan (u, v, i) over the boundary, reusing the cavity's slots first
        extra = len(boundary) - len(cavity)
        ids = cavity + list(range(len(tri), len(tri) + extra))
        tri += [None] * extra
        nbr += [None] * extra
        from_u, to_v = {}, {}
        for t, (u, v, o, back) in zip(ids, boundary):
            tri[t] = [u, v, i]
            nbr[t] = [-1, -1, o]
            if o >= 0:
                nbr[o][back] = t
            from_u[u] = to_v[v] = t
        for t, (u, v, _, _) in zip(ids, boundary):
            nbr[t][0] = from_u[v]
            nbr[t][1] = to_v[u]

    return tri


def _lattice_indices(points: np.ndarray, side: float, tol_factor: float = 1e-9):
    """Map points onto integer lattice coordinates of pitch `side`, anchored at
    the per-axis minimum. Raises if any coordinate is off-lattice, or, before
    the cast, if an axis spans more sites than an int64 index holds."""
    origin = points.min(axis=0)
    scaled = np.rint((points - origin) / side)
    extent = scaled.max(axis=0)
    if not (extent < 2**62).all():
        axis = int(np.argmin(extent < 2**62))
        raise ValueError(f"axis {axis} spans {extent[axis] + 1:.3g} lattice sites, over 2**62")
    idx = scaled.astype(np.int64)
    snapped = origin + idx * side
    err = np.zeros(len(points))  # each point's largest deviation on any axis
    for dev in np.abs(points - snapped).T:
        np.maximum(err, dev, out=err)
    bad = np.nonzero(err > tol_factor * side)[0]
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"point {i} at {points[i].tolist()} is off-lattice for side {side} "
            f"(deviation {err[i]:.3g})"
        )
    return origin, idx, snapped


def cubical_grid(points, side: float) -> CellComplex:
    """Cubical complex on lattice-aligned points in R^2 or R^3.

    Includes every elementary cube, of every dimension, all of whose corners
    are data points; that set is closed under faces by construction. Vertex
    coordinates are canonicalized to the lattice.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("cubical_grid expects points in R^2 or R^3")
    if not 0 < side < math.inf:
        raise ValueError("side must be finite and positive")
    _, idx, snapped = _lattice_indices(pts, side)
    n, d = idx.shape

    # corners[m, i]: first point at site idx[i] + (bit a of m on axis a), or -1;
    # the cube spanning the axes of mask at site i has the corners m within mask
    offsets = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    keys = _row_keys(np.concatenate([idx, (idx + offsets[:, None]).reshape(-1, d)]))
    order = np.argsort(keys[:n], kind="stable")
    at = _find(keys[:n][order], keys[n:])
    corners = np.where(at >= 0, order[at], -1).reshape(2**d, n)
    repeated = np.flatnonzero(corners[0] != np.arange(n))
    if len(repeated):
        j = int(repeated[0])
        raise ValueError(
            f"points {corners[0, j]} and {j} snap to the same lattice site {tuple(idx[j].tolist())}"
        )

    cells = []
    for mask in range(2**d):
        rows = corners[[m for m in range(2**d) if m & mask == m]]
        whole = rows[0] >= 0
        for row in rows[1:]:
            whole &= row >= 0
        cells.append(rows[:, whole].T)
    return CellComplex(snapped, "cube", cells)


def snap_to_lattice(sample: FieldSample, side: float) -> FieldSample:
    """Lossy preprocessing for trajectory-like data: round every point to the
    nearest lattice site of pitch `side` and merge points landing on the same
    site by averaging their vectors. The result satisfies cubical_grid's
    on-lattice requirement."""
    if not 0 < side < math.inf:
        raise ValueError("side must be finite and positive")
    pts = np.asarray(sample.points, dtype=float)
    vecs = np.asarray(sample.vectors, dtype=float)
    # every point is rounded, so no tolerance applies
    origin, idx, _ = _lattice_indices(pts, side, tol_factor=math.inf)
    site_of = _row_codes(idx)
    sites = np.empty((int(site_of.max()) + 1, idx.shape[1]), dtype=idx.dtype)
    sites[site_of] = idx  # every point of a site writes the same row
    # summed from 0.0 in input order, as numpy's mean sums each group
    sums = np.zeros((len(sites), vecs.shape[1]))
    np.add.at(sums, site_of, vecs)
    return FieldSample(origin + sites * side, sums / np.bincount(site_of)[:, None])


def dowker_relation(data, landmarks, radius: float) -> np.ndarray:
    """(L, P) bool matrix of the metric-ball relation: landmark y is related
    to data point x iff |y - x| < radius. Squared differences are summed one
    axis at a time through one (L, P) buffer, so below 8 axes the distances
    are bitwise those of `np.linalg.norm(Y[:, None] - X[None], axis=2)`, which
    sums in pairwise blocks from 8 on. Points and landmarks of different
    dimension raise a ValueError."""
    Y = np.asarray(landmarks, dtype=float)
    X = np.asarray(data, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    dist = np.zeros((len(Y), len(X)))
    diff = np.empty_like(dist)
    for y, x in zip(Y.T, X.T, strict=True):
        dist += np.square(np.subtract.outer(y, x, out=diff), out=diff)
    return np.sqrt(dist, out=dist) < radius


_MAX_LANDMARKS_PER_POINT = 20


def dowker_complex_from_matrix(
    landmarks, relation: np.ndarray
) -> tuple[CellComplex, dict[int, tuple[int, ...]]]:
    """Dowker complex of an arbitrary boolean relation (rows: landmarks,
    columns: data points), plus the witness map.

    A landmark subset enters the complex iff some data point relates to all of
    it; the witnesses of a cell are exactly those data points.
    """
    Y = np.asarray(landmarks, dtype=float)
    rel = np.asarray(relation, dtype=bool)
    if rel.ndim != 2 or rel.shape[0] != len(Y):
        raise ValueError("relation must be a (landmarks x data points) boolean matrix")

    counts = rel.sum(axis=0)
    if counts.max(initial=0) > _MAX_LANDMARKS_PER_POINT:
        x = int(np.argmax(counts > _MAX_LANDMARKS_PER_POINT))
        raise ValueError(
            f"data point {x} relates to {counts[x]} landmarks; "
            "the subset blow-up would be unreasonable"
        )
    if not counts.any():
        raise ValueError("no data point relates to any landmark; the Dowker complex is empty")
    # each point's related set; simplicial_complex adds every subset of it
    complex = simplicial_complex(Y, [np.flatnonzero(col) for col in rel.T])
    witness_map: dict[int, tuple[int, ...]] = {}
    for c in range(len(complex)):
        mask = rel[list(complex.vertex_ids(c))].all(axis=0)
        witness_map[c] = tuple(np.nonzero(mask)[0].tolist())
    return complex, witness_map
