"""Matching cost model.

A pair (lower, upper) costs the cosine distance between the lower cell's
vector and the barycenter displacement of the pair, so a pair is cheap exactly
when the field at the lower cell points toward the upper cell. Staying
critical costs alpha. Pairs whose lower cell carries a zero vector cost the
cosine-distance maximum 2, which keeps them strictly worse than any critical
pair of cells as long as alpha < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import AdmissiblePair, CellComplex, VectorAssignment
from .vectors import ZERO_TOL

__all__ = [
    "cosine_distance",
    "displacement",
    "CostModel",
    "build_cost_model",
    "critical_angle",
]


def cosine_distance(u, v) -> float:
    """1 - cos(angle between u and v), clamped into [0, 2]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero vectors")
    d = 1.0 - float(np.dot(u, v)) / (nu * nv)
    return min(2.0, max(0.0, d))


def displacement(complex: CellComplex, pair: AdmissiblePair | tuple[int, int]) -> np.ndarray:
    """Barycenter of the upper cell minus barycenter of the lower cell."""
    lo, up = pair.as_tuple() if isinstance(pair, AdmissiblePair) else pair
    return complex.barycenter(up) - complex.barycenter(lo)


@dataclass
class CostModel:
    alpha: float
    pair_costs: dict[tuple[int, int], float]
    n_cells: int

    @property
    def penalty(self) -> float:
        # Cost of a structurally forbidden pair in the full square formulation;
        # always exceeds two diagonals, so dropping such a pair pays.
        return max(2.0 * self.alpha + 1.0, 3.0)

    def pair_cost(self, lower: int, upper: int) -> float:
        return self.pair_costs[(lower, upper)]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products. Batched matmul reproduces np.dot on each row bit
    # for bit; einsum and (a * b).sum(axis=1) can differ in the last place.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def build_cost_model(complex: CellComplex, vectors: VectorAssignment, alpha: float) -> CostModel:
    """Cost of every admissible pair, plus the shared diagonal cost alpha.

    Each pair costs exactly `cosine_distance(vectors[lo], displacement(...))`,
    or 2.0 when the lower cell's vector is shorter than ZERO_TOL.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    for c in complex.cells:
        if c.id not in vectors:
            raise ValueError(f"no vector for cell {c.id}")
    pairs = [p.as_tuple() for p in complex.admissible_pairs()]
    if not pairs:
        return CostModel(alpha=float(alpha), pair_costs={}, n_cells=len(complex))
    lo, up = np.array(pairs, dtype=np.intp).T
    cells = range(len(complex))
    bary = np.array([complex.barycenter(c) for c in cells])
    u = np.array([vectors[c] for c in cells], dtype=float)[lo]
    w = bary[up] - bary[lo]
    nu = np.sqrt(_dots(u, u))
    nw = np.sqrt(_dots(w, w))
    live = nu >= ZERO_TOL
    if (nw[live] == 0.0).any():
        raise ValueError("cosine distance undefined for zero vectors")
    costs = np.full(len(pairs), 2.0)
    costs[live] = np.minimum(2.0, np.maximum(0.0, 1.0 - _dots(u, w)[live] / (nu[live] * nw[live])))
    return CostModel(
        alpha=float(alpha), pair_costs=dict(zip(pairs, costs.tolist())), n_cells=len(complex)
    )


def critical_angle(alpha: float) -> float:
    """Angle in radians above which matching a pair is dearer than keeping
    both cells critical."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    return math.acos(1.0 - alpha)
