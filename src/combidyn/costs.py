"""Matching cost model.

A pair (lower, upper) costs the cosine distance between the lower cell's
vector and the barycenter displacement of the pair, so a pair is cheap exactly
when the field at the lower cell points toward the upper cell. Staying
critical costs alpha. Pairs whose lower cell carries a zero vector cost the
cosine-distance maximum 2, which keeps them strictly worse than any critical
pair of cells as long as alpha < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex, pair_rows
from .vectors import ZERO_TOL

__all__ = ["CostModel", "build_cost_model"]


@dataclass
class CostModel:
    """Pair costs as arrays: `pair_costs[i]` prices `pairs[i]`, the complex's
    admissible (lower, upper) pairs in (lower, upper) order."""

    alpha: float
    pairs: np.ndarray  # (m, 2)
    pair_costs: np.ndarray  # (m,)
    n_cells: int

    def costs_of(self, pairs) -> np.ndarray:
        """Cost of each (lower, upper) in a sequence of pairs, in its order."""
        rows = pair_rows(self.pairs, self.n_cells, pairs)
        if (rows < 0).any():
            bad = np.asarray(pairs).reshape(-1, 2)[np.flatnonzero(rows < 0)[0]]
            raise KeyError(f"not an admissible pair: {tuple(bad.tolist())}")
        return self.pair_costs[rows]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products. Batched matmul reproduces np.dot on each row bit
    # for bit; einsum and (a * b).sum(axis=1) can differ in the last place.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def build_cost_model(complex: CellComplex, vectors: np.ndarray, alpha: float) -> CostModel:
    """Cost of every admissible pair, plus the shared diagonal cost alpha.

    `vectors` is (N, d), one row per cell. With u = vectors[lo] and w the
    displacement barycenters[up] - barycenters[lo], a pair costs
    min(2, max(0, 1 - u.w / (|u| |w|))), or 2.0 when |u| < ZERO_TOL; a zero
    displacement under a live vector raises a ValueError.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [0, 2], got {alpha}")
    vectors = np.asarray(vectors, dtype=float)
    if len(vectors) < len(complex):
        raise ValueError(f"no vector for cell {len(vectors)}")
    lo, up = complex.pairs.T
    u = vectors[lo]
    w = complex.barycenters[up] - complex.barycenters[lo]
    nu = np.sqrt(_dots(u, u))
    nw = np.sqrt(_dots(w, w))
    live = nu >= ZERO_TOL
    if (nw[live] == 0.0).any():
        raise ValueError("cosine distance undefined for zero vectors")
    costs = np.full(len(lo), 2.0)
    costs[live] = np.minimum(2.0, np.maximum(0.0, 1.0 - _dots(u, w)[live] / (nu[live] * nw[live])))
    return CostModel(alpha=float(alpha), pairs=complex.pairs, pair_costs=costs, n_cells=len(complex))
