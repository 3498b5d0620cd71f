"""Lift per-point vectors to whole-complex vector assignments.

An assignment is an (N, d) float array: row c is the vector of cell c.
"""

from __future__ import annotations

import numpy as np

from .complexes import CellComplex

__all__ = ["assign_vertex_average", "assign_dowker_average", "ZERO_TOL"]

# Below this norm a cell vector is treated as exactly zero downstream.
ZERO_TOL = 1e-12


def assign_vertex_average(complex: CellComplex, data_vectors) -> np.ndarray:
    """V(cell) = mean of the data vectors at the cell's vertices.

    `data_vectors` is an array indexed by vertex id; every vertex some cell
    uses must have a row.
    """
    table = np.asarray(data_vectors, dtype=float)
    missing = complex.vert_idx[complex.vert_idx >= len(table)]
    if missing.size:
        raise ValueError(f"no data vector for vertex {int(missing.min())}")
    return complex.cell_means(table)


def assign_dowker_average(
    complex: CellComplex, witness_map: dict[int, tuple[int, ...]], data_vectors
) -> np.ndarray:
    """V(cell) = mean of the data vectors over the cell's witnesses."""
    table = np.asarray(data_vectors, dtype=float)
    out = np.empty((len(complex), table.shape[1]))
    for c in range(len(complex)):
        w = witness_map.get(c)
        if not w:
            raise ValueError(f"cell {c} has an empty witness set")
        out[c] = table[list(w)].mean(axis=0)
    return out
