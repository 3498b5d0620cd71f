"""Flow induced by a matching and its recurrent structure.

Every cell gets a successor set: a critical cell maps to its whole closure,
sorted, a matched lower cell to its partner, and a matched upper cell to its
other codim-1 faces; `multiflow` builds it. `is_gradient`,
`cyclic_components` and `classify_recurrence` read recurrence off one
strongly connected component pass over the gradient arrows alone (`_arrows`),
which have the flow's components. The matching comes in as arrays
(`Matching.pairs`, `Matching.critical`) and the flow is arrays too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .complexes import CellComplex
from .solver import Matching, verify_matching

__all__ = [
    "FlowGraph",
    "SccInfo",
    "CycleReport",
    "multiflow",
    "is_gradient",
    "cyclic_components",
    "classify_recurrence",
]


@dataclass
class FlowGraph:
    """CSR flow: cell c flows to `succ_idx[succ_ptr[c]:succ_ptr[c + 1]]`.
    `critical` is the matching's critical cells, ascending."""

    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    dims: np.ndarray
    critical: np.ndarray

    def __len__(self) -> int:
        return len(self.dims)


def _successor_csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (ptr, idx) of the arcs rows[k] -> cols[k] on n nodes; each node's
    successors keep the order they were listed in."""
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")]


def _arrows(complex: CellComplex, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """CSR successors (ptr, idx) of the gradient arrows: each matched lower
    cell to its partner, each matched upper cell to its other codim-1 faces,
    ascending. The flow adds the arcs from each critical cell into its
    closure, which change no strongly connected component: a path climbs only
    along a lower-to-partner arrow, one dimension, onto a matched upper cell,
    and every arc out of that cell leads down, so a path out of a critical
    cell c never climbs above c's dimension, and at that dimension reaches
    only matched upper cells, never c. The matching is taken as given."""
    n = len(complex)
    lower, upper = matching.pairs.T
    partner = np.full(n, -1, dtype=np.intp)
    partner[upper] = lower
    owner = np.repeat(np.arange(n), np.diff(complex.face_ptr))
    spread = (partner[owner] >= 0) & (complex.face_idx != partner[owner])
    rows = np.concatenate([lower, owner[spread]])
    return _successor_csr(n, rows, np.concatenate([upper, complex.face_idx[spread]]))


def _flow_successors(complex: CellComplex, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """CSR successors (ptr, idx) of every cell, in the order the module
    docstring gives, faces ascending: the gradient arrows, then each
    critical cell's closure. The matching is taken as given; `multiflow` is
    the checked entry point."""
    ptr, idx = _arrows(complex, matching)
    closed_cell, closed_face = complex.closures(matching.critical)
    rows = np.concatenate([np.repeat(np.arange(len(complex)), np.diff(ptr)), closed_cell])
    return _successor_csr(len(complex), rows, np.concatenate([idx, closed_face]))


def multiflow(complex: CellComplex, matching: Matching) -> FlowGraph:
    verify_matching(complex, matching).raise_if_invalid()
    ptr, idx = _flow_successors(complex, matching)
    return FlowGraph(succ_ptr=ptr, succ_idx=idx, dims=complex.dims, critical=matching.critical)


def _strong_components(ptr: np.ndarray, idx: np.ndarray) -> tuple[int, np.ndarray]:
    """scipy's strong components of a CSR graph: their count and each node's
    component, in scipy's numbering."""
    n = len(ptr) - 1
    # float64 weights: scipy's graph check copies any other dtype to float64
    graph = csr_matrix((np.ones(len(idx)), idx, ptr), shape=(n, n))
    return connected_components(graph, directed=True, connection="strong")


def _sccs(ptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strongly connected components of a CSR graph, numbered in the order of
    their smallest node.

    Returns (labels, order, bounds): the component of every node, the nodes
    sorted by (component, node), and offsets into that order, so component k
    is order[bounds[k]:bounds[k + 1]].
    """
    n_comp, raw = _strong_components(ptr, idx)
    # first[k] is the smallest node of scipy's component k
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(n_comp, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(n_comp)
    labels = rank[raw]
    bounds = np.zeros(n_comp + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=n_comp), out=bounds[1:])
    return labels, np.argsort(labels, kind="stable"), bounds


def is_gradient(complex: CellComplex, matching: Matching) -> bool:
    """Decide acyclicity of the induced flow: True when no strongly connected
    component has more than one cell, that is when there are as many
    components as cells. Self-loops of single-cell components do not count:
    in the flow those are the critical cells."""
    n_comp, _ = _strong_components(*_arrows(complex, matching))
    return n_comp == len(complex)


def cyclic_components(complex: CellComplex, matching: Matching) -> list[np.ndarray]:
    """Cells of every multi-cell strongly connected component of the flow,
    ascending, components in the order of their smallest cell."""
    _, order, bounds = _sccs(*_arrows(complex, matching))
    return [order[bounds[k] : bounds[k + 1]] for k in np.flatnonzero(np.diff(bounds) > 1)]


@dataclass
class SccInfo:
    id: int
    cells: tuple[int, ...]
    size: int
    d: int | None  # alternation degree: cells live in dims d and d+1
    dims_present: tuple[int, ...]
    self_intersections: tuple[int, ...]  # cells with >1 successor inside the component
    is_critical_singleton: bool


@dataclass
class CycleReport:
    sccs: list[SccInfo]
    n_components: int
    critical_census: dict[int, int]  # dimension -> number of critical cells
    scc_id: np.ndarray  # (N,) each cell's component

    def multi_cell(self) -> list[SccInfo]:
        return [s for s in self.sccs if s.size > 1]

    def critical_singletons(self) -> list[SccInfo]:
        return [s for s in self.sccs if s.is_critical_singleton]


def classify_recurrence(complex: CellComplex, matching: Matching) -> CycleReport:
    """SCCs of the flow plus a per-dimension census of its critical cells.

    Components are numbered by their smallest cell id, and `scc_id` gives
    every cell's. Only recurrent components (more than one cell, or a
    critical self-loop) get an SccInfo entry. Read off the gradient arrows
    (`_arrows`): a critical cell has no out-arc there, so it is a singleton
    and no cell's self-intersections change. The matching is taken as given;
    `verify_matching` is the check.
    """
    ptr, idx = _arrows(complex, matching)
    labels, order, bounds = _sccs(ptr, idx)
    sizes = np.diff(bounds)
    recurrent = sizes > 1
    recurrent[labels[matching.critical]] = True
    # successors that stay inside their cell's component, per cell
    source = np.repeat(np.arange(len(complex)), np.diff(ptr))
    inner = source[labels[source] == labels[idx]]
    crossing = np.bincount(inner, minlength=len(complex)) > 1

    infos: list[SccInfo] = []
    for cid in np.flatnonzero(recurrent).tolist():
        cells = order[bounds[cid] : bounds[cid + 1]]
        if len(cells) == 1:
            dims_present = (int(complex.dims[cells[0]]),)
        else:
            dims_present = tuple(np.unique(complex.dims[cells]).tolist())
        infos.append(
            SccInfo(
                id=cid,
                cells=tuple(cells.tolist()),
                size=len(cells),
                # one dimension, or two adjacent ones
                d=dims_present[0] if dims_present[-1] - dims_present[0] <= 1 else None,
                dims_present=dims_present,
                self_intersections=tuple(cells[crossing[cells]].tolist()),
                # a recurrent singleton holds a critical cell
                is_critical_singleton=len(cells) == 1,
            )
        )
    dims, counts = np.unique(complex.dims[matching.critical], return_counts=True)
    return CycleReport(infos, len(sizes), dict(zip(dims.tolist(), counts.tolist())), labels)
