"""Flow induced by a matching and its recurrent structure.

Every cell gets a successor set: a critical cell maps to its whole closure,
sorted, a matched lower cell to its partner, and a matched upper cell to its
other codim-1 faces. Recurrence is read off the strongly connected components
of that relation; critical cells are exactly the singletons with a self-loop.
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
    "strongly_connected_components",
    "classify_recurrence",
]


@dataclass
class FlowGraph:
    """CSR flow: cell c flows to `succ_idx[succ_ptr[c]:succ_ptr[c + 1]]`.
    `scc_id`, each cell's component, is set by `strongly_connected_components`."""

    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    dims: np.ndarray
    critical: frozenset[int]
    scc_id: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.dims)


def _flow_successors(complex: CellComplex, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """CSR successors (ptr, idx) of every cell, in the order the module
    docstring gives, faces ascending. The matching is taken as given;
    `multiflow` is the checked entry point."""
    n = len(complex)
    lower, upper = np.array(list(matching.matched.items()), dtype=np.intp).reshape(-1, 2).T
    partner = np.full(n, -1, dtype=np.intp)
    partner[upper] = lower
    owner = np.repeat(np.arange(n), np.diff(complex.face_ptr))
    spread = (partner[owner] >= 0) & (complex.face_idx != partner[owner])
    closed_cell, closed_face = complex.closures(
        np.fromiter(matching.critical, dtype=np.intp, count=len(matching.critical))
    )
    rows = np.concatenate([lower, owner[spread], closed_cell])
    cols = np.concatenate([upper, complex.face_idx[spread], closed_face])
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    # a stable sort keeps each cell's successors in the order they were listed
    return ptr, cols[np.argsort(rows, kind="stable")]


def multiflow(complex: CellComplex, matching: Matching) -> FlowGraph:
    report = verify_matching(complex, matching)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"matching is not valid: {first.kind}: {first.detail}")
    ptr, idx = _flow_successors(complex, matching)
    return FlowGraph(succ_ptr=ptr, succ_idx=idx, dims=complex.dims, critical=matching.critical)


def _sccs(ptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strongly connected components of a CSR graph, numbered in the order of
    their smallest node.

    Returns (labels, order, bounds): the component of every node, the nodes
    sorted by (component, node), and offsets into that order, so component k
    is order[bounds[k]:bounds[k + 1]].
    """
    n = len(ptr) - 1
    graph = csr_matrix((np.ones(len(idx), dtype=np.int8), idx, ptr), shape=(n, n))
    n_comp, raw = connected_components(graph, directed=True, connection="strong")
    # first[k] is the smallest node of scipy's component k
    _, first = np.unique(raw, return_index=True)
    rank = np.empty(n_comp, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(n_comp)
    labels = rank[raw]
    bounds = np.zeros(n_comp + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=n_comp), out=bounds[1:])
    return labels, np.argsort(labels, kind="stable"), bounds


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
    critical_census: dict[int, int] | None = None

    def multi_cell(self) -> list[SccInfo]:
        return [s for s in self.sccs if s.size > 1]

    def critical_singletons(self) -> list[SccInfo]:
        return [s for s in self.sccs if s.is_critical_singleton]


def strongly_connected_components(flow: FlowGraph) -> CycleReport:
    """SCCs of the flow, reported deterministically: components are numbered
    by their smallest cell id. Only recurrent components (more than one cell,
    or a critical self-loop) get an SccInfo entry; `scc_id` on the flow graph
    is filled for every cell."""
    labels, order, bounds = _sccs(flow.succ_ptr, flow.succ_idx)
    flow.scc_id = labels
    sizes = np.diff(bounds)
    recurrent = sizes > 1
    critical = labels[np.fromiter(flow.critical, dtype=np.intp, count=len(flow.critical))]
    recurrent[critical] = True
    # successors that stay inside their cell's component, per cell
    source = np.repeat(np.arange(len(flow)), np.diff(flow.succ_ptr))
    inner = source[labels[source] == labels[flow.succ_idx]]
    crossing = np.bincount(inner, minlength=len(flow)) > 1

    infos: list[SccInfo] = []
    for cid in np.flatnonzero(recurrent).tolist():
        cells = order[bounds[cid] : bounds[cid + 1]]
        dims_present = tuple(np.unique(flow.dims[cells]).tolist())
        infos.append(
            SccInfo(
                id=cid,
                cells=tuple(cells.tolist()),
                size=len(cells),
                # one dimension, or two adjacent ones
                d=dims_present[0] if dims_present[-1] - dims_present[0] <= 1 else None,
                dims_present=dims_present,
                self_intersections=tuple(cells[crossing[cells]].tolist()),
                is_critical_singleton=len(cells) == 1 and int(cells[0]) in flow.critical,
            )
        )
    return CycleReport(sccs=infos, n_components=len(sizes))


def classify_recurrence(flow: FlowGraph, matching: Matching) -> CycleReport:
    """SCC decomposition plus a per-dimension census of critical cells.

    Sanity-checks the structural facts the construction guarantees: critical
    cells are exactly the self-loop singletons, and no multi-cell component
    contains a critical cell.
    """
    if matching.critical != flow.critical:
        raise ValueError("flow graph and matching disagree on the critical set")
    report = strongly_connected_components(flow)
    for info in report.sccs:
        if info.size > 1 and any(c in flow.critical for c in info.cells):
            raise AssertionError(f"critical cell inside multi-cell component {info.id}")
    critical = np.fromiter(flow.critical, dtype=np.intp, count=len(flow.critical))
    dims, counts = np.unique(flow.dims[critical], return_counts=True)
    report.critical_census = dict(zip(dims.tolist(), counts.tolist()))
    return report

