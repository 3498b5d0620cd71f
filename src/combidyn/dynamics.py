"""Flow induced by a matching and its recurrent structure.

Every cell gets a successor set: a critical cell maps to its whole closure,
a matched lower cell to its partner, and a matched upper cell to its other
proper faces. Recurrence is read off the strongly connected components of
that relation; critical cells are exactly the singletons with a self-loop.
"""

from __future__ import annotations

import itertools
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
    succ: list[tuple[int, ...]]
    dims: tuple[int, ...]
    critical: frozenset[int]
    scc_id: list[int] | None = None

    def __len__(self) -> int:
        return len(self.succ)


def _flow_successors(complex: CellComplex, matching: Matching) -> list[tuple[int, ...]]:
    """Successors of every cell, indexed by cell id. The matching is taken as
    given; `multiflow` is the checked entry point."""
    inverse = {up: lo for lo, up in matching.matched.items()}
    succ: list[tuple[int, ...]] = []
    for cell in complex.cells:
        c = cell.id
        if c in matching.critical:
            succ.append(tuple(sorted(complex.closure(c))))
        elif c in matching.matched:
            succ.append((matching.matched[c],))
        else:
            skip = inverse[c]
            succ.append(tuple(f for f in complex.codim1_faces(c) if f != skip))
    return succ


def multiflow(complex: CellComplex, matching: Matching) -> FlowGraph:
    report = verify_matching(complex, matching)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"matching is not valid: {first.kind}: {first.detail}")
    return FlowGraph(
        succ=_flow_successors(complex, matching),
        dims=tuple(cell.dim for cell in complex.cells),
        critical=matching.critical,
    )


def _sccs(succ: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strongly connected components of an indexed adjacency list, numbered
    in the order of their smallest node.

    Returns (labels, order, bounds): the component of every node, the nodes
    sorted by (component, node), and offsets into that order, so component k
    is order[bounds[k]:bounds[k + 1]].
    """
    n = len(succ)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum([len(s) for s in succ], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp, count=indptr[-1])
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
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
    labels, order, bounds = _sccs(flow.succ)
    flow.scc_id = labels.tolist()
    sizes = np.diff(bounds)
    recurrent = sizes > 1
    critical = labels[np.fromiter(flow.critical, dtype=np.intp, count=len(flow.critical))]
    recurrent[critical] = True

    infos: list[SccInfo] = []
    for cid in np.flatnonzero(recurrent).tolist():
        comp = tuple(order[bounds[cid] : bounds[cid + 1]].tolist())
        members = set(comp)
        singleton_critical = len(comp) == 1 and comp[0] in flow.critical
        inside_out = tuple(
            c for c in comp if sum(1 for s in flow.succ[c] if s in members) > 1
        )
        dims_present = tuple(sorted({flow.dims[c] for c in comp}))
        if len(dims_present) == 1:
            d = dims_present[0]
        elif len(dims_present) == 2 and dims_present[1] == dims_present[0] + 1:
            d = dims_present[0]
        else:
            d = None
        infos.append(
            SccInfo(
                id=cid,
                cells=comp,
                size=len(comp),
                d=d,
                dims_present=dims_present,
                self_intersections=inside_out,
                is_critical_singleton=singleton_critical,
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
    census: dict[int, int] = {}
    for c in sorted(flow.critical):
        census[flow.dims[c]] = census.get(flow.dims[c], 0) + 1
    report.critical_census = census
    return report

