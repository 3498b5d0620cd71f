import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import combidyn.gradient
from combidyn import (
    CellComplex,
    assign_vertex_average,
    barycentric_subdivision,
    build_cost_model,
    build_problem,
    cubical_grid,
    delaunay_2d,
    preset_field,
    simplicial_complex,
)


@pytest.fixture(scope="session")
def toy():
    """The worked triangle: X = (0,0),(1,1),(2,0) with one rotating field."""
    sample = preset_field("toy")
    complex = delaunay_2d(sample.points)
    vectors = assign_vertex_average(complex, sample.vectors)
    return sample, complex, vectors


@pytest.fixture(scope="session")
def grad_toy():
    """Same triangle, first vector tilted to (0.05, 1); the near-degenerate
    instance whose optimum flips between cyclic and gradient around alpha 0.14."""
    sample = preset_field("grad_toy")
    complex = delaunay_2d(sample.points)
    vectors = assign_vertex_average(complex, sample.vectors)
    return sample, complex, vectors


# generating simplex pools for random small complexes over up to 5 vertices;
# every entry closes to at most 12 cells so exhaustive enumeration stays cheap
_GEN_POOL = [
    [(0, 1, 2)],
    [(0, 1, 2), (1, 2, 3)],
    [(0, 1, 2), (2, 3)],
    [(0, 1, 2), (3, 4)],
    [(0, 1), (1, 2), (2, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1, 2), (1, 2, 3), (0, 3)],
    [(0,), (1, 2)],
    [(0, 1)],
]


def random_simplicial_instance(rng: np.random.Generator, allow_zero_vectors=True):
    """Small random complex plus per-cell vectors, for solver stress tests.

    Cell counts stay at or below 12 so brute-force enumeration is cheap.
    Vertex positions are jittered to keep geometry generic; occasionally a
    zero vector is planted to exercise the degenerate cost branch.
    """
    gens = _GEN_POOL[rng.integers(len(_GEN_POOL))]
    n_vertices = max(max(g) for g in gens) + 1
    base = np.array(
        [(0.0, 0.0), (2.0, 0.0), (1.0, 1.8), (3.0, 1.6), (-1.0, 1.4)]
    )[:n_vertices]
    vertices = base + rng.normal(scale=0.2, size=base.shape)
    complex = simplicial_complex(vertices, gens)
    vectors = np.empty((len(complex), 2))
    for c in range(len(complex)):
        v = rng.normal(size=2)
        if allow_zero_vectors and rng.random() < 0.05:
            v = np.zeros(2)
        vectors[c] = v
    return complex, vectors


def random_cubical_instance(rng: np.random.Generator, max_extent: int = 3):
    """Random 2D lattice patch with vertex-sampled vectors. A 2x2 patch (the
    max_extent=2 case) closes to 9 cells, small enough for enumeration."""
    w = int(rng.integers(2, max_extent + 1))
    h = int(rng.integers(2, max_extent + 1))
    pts = np.array([(i * 1.0, j * 1.0) for i in range(w) for j in range(h)])
    keep = rng.random(len(pts)) < 0.9
    keep[:4] = True
    complex = cubical_grid(pts[keep], side=1.0)
    data = rng.normal(size=(int(keep.sum()), 2))
    vectors = assign_vertex_average(complex, data)
    return complex, vectors


def random_instance(rng: np.random.Generator, small: bool = False):
    """Either flavour, with a random alpha; returns (complex, vectors, alpha).
    With small=True every instance has at most 12 cells."""
    if rng.random() < 0.7:
        complex, vectors = random_simplicial_instance(rng)
    else:
        complex, vectors = random_cubical_instance(rng, max_extent=2 if small else 3)
    alpha = float(rng.uniform(0.0, 2.0))
    return complex, vectors, alpha


def problem_for(complex: CellComplex, vectors, alpha: float):
    return build_problem(build_cost_model(complex, vectors, alpha), complex)


def recorded_frontiers(monkeypatch) -> list:
    """Every `SearchFrontier` that `solve_gradient_constrained` makes from now
    on, in order, so a test can read its node count."""
    made = []

    class Recorded(combidyn.gradient.SearchFrontier):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(combidyn.gradient, "SearchFrontier", Recorded)
    return made


def to_csr(succ):
    """(ptr, idx) CSR arrays of an indexed adjacency list."""
    ptr = np.zeros(len(succ) + 1, dtype=np.intp)
    np.cumsum([len(s) for s in succ], out=ptr[1:])
    return ptr, np.array([v for s in succ for v in s], dtype=np.intp)


def successor_lists(ptr, idx):
    """Indexed adjacency list of CSR arrays, one tuple per node."""
    return [tuple(idx[a:b].tolist()) for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


@st.composite
def complexes(draw, kind, d):
    """A d-dimensional simplicial complex, barycentrically subdivided when
    kind is "subdivided", or a d-dimensional cubical lattice patch with some
    sites left out."""
    if kind == "cube":
        shape = draw(st.tuples(*[st.integers(2, 4 if d == 2 else 3)] * d))
        sites = np.array(list(itertools.product(*map(range, shape))), dtype=float)
        drop = draw(st.sets(st.integers(1, len(sites) - 1), max_size=len(sites) // 4))
        return cubical_grid(np.delete(sites, sorted(drop), axis=0), 1.0)
    n = draw(st.integers(d + 1, d + 3))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=d + 1, unique=True)
    top = draw(st.permutations(range(n)))[: d + 1]  # one d-simplex at least
    gens = [top] + draw(st.lists(simplex, max_size=3 if kind == "simplex" else 1))
    K = simplicial_complex(np.random.default_rng(n).normal(size=(n, d)), gens)
    if kind == "subdivided":
        K, _ = barycentric_subdivision(K, np.zeros((len(K), d)))
    return K


KINDS = list(itertools.product(["simplex", "subdivided", "cube"], [2, 3]))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_snippet(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports the package from this
    checkout. A hang fails after `timeout` seconds instead of stalling the
    suite: the child is killed and `subprocess.TimeoutExpired` raised."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
