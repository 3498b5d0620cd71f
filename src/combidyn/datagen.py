"""Synthetic vector field datasets: planar ODE fields sampled on grids and an
Euler-integrated Lorenz trajectory."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "FieldSample",
    "GridSpec",
    "MODELS",
    "gen_grid_field",
    "gen_lorenz_trajectory",
    "preset_field",
    "PRESETS",
    "write_field_csv",
]


@dataclass(frozen=True)
class FieldSample:
    """Sample points and one vector per point, as parallel (n, d) arrays."""

    points: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        if self.points.shape != self.vectors.shape:
            raise ValueError("points and vectors must have matching shapes")
        if not (np.isfinite(self.points).all() and np.isfinite(self.vectors).all()):
            raise ValueError("non-finite entries in field sample")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Regular grid: points origin + step * (i1, ..., id) for ik < shape[k]."""

    origin: tuple[float, ...]
    step: float
    shape: tuple[int, ...]

    def points(self) -> np.ndarray:
        if self.step <= 0 or any(s < 1 for s in self.shape):
            raise ValueError(f"bad grid spec {self}")
        axes = [np.array(self.origin[k]) + self.step * np.arange(self.shape[k]) for k in range(len(self.shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _rhs_intro(p):
    x, y = p[..., 0], p[..., 1]
    r2 = x * x + y * y
    g = (r2 - 4.0) * (r2 - 1.0)
    return np.stack([-y + x * g, x + y * g], axis=-1)


def _rhs_lotka_volterra(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([(0.4 - 0.01 * y) * x, (0.005 * x - 0.3) * y], axis=-1)


def _rhs_sink(p):
    return -p


MODELS = {
    "intro": _rhs_intro,
    "lotka_volterra": _rhs_lotka_volterra,
    "sink": _rhs_sink,
}


def gen_grid_field(model, spec: GridSpec) -> FieldSample:
    """Evaluate a named model (or any callable points -> vectors) on a grid."""
    if callable(model):
        rhs = model
    else:
        try:
            rhs = MODELS[model]
        except KeyError:
            raise ValueError(f"unknown model {model!r}; have {sorted(MODELS)}") from None
    pts = spec.points()
    return FieldSample(pts, rhs(pts))


def _rhs_lorenz(p, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    x, y, z = p
    return np.array([sigma * (y - x), rho * x - x * z - y, x * y - beta * z])


def gen_lorenz_trajectory(x0=(0.0, 1.0, 1.05), dt: float = 0.2, n: int = 1000) -> FieldSample:
    """Forward-Euler Lorenz trajectory of n points starting at x0, each point
    paired with its right-hand-side vector.

    Euler at the default dt = 0.2 sits on the stability boundary of the fast
    sigma direction and in practice diverges within a handful of steps; when
    that happens the trajectory is truncated at the last finite point and a
    warning is issued.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    pts = [np.asarray(x0, dtype=float)]
    vecs = [_rhs_lorenz(pts[0])]
    for _ in range(n - 1):
        # overflow here is the divergence signal itself, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = pts[-1] + dt * vecs[-1]
            rhs = _rhs_lorenz(nxt)
        if not (np.all(np.isfinite(nxt)) and np.all(np.isfinite(rhs))):
            warnings.warn(
                f"trajectory blew up after {len(pts)} of {n} points (dt={dt}); truncating",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        pts.append(nxt)
        vecs.append(rhs)
    return FieldSample(np.array(pts), np.array(vecs))


_TOY_POINTS = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]


def _preset_toy() -> FieldSample:
    return FieldSample(np.array(_TOY_POINTS), np.array([(0.0, 1.0), (1.0, 0.0), (-1.0, -1.0)]))


def _preset_grad_toy() -> FieldSample:
    return FieldSample(np.array(_TOY_POINTS), np.array([(0.05, 1.0), (1.0, 0.0), (-1.0, -1.0)]))


def _preset_intro() -> FieldSample:
    # 16x16 grid of pitch 0.44 straddling the origin symmetrically.
    return gen_grid_field("intro", GridSpec((0.22 - 8 * 0.44, 0.22 - 8 * 0.44), 0.44, (16, 16)))


def _preset_lotka_volterra() -> FieldSample:
    return gen_grid_field("lotka_volterra", GridSpec((0.0, 0.0), 10.0, (9, 9)))


def _preset_sink() -> FieldSample:
    pts = np.array([(-1.0, -1.0), (1.0, -1.0), (0.0, 2.0), (1.0, 1.0), (-1.0, 1.0), (0.0, -2.0)])
    return FieldSample(pts, _rhs_sink(pts))


PRESETS = {
    "toy": _preset_toy,
    "grad_toy": _preset_grad_toy,
    "intro": _preset_intro,
    "lotka_volterra": _preset_lotka_volterra,
    "sink": _preset_sink,
    # the two trajectories take dt and n overrides; lorenz keeps
    # gen_lorenz_trajectory's defaults
    "lorenz": gen_lorenz_trajectory,
    # CI-sized trajectory; dt chosen small enough that Euler stays bounded
    "lorenz_desk": partial(gen_lorenz_trajectory, dt=0.02, n=300),
}


def preset_field(name: str, **overrides) -> FieldSample:
    try:
        make = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    if overrides and name not in ("lorenz", "lorenz_desk"):
        raise ValueError(f"preset {name!r} takes no overrides")
    return make(**overrides)


def write_field_csv(path, sample: FieldSample) -> None:
    d = sample.dim
    header = [f"x{k+1}" for k in range(d)] + [f"v{k+1}" for k in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for p, v in zip(sample.points, sample.vectors):
            fh.write(",".join(repr(float(x)) for x in (*p, *v)) + "\n")
