import math

import numpy as np
import pytest

from combidyn import (
    FieldSample,
    GridSpec,
    MODELS,
    gen_grid_field,
    gen_lorenz_trajectory,
    preset_field,
    write_field_csv,
)
from combidyn.pipeline import read_field_csv


class TestModels:
    def test_intro_values(self):
        rhs = MODELS["intro"]
        # on the unit circle the radial factor vanishes: pure rotation
        assert np.allclose(rhs(np.array([1.0, 0.0])), (0.0, 1.0))
        assert np.allclose(rhs(np.array([0.0, -1.0])), (1.0, 0.0))
        # on the radius-2 circle as well
        assert np.allclose(rhs(np.array([2.0, 0.0])), (0.0, 2.0))
        # in between the field spirals inward: g(r^2) < 0
        v = rhs(np.array([1.5, 0.0]))
        assert v[0] < 0.0

    def test_lotka_volterra_equilibria(self):
        rhs = MODELS["lotka_volterra"]
        assert np.allclose(rhs(np.array([0.0, 0.0])), (0.0, 0.0))
        assert np.allclose(rhs(np.array([60.0, 40.0])), (0.0, 0.0))
        # the coexistence point is the only interior zero
        v = rhs(np.array([40.0, 60.0]))
        assert np.linalg.norm(v) > 1.0

    def test_sink(self):
        pts = np.array([[3.0, -2.0], [0.0, 0.5]])
        assert np.allclose(MODELS["sink"](pts), -pts)


class TestGrid:
    def test_points_layout(self):
        spec = GridSpec((1.0, -1.0), 0.5, (2, 3))
        pts = spec.points()
        assert pts.shape == (6, 2)
        assert np.allclose(pts[0], (1.0, -1.0))
        assert np.allclose(pts[-1], (1.5, 0.0))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            GridSpec((0.0,), 0.0, (3,)).points()
        with pytest.raises(ValueError):
            GridSpec((0.0,), 1.0, (0,)).points()

    def test_callable_model(self):
        sample = gen_grid_field(lambda p: 2 * p, GridSpec((0.0, 0.0), 1.0, (2, 2)))
        assert np.allclose(sample.vectors, 2 * sample.points)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            gen_grid_field("van_der_pol", GridSpec((0.0, 0.0), 1.0, (2, 2)))


class TestLorenz:
    def test_first_steps(self):
        sample = gen_lorenz_trajectory(x0=(0.0, 1.0, 1.05), dt=0.2, n=2)
        assert np.allclose(sample.vectors[0], (10.0, -1.0, -2.8))
        assert np.allclose(sample.points[1], (2.0, 0.8, 0.49))

    def test_step_identity(self):
        sample = gen_lorenz_trajectory(dt=0.02, n=50)
        steps = sample.points[1:] - sample.points[:-1]
        assert np.allclose(steps, 0.02 * sample.vectors[:-1], atol=1e-12)

    def test_coarse_dt_truncates(self):
        with pytest.warns(RuntimeWarning, match="blew up"):
            sample = gen_lorenz_trajectory(dt=0.2, n=1000)
        assert len(sample.points) < 1000
        assert np.isfinite(sample.points).all()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_lorenz_trajectory(n=0)
        with pytest.raises(ValueError):
            gen_lorenz_trajectory(dt=-0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt}$"):
            gen_lorenz_trajectory(dt=dt)


class TestPresets:
    def test_toy(self):
        sample = preset_field("toy")
        assert np.allclose(sample.points, [(0, 0), (1, 1), (2, 0)])
        assert np.allclose(sample.vectors, [(0, 1), (1, 0), (-1, -1)])

    def test_grad_toy_differs_only_at_first_vector(self):
        a, b = preset_field("toy"), preset_field("grad_toy")
        assert np.allclose(a.points, b.points)
        assert np.allclose(a.vectors[1:], b.vectors[1:])
        assert np.allclose(b.vectors[0], (0.05, 1.0))

    def test_intro_extent(self):
        sample = preset_field("intro")
        assert sample.points.shape == (256, 2)
        assert np.allclose(sample.points.min(axis=0), (-3.3, -3.3))
        assert np.allclose(sample.points.max(axis=0), (3.3, 3.3))

    def test_lotka_volterra_contains_equilibrium(self):
        sample = preset_field("lotka_volterra")
        idx = np.where((sample.points == (60.0, 40.0)).all(axis=1))[0]
        assert len(idx) == 1
        assert np.allclose(sample.vectors[idx[0]], (0.0, 0.0))

    def test_sink_is_symmetric(self):
        sample = preset_field("sink")
        assert sample.points.shape == (6, 2)
        assert np.allclose(sample.vectors, -sample.points)
        assert np.allclose(sample.points.mean(axis=0), (0.0, 0.0))

    def test_lorenz_desk_is_bounded(self):
        sample = preset_field("lorenz_desk")
        assert len(sample.points) == 300
        assert np.abs(sample.points).max() < 100.0

    def test_overrides(self):
        sample = preset_field("lorenz_desk", n=10)
        assert len(sample.points) == 10
        with pytest.raises(ValueError, match="overrides"):
            preset_field("toy", n=10)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_field("rossler")


class TestFieldSample:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching shapes"):
            FieldSample(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            FieldSample(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


class TestCsvRoundTrip:
    def test_exact(self, tmp_path):
        sample = preset_field("lorenz_desk", n=20)
        path = tmp_path / "field.csv"
        write_field_csv(path, sample)
        back = read_field_csv(path)
        assert back.points.shape == (20, 3)
        assert (back.points == sample.points).all()
        assert (back.vectors == sample.vectors).all()
