import numpy as np
import pytest

import poissonext as px


class TestGridConstruction:
    def test_weights_positive(self, params_3d):
        grid = px.build_halfspace_grid(params_3d)
        assert np.all(grid.weights > 0)

    def test_gaussian_integral(self, params_2d, params_3d):
        for p in (params_2d, params_3d):
            grid = px.build_halfspace_grid(p)
            r2 = np.sum(grid.nodes**2, axis=1)
            total = px.integrate_boundary(np.exp(-r2), grid)
            assert total == pytest.approx(np.pi ** ((p.n - 1) / 2.0), rel=1e-10)

    def test_integrate_checks_length(self, params_2d):
        grid = px.build_halfspace_grid(params_2d)
        with pytest.raises(ValueError):
            px.integrate_boundary(np.ones(5), grid)


class _NoLoop(float):
    """A float that fails the test when the panel loop multiplies it."""

    def __mul__(self, other):
        raise AssertionError("the panel loop started")

    __rmul__ = __mul__


class TestWholeHyperplane:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.25, 0.44, 0.5, 0.75, 0.95, 0.98, 0.99])
    def test_finite_rule_of_unit_kernel_mass(self, n, a):
        # the mapped tail panel makes r^(a-2) constant for m = 1/(1-a) <= 50;
        # a = 0.99 needs m = 100, and the capped map leaves t^(-1/2).  Below
        # a = 0.5, m = 2 would leave t^(1-2a), 1e-5 off at a = 0.44
        p = px.ProblemParams(n, a)
        grid = px.build_halfspace_grid(p)
        assert np.all(np.isfinite(grid.nodes)) and np.all(np.isfinite(grid.weights))
        rng = np.random.default_rng(29)
        pts = np.empty((10, n))
        pts[:, :-1] = rng.uniform(-1.5, 1.5, size=(10, n - 1))
        pts[:, -1] = np.exp(rng.uniform(np.log(0.4), np.log(2.5), size=10))
        dev = max(abs(px.integrate_boundary(px.kernel_halfspace(grid.nodes, x, p), grid) - 1.0)
                  for x in pts)
        assert dev <= (0.05 if a == 0.99 else 1e-6)


class TestGridOptions:
    @pytest.mark.parametrize("scale", [0.0, -0.25])
    def test_non_positive_inner_scale_is_rejected_before_the_panel_loop(self, params_2d, scale):
        # the loop multiplies the last bound by 1.5: from 0 or below it never reaches R0
        with pytest.raises(ValueError, match="inner_scale"):
            px.build_halfspace_grid(params_2d, inner_scale=_NoLoop(scale))

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_inner_scale_is_rejected(self, params_3d, scale):
        with pytest.raises(ValueError, match="inner_scale"):
            px.build_halfspace_grid(params_3d, inner_scale=scale)

    @pytest.mark.parametrize("points", [0, -4, 2.5, 64.0, np.nan])
    def test_angular_points_other_than_a_positive_integer_are_rejected(self, params_3d, points):
        # 2.5 would give three azimuths of weight 2 pi / 2.5 each
        with pytest.raises(ValueError, match="angular_points"):
            px.build_halfspace_grid(params_3d, angular_points=points)
