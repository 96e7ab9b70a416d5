import numpy as np
import pytest

import poissonext as px
from poissonext.halfspace import default_truncation_radius


class TestGridConstruction:
    def test_reaches_automatic_truncation_radius(self, params_2d):
        grid = px.build_halfspace_grid(params_2d)
        assert np.max(np.abs(grid.nodes)) <= grid.truncation_radius
        assert np.max(np.abs(grid.nodes)) > 0.99 * grid.truncation_radius

    def test_slow_decay_needs_larger_radius(self):
        # the closer a is to 1, the slower the kernel tail decays
        r_fast = px.build_halfspace_grid(px.ProblemParams(3, -0.5)).truncation_radius
        r_slow = px.build_halfspace_grid(px.ProblemParams(2, 0.5)).truncation_radius
        assert r_slow > r_fast

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


class TestTailBound:
    def test_bound_dominates_true_tail(self, params_2d):
        # truncating the normalized kernel integral leaves exactly 1 - mass
        p = params_2d
        grid = px.build_halfspace_grid(p, truncation_radius=50.0)
        x = np.array([0.2, 1.0])
        mass = px.integrate_boundary(px.kernel_halfspace(grid.nodes, x, p), grid)
        true_tail = 1.0 - mass
        bound = px.halfspace_tail_bound(grid, x, p, u_tail_sup=1.0)[0]
        assert 0 < true_tail < bound

    def test_bound_is_inf_for_far_targets(self, params_2d):
        grid = px.build_halfspace_grid(params_2d, truncation_radius=10.0)
        bound = px.halfspace_tail_bound(grid, np.array([9.0, 1.0]), params_2d, 1.0)
        assert np.isinf(bound[0])

    def test_bound_scales_with_tail_sup(self, params_3d):
        grid = px.build_halfspace_grid(params_3d, truncation_radius=100.0)
        x = np.array([0.0, 0.0, 1.0])
        b1 = px.halfspace_tail_bound(grid, x, params_3d, 1.0)[0]
        b2 = px.halfspace_tail_bound(grid, x, params_3d, 2.0)[0]
        assert b2 == pytest.approx(2 * b1, rel=1e-14)


class TestTruncationRadius:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.98, 0.99, 0.999])
    def test_near_a_equal_1_the_radius_is_the_upper_clip(self, n, a):
        # (3e-7 / lead)^(1 / (a - 1)) passes float64 here; the clip gives 1e15
        assert default_truncation_radius(px.ProblemParams(n=n, a=a)) == 1e15

    def test_inside_float64_the_radius_is_the_power(self):
        assert default_truncation_radius(px.ProblemParams(n=2, a=0.5)) == 206863095757277.25
