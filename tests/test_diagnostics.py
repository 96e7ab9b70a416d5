import numpy as np
import pytest

import poissonext as px


class TestBubble:
    def test_classical_values(self, params_3d):
        bp = px.BubbleParams()
        assert px.bubble(np.zeros(2), params_3d, bp) == pytest.approx(1.0, rel=1e-15)
        assert px.bubble(np.array([1.0, 0.0]), params_3d, bp) == pytest.approx(
            2.0 ** (-0.5), rel=1e-15
        )

    def test_lambda_scaling_identity(self, params_2d, rng):
        # bubble_lambda(y) = lambda^{-(n+a-2)} bubble_1(y / lambda) with the
        # amplitude-lambda^{(n+a-2)/2} convention
        m = params_2d.half_weight_power
        lam = 0.37
        bp_lam = px.BubbleParams(lambda_scale=lam, amplitude=lam**m)
        bp_one = px.BubbleParams()
        y = rng.normal(size=(40, 1)) * 2
        lhs = px.bubble(y, params_2d, bp_lam)
        rhs = lam ** (-2 * m) * lam**m * px.bubble(y / lam, params_2d, bp_one)
        assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_pullback_is_constant(self, params_2d, params_3d, rng):
        # amplitude 2^{(n+a-2)/2} makes the bubble the conformal factor itself
        for p in (params_2d, params_3d):
            bp = px.BubbleParams(amplitude=2.0**p.half_weight_power)
            y = rng.normal(size=(60, p.n - 1)) * 3
            lifted = np.concatenate([y, np.zeros((60, 1))], axis=1)
            ratio = px.bubble(y, p, bp) / px.conformal_weight(lifted, p)
            assert np.max(np.abs(ratio - 1.0)) < 1e-6  # exact algebraically

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            px.BubbleParams(lambda_scale=0.0)
        with pytest.raises(ValueError):
            px.BubbleParams(amplitude=-1.0)


class TestBubbleExtension:
    def test_classical_closed_form(self, params_3d):
        # P_0 (1 + |y|^2)^{-1/2} at height t above the origin is 1/(1 + t)
        bp = px.BubbleParams()
        for t in (0.25, 1.0, 4.0):
            val = px.bubble_extension_halfspace(np.array([0.0, 0.0, t]), params_3d, bp)
            assert val == pytest.approx(1.0 / (1.0 + t), rel=1e-13)

    def test_matches_grid_extension(self, params_2d):
        bp = px.BubbleParams(lambda_scale=1.5, amplitude=0.8)
        grid = px.build_halfspace_grid(params_2d)
        u = px.bubble(grid.nodes, params_2d, bp)
        targets = np.array([[0.3, 0.7], [-0.5, 1.2]])
        approx = px.extend_halfspace(u, grid, targets, params_2d)
        exact = px.bubble_extension_halfspace(targets, params_2d, bp)
        assert np.max(np.abs(approx - exact)) < 1e-6

    def test_output_shape_follows_bubble(self, params_2d, params_3d):
        # a 2-D input gives an array, one row included; a single point a float
        bp = px.BubbleParams()
        for p in (params_2d, params_3d):
            point = np.full(p.n, 0.5)
            for x in (point, point[None, :], np.stack([point, 2 * point])):
                ext = px.bubble_extension_halfspace(x, p, bp)
                trace = px.bubble(x[..., :-1], p, bp)
                assert np.shape(ext) == np.shape(trace) == x.shape[:-1]
                assert isinstance(ext, float) == (x.ndim == 1)


class TestBlowUpRescale:
    def test_center_normalization_exact(self, params_2d, rng):
        u = lambda y: 3.7 * np.exp(-np.sum(np.atleast_2d(y) ** 2, axis=-1))
        rp = px.RescaleParams(p=5.0, u0=3.7, params=params_2d)
        phi = px.blow_up_rescale(u, rp)
        assert phi(np.zeros((1, 1)))[0] == 1.0

    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01])
    def test_bubble_family_maps_to_standard_bubble(self, params_2d, lam, rng):
        p = params_2d
        m = p.half_weight_power
        bp = px.BubbleParams(lambda_scale=lam, amplitude=lam**m)
        u = lambda y: px.bubble(y, p, bp)
        u0 = float(u(np.zeros((1, p.n - 1)))[0])
        assert u0 == pytest.approx(lam**-m, rel=1e-14)
        rp = px.RescaleParams(p=p.p_crit, u0=u0, params=p)
        assert rp.scale == pytest.approx(lam, rel=1e-13)
        phi = px.blow_up_rescale(u, rp)
        y = rng.normal(size=(50, 1)) * 4
        std = px.bubble(y, p, px.BubbleParams())
        assert np.max(np.abs(phi(y) - std)) < 1e-12

    def test_idempotent_on_normalized_profiles(self, params_3d, rng):
        u = lambda y: px.bubble(y, params_3d, px.BubbleParams())
        rp = px.RescaleParams(p=params_3d.p_crit, u0=1.0, params=params_3d)
        phi = px.blow_up_rescale(u, rp)
        y = rng.normal(size=(30, 2))
        assert np.array_equal(phi(y), u(y))

    def test_scale_shrinks_for_subcritical_exponent(self, params_2d):
        rp = px.RescaleParams(p=5.0, u0=1e6, params=params_2d)
        assert rp.scale < 1e-17

    def test_rejects_nonpositive_center_value(self, params_2d):
        with pytest.raises(ValueError):
            px.RescaleParams(p=5.0, u0=0.0, params=params_2d)


class TestConcentrationReport:
    def test_constant_profile(self, sphere_3d):
        v = px.BoundaryFunction(np.full(len(sphere_3d), 2.5), sphere_3d)
        rep = px.concentration_report(v)
        assert rep["sup_inf_ratio"] == 1.0
        # the cap holding half the measure of the sphere is a hemisphere
        assert rep["half_mass_radius"] == pytest.approx(np.pi / 2, abs=0.2)

    def test_spike_profile(self, sphere_2d):
        v = np.full(len(sphere_2d), 1e-9)
        v[7] = 1.0
        rep = px.concentration_report(px.BoundaryFunction(v, sphere_2d))
        spacing = 2 * np.pi / len(sphere_2d)
        assert rep["half_mass_radius"] < 2 * spacing
        assert rep["max_location"] == pytest.approx(list(sphere_2d.nodes[7]))

    def test_amplitude_invariance(self, sphere_2d, rng):
        v = rng.random(len(sphere_2d)) + 0.1
        r1 = px.concentration_report(px.BoundaryFunction(v, sphere_2d))
        r2 = px.concentration_report(px.BoundaryFunction(100.0 * v, sphere_2d))
        assert r1["half_mass_radius"] == r2["half_mass_radius"]
        assert r1["sup_inf_ratio"] == pytest.approx(r2["sup_inf_ratio"], rel=1e-12)
        assert r1["max_location"] == r2["max_location"]

    def test_bubble_family_shrinks(self, params_2d, sphere_2d):
        radii = []
        for lam in (1.0, 0.4, 0.15):
            bp = px.BubbleParams(lambda_scale=lam)
            safe = sphere_2d.nodes * (1.0 - 1e-13)
            ys = px.mobius_f_inverse(safe, params_2d)[:, :-1]
            lifted = np.concatenate([ys, np.zeros((len(ys), 1))], axis=1)
            vals = px.bubble(ys, params_2d, bp) / px.conformal_weight(lifted, params_2d)
            radii.append(px.half_mass_radius(px.BoundaryFunction(vals, sphere_2d)))
        assert radii[0] > radii[1] > radii[2]


class TestClassificationStandIn:
    def test_transported_bubble_solves_critical_equation(self, params_2d, sphere_2d, ball_2d):
        # the bubble transported to the sphere is a constant; with constant
        # weight the multiplier-free critical equation holds to quadrature
        # accuracy, standing in for the classified blow-up limit
        w = px.WeightFunction(np.ones(len(sphere_2d)), sphere_2d, antipodal=True)
        v = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        assert px.el_residual(v, w, params_2d, ball_2d) < 1e-8
