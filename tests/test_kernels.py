import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import poissonext as px
from poissonext.kernels import _hyp2f1_ss1


def oracle_normalization(n, a):
    """Radial reduction of the defining integral, independent of the closed form."""
    if n == 2:
        area = 2.0
    else:
        area = 2.0 * np.pi ** ((n - 1) / 2.0) / special.gamma((n - 1) / 2.0)
    val, err = quad(lambda r: r ** (n - 2) * (1 + r * r) ** (-(n - a) / 2.0), 0, np.inf)
    assert err < 1e-8 * val
    return 1.0 / (area * val)


class TestNormalizationConstant:
    def test_classical_value_n3_a0(self):
        p = px.ProblemParams(3, 0.0)
        assert px.normalization_constant(p) == pytest.approx(1.0 / (2 * np.pi), abs=1e-15)

    @pytest.mark.parametrize("n,a", [(2, 0.5), (3, -0.5), (3, 0.0), (2, 0.9), (3, 0.7)])
    def test_closed_form_matches_oracle(self, n, a):
        p = px.ProblemParams(n, a)
        assert px.normalization_constant(p) == pytest.approx(oracle_normalization(n, a), rel=1e-10)

    def test_ball_prefactor_is_the_scaled_constant_bitwise(self):
        for n, a in [(2, 0.5), (3, -0.5), (3, 0.0), (2, 0.9)]:
            p = px.ProblemParams(n, a)
            assert px.ball_prefactor(p) == 2.0 ** (a - 1.0) * px.normalization_constant(p)


class TestKernelHalfspace:
    def test_value_above_origin(self):
        p = px.ProblemParams(3, 0.0)
        val = px.kernel_halfspace(np.zeros(2), np.array([0.0, 0.0, 1.0]), p)
        assert val == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)

    def test_translation_invariance(self, rng):
        p = px.ProblemParams(2, 0.5)
        y = rng.normal(size=(20, 1))
        x = np.array([0.3, 0.8])
        t = 1.7
        shifted = px.kernel_halfspace(y + t, np.array([0.3 + t, 0.8]), p)
        assert np.allclose(shifted, px.kernel_halfspace(y, x, p), rtol=1e-13)

    def test_rejects_boundary_evaluation(self):
        p = px.ProblemParams(3, 0.0)
        with pytest.raises(ValueError):
            px.kernel_halfspace(np.zeros(2), np.array([0.0, 0.0, 0.0]), p)

    def test_decay_rate(self):
        p = px.ProblemParams(3, -0.5)
        x = np.array([0.0, 0.0, 1.0])
        v1 = px.kernel_halfspace(np.array([1e3, 0.0]), x, p)
        v2 = px.kernel_halfspace(np.array([2e3, 0.0]), x, p)
        assert v1 / v2 == pytest.approx(2.0 ** (p.n - p.a), rel=1e-5)


class TestKernelBall:
    def test_center_value(self):
        p = px.ProblemParams(3, 0.0)
        eta = np.array([0.0, 0.0, 1.0])
        val = px.kernel_ball(eta, np.zeros(3), p)
        assert val == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)

    def test_center_value_general_a(self):
        p = px.ProblemParams(2, 0.5)
        val = px.kernel_ball(np.array([1.0, 0.0]), np.zeros(2), p)
        assert val == pytest.approx(px.ball_prefactor(p), rel=1e-14)

    def test_rotation_invariance(self, rng):
        p = px.ProblemParams(2, 0.5)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        eta = np.array([1.0, 0.0])
        xi = np.array([0.3, -0.2])
        assert px.kernel_ball(rot @ eta, rot @ xi, p) == pytest.approx(
            px.kernel_ball(eta, xi, p), rel=1e-12
        )

    def test_antipodal_equivariance_bitwise(self, rng):
        p = px.ProblemParams(3, -0.5)
        eta = rng.normal(size=(30, 3))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        xi = 0.8 * rng.normal(size=(30, 3))
        xi /= np.maximum(1.0, np.linalg.norm(xi, axis=1, keepdims=True) / 0.9)
        assert np.array_equal(px.kernel_ball(-eta, -xi, p), px.kernel_ball(eta, xi, p))

    def test_rejects_exterior_and_coincident(self):
        p = px.ProblemParams(3, 0.0)
        eta = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            px.kernel_ball(eta, eta, p)
        with pytest.raises(ValueError):
            px.kernel_ball(eta, 1.5 * eta, p)


class TestSphereMass:
    """The closed-form surface integral of the ball kernel."""

    def oracle(self, n, a, r):
        pref = px.ball_prefactor(px.ProblemParams(n, a))
        if n == 3:
            val, _ = quad(
                lambda t: np.sin(t) * (1 - 2 * r * np.cos(t) + r * r) ** (-(3 - a) / 2.0),
                0, np.pi, limit=300,
            )
            val *= 2 * np.pi
        else:
            val, _ = quad(
                lambda t: (1 - 2 * r * np.cos(t) + r * r) ** (-(2 - a) / 2.0),
                0, 2 * np.pi, limit=300,
            )
        return pref * (1 - r * r) ** (1 - a) * val

    @pytest.mark.parametrize("n,a", [(2, 0.5), (3, -0.5), (3, 0.0), (2, 0.3)])
    @pytest.mark.parametrize("r", [0.0, 1e-8, 0.35, 0.9, 0.999])
    def test_matches_quadrature_oracle(self, n, a, r):
        p = px.ProblemParams(n, a)
        assert px.kernel_ball_sphere_mass(r, p) == pytest.approx(
            self.oracle(n, a, r), rel=1e-9
        )

    def test_identically_one_for_classical_kernel(self):
        p = px.ProblemParams(3, 0.0)
        r = np.linspace(0, 1 - 1e-9, 200)
        assert np.max(np.abs(px.kernel_ball_sphere_mass(r, p) - 1.0)) < 1e-10

    def test_boundary_limit_is_one(self):
        # near the boundary the ball looks like the half-space, whose kernel
        # is normalized to unit mass; the limit is approached like (1-r)^{1-a}
        for n, a in [(2, 0.5), (3, -0.5), (2, 0.8)]:
            p = px.ProblemParams(n, a)
            devs = [abs(px.kernel_ball_sphere_mass(1 - eps, p) - 1.0) for eps in (1e-6, 1e-9)]
            assert devs[0] <= 3.0 * (1e-6 ** (1 - a) + 1e-6) + 1e-9
            assert devs[1] <= 3.0 * (1e-9 ** (1 - a) + 1e-9) + 1e-9
            assert devs[1] < devs[0]

    def test_center_value(self):
        p = px.ProblemParams(3, -0.5)
        assert px.kernel_ball_sphere_mass(0.0, p) == pytest.approx(
            px.ball_prefactor(p) * 4 * np.pi, rel=1e-13
        )

    def test_rejects_exterior_radii(self):
        p = px.ProblemParams(2, 0.5)
        with pytest.raises(ValueError):
            px.kernel_ball_sphere_mass(1.0, p)

    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_n2_hypergeometric_matches_mpmath(self, a):
        # y = 1 - x over both branches: the series (x <= 1/2) and the
        # connection formula down to 1 - x = 1e-16
        s = (2.0 - a) / 2.0
        y = np.concatenate([np.linspace(1.0, 0.5, 11), np.logspace(np.log10(0.5), -16, 61)])
        got = _hyp2f1_ss1(s, y)
        with mpmath.workdps(40):
            ref = [mpmath.hyp2f1(s, s, 1, 1 - mpmath.mpf(float(yi))) for yi in y]
            rel = [abs(mpmath.mpf(float(gi)) / r - 1) for gi, r in zip(got, ref)]
        assert max(rel) <= 1e-13

    def test_n2_masses_finite_on_256_radial_points(self):
        p = px.ProblemParams(2, 0.5)
        ball = px.build_ball_quadrature(p, 256, 8)
        mass = px.kernel_ball_sphere_mass(ball.radii, p)
        assert np.all(np.isfinite(mass)) and np.all(mass > 0)
        # the outermost shells approach the flat normalization 1
        outer = px.kernel_ball_sphere_mass(np.max(ball.radii), p)
        assert abs(outer - 1.0) < 1e-6


class TestDiscreteNormalization:
    def test_halfspace_normalization_on_grid(self, rng):
        # 20 sampled interior points per the module invariant, tolerance 1e-6
        for n, a in [(2, 0.5), (3, 0.0)]:
            p = px.ProblemParams(n, a)
            grid = px.build_halfspace_grid(p)
            pts = np.empty((20, n))
            pts[:, :-1] = rng.uniform(-1.5, 1.5, size=(20, n - 1))
            pts[:, -1] = np.exp(rng.uniform(np.log(0.4), np.log(2.5), size=20))
            for x in pts:
                total = px.integrate_boundary(px.kernel_halfspace(grid.nodes, x, p), grid)
                assert total == pytest.approx(1.0, abs=1e-6)
