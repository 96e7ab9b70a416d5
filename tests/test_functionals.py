import struct
import warnings

import numpy as np
import pytest

import poissonext as px
from poissonext import functionals as fn
from poissonext.quadrature import exact_sum


def constant_energy(ball, params):
    """|E 1|^p_bulk over the ball as a 1-D sum: E 1 is the sphere mass on each shell."""
    mass = px.kernel_ball_sphere_mass(ball.shell_radii, params)
    return ball.angular.area * exact_sum(ball.shell_weights * mass ** params.p_bulk)


@pytest.fixture()
def unit_weight_3d(sphere_3d):
    return px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=True)


def isoperimetric_ratio(v, weight, ball, params):
    """Bulk p_bulk-energy of E v over the K-weighted boundary p_crit-energy
    raised to n/(n-1), the functional of the proof chain."""
    op = px.build_extension_operator(v.quad, ball, params)
    num = px.integrate_ball(np.abs(op.extend_values(v.values)) ** params.p_bulk, ball)
    den = px.integrate_boundary(weight.values * np.abs(v.values) ** params.p_crit, v.quad)
    return num / den ** (params.n / (params.n - 1.0))


class TestWeightFunction:
    def test_rejects_nonpositive(self, sphere_2d):
        vals = np.ones(len(sphere_2d))
        vals[3] = 0.0
        with pytest.raises(ValueError):
            px.WeightFunction(vals, sphere_2d)

    def test_rejects_nan_values(self, sphere_2d):
        # NaN passes both the positivity and the antipodality comparison
        with pytest.raises(ValueError, match="weight values must be finite"):
            px.WeightFunction(np.full(len(sphere_2d), np.nan), sphere_2d, antipodal=True)

    def test_rejects_asymmetric_when_flagged(self, sphere_2d):
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        vals = 2.0 + np.cos(theta)  # odd frequency
        with pytest.raises(ValueError, match="antipodality"):
            px.WeightFunction(vals, sphere_2d, antipodal=True)

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-50])
    def test_antipodality_is_checked_relative_to_the_weight(self, scale, sphere_2d):
        # an absolute 1e-12 passed 1e-20 (2 + x_1), whose max/min is 3
        vals = scale * (2.0 + sphere_2d.nodes[:, 0])
        with pytest.raises(ValueError, match="antipodality"):
            px.WeightFunction(vals, sphere_2d, antipodal=True)
        even = 0.5 * (vals + vals[sphere_2d.antipode_index])
        assert px.WeightFunction(even, sphere_2d, antipodal=True).min == even.min()

    def test_accepts_even_frequency(self, sphere_2d):
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        vals = 1.0 + 0.1 * np.cos(2 * theta)
        vals = 0.5 * (vals + vals[sphere_2d.antipode_index])
        w = px.WeightFunction(vals, sphere_2d, antipodal=True)
        assert w.max > w.min > 0


class TestNorms:
    def test_boundary_norm_of_constant(self, sphere_3d):
        one = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        for p in (1.0, 2.5, 4.0):
            assert px.boundary_norm(one, p) == pytest.approx((4 * np.pi) ** (1 / p), rel=1e-12)

    def test_boundary_norm_scaling(self, sphere_3d, rng):
        v = px.BoundaryFunction(rng.random(len(sphere_3d)), sphere_3d)
        v3 = px.BoundaryFunction(-3.0 * v.values, sphere_3d)
        assert px.boundary_norm(v3, 2.5) == pytest.approx(3 * px.boundary_norm(v, 2.5), rel=1e-13)

    def test_boundary_norm_bump_against_refined_oracle(self, params_2d):
        coarse = px.build_sphere_quadrature(params_2d, 64)
        fine = px.build_sphere_quadrature(params_2d, 512)
        fun = lambda q: np.exp(np.cos(3 * np.arctan2(q.nodes[:, 1], q.nodes[:, 0])))
        nc = px.boundary_norm(px.BoundaryFunction(fun(coarse), coarse), 3.0)
        nf = px.boundary_norm(px.BoundaryFunction(fun(fine), fine), 3.0)
        assert nc == pytest.approx(nf, abs=1e-6)

    def test_bulk_norm_of_constant(self, ball_3d):
        one = np.ones(len(ball_3d))
        assert px.bulk_norm(one, ball_3d, 6.0) == pytest.approx((4 * np.pi / 3) ** (1 / 6.0),
                                                                rel=1e-9)

    def test_bulk_norm_monotone(self, ball_3d, rng):
        f = rng.random(len(ball_3d))
        assert px.bulk_norm(f + 0.5, ball_3d, 4.0) > px.bulk_norm(f, ball_3d, 4.0)

    def test_bulk_norm_rejects_values_off_the_ball_rule(self, ball_3d, sphere_3d):
        for values in (np.ones(len(ball_3d) - 1), np.ones(len(sphere_3d)),
                       np.ones((len(ball_3d), 1)), 1.0):
            with pytest.raises(ValueError, match=r"expected \(\d+,\) values"):
                px.bulk_norm(values, ball_3d, 4.0)

    # q reaches 600 at the low end of the range of a, where |F|^q can leave float64
    def test_norms_rescale_when_the_power_sum_overflows(self, sphere_3d, ball_3d):
        ball, sphere = np.full(len(ball_3d), 5.008), np.full(len(sphere_3d), 5.008)
        # each term is finite, but fsum's partial sums pass the float range
        with pytest.raises(OverflowError, match="intermediate overflow"):
            px.integrate_ball(ball ** 440.0, ball_3d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 5.008^440 sums past the float range; 10^400 is inf itself
            for scale, q in ((1.0, 440.0), (10.0 / 5.008, 400.0)):
                got = px.bulk_norm(scale * ball, ball_3d, q)
                assert got == pytest.approx(5.008 * scale * (4 * np.pi / 3) ** (1 / q), rel=1e-13)
                v = px.BoundaryFunction(scale * sphere, sphere_3d)
                assert px.boundary_norm(v, q) == pytest.approx(
                    5.008 * scale * (4 * np.pi) ** (1 / q), rel=1e-13)
            # an infinite magnitude keeps an infinite norm
            assert px.bulk_norm(np.append(ball[1:], np.inf), ball_3d, 6.0) == np.inf

    def test_norms_keep_their_bits_below_the_overflow(self, sphere_3d, ball_3d, rng):
        f, v = rng.random(len(ball_3d)), rng.random(len(sphere_3d))
        # 5^440 times the ball's volume still fits in float64
        for values, q in ((f, 6.0), (np.full(len(ball_3d), 5.0), 440.0)):
            assert px.bulk_norm(values, ball_3d, q) == (
                px.integrate_ball(values ** q, ball_3d) ** (1.0 / q))
        assert px.boundary_norm(px.BoundaryFunction(v, sphere_3d), 6.0) == (
            px.integrate_boundary(v ** 6.0, sphere_3d) ** (1.0 / 6.0))

    def test_weighted_norm_keeps_its_bits_and_rescales_on_overflow(self, sphere_3d, rng):
        # the solver's constraint norm (integral K |x|^p)^(1/p); p reaches 800
        weight, mags = rng.random(len(sphere_3d)) + 0.5, rng.random(len(sphere_3d)) + 0.5
        assert fn._norm(mags, sphere_3d, 6.0, weight) == (
            px.integrate_boundary(weight * mags ** 6.0, sphere_3d) ** (1.0 / 6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn._norm(10.0 * mags, sphere_3d, 800.0, weight)
        assert got == pytest.approx(10.0 * fn._norm(mags, sphere_3d, 800.0, weight), rel=1e-13)

    def test_rejects_p_below_one(self, sphere_3d):
        one = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        with pytest.raises(ValueError):
            px.boundary_norm(one, 0.5)


class TestIsoperimetricRatio:
    """The proof chain's ratio, from the library's extension and exact sums."""

    def test_classical_constant_value(self, sphere_3d, ball_3d, params_3d, unit_weight_3d):
        one = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        expected = (4 * np.pi / 3) / (4 * np.pi) ** 1.5  # = 0.09403159...
        val = isoperimetric_ratio(one, unit_weight_3d, ball_3d, params_3d)
        assert val == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.094032, abs=1e-6)

    def test_scale_invariance(self, sphere_3d, ball_3d, params_3d, unit_weight_3d, rng):
        v = np.abs(rng.random(len(sphere_3d))) + 0.1
        i1 = isoperimetric_ratio(px.BoundaryFunction(v, sphere_3d), unit_weight_3d, ball_3d, params_3d)
        i2 = isoperimetric_ratio(px.BoundaryFunction(7.3 * v, sphere_3d), unit_weight_3d, ball_3d, params_3d)
        assert i2 == pytest.approx(i1, rel=1e-10)

    def test_antipodal_invariance(self, sphere_3d, ball_3d, params_3d, unit_weight_3d, rng):
        v = np.abs(rng.random(len(sphere_3d))) + 0.1
        flipped = v[sphere_3d.antipode_index]
        i1 = isoperimetric_ratio(px.BoundaryFunction(v, sphere_3d), unit_weight_3d, ball_3d, params_3d)
        i2 = isoperimetric_ratio(px.BoundaryFunction(flipped, sphere_3d), unit_weight_3d, ball_3d, params_3d)
        assert i2 == pytest.approx(i1, rel=1e-14)


class TestSharpConstant:
    def test_closed_form_value(self, params_3d):
        s = px.sharp_constant(params_3d, "formula_a0")
        expected = 3 ** (-0.25) * (4 * np.pi / 3) ** (-1 / 12.0)
        assert s == pytest.approx(expected, rel=1e-14)
        assert s == pytest.approx(0.67434, abs=1e-5)

    def test_formula_rejects_other_parameters(self, params_2d):
        with pytest.raises(ValueError):
            px.sharp_constant(params_2d, "formula_a0")

    def test_constant_test_function_matches_formula(self, sphere_3d, ball_3d, params_3d):
        s2 = px.sharp_constant(params_3d, "constant_test_function", sphere_3d, ball_3d)
        s1 = px.sharp_constant(params_3d, "formula_a0")
        assert abs(s2 - s1) < 1e-4

    @pytest.mark.parametrize("n, a, resolution", [(2, 0.5, 128), (3, 0.0, 16)])
    def test_constant_test_function_is_its_two_norms(self, n, a, resolution):
        # |S|^(1/p_crit) from the rule's area has the bits of boundary_norm(1)
        params = px.ProblemParams(n, a)
        sphere = px.SphereQuadrature(n, resolution)
        ball = px.build_ball_quadrature(params, 24, resolution)
        one = px.BoundaryFunction(np.ones(len(sphere)), sphere)
        expected = (constant_energy(ball, params) ** (1.0 / params.p_bulk)
                    / fn.boundary_norm(one, params.p_crit))
        got = fn.sharp_constant_from_constant_test_function(sphere, ball, params)
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("n, a, resolution, radial", [
        (2, 0.01, 64, 24), (2, 0.5, 128, 24), (2, 0.95, 512, 24),
        (3, -0.99, 16, 24), (3, -0.5, 20, 24), (3, 0.0, 16, 36), (3, 0.5, 16, 24),
        (3, 0.95, 20, 24)])
    def test_operator_bulk_energy_of_the_constant_is_the_shell_sum(self, n, a, resolution,
                                                                   radial):
        # the balanced rows meet the sphere mass, so E 1 = m(r) on every shell;
        # a change to the rows that breaks this moves the sharp constant off the
        # operator's.  The norms are compared: the energies' relative gap is
        # p_bulk times theirs, the row sums' roundoff raised to the power p_bulk
        # (8.6e-13 at a = -0.99, p_bulk = 600, where the norms differ by 1.3e-15)
        params = px.ProblemParams(n, a)
        sphere = px.SphereQuadrature(n, resolution)
        ball = px.build_ball_quadrature(params, radial, 2 * resolution if n == 2 else resolution)
        op = px.build_extension_operator(sphere, ball, params)
        energy = op.bulk_energy(np.ones(len(sphere)), params.q_exp)
        root = 1.0 / params.p_bulk
        assert energy ** root == pytest.approx(constant_energy(ball, params) ** root, rel=1e-13)

    def test_constant_test_function_builds_no_operator(self, params_3d, monkeypatch):
        def refuse(op):
            raise AssertionError("an operator was built")

        monkeypatch.setattr(px.ExtensionOperator, "__post_init__", refuse)
        # rules of its own, so no cached operator stands in for a build
        sphere = px.SphereQuadrature(3, 8)
        ball = px.build_ball_quadrature(params_3d, 18, 8)
        s = fn.sharp_constant_from_constant_test_function(sphere, ball, params_3d)
        assert s == pytest.approx(px.sharp_constant(params_3d, "formula_a0"), rel=1e-6)

    def test_norm_identity_at_a0(self, sphere_3d, ball_3d, params_3d):
        # the same statement as the constant test function, written as the
        # bulk integral identity S^6 (4 pi)^{3/2} = 4 pi / 3
        op = px.build_extension_operator(sphere_3d, ball_3d, params_3d)
        lhs = px.integrate_ball(op.extend_values(np.ones(len(sphere_3d))) ** 6, ball_3d)
        s = px.sharp_constant(params_3d, "formula_a0")
        assert lhs == pytest.approx(s**6 * (4 * np.pi) ** 1.5, rel=1e-10)
        assert lhs == pytest.approx(4 * np.pi / 3, rel=1e-10)

    def test_maximization_consistent_with_constant(self, sphere_2d, params_2d):
        ball = px.build_ball_quadrature(params_2d, 48, 64)
        s2 = px.sharp_constant(params_2d, "constant_test_function", sphere_2d, ball)
        s3, solved = px.functionals.sharp_constant_by_maximization(
            sphere_2d, ball, params_2d, starts=2, seed=3, max_iter=800)
        assert solved
        assert s3 >= s2 - 1e-4
        assert s3 <= s2 * (1 + 1e-3)

    def test_maximization_reports_the_start_with_the_largest_lambda(
        self, sphere_2d, ball_2d, params_2d, monkeypatch
    ):
        # the constant start lands on a lower critical point in this stand-in,
        # yet has the larger norm ratio: the constant is the ratio's extremizer
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        bumpy = 1.0 + 0.5 * np.cos(2 * theta)
        bumpy = px.BoundaryFunction(0.5 * (bumpy + bumpy[sphere_2d.antipode_index]), sphere_2d)
        one = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        passed = {"converged": True, "step_failed": False, "el_residual": 0.0}
        results = iter([(one, 1.0, passed), (bumpy, 2.0, passed), (one, 1.5, passed)])
        problems = []

        def maximize(problem, init):
            problems.append(problem)
            return next(results)

        monkeypatch.setattr(px.solver, "maximize_subcritical", maximize)
        s = px.sharp_constant(params_2d, "numerical_maximization", sphere_2d, ball_2d)
        assert problems[0].p == px.solver.default_p(params_2d)

        op = px.build_extension_operator(sphere_2d, ball_2d, params_2d)

        def ratio(v):
            return (px.bulk_norm(op.extend_values(v.values), ball_2d, params_2d.p_bulk)
                    / px.boundary_norm(v, params_2d.p_crit))

        assert ratio(one) > ratio(bumpy) * (1 + 1e-3)
        # the ratio is the best run's lambda^(1/p_bulk) over its critical norm
        assert s == 2.0 ** (1.0 / params_2d.p_bulk) / px.boundary_norm(bumpy, params_2d.p_crit)

    def test_maximization_ratio_is_the_best_runs_lambda_over_its_critical_norm(
        self, sphere_2d, params_2d, monkeypatch
    ):
        ball = px.build_ball_quadrature(params_2d, 48, 64)
        maximize, runs = px.solver.maximize_subcritical, []
        monkeypatch.setattr(px.solver, "maximize_subcritical",
                            lambda problem, init: runs.append(maximize(problem, init)) or runs[-1])
        s, solved = px.functionals.sharp_constant_by_maximization(
            sphere_2d, ball, params_2d, starts=2, seed=3, max_iter=800)
        assert solved and len(runs) == 2
        v, lam, _ = max(runs, key=lambda run: run[1])
        want = lam ** (1.0 / params_2d.p_bulk) / px.boundary_norm(v, params_2d.p_crit)
        assert struct.pack("<d", s) == struct.pack("<d", want)

    def test_maximization_gate_fails_when_a_run_fails(self, sphere_2d, params_2d,
                                                      monkeypatch):
        ball = px.build_ball_quadrature(params_2d, 48, 64)
        _, solved = px.functionals.sharp_constant_by_maximization(
            sphere_2d, ball, params_2d, starts=2, seed=3, max_iter=2)
        assert not solved
        # one start of three off the gate fails the maximization
        maximize = px.solver.maximize_subcritical
        calls = []

        def second_run_stalls(problem, init):
            v, lam, rep = maximize(problem, init)
            calls.append(problem.tol_v)
            return v, lam, dict(rep, el_residual=0.5) if len(calls) == 2 else rep

        monkeypatch.setattr(px.solver, "maximize_subcritical", second_run_stalls)
        _, solved = px.functionals.sharp_constant_by_maximization(
            sphere_2d, ball, params_2d, starts=3, seed=3, max_iter=800, tol_v=1e-8)
        assert not solved and calls == [1e-8] * 3

    def test_unknown_method_rejected(self, params_3d, sphere_3d, ball_3d):
        with pytest.raises(ValueError):
            px.sharp_constant(params_3d, "guesswork", sphere_3d, ball_3d)

    def test_keywords_are_rejected_by_methods_that_take_none(self, params_3d, sphere_3d, ball_3d):
        # the dispatcher passes no keywords on; the maximization takes its own
        # directly through sharp_constant_by_maximization
        for method in ("formula_a0", "constant_test_function", "numerical_maximization"):
            with pytest.raises(TypeError, match="'starts'"):
                px.sharp_constant(params_3d, method, sphere_3d, ball_3d, starts=2)


class TestSharpConstantStaysOffTheGeneralTable:
    """The sharp constants extend antipodal profiles through the table pair."""

    def test_continuation_with_a_sharp_constant_builds_no_general_table(self, sphere_2d,
                                                                        params_2d):
        ball = px.build_ball_quadrature(params_2d, 24, 64)
        weight = px.WeightFunction(np.ones(len(sphere_2d)), sphere_2d, antipodal=True)
        sharp = px.sharp_constant(params_2d, "constant_test_function", sphere_2d, ball)
        schedule = px.default_schedule(params_2d, floor=0.5)
        rep = px.continuation(weight, schedule, params_2d, sphere_2d, ball, sharp=sharp)
        assert rep.lambda_threshold > 0 and all(s.converged for s in rep.stages)
        op = px.build_extension_operator(sphere_2d, ball, params_2d)
        assert op._general is None
        # the general pair gives the same constant to roundoff
        one = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        general = px.bulk_norm(op.extend_values(one.values), ball, params_2d.p_bulk) / (
            px.boundary_norm(one, params_2d.p_crit))
        assert sharp == pytest.approx(general, rel=1e-13)

    def test_maximization_builds_no_general_table(self, sphere_3d, ball_3d, params_3d):
        px.functionals.sharp_constant_by_maximization(sphere_3d, ball_3d, params_3d, starts=2)
        assert px.build_extension_operator(sphere_3d, ball_3d, params_3d)._general is None


class TestExistenceCondition:
    def test_constant_weight(self, sphere_2d, params_2d):
        w = px.WeightFunction(np.ones(len(sphere_2d)), sphere_2d, antipodal=True)
        holds, ratio, margin = px.existence_condition(w, params_2d)
        assert holds and ratio == 1.0 and margin > 0

    def _cosine_weight(self, sphere, eps):
        theta = np.arctan2(sphere.nodes[:, 1], sphere.nodes[:, 0])
        vals = 1.0 + eps * np.cos(2 * theta)
        vals = 0.5 * (vals + vals[sphere.antipode_index])
        return px.WeightFunction(vals, sphere, antipodal=True)

    def test_large_oscillation_fails(self, sphere_2d, params_2d):
        holds, ratio, _ = px.existence_condition(self._cosine_weight(sphere_2d, 0.3), params_2d)
        assert not holds
        assert ratio == pytest.approx(1.3 / 0.7, rel=1e-12)

    def test_small_oscillation_passes(self, sphere_2d, params_2d):
        holds, ratio, margin = px.existence_condition(self._cosine_weight(sphere_2d, 0.1), params_2d)
        assert holds
        assert ratio == pytest.approx(1.1 / 0.9, rel=1e-12)
        assert margin == pytest.approx(2**0.5 - 1.1 / 0.9, rel=1e-10)


class TestLambdaThreshold:
    def test_classical_value(self, sphere_3d, params_3d):
        w = px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=True)
        s = px.sharp_constant(params_3d, "formula_a0")
        thr = px.lambda_threshold(w, params_3d, s)
        expected = (4 * np.pi / 3) / (4 * np.pi) ** 1.5 / np.sqrt(2.0)
        assert thr == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.066490, abs=1e-6)

    def test_homogeneity_in_min_weight(self, sphere_3d, params_3d):
        s = px.sharp_constant(params_3d, "formula_a0")
        w1 = px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=True)
        w2 = px.WeightFunction(0.5 * np.ones(len(sphere_3d)), sphere_3d, antipodal=True)
        t1 = px.lambda_threshold(w1, params_3d, s)
        t2 = px.lambda_threshold(w2, params_3d, s)
        assert t2 == pytest.approx(2.0 ** (params_3d.n / (params_3d.n - 1)) * t1, rel=1e-12)

    def test_constant_test_function_beats_threshold(self, sphere_3d, ball_3d, params_3d):
        # the strict inequality of the existence proof, here with factor sqrt(2)
        w = px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=True)
        one = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        ratio = isoperimetric_ratio(one, w, ball_3d, params_3d)
        thr = px.lambda_threshold(w, params_3d, px.sharp_constant(params_3d, "formula_a0"))
        assert ratio > thr
        assert ratio / thr == pytest.approx(np.sqrt(2.0), rel=1e-8)


class TestProofChainInvariants:
    def test_ratio_bounded_by_sharp_constant(self, sphere_3d, ball_3d, params_3d, rng):
        s = px.sharp_constant(params_3d, "constant_test_function", sphere_3d, ball_3d)
        for eps in (0.0, 0.2, 0.5):
            kv = 1.0 + eps * sphere_3d.nodes[:, 2] ** 2
            kv = 0.5 * (kv + kv[sphere_3d.antipode_index])
            w = px.WeightFunction(kv, sphere_3d, antipodal=True)
            for _ in range(10):
                v = px.BoundaryFunction(np.abs(rng.random(len(sphere_3d))) + 0.05, sphere_3d)
                val = isoperimetric_ratio(v, w, ball_3d, params_3d)
                bound = s ** params_3d.p_bulk / w.min ** (params_3d.n / (params_3d.n - 1))
                assert val <= bound * (1 + 1e-3)

    def test_constant_test_function_lower_bound(self, sphere_3d, ball_3d, params_3d):
        s = px.sharp_constant(params_3d, "constant_test_function", sphere_3d, ball_3d)
        one = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        for eps in (0.0, 0.1, 0.3):
            kv = 1.0 + eps * sphere_3d.nodes[:, 2] ** 2
            kv = 0.5 * (kv + kv[sphere_3d.antipode_index])
            w = px.WeightFunction(kv, sphere_3d, antipodal=True)
            val = isoperimetric_ratio(one, w, ball_3d, params_3d)
            bound = s ** params_3d.p_bulk / w.max ** (params_3d.n / (params_3d.n - 1))
            assert val >= bound - 1e-6


class TestRichardson:
    def test_estimate(self):
        value, err = px.richardson_estimate(1.0, 1.01)
        assert value == 1.01
        assert err == pytest.approx(0.01 / 3.0)
