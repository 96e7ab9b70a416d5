import math
import os
import struct
import sys
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

import poissonext as px
from poissonext.operators import _power_inplace

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import worker  # noqa: E402  (perfbench's seeded initial profiles)


@pytest.fixture()
def unit_weight_2d(sphere_2d):
    return px.WeightFunction(np.ones(len(sphere_2d)), sphere_2d, antipodal=True)


@pytest.fixture()
def unit_weight_3d(sphere_3d):
    return px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=True)


def make_problem(params, weight, p, sphere, ball):
    return px.SubcriticalProblem(params=params, weight=weight, p=p, sphere=sphere, ball=ball)


def gated(problem, lam, report):
    """`solver.solved` at lambda over the problem's `lambda_bound`, with the
    constant test function's S."""
    sharp = px.functionals.sharp_constant_from_constant_test_function(
        problem.sphere, problem.ball, problem.params)
    return px.solver.solved(report, lam / px.solver.lambda_bound(problem, sharp))


def plain_step(state, problem):
    """The step without mixing: a history of maxlen 1 never holds two pairs."""
    return px.fixed_point_step(state, problem, deque(maxlen=1))


@pytest.fixture()
def problem_2d(params_2d, sphere_2d, ball_2d, unit_weight_2d):
    return make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)


@pytest.fixture()
def problem_3d(params_3d, sphere_3d, ball_3d, unit_weight_3d):
    return make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)


class TestSymmetrize:
    """The antipodal average of `solver._candidate`, N(sym(values))."""

    def test_fixed_on_antipodal_input(self, sphere_2d, problem_2d, rng):
        # the average leaves antipodal data alone; only the constraint scales it
        v = rng.random(len(sphere_2d))
        v = 0.5 * (v + v[sphere_2d.antipode_index])
        c = px.integrate_boundary(v**5.0, sphere_2d)
        assert np.array_equal(px.solver._candidate(v, problem_2d), v / c ** (1.0 / 5.0))

    def test_bump_becomes_two_bumps(self, sphere_2d, problem_2d):
        v = np.zeros(len(sphere_2d))
        v[5] = 2.0
        out = px.solver._candidate(v, problem_2d)
        anti = sphere_2d.antipode_index[5]
        assert out[5] == out[anti] > 0
        assert np.sum(out != 0) == 2

    def test_idempotent_bitwise(self, sphere_3d, problem_3d, rng):
        # the second average returns its input bit for bit; only the scaling acts
        once = px.solver._candidate(rng.random(len(sphere_3d)), problem_3d)
        twice = px.solver._candidate(once, problem_3d)
        c = px.integrate_boundary(once**5.0, sphere_3d)
        assert np.array_equal(twice, once / c ** (1.0 / 5.0))
        for out in (once, twice):
            assert np.array_equal(out, out[sphere_3d.antipode_index])
        assert np.allclose(once, twice, rtol=1e-14, atol=0)


class TestNormalizeConstraint:
    """The constraint normalization of `solver._candidate`, N(sym(values))."""

    def test_constant_value(self, sphere_3d, problem_3d):
        for p in (4.0, 5.0):
            out = px.solver._candidate(np.ones(len(sphere_3d)), replace(problem_3d, p=p))
            assert np.allclose(out, (4 * np.pi) ** (-1 / p), rtol=1e-12)

    def test_constraint_equals_one(self, sphere_2d, problem_2d, rng):
        out = px.solver._candidate(rng.random(len(sphere_2d)) + 0.2, problem_2d)
        c = px.integrate_boundary(problem_2d.weight.values * out**5, sphere_2d)
        assert abs(c - 1.0) < 1e-12

    def test_scale_invariance_and_idempotence(self, sphere_2d, problem_2d, rng):
        v = rng.random(len(sphere_2d)) + 0.2
        n1 = px.solver._candidate(v, problem_2d)
        n2 = px.solver._candidate(5.0 * v, problem_2d)
        assert np.allclose(n1, n2, rtol=1e-13)
        n3 = px.solver._candidate(n1, problem_2d)
        assert np.allclose(n1, n3, rtol=1e-14)

    def test_rejects_zero(self, sphere_2d, problem_2d):
        with pytest.raises(ValueError, match="cannot normalize the zero function"):
            px.solver._candidate(np.zeros(len(sphere_2d)), problem_2d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_rejects_a_non_finite_average(self, bad, sphere_2d, problem_2d):
        # 1e308 is finite, but 1e308 + 1e308 overflows in the average
        v = np.full(len(sphere_2d), bad)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="boundary values must be finite"):
            px.solver._candidate(v, problem_2d)

    # p_crit = 800 at n = 3, a = -0.995: the power sum of a start above about 2
    # leaves float64, and the norm takes functionals._norm's rescaled path
    def test_normalizes_a_start_whose_power_sum_overflows(self):
        params = px.ProblemParams(3, -0.995)
        sphere = px.build_sphere_quadrature(params, 4)
        ball = px.build_ball_quadrature(params, 18, 4)
        weight = px.WeightFunction(np.full(len(sphere), 2.0), sphere, antipodal=True)
        prob = make_problem(params, weight, params.p_crit, sphere, ball)
        out = px.solver._candidate(np.full(len(sphere), 3.0), prob)
        assert np.all(out == out[0])
        assert out[0] == pytest.approx((2.0 * 4 * np.pi) ** (-1 / params.p_crit), rel=1e-13)


class TestProblemValidation:
    def test_rejects_p_out_of_range(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        for p in (3.9, 6.0, 7.0):
            with pytest.raises(ValueError):
                make_problem(params_3d, unit_weight_3d, p, sphere_3d, ball_3d)

    def test_admits_p_crit(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        prob = make_problem(params_3d, unit_weight_3d, 4.0, sphere_3d, ball_3d)
        assert prob.p == 4.0

    def test_rejects_non_antipodal_weight(self, params_3d, sphere_3d, ball_3d):
        w = px.WeightFunction(np.ones(len(sphere_3d)), sphere_3d, antipodal=False)
        with pytest.raises(ValueError):
            make_problem(params_3d, w, 5.0, sphere_3d, ball_3d)

    @pytest.mark.parametrize("other", ["params", "sphere", "ball"])
    def test_rejects_an_operator_built_for_other_arguments(self, other, params_2d):
        # an a = 0.5 operator in an a = 0.3 problem used to solve the wrong
        # equation and report it converged: at this p, lambda 0.0637
        # instead of 0.1798 from a constant start
        params = px.ProblemParams(2, 0.3)
        sphere = px.build_sphere_quadrature(params, 64)
        ball = px.build_ball_quadrature(params, 24, 128)
        built = {"params": params, "sphere": sphere, "ball": ball}
        built[other] = {"params": lambda: params_2d,
                        "sphere": lambda: px.build_sphere_quadrature(params, 64),
                        "ball": lambda: px.build_ball_quadrature(params, 24, 128)}[other]()
        op = px.ExtensionOperator(built["params"], built["sphere"], built["ball"])
        weight = px.WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
        p = 0.5 * (params.p_crit + params.p_bulk)
        with pytest.raises(ValueError, match="built for other"):
            px.SubcriticalProblem(params, weight, p, sphere, ball, operator=op)
        v = px.BoundaryFunction(np.ones(len(sphere)), sphere)
        with pytest.raises(ValueError, match="built for other"):
            px.el_residual(v, weight, params, ball, operator=op)
        own = px.ExtensionOperator(params, sphere, ball)
        assert px.SubcriticalProblem(params, weight, p, sphere, ball, operator=own).operator is own
        assert px.el_residual(v, weight, params, ball, operator=own) < 1e-10

    def test_rejects_an_initial_guess_on_another_rule(self, sphere_3d):
        # an n = 3 profile on as many nodes as the n = 2 rule used to start
        # the n = 2 solve, which then converged on data it misread
        params = px.ProblemParams(2, 0.5)
        sphere = px.build_sphere_quadrature(params, len(sphere_3d))
        ball = px.build_ball_quadrature(params, 24, len(sphere_3d))
        weight = px.WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
        prob = make_problem(params, weight, 5.0, sphere, ball)
        other = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        with pytest.raises(ValueError, match="initial guess must live on the problem's sphere"):
            px.maximize_subcritical(prob, other)
        with pytest.raises(ValueError, match="initial guess must live on the problem's sphere"):
            px.continuation(weight, [5.0, 4.5], params, sphere, ball, init=other)
        own = px.BoundaryFunction(np.ones(len(sphere)), sphere)
        assert px.maximize_subcritical(prob, own)[2]["converged"]


class TestFixedPointStep:
    def test_constant_is_a_fixed_point(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        prob = make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)
        v0 = px.BoundaryFunction(px.solver._candidate(np.ones(len(sphere_3d)), prob), sphere_3d)
        state = px.SolverState(v=v0, lambda_est=0.0, functional_history=[0.0])
        out = plain_step(state, prob)
        assert np.max(np.abs(out.v.values - v0.values)) < 1e-8

    def test_step_preserves_state_invariants(self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        v0 = px.BoundaryFunction(px.solver._candidate(rng.random(len(sphere_2d)) + 0.1, prob),
                                 sphere_2d)
        state = px.SolverState(v=v0, lambda_est=0.0, functional_history=[0.0])
        out = plain_step(state, prob)
        c = px.integrate_boundary(unit_weight_2d.values * np.abs(out.v.values) ** 5.0, sphere_2d)
        assert abs(c - 1.0) < 1e-10
        assert np.all(out.v.values >= 0)
        assert np.array_equal(out.v.values, out.v.values[sphere_2d.antipode_index])

    def test_rejected_candidate_halves_the_step(self, params_2d, sphere_2d, ball_2d,
                                                unit_weight_2d, rng, monkeypatch):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        state = px.solver._prepare(prob, px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5,
                                                             sphere_2d))
        functional, calls = px.solver._functional, []

        def first_candidate_descends(v, problem):
            calls.append(1)
            lam, ext = functional(v, problem)
            return (-np.inf if len(calls) == 1 else lam), ext

        monkeypatch.setattr(px.solver, "_functional", first_candidate_descends)
        out = plain_step(state, prob)
        op, v = prob.operator, state.v.values
        g = op.power_adjoint(v, params_2d.q_exp)                 # T[(E v)^q]
        w = (g / unit_weight_2d.values) ** (1.0 / (5.0 - 1.0))

        def n_sym(x):
            return px.solver._candidate(x, prob)

        assert len(calls) == 2 and out.iteration == 1 and not out.step_failed
        assert np.array_equal(out.v.values, n_sym(0.5 * v + 0.5 * w))
        assert not np.array_equal(out.v.values, n_sym(w))
        assert out.residual == np.max(np.abs(n_sym(w) - v)) / np.max(np.abs(v))

    def test_step_fails_when_every_candidate_descends(self, params_2d, sphere_2d, ball_2d,
                                                      unit_weight_2d, rng, monkeypatch):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        functional, calls = px.solver._functional, []

        def always_descends(v, problem):
            calls.append(1)
            return -float(len(calls)), functional(v, problem)[1]

        monkeypatch.setattr(px.solver, "_functional", always_descends)
        init = px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5, sphere_2d)
        state = px.solver._prepare(prob, init)
        out = plain_step(state, prob)
        assert out.step_failed and out.v is state.v and out.iteration == 0
        assert len(calls) == 1 + px.solver.MAX_DAMPING_HALVINGS + 1
        _, _, rep = px.maximize_subcritical(prob, init)
        assert rep["step_failed"] and not rep["converged"] and rep["iterations"] == 0

    # q_exp = 7999 at n = 2, a = 0.0005: the pairing's roundoff, about q_exp eps
    # relative, passes 1e-12, and a slack of 1e-12 alone rejects every candidate.
    # The constant start's residual is below the default tol_v, so a solve
    # returns it unstepped; at tol_v = 0 the step evaluates its candidate
    def test_step_accepts_a_drop_within_the_pairings_roundoff(self):
        params = px.ProblemParams(2, 0.0005)
        sphere = px.build_sphere_quadrature(params, 4)
        ball = px.build_ball_quadrature(params, 18, 4)
        weight = px.WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
        prob = make_problem(params, weight, px.solver.default_schedule(params)[6], sphere, ball)
        start = px.BoundaryFunction(np.ones(4), sphere)
        v, lam, rep = px.maximize_subcritical(prob, start)
        assert gated(prob, lam, rep)
        out = plain_step(px.solver._prepare(prob, start), replace(prob, tol_v=0.0))
        assert out.iteration == 1 and not out.step_failed

    # q_exp = 1999 at n = 3, a = -0.997: for this start (E v)^q_exp underflows at
    # every node, so g = 0 and its functional reads 0
    def test_step_takes_its_direction_from_a_rescaled_v_when_the_power_underflows(self):
        params = px.ProblemParams(3, -0.997)
        sphere = px.build_sphere_quadrature(params, 8)
        ball = px.build_ball_quadrature(params, 18, 4)
        weight = px.WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
        prob = make_problem(params, weight, px.solver.default_p(params), sphere, ball)
        start = px.solver.multistart_inits(sphere, 1, 0.5, 2)[1]
        v, lam, rep = px.maximize_subcritical(prob, start)
        assert rep["functional_history"][0] == 0.0
        # every gate row but the bound's: on 4 ball azimuths lambda reads
        # 1.011 Lambda_p, the rule's error amplified by p_bulk = 2,000
        rows = px.solver.gate_checks(rep, 1.0)
        assert all(row["passed"] for row in rows[:3]) and lam > 0.2

    def test_step_reuses_the_carried_extension(self, params_2d, sphere_2d, ball_2d,
                                               unit_weight_2d, rng, monkeypatch):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        init = px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5, sphere_2d)
        state = px.solver._prepare(prob, init)
        op = prob.operator
        calls = {"power_adjoint": [], "extend_table": [], "adjoint_table": []}
        fns = {name: getattr(op, name) for name in calls}
        for name, fn in fns.items():
            monkeypatch.setattr(op, name, lambda *args, fn=fn, log=calls[name]:
                                log.append(1) or fn(*args))
        cold = plain_step(px.SolverState(v=state.v, lambda_est=state.lambda_est), prob)
        cold_calls = len(calls["power_adjoint"])
        warm = plain_step(state, prob)
        # a step evaluates T[(E v)^q] in one pass per candidate; the cold one
        # also for its own v
        assert cold_calls - (len(calls["power_adjoint"]) - cold_calls) == 1
        assert calls["extend_table"] == calls["adjoint_table"] == []
        assert np.array_equal(warm.v.values, cold.v.values)
        assert warm.el_rhs.shape == (len(sphere_2d),)
        expected = fns["power_adjoint"](warm.v.values, params_2d.q_exp)
        assert warm.el_rhs.tobytes() == expected.tobytes()
        assert warm.lambda_est == px.integrate_boundary(warm.v.values * expected, sphere_2d)
        assert warm.functional_history is state.functional_history
        assert state.functional_history[-1] == warm.lambda_est

    @pytest.mark.parametrize("carried", [True, False])
    def test_step_rejects_a_v_with_unequal_halves(self, carried, params_2d, sphere_2d, ball_2d,
                                                  unit_weight_2d, rng):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        state = px.solver._prepare(prob, px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5,
                                                             sphere_2d))
        v = state.v.values.copy()
        v[-1] = np.nextafter(v[-1], np.inf)     # one bit off in the lower half
        signed = state.v.values.copy()
        signed[[0, sphere_2d.half]] = 0.0, -0.0     # equal under ==, not in their sign bits
        for values in (v, signed):
            bad = replace(state, v=px.BoundaryFunction(values, sphere_2d),
                          el_rhs=state.el_rhs if carried else None)
            with pytest.raises(ValueError, match="not antipodal.*symmetrize first"):
                plain_step(bad, prob)

    def test_step_rejects_an_el_rhs_of_another_shape(
            self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        state = px.solver._prepare(prob, px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5,
                                                             sphere_2d))
        op = prob.operator
        # (E v)^q_exp in ball order, on its upper half and in the table layout
        ball_order = op.extend_values(state.v.values) ** params_2d.q_exp
        for el_rhs in (ball_order, ball_order[:ball_2d.half], op._table_layout(
                ball_order[:ball_2d.half]), state.el_rhs[:sphere_2d.half], state.el_rhs[:, None]):
            with pytest.raises(ValueError, match="el_rhs has shape"):
                plain_step(replace(state, el_rhs=el_rhs), prob)

    @given(half=hnp.arrays(float, 32, elements=st.floats(0.0, 1.5)),
           top=st.integers(-600, 990))
    @example(half=np.linspace(0.5, 1.5, 32), top=960)   # terms past 2^900
    @settings(deadline=None)
    def test_bulk_energy_is_the_fsum_of_the_full_integrand(self, half, top):
        prob = weighted_problem(2)
        assert prob.sphere.half == len(half)
        v = np.tile(half, 2) * 2.0 ** (top / (prob.params.q_exp + 1.0))
        lam = prob.operator.bulk_energy(v, prob.params.q_exp)
        assert struct.pack("<d", lam) == struct.pack("<d", fsum_of_the_full_integrand(prob, v))

    @settings(deadline=None)
    @given(n=st.sampled_from([2, 3]),
           half=hnp.arrays(float, 64, elements=st.floats(0.1, 10.0)),
           top=st.integers(-40, 40))
    def test_pairing_is_the_bulk_energy_within_the_product_roundoff(self, n, half, top):
        # <v, T[(E v)^q]>_sphere = <E v, (E v)^q>_ball is a summation reordering,
        # and every term is positive, so each computed sum of m terms is off by
        # at most a relative m u / (1 - m u), u = 2^-53 (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, sec. 4.2).  The pairing takes
        # two such sums, the extension's and the adjoint's, each of fewer terms
        # than the two rules have nodes, plus a few rounded products; the bulk
        # energy sums the same computed extension, one more rounded product per term
        prob = weighted_problem(n)
        half = half[:prob.sphere.half]
        v = np.tile(half, 2) * 2.0 ** (top / (prob.params.q_exp + 1.0))
        pairing, g = px.solver._functional(v, prob)
        bulk = prob.operator.bulk_energy(v, prob.params.q_exp)
        assert g.shape == v.shape and np.all(g > 0)
        bound = (len(prob.sphere) + len(prob.ball) + 8) * 2.0 ** -52
        assert abs(pairing / bulk - 1.0) <= bound


class TestMaximizeSubcritical:
    def test_constant_weight_gives_constant_maximizer(
        self, params_3d, sphere_3d, ball_3d, unit_weight_3d, rng
    ):
        prob = make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)
        init = px.BoundaryFunction(np.exp(0.3 * rng.standard_normal(len(sphere_3d))), sphere_3d)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert rep["converged"]
        mean = np.mean(v.values)
        assert np.max(np.abs(v.values - mean)) / mean < 1e-4
        # the exact constant solution: constraint (4 pi) v^5 = 1, lambda = v^6 |B|
        lam_exact = (4 * np.pi) ** (-6.0 / 5.0) * (4 * np.pi / 3)
        assert lam == pytest.approx(lam_exact, rel=1e-8)

    def test_antipodal_solve_runs_one_table_product_per_call(
        self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng, monkeypatch
    ):
        # every iterate is symmetrized, so the solve runs only the folded
        # tables: one fused pass T[(E v)^q] per candidate and one bulk energy
        # for the returned lambda, each one product per residue class and
        # turn block
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        op = prob.operator
        calls = {name: [] for name in ("power_adjoint", "bulk_energy", "extend_table",
                                       "adjoint_table", "_class_input", "_fold_product",
                                       "_fold_transpose", "extend_values", "adjoint_values")}

        for name, log in calls.items():
            def counted(*args, fn=getattr(op, name), log=log):
                out = fn(*args)
                log.append(np.shape(out))
                return out

            monkeypatch.setattr(op, name, counted)
        functional, candidates = px.solver._functional, []
        monkeypatch.setattr(px.solver, "_functional",
                            lambda v, problem: candidates.append(1) or functional(v, problem))
        init = px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5, sphere_2d)
        _, _, rep = px.maximize_subcritical(prob, init)
        assert rep["converged"]
        # the start and each candidate: one pass, its functional and the next
        # step's right-hand side
        assert len(calls["power_adjoint"]) == len(candidates) > rep["iterations"]
        assert calls["power_adjoint"] == [(len(sphere_2d),)] * len(candidates)
        assert calls["bulk_energy"] == [()]
        passes = len(candidates) + 1
        assert calls["_class_input"] == [
            (len(kept), hi - lo) for lo, hi in op.turn_blocks
            for kept, _, _ in op.fold_columns] * passes
        assert calls["extend_table"] == calls["adjoint_table"] == []
        assert calls["_fold_product"] == calls["_fold_transpose"] == []
        assert calls["extend_values"] == calls["adjoint_values"] == []
        assert op._general is None

    def test_solve_builds_one_boundary_function_per_accepted_step(
        self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng, monkeypatch
    ):
        # candidates stay arrays; only the start and each new state are validated
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        init = px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5, sphere_2d)
        validate, built = px.BoundaryFunction.__post_init__, []

        def counted(self):
            built.append(type(self))
            validate(self)

        monkeypatch.setattr(px.BoundaryFunction, "__post_init__", counted)
        _, _, rep = px.maximize_subcritical(prob, init)
        assert rep["converged"] and rep["iterations"] > 1
        assert len(built) <= rep["iterations"] + 2

    @pytest.mark.parametrize("scale", [1e-30, 1e-10, 1e30])
    def test_constant_weight_scale_moves_lambda_by_its_power(self, scale, params_2d, sphere_2d,
                                                             ball_2d):
        # K -> c K takes v to c^{-1/p} v and lambda to c^{-p_bulk/p} lambda; an
        # absolute ascent slack failed the c = 1e-10 solve (lambda 6.7e14), whose
        # pairing roundoff is far above 1e-12
        lams = []
        for c in (1.0, scale):
            weight = px.WeightFunction(np.full(len(sphere_2d), c), sphere_2d, antipodal=True)
            prob = make_problem(params_2d, weight, px.solver.default_p(params_2d), sphere_2d,
                                ball_2d)
            init = px.BoundaryFunction(worker.seeded_profile(np, sphere_2d.nodes, 2), sphere_2d)
            _, lam, rep = px.maximize_subcritical(prob, init)
            assert gated(prob, lam, rep) and rep["iterations"] > 1
            lams.append(lam * c ** (params_2d.p_bulk / prob.p))
        assert lams[1] == pytest.approx(lams[0], rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_returns_the_fsum_of_the_full_integrand(self, n):
        prob = weighted_problem(n)
        init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, 1), prob.sphere)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert rep["converged"] and rep["iterations"] > 1
        assert struct.pack("<d", lam) == struct.pack(
            "<d", fsum_of_the_full_integrand(prob, v.values))
        assert rep["multiplier_identity_dev"] <= 1e-12

    @pytest.mark.parametrize("max_iter", [0, 2, 5000])
    def test_solve_runs_one_ball_length_exact_sum(self, max_iter, monkeypatch):
        # the steps compare pairings summed over the sphere nodes; only the
        # returned lambda sums over the ball, once, whatever the step count:
        # the bulk energy's exact parts, one call per residue class and turn
        # block, over the upper half's table rows
        prob = replace(weighted_problem(3), max_iter=max_iter)
        op = prob.operator
        exact_sum, exact_parts = px.quadrature.exact_sum, px.quadrature._exact_parts
        lengths, ball_lengths = [], []

        def counted(terms):
            lengths.append(len(terms))
            return exact_sum(terms)

        def counted_parts(terms, scratch):
            ball_lengths.append(len(terms))
            return exact_parts(terms, scratch)

        for module in (px.quadrature, px.operators):
            monkeypatch.setattr(module, "exact_sum", counted)
        monkeypatch.setattr(px.operators, "_exact_parts", counted_parts)
        init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, 2), prob.sphere)
        _, _, rep = px.maximize_subcritical(prob, init)
        assert rep["iterations"] == max_iter or rep["converged"]
        assert max(lengths) <= len(prob.sphere)
        assert len(ball_lengths) == op.residues * len(op.turn_blocks)
        assert sum(ball_lengths) == prob.ball.half
        assert len(lengths) > 2 * rep["iterations"]

    def test_solve_returns_the_iterate_whose_residual_passed(self, monkeypatch):
        prob = weighted_problem(2)
        op, calls = prob.operator, []
        power_adjoint = op.power_adjoint
        monkeypatch.setattr(op, "power_adjoint",
                            lambda *args: calls.append(1) or power_adjoint(*args))
        step, steps = px.solver.fixed_point_step, []

        def recorded(state, problem, history):
            before = len(calls)
            out = step(state, problem, history)
            steps.append((out.residual, len(calls) - before))
            return out

        monkeypatch.setattr(px.solver, "fixed_point_step", recorded)
        init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, 0), prob.sphere)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert gated(prob, lam, rep) and rep["iterations"] == len(steps) - 1
        # every step before the last evaluated a candidate; the last one measured
        # the passing residual and ran no pass after it
        assert all(res >= prob.tol_v and passes >= 1 for res, passes in steps[:-1])
        assert steps[-1][0] < prob.tol_v and steps[-1][1] == 0
        # which is the returned profile's own full-step residual
        g = power_adjoint(v.values, prob.params.q_exp)
        full = px.solver._candidate((g / prob.weight.values) ** (1.0 / (prob.p - 1.0)), prob)
        assert np.max(np.abs(full - v.values)) / np.max(v.values) == steps[-1][0]

    def test_functional_history_nondecreasing(self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        init = px.BoundaryFunction(np.exp(0.5 * rng.standard_normal(len(sphere_2d))), sphere_2d)
        v, lam, rep = px.maximize_subcritical(prob, init)
        hist = np.asarray(rep["functional_history"])
        assert np.all(np.diff(hist) >= -1e-12)

    def test_ascent_from_initial_guess(self, params_2d, sphere_2d, ball_2d, unit_weight_2d, rng):
        prob = make_problem(params_2d, unit_weight_2d, 6.0, sphere_2d, ball_2d)
        init = px.BoundaryFunction(rng.random(len(sphere_2d)) + 0.5, sphere_2d)
        state0 = px.solver._prepare(prob, init)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert lam >= state0.lambda_est - 1e-12

    def test_multiplier_identity(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        prob = make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)
        init = px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert rep["multiplier_identity_dev"] < 1e-8

    def test_multistart_agreement(self, params_2d, sphere_2d, ball_2d, rng):
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        kv = 1.0 + 0.1 * np.cos(2 * theta)
        kv = 0.5 * (kv + kv[sphere_2d.antipode_index])
        w = px.WeightFunction(kv, sphere_2d, antipodal=True)
        prob = make_problem(params_2d, w, 5.0, sphere_2d, ball_2d)
        lams = []
        for _ in range(3):
            init = px.BoundaryFunction(np.exp(0.4 * rng.standard_normal(len(sphere_2d))), sphere_2d)
            _, lam, rep = px.maximize_subcritical(prob, init)
            assert rep["converged"]
            lams.append(lam)
        assert max(lams) - min(lams) < 1e-5 * max(lams)


class TestSolveDriver:
    """The pass gate, the default exponent and the multistart shared by the commands."""

    def test_solved_fails_on_each_failure_mode(self):
        tol, top = px.solver.EL_RESIDUAL_TOL, 1.0 + px.solver.LAMBDA_BOUND_SLACK
        good = {"converged": True, "step_failed": False, "el_residual": 0.5 * tol}
        assert px.solver.solved(good, 1.0)
        assert px.solver.solved(dict(good, el_residual=tol), top)
        for failure in ({"converged": False}, {"step_failed": True},
                        {"el_residual": np.nextafter(tol, 1.0)}, {"el_residual": np.nan}):
            assert px.solver.solved(dict(good, **failure), 1.0) is False, failure
        for ratio in (np.nextafter(top, 2.0), np.nan):
            assert px.solver.solved(good, ratio) is False, ratio
        # each failure fails its own named row
        rows = px.solver.gate_checks(dict(good, step_failed=True), 2.0)
        assert [(row["check"], row["passed"]) for row in rows] == [
            ("converged", True), ("no_failed_step", False), ("el_residual", True),
            ("lambda_over_bound", False)]
        assert rows[3]["value"] == 2.0 and rows[3]["tolerance"] == top

    @pytest.mark.parametrize("a, ratio", [(0.5, 2.526), (-0.5, 1.606)])
    def test_a_concentrated_maximizer_above_the_bound_is_not_solved(self, a, ratio):
        # K = 1 at the n = 3 default rules near p_crit: from an antipodal bump
        # the solver ends on a concentrated profile that solves the EL
        # equation to about 1e-11, with lambda far above Lambda_p; only the
        # discretization rewards it, so the gate fails it, and a
        # continuation's stage the same way
        params = px.ProblemParams(3, a)
        sphere = px.build_sphere_quadrature(params, 16)
        ball = px.build_ball_quadrature(params, 96, 16)
        weight = px.WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
        x0 = np.array([0.6, 0.0, 0.8])
        bump = px.BoundaryFunction(1.0 + 20.0 * sum(
            np.exp(-np.sum((sphere.nodes - c) ** 2, axis=1) / 0.05) for c in (x0, -x0)), sphere)
        prob = make_problem(params, weight, params.p_crit + 1e-3, sphere, ball)
        _, lam, rep = px.maximize_subcritical(prob, bump)
        assert rep["converged"] and rep["el_residual"] < 1e-9
        assert not gated(prob, lam, rep)
        cont = px.continuation(weight, [prob.p], params, sphere, ball, init=bump)
        assert cont.stages[0].lambda_over_bound == pytest.approx(ratio, abs=1e-3)
        assert not cont.stages[0].solved and not cont.solved
        assert [row["check"] for row in cont.checks() if not row["passed"]] == [
            "lambda_over_bound"]

    def test_default_p_is_a_quarter_of_the_way_to_the_bulk_exponent(self, params_2d, params_3d):
        for params in (params_2d, params_3d):
            p = px.solver.default_p(params)
            assert p == pytest.approx(params.p_crit + (params.p_bulk - params.p_crit) / 4)
            assert params.p_crit < p < params.p_bulk

    def test_multistart_inits_start_from_the_constant(self, sphere_2d):
        inits = px.solver.multistart_inits(sphere_2d, 2, 0.3, 9)
        assert [init.quad for init in inits] == [sphere_2d] * 3
        assert np.array_equal(inits[0].values, np.ones(len(sphere_2d)))
        rng = np.random.default_rng(9)
        for init in inits[1:]:
            assert np.array_equal(init.values,
                                  np.exp(0.3 * rng.standard_normal(len(sphere_2d))))
        assert len(px.solver.multistart_inits(sphere_2d, 0, 0.3, 9)) == 1

    def test_multistart_keeps_the_first_of_tied_lambdas(self, params_2d, sphere_2d, ball_2d,
                                                        unit_weight_2d, monkeypatch):
        prob = make_problem(params_2d, unit_weight_2d, 5.0, sphere_2d, ball_2d)
        inits = px.solver.multistart_inits(sphere_2d, 3, 0.3, 0)
        lams = iter([1.0, 2.0, 2.0, 1.5])
        monkeypatch.setattr(px.solver, "maximize_subcritical",
                            lambda problem, init: (init, next(lams), {"problem": problem}))
        best, runs = px.solver.maximize_multistart(prob, inits)
        assert [run[0] for run in runs] == inits
        assert [run[1] for run in runs] == [1.0, 2.0, 2.0, 1.5]
        assert all(run[2]["problem"] is prob for run in runs)
        assert best is runs[1]


def fsum_of_the_full_integrand(problem, v):
    """math.fsum of the weighted |E v|^p_bulk over every ball node, in ball order.

    (E v)^q_exp is the solver's own power, `_power_inplace`.
    """
    op, q = problem.operator, problem.params.q_exp
    ext = np.tile(op._ball_order(op.extend_table(v)), 2)
    return math.fsum((problem.ball.weights * (ext * _power_inplace(ext.copy(), q))).tolist())


def plain_run(problem, init):
    """maximize_subcritical's loop on the plain step."""
    state = px.solver._prepare(problem, init)
    for _ in range(problem.max_iter):
        state = plain_step(state, problem)
        if state.step_failed or state.residual < problem.tol_v:
            break
    return state


def anderson_state(problem, init, steps):
    """The state and (v, G(v)) history after `steps` accepted mixed steps."""
    state = px.solver._prepare(problem, init)
    history = deque(maxlen=px.solver.ANDERSON_DEPTH + 1)
    for _ in range(steps):
        state = px.fixed_point_step(state, problem, history)
    return state, history


def weighted_problem(n, p_frac=0.25):
    params = px.ProblemParams(n, 0.5 if n == 2 else -0.5)
    sphere = px.build_sphere_quadrature(params, 64 if n == 2 else 8)
    ball = px.build_ball_quadrature(params, 48, 64 if n == 2 else 8)
    spec = {"weight": ("cos2", 0.1) if n == 2 else ("p2", 0.1)}
    weight = px.WeightFunction(worker.weight_values(spec, sphere.nodes), sphere, antipodal=True)
    p = params.p_crit + p_frac * (params.p_bulk - params.p_crit)
    return make_problem(params, weight, p, sphere, ball)


def differences(history):
    """G(v_k), the difference rows dG and dF, and f_k of a history, newest last."""
    xs = np.array([x for x, _ in history])
    gs = np.array([gx for _, gx in history])
    d_g = np.diff(gs, axis=0)
    return gs[-1], d_g, d_g - np.diff(xs, axis=0), gs[-1] - xs[-1]


def lstsq_point(history):
    """The mixed point with gamma from np.linalg.lstsq (the reference), and cond(dF)."""
    g, d_g, d_f, f = differences(history)
    return g - np.linalg.lstsq(d_f.T, f, rcond=None)[0] @ d_g, np.linalg.cond(d_f)


def random_history(length, pairs, iterated, rate, bend, seed):
    """(x, G(x)) pairs of sphere length, newest last: plain iterates of the
    contraction G(x) = m x + c + bend sin x (|m| < rate), as a solve makes
    them, or independent positive pairs."""
    rng = np.random.default_rng(seed)
    if not iterated:
        return deque(zip(rng.uniform(0.5, 1.5, (pairs, length)),
                         rng.uniform(0.5, 1.5, (pairs, length))))
    m, c = rng.uniform(-rate, rate, length), rng.uniform(0.5, 1.5, length)
    x, history = rng.uniform(0.5, 1.5, length), deque()
    for _ in range(pairs):
        history.append((x, m * x + c + bend * np.sin(x)))
        x = history[-1][1]
    return history


class TestAndersonMixing:
    # 32, 64 and 128 nodes: the n = 2 rules at S = 32 and 64, and n = 3 at S = 4 and 8
    @settings(max_examples=60, deadline=None)
    @given(length=st.sampled_from([32, 64, 128]), pairs=st.integers(2, 6),
           iterated=st.booleans(), rate=st.floats(0.05, 0.99), bend=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    def test_mixed_point_matches_lstsq(self, length, pairs, iterated, rate, bend, seed):
        history = random_history(length, pairs, iterated, rate, bend, seed)
        ref, cond = lstsq_point(history)
        assume(cond <= 1e6)
        point = px.solver._anderson_point(history)
        assert np.max(np.abs(point - ref)) <= 1e-10 * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(pairs=st.integers(2, 6), repeat=st.integers(0, 5), iterated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_a_repeated_pair_gives_a_finite_point(self, pairs, repeat, iterated, seed):
        history = random_history(64, pairs, iterated, 0.9, 0.1, seed)
        repeated = deque(history)
        repeated.append(history[min(repeat, pairs - 1)])
        assert np.all(np.isfinite(px.solver._anderson_point(repeated)))
        if repeat >= pairs - 1:
            # the newest difference is zero: the drop rule gives it gamma 0 and
            # the other rows the gamma of the history without it, bit for bit
            _, _, d_f, f = differences(repeated)
            gamma = px.solver._least_squares(d_f, f)
            assert gamma[-1] == 0.0
            assert np.array_equal(gamma[:-1], px.solver._least_squares(d_f[:-1], f))

    def test_solve_and_continuation_call_no_linalg_routine(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a numpy.linalg routine ran in a solve")

        for name in ("lstsq", "qr", "svd", "solve"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for n in (2, 3):
            prob = weighted_problem(n)
            init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, 4),
                                       prob.sphere)
            _, lam, rep = px.maximize_subcritical(prob, init)
            # from the second step on, each step mixes
            assert gated(prob, lam, rep) and rep["iterations"] > 2
            schedule = px.solver.default_schedule(prob.params)[:3]
            cont = px.solver.continuation(prob.weight, schedule, prob.params, prob.sphere,
                                          prob.ball, init=init)
            assert [s.solved for s in cont.stages] == [True] * len(schedule)

    @pytest.mark.parametrize("reject", ["descent", "nonpositive"])
    def test_rejected_mixed_point_restarts_with_the_plain_step(self, reject, monkeypatch):
        prob = weighted_problem(2)
        init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, 3), prob.sphere)
        state, history = anderson_state(prob, init, 3)
        assert len(history) == 3

        def copy(state):
            return replace(state, functional_history=list(state.functional_history))

        mixed = px.fixed_point_step(copy(state), prob, deque(history, maxlen=history.maxlen))
        expected = plain_step(copy(state), prob)
        assert not np.array_equal(mixed.v.values, expected.v.values)

        functional, calls = px.solver._functional, []
        if reject == "descent":
            def first_candidate_descends(v, problem):
                calls.append(1)
                lam, ext = functional(v, problem)
                return (-np.inf if len(calls) == 1 else lam), ext

            monkeypatch.setattr(px.solver, "_functional", first_candidate_descends)
        else:
            monkeypatch.setattr(px.solver, "_anderson_point",
                                lambda h: -px.solver._candidate(h[-1][1], prob))
        out = px.fixed_point_step(state, prob, history)
        assert len(calls) == (2 if reject == "descent" else 0)
        assert np.array_equal(out.v.values, expected.v.values)
        assert out.lambda_est == expected.lambda_est and out.residual == expected.residual
        assert len(history) == 1
        assert history[0][0] is state.v.values
        assert np.array_equal(history[0][1], expected.v.values)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**31 - 1))
    def test_accelerated_run_agrees_with_the_plain_run(self, n, seed):
        prob = weighted_problem(n)
        init = px.BoundaryFunction(worker.seeded_profile(np, prob.sphere.nodes, seed),
                                   prob.sphere)
        plain = plain_run(prob, init)
        v, lam, rep = px.maximize_subcritical(prob, init)
        assert rep["converged"] and plain.residual < prob.tol_v
        assert abs(lam / plain.lambda_est - 1.0) <= 1e-12
        assert rep["el_residual"] <= px.solver.EL_RESIDUAL_TOL
        assert np.all(np.diff(rep["functional_history"]) >= -px.solver.ASCENT_SLACK)
        assert rep["iterations"] <= plain.iteration


class TestElResidual:
    def test_converged_solution_has_tiny_residual(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        prob = make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)
        v, lam, rep = px.maximize_subcritical(
            prob, px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        )
        assert rep["el_residual"] < 1e-8

    def test_scaled_constant_solves_critical_equation(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        # oracle scale: the ball mass of the kernel is exactly 1/3 at a = 0,
        # so v = 3^{1/2} solves v^3 = T[(E v)^5] in the continuum
        theta, err = quad(
            lambda r: r**2 * px.kernel_ball_sphere_mass(r, params_3d), 0, 1, limit=300
        )
        assert abs(theta - 1.0 / 3.0) < 1e-12
        v = px.BoundaryFunction(np.full(len(sphere_3d), theta**-0.5), sphere_3d)
        res = px.el_residual(v, unit_weight_3d, params_3d, ball_3d, lam=1.0)
        assert res < 1e-5

    def test_multiplier_free_form_self_scales(self, params_2d, sphere_2d, ball_2d, unit_weight_2d):
        # with lam=None the multiplier is absorbed by rescaling, so any
        # constant is an exact discrete solution for a constant weight
        v = px.BoundaryFunction(np.full(len(sphere_2d), 2.7), sphere_2d)
        res = px.el_residual(v, unit_weight_2d, params_2d, ball_2d)
        assert res < 1e-10

    def test_perturbation_raises_residual(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        prob = make_problem(params_3d, unit_weight_3d, 5.0, sphere_3d, ball_3d)
        v, lam, rep = px.maximize_subcritical(
            prob, px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        )
        bump = v.values * (1.0 + 0.01 * np.sign(sphere_3d.nodes[:, 2] ** 2 - 0.3))
        res = px.el_residual(
            px.BoundaryFunction(bump, sphere_3d), unit_weight_3d, params_3d, ball_3d,
            lam=lam, p=5.0,
        )
        assert res > 1e-3

    def test_rejects_nonpositive_v(self, params_3d, sphere_3d, ball_3d, unit_weight_3d):
        v = px.BoundaryFunction(np.zeros(len(sphere_3d)), sphere_3d)
        with pytest.raises(ValueError):
            px.el_residual(v, unit_weight_3d, params_3d, ball_3d)

    def test_rejects_v_with_unequal_halves(self, params_2d, sphere_2d, ball_2d, unit_weight_2d):
        # the residual runs the solver's table pair, which takes antipodal v only;
        # positivity is checked first
        v = np.full(len(sphere_2d), 2.7)
        v[-1] = np.nextafter(2.7, 3.0)      # one bit off in the lower half
        with pytest.raises(ValueError, match="symmetrize first"):
            px.el_residual(px.BoundaryFunction(v, sphere_2d), unit_weight_2d, params_2d, ball_2d)
        v[0] = 0.0
        with pytest.raises(ValueError, match="positive v"):
            px.el_residual(px.BoundaryFunction(v, sphere_2d), unit_weight_2d, params_2d, ball_2d)


class TestRotationEquivariance:
    def test_rotated_weight_gives_rotated_solution(self, params_2d, sphere_2d, ball_2d):
        # rotating by a whole number of circle nodes is a relabeling of the
        # discrete problem, so lambda must match and v must rotate along
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        kv = 1.0 + 0.1 * np.cos(2 * theta)
        kv = 0.5 * (kv + kv[sphere_2d.antipode_index])
        shift = 4  # nodes are ordered [first half, antipodes], shift inside halves
        half = len(sphere_2d) // 2
        perm = np.concatenate([
            np.roll(np.arange(half), -shift), half + np.roll(np.arange(half), -shift)
        ])
        w1 = px.WeightFunction(kv, sphere_2d, antipodal=True)
        w2 = px.WeightFunction(kv[perm], sphere_2d, antipodal=True)
        prob1 = make_problem(params_2d, w1, 5.0, sphere_2d, ball_2d)
        prob2 = make_problem(params_2d, w2, 5.0, sphere_2d, ball_2d)
        init = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        v1, lam1, _ = px.maximize_subcritical(prob1, init)
        v2, lam2, _ = px.maximize_subcritical(prob2, init)
        assert abs(lam1 - lam2) <= 1e-10 * lam1
        assert np.max(np.abs(v2.values - v1.values[perm])) < 1e-7


class TestContinuation:
    def test_degenerate_schedule_matches_single_solve(
        self, params_3d, sphere_3d, ball_3d, unit_weight_3d
    ):
        rep = px.continuation(
            unit_weight_3d, [4.1], params_3d, sphere_3d, ball_3d
        )
        prob = make_problem(params_3d, unit_weight_3d, 4.1, sphere_3d, ball_3d)
        v, lam, _ = px.maximize_subcritical(
            prob, px.BoundaryFunction(np.ones(len(sphere_3d)), sphere_3d)
        )
        assert rep.lambda_est == pytest.approx(lam, rel=1e-12)
        assert len(rep.stages) == 1

    def test_constant_weight_final_stage_matches_sharp_scaling(
        self, params_2d, sphere_2d, ball_2d, unit_weight_2d
    ):
        # lambda at the critical floor approaches S^{p_bulk} for K = 1
        schedule = px.default_schedule(params_2d, floor=1e-3)
        rep = px.continuation(unit_weight_2d, schedule, params_2d, sphere_2d, ball_2d)
        s = px.sharp_constant(params_2d, "constant_test_function", sphere_2d, ball_2d)
        assert rep.lambda_est == pytest.approx(s ** params_2d.p_bulk, rel=1e-3)
        assert all(st.converged for st in rep.stages)
        assert not rep.blow_up_flag

    def test_threshold_consistency(self, params_2d, sphere_2d, ball_2d, unit_weight_2d):
        s = px.sharp_constant(params_2d, "constant_test_function", sphere_2d, ball_2d)
        rep = px.continuation(
            unit_weight_2d, [5.0, 4.5, 4.1], params_2d, sphere_2d, ball_2d, sharp=s
        )
        assert rep.lambda_threshold is not None
        assert rep.lambda_est > rep.lambda_threshold

    def test_blow_up_flag_logic(self, params_2d, sphere_2d, ball_2d, unit_weight_2d):
        # an artificially tiny growth factor must trip the flag on a benign run
        rep = px.continuation(
            unit_weight_2d, [5.0, 4.5], params_2d, sphere_2d, ball_2d, blow_up_factor=0.5
        )
        assert rep.blow_up_flag
        rep2 = px.continuation(
            unit_weight_2d, [5.0, 4.5], params_2d, sphere_2d, ball_2d, blow_up_factor=3.0
        )
        assert not rep2.blow_up_flag

    @pytest.mark.parametrize("scale", [1e-30, 1e-10, 1.0, 1e30])
    def test_a_constant_weight_of_any_scale_raises_no_blow_up_flag(self, params_2d, scale):
        # K -> c K scales v by c^(-1/p), and p changes between stages: at
        # c = 1e-30 sup v grows ninefold over one stage though every stage
        # returns a constant profile, which the flag's statistic sees as 1
        sphere = px.build_sphere_quadrature(params_2d, 32)
        ball = px.build_ball_quadrature(params_2d, 24, 64)
        weight = px.WeightFunction(np.full(len(sphere), scale), sphere, antipodal=True)
        rep = px.continuation(weight, px.default_schedule(params_2d), params_2d, sphere, ball)
        assert all(s.solved for s in rep.stages) and not rep.blow_up_flag
        growth = max(b.sup_v / a.sup_v for a, b in zip(rep.stages, rep.stages[1:]))
        assert growth > 3.0 if scale == 1e-30 else growth < 3.0

    def test_stages_share_one_operator(self, params_2d, sphere_2d, ball_2d, unit_weight_2d,
                                       monkeypatch):
        builds = []
        build = px.solver.build_extension_operator

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(px.solver, "build_extension_operator", counted)
        rep = px.continuation(unit_weight_2d, [5.0, 4.5, 4.1], params_2d, sphere_2d, ball_2d)
        assert len(builds) == 1
        assert [s.p for s in rep.stages] == [5.0, 4.5, 4.1]
        assert all(s.solved for s in rep.stages)

    def test_each_stage_holds_the_profile_its_solve_returned(self, monkeypatch):
        # a non-constant weight, so the stages return profiles that differ
        problem = weighted_problem(2)
        maximize = px.solver.maximize_subcritical
        returned = []

        def recorded(problem, init):
            v, lam, rep = maximize(problem, init)
            returned.append(v.values.copy())
            return v, lam, rep

        monkeypatch.setattr(px.solver, "maximize_subcritical", recorded)
        rep = px.continuation(problem.weight, [5.0, 4.5, 4.1], problem.params, problem.sphere,
                              problem.ball)
        assert len(rep.stages) == len(returned) == 3
        assert not np.array_equal(returned[0], returned[-1])
        for stage, v in zip(rep.stages, returned):
            assert stage.v.values.tobytes() == v.tobytes()
            assert (stage.sup_v, stage.inf_v) == (v.max(), v.min())
        assert rep.final_v.values.tobytes() == returned[-1].tobytes()
        # the final values are the last stage's, read-only
        assert rep.final_v is rep.stages[-1].v
        assert rep.lambda_est == rep.stages[-1].lambda_est
        for name in ("final_v", "lambda_est"):
            with pytest.raises(AttributeError):
                setattr(rep, name, None)

    def test_rejects_bad_schedules(self, params_2d, sphere_2d, ball_2d, unit_weight_2d):
        for schedule in ([], [4.5, 4.5], [4.5, 5.0], [9.0, 4.5], [4.5, 3.9]):
            with pytest.raises(ValueError):
                px.continuation(unit_weight_2d, schedule, params_2d, sphere_2d, ball_2d)

    def test_default_schedule_shape(self, params_2d):
        sched = px.default_schedule(params_2d, floor=1e-3)
        assert sched[0] == 6.0
        assert sched[-1] == pytest.approx(4.001)
        assert all(b < a for a, b in zip(sched, sched[1:]))

    def test_default_schedule_decreases_where_the_first_excess_rounds_to_the_floor(self):
        # half the exponent gap exceeds the floor of half the gap by rounding
        # alone, and both round to the same p
        params = px.ProblemParams(2, 0.04531583637600818)
        floor = 0.5 * (params.p_bulk - params.p_crit)
        assert 0.5 * (params.p_crit + params.p_bulk) - params.p_crit > floor
        assert px.default_schedule(params, floor=floor) == [params.p_crit + floor]
