import itertools
import math
import re
import struct
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import poissonext as px
from poissonext.quadrature import (_EXACT_SUM_PASSES, RADIAL_NODES_PER_PANEL, exact_sum,
                                   gauss_legendre, graded_radial_rule, panel_rule, write_csv)


class TestSphereQuadrature:
    def test_circle_is_uniform_trapezoid(self, params_2d):
        q = px.build_sphere_quadrature(params_2d, 8)
        assert len(q) == 8
        assert np.allclose(q.weights, 2 * np.pi / 8, rtol=0, atol=0)

    @pytest.mark.parametrize("resolution", [4, 16, 64])
    def test_surface_area_2d(self, params_2d, resolution):
        q = px.build_sphere_quadrature(params_2d, resolution)
        assert px.integrate_boundary(np.ones(len(q)), q) == pytest.approx(2 * np.pi, abs=1e-12)

    @pytest.mark.parametrize("resolution", [4, 8, 16])
    def test_surface_area_3d(self, params_3d, resolution):
        q = px.build_sphere_quadrature(params_3d, resolution)
        assert px.integrate_boundary(np.ones(len(q)), q) == pytest.approx(4 * np.pi, abs=1e-12)

    @pytest.mark.parametrize("n, resolution", [(2, s) for s in (32, 64, 128, 256, 512, 1024)]
                             + [(3, s) for s in (8, 12, 16, 20, 24, 32, 48)])
    def test_area_is_the_exact_sum_of_the_weights(self, n, resolution):
        # the library's one |S^{n-1}|; the pairwise weights.sum() misses it
        # by an ulp at n = 2, S >= 128 and at n = 3, S = 12 and 16
        sphere = px.SphereQuadrature(n, resolution)
        assert sphere.area.hex() == math.fsum(sphere.weights.tolist()).hex()

    def test_first_coordinate_integrates_to_zero(self, sphere_2d, sphere_3d):
        for q in (sphere_2d, sphere_3d):
            assert abs(px.integrate_boundary(q.nodes[:, 0], q)) < 1e-12

    @pytest.mark.parametrize("resolution", [3, 5, 2])
    def test_rejects_bad_resolution(self, params_2d, resolution):
        with pytest.raises(ValueError):
            px.build_sphere_quadrature(params_2d, resolution)

    def test_antipodal_structure_exact(self):
        # what the extension operator folds by: the antipode is the half shift
        # and the second half of the nodes the bitwise negation of the first
        for n, res in itertools.product((2, 3), (4, 6, 16, 64)):
            params = px.ProblemParams(n, 0.5)
            for q in (px.build_sphere_quadrature(params, res),
                      px.build_ball_quadrature(params, 8, res).angular):
                anti, half = q.antipode_index, q.half
                assert np.array_equal(anti, np.concatenate([np.arange(half) + half,
                                                            np.arange(half)]))
                assert (-q.nodes[:half]).tobytes() == q.nodes[half:].tobytes()
                assert q.weights[anti].tobytes() == q.weights.tobytes()
                # the rule is a function of (n, resolution) alone
                other = replace(q, resolution=res + 2)
                want = px.build_sphere_quadrature(params, res + 2)
                for got, ref in zip((other.nodes, other.weights, *other.layout[:3]),
                                    (want.nodes, want.weights, *want.layout[:3])):
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
                assert other.layout[3] == want.layout[3]
                with pytest.raises(TypeError):
                    px.SphereQuadrature(n, res, q.nodes)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rule_is_built_from_n_and_resolution(self, n):
        # the wrapper is the rule of (params.n, resolution); the arrays and the
        # layout are built, never passed in
        for res in (4, 6, 16):
            built = px.build_sphere_quadrature(px.ProblemParams(n, 0.5), res)
            direct = px.SphereQuadrature(n, res)
            for got, ref in zip((built.nodes, built.weights, *built.layout[:3]),
                                (direct.nodes, direct.weights, *direct.layout[:3])):
                assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
            assert built.layout[3] == direct.layout[3]
            for name in ("nodes", "weights", "layout"):
                with pytest.raises(TypeError):
                    px.SphereQuadrature(n, res, **{name: getattr(direct, name)})
        with pytest.raises(NotImplementedError):
            px.SphereQuadrature(4, 8)

    def test_rejects_weights_that_miss_the_surface_area(self, monkeypatch):
        # the guard on the Gauss-Legendre weights behind the n = 3 rings
        def off_by_1e8(q):
            t, w = gauss_legendre(q)
            return t, w * (1.0 + 1e-8)
        monkeypatch.setattr("poissonext.quadrature.gauss_legendre", off_by_1e8)
        with pytest.raises(ValueError, match="sum to the surface area"):
            px.SphereQuadrature(3, 8)
        px.SphereQuadrature(2, 8)   # the circle rule uses no Gauss-Legendre weights

    @given(half=st.lists(st.floats(-2.0 ** 1022, 2.0 ** 1022), min_size=2, max_size=2))
    @example(half=[0.0, -0.0])
    @example(half=[5e-324, -2.0 ** 1022])
    def test_symmetrize_keeps_equal_halves_bit_for_bit(self, half):
        sphere = px.SphereQuadrature(2, 8)
        x = np.tile(np.resize(np.array(half), sphere.half), 2)
        assert sphere.symmetrize(x).tobytes() == x.tobytes()
        sphere.check_antipodal(x, "unused")

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetrize_is_the_antipodal_average(self, n, rng):
        sphere = px.SphereQuadrature(n, 8)
        size = len(sphere)
        for x in (rng.normal(size=size),
                  np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1023, size))):
            sym = sphere.symmetrize(x)
            assert sym.tobytes() == (0.5 * (x + x[sphere.antipode_index])).tobytes()
            assert sym[:sphere.half].tobytes() == sym[sphere.half:].tobytes()
            sphere.check_antipodal(sym, "unused")
            with pytest.raises(ValueError, match=r"^x is odd \(its two halves differ in some "
                                                 r"bit\); symmetrize first$"):
                sphere.check_antipodal(x, "x is odd")

    def test_circle_harmonics_exact(self, params_2d):
        # degree <= resolution/2 integrates to zero within 1e-10
        q = px.build_sphere_quadrature(params_2d, 32)
        theta = np.arctan2(q.nodes[:, 1], q.nodes[:, 0])
        for k in range(1, 17):
            assert abs(px.integrate_boundary(np.cos(k * theta), q)) < 1e-10
            assert abs(px.integrate_boundary(np.sin(k * theta), q)) < 1e-10

    def test_sphere_harmonics_exact(self, params_3d):
        q = px.build_sphere_quadrature(params_3d, 8)
        theta = np.arccos(np.clip(q.nodes[:, 2], -1, 1))
        phi = np.arctan2(q.nodes[:, 1], q.nodes[:, 0])
        sph = special.sph_harm_y if hasattr(special, "sph_harm_y") else (
            lambda l, m, th, ph: special.sph_harm(m, l, ph, th)
        )
        for ell in range(1, 5):
            for m in range(0, ell + 1):
                y = sph(ell, m, theta, phi)
                assert abs(px.integrate_boundary(np.real(y), q)) < 1e-10
                assert abs(px.integrate_boundary(np.imag(y), q)) < 1e-10

    def test_nodes_are_unit(self, sphere_3d):
        assert np.max(np.abs(np.linalg.norm(sphere_3d.nodes, axis=1) - 1.0)) < 1e-14

    def test_csv_round_trip(self, sphere_2d, tmp_path):
        path = tmp_path / "sphere.csv"
        write_csv(path, sphere_2d.nodes, sphere_2d.weights)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, :2], sphere_2d.nodes)
        assert np.array_equal(data[:, 2], sphere_2d.weights)


def weighted_volume_oracle(n, a):
    area = px.surface_area(n)
    val, err = quad(
        lambda r: (1 - r * r) ** (1 - a) * r ** (n - 1),
        0, 1, epsabs=1e-14, epsrel=1e-14, limit=500,
    )
    # cross-check the adaptive value against the Beta-function reduction
    exact = 0.5 * special.beta(n / 2.0, 2.0 - a)
    assert abs(val - exact) < 1e-12 * exact
    return area * val


class TestBallQuadrature:
    @pytest.mark.parametrize("n,a", [(2, 0.5), (3, 0.0), (3, -0.5)])
    def test_volume(self, n, a):
        p = px.ProblemParams(n, a)
        q = px.build_ball_quadrature(p, 72, 8 if n == 3 else 32)
        vol = np.pi if n == 2 else 4 * np.pi / 3
        assert px.integrate_ball(np.ones(len(q)), q) == pytest.approx(vol, abs=1e-8)

    @pytest.mark.parametrize("n,a", [(2, 0.5), (3, 0.0), (3, -0.5)])
    def test_boundary_weighted_volume_matches_radial_oracle(self, n, a):
        p = px.ProblemParams(n, a)
        q = px.build_ball_quadrature(p, 96 if n == 2 else 72, 8 if n == 3 else 32)
        vals = (1 - q.radii**2) ** (1 - a)
        assert px.integrate_ball(vals, q) == pytest.approx(
            weighted_volume_oracle(n, a), abs=1e-8
        )

    def test_linear_function_integrates_to_zero(self, ball_2d, ball_3d):
        for q in (ball_2d, ball_3d):
            assert abs(px.integrate_ball(q.nodes[:, 0], q)) < 1e-10

    def test_convergence_order_of_weighted_volume(self):
        # doubling resolution reduces the error at least 4x until below 1e-10
        p = px.ProblemParams(2, 0.5)
        exact = weighted_volume_oracle(2, 0.5)
        errors = []
        for m in (12, 24, 48, 96, 192):
            q = px.build_ball_quadrature(p, m, 16)
            errors.append(abs(px.integrate_ball((1 - q.radii**2) ** 0.5, q) - exact))
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 <= max(e1 / 4.0, 1e-10)
        assert errors[-1] < 1e-10

    def test_nodes_interior_with_documented_margin(self, ball_2d):
        assert ball_2d.delta_min > 0
        radii = np.linalg.norm(ball_2d.nodes, axis=1)
        assert np.max(radii) <= 1.0 - ball_2d.delta_min + 1e-15

    def test_antipodal_structure_exact(self, ball_2d, ball_3d):
        for q in (ball_2d, ball_3d):
            anti = q.antipode_index
            assert np.array_equal(q.nodes[anti], -q.nodes)
            assert np.array_equal(q.weights[anti], q.weights)

    def test_dimension_is_the_angular_rules(self, ball_2d, ball_3d):
        for ball, n in ((ball_2d, 2), (ball_3d, 3)):
            assert ball.n == ball.angular.n == n
            assert ball.nodes.shape == (len(ball), n)
            # the factors are built from (n, radial_points, angular_resolution),
            # never passed in
            for name in ("shell_radii", "shell_weights", "angular"):
                with pytest.raises(TypeError):
                    px.BallQuadrature(n, 8, 4, **{name: getattr(ball, name)})

    @pytest.mark.parametrize("n, radial, angular", [(2, 24, 32), (2, 120, 64), (3, 48, 8),
                                                    (3, 36, 12)])
    def test_flat_arrays_are_the_bits_of_the_closed_upper_half(self, n, radial, angular):
        # the reference writes the flat rule out: shells times the angular
        # rule's upper half, closed by appending the negation
        params = px.ProblemParams(n, 0.5)
        ball = px.build_ball_quadrature(params, radial, angular)
        q = RADIAL_NODES_PER_PANEL
        panels = max(2, round(radial / q))
        r, wr = panel_rule([0.0] + [1.0 - 0.5 ** k for k in range(1, panels)] + [1.0], q)
        ang = px.build_sphere_quadrature(params, angular)
        h = ang.half
        up_nodes = (r[:, None, None] * ang.nodes[None, :h, :]).reshape(-1, n)
        up_w = (wr[:, None] * r[:, None] ** (n - 1) * ang.weights[None, :h]).reshape(-1)
        half = len(up_w)
        expected = {"nodes": np.concatenate([up_nodes, -up_nodes]),
                    "weights": np.concatenate([up_w, up_w]),
                    "radii": np.tile(np.repeat(r, h), 2),
                    "antipode_index": np.concatenate([np.arange(half) + half, np.arange(half)])}
        for name, want in expected.items():
            got = getattr(ball, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), name
        assert (len(ball), ball.half) == (2 * half, half)
        assert ball.delta_min == float(1.0 - r.max())
        # the wrapper is the rule of (params.n, radial, angular), and replace
        # builds the rule of the new count
        grown = replace(ball, radial_points=radial + 2 * q)
        assert len(grown.shell_radii) == len(r) + 2 * q
        for rule, want in ((ball, px.BallQuadrature(n, radial, angular)),
                           (grown, px.BallQuadrature(n, radial + 2 * q, angular))):
            for name in ("shell_radii", "shell_weights", *expected):
                got, ref = getattr(rule, name), getattr(want, name)
                assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), name

    def test_rejects_tiny_radial_count(self, params_2d):
        with pytest.raises(ValueError):
            px.build_ball_quadrature(params_2d, 4, 16)

    def test_radial_limit_is_the_last_count_inside_the_ball(self, params_2d):
        ball = px.build_ball_quadrature(params_2d, 303, 4)
        assert ball.delta_min > 0
        assert np.max(ball.radii) < 1.0
        with pytest.raises(ValueError, match="outermost node on the sphere in float64"):
            px.build_ball_quadrature(params_2d, 304, 4)
        # one more point adds a panel whose outermost node rounds to |xi| = 1
        q = RADIAL_NODES_PER_PANEL
        panels = round(304 / q)
        nodes, _ = panel_rule([1.0 - 0.5 ** (panels - 1), 1.0], q)
        assert nodes[-1] == 1.0

    def test_radial_panels_are_the_rounded_count_and_any_larger_count_raises(self):
        # the panel count is round(count / 6), half to even, taken in integers
        q = RADIAL_NODES_PER_PANEL
        for count in range(8, 304):
            assert len(graded_radial_rule(count)[0]) == q * max(2, round(count / q))
        for count in (304, 10**9, 10**400):
            with pytest.raises(ValueError, match="outermost node on the sphere in float64"):
                graded_radial_rule(count)


class TestGaussLegendre:
    QS = range(1, 65)

    def test_exactly_symmetric_and_ascending(self):
        for q in self.QS:
            x, w = gauss_legendre(q)
            assert len(x) == len(w) == q
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            assert np.all(np.diff(x) > 0) and np.all(w > 0)
            if q % 2:
                assert x[q // 2] == 0.0 and math.copysign(1.0, x[q // 2]) == 1.0

    def test_weights_sum_to_two(self):
        for q in self.QS:
            assert math.fsum(gauss_legendre(q)[1]) == pytest.approx(2.0, rel=0, abs=4e-15)

    def test_exact_for_degree_2q_minus_1(self):
        for q in self.QS:
            x, w = gauss_legendre(q)
            for k in range(2 * q):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert math.fsum(w * x ** k) == pytest.approx(exact, rel=0, abs=4e-15)

    def test_matches_scipy(self):
        for q in self.QS:
            x, w = gauss_legendre(q)
            xs, ws = special.roots_legendre(q)
            assert np.max(np.abs(x - xs)) <= 1e-12
            assert np.max(np.abs(w - ws)) <= 1e-12


class TestPanelRule:
    # the node counts in use: the ball's graded radial rule and the half-space grid's default
    @pytest.mark.parametrize("q", [RADIAL_NODES_PER_PANEL, 20])
    def test_exact_for_degree_2q_minus_1_on_arbitrary_panels(self, q, rng):
        bounds = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.5, 6)), [1.5]])
        nodes, weights = panel_rule(bounds, q)
        poly = np.polynomial.Polynomial(rng.normal(size=2 * q))
        prim = poly.integ()
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            panel = slice(k * q, (k + 1) * q)
            assert np.all((lo < nodes[panel]) & (nodes[panel] < hi))
            assert np.dot(weights[panel], poly(nodes[panel])) == pytest.approx(
                prim(hi) - prim(lo), rel=1e-12, abs=1e-13)


class TestIntegratePrimitives:
    def test_length_mismatch_raises(self, sphere_2d, ball_2d):
        with pytest.raises(ValueError):
            px.integrate_boundary(np.ones(3), sphere_2d)
        with pytest.raises(ValueError):
            px.integrate_ball(np.ones(3), ball_2d)

    def test_summation_is_permutation_invariant(self, sphere_3d, rng):
        # exact summation: the rule's terms in another order give the same float;
        # any holder of `weights` is a rule to integrate_boundary
        v = rng.normal(size=len(sphere_3d))
        perm = rng.permutation(len(sphere_3d))
        permuted = types.SimpleNamespace(weights=sphere_3d.weights[perm])
        assert px.integrate_boundary(v[perm], permuted) == px.integrate_boundary(v, sphere_3d)

    def test_ball_integral_is_the_boundary_integral_with_its_message(self, sphere_2d, ball_2d):
        assert px.integrate_ball is px.integrate_boundary
        assert px.quadrature.integrate_ball is px.quadrature.integrate_boundary
        for rule in (sphere_2d, ball_2d):
            msg = f"expected ({len(rule)},) values, got (3,)"
            with pytest.raises(ValueError, match=re.escape(msg)):
                px.integrate_ball(np.ones(3), rule)


def _fsum_outcome(total, terms):
    """The bits of total(terms), or the exception it raises."""
    try:
        return struct.pack("<d", total(terms))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def adversarial_terms(draw):
    """Float arrays on which a sum that is not exact and correctly rounded shows."""
    kind = draw(st.sampled_from(["floats", "ties", "cancel", "subnormal", "extreme", "wide",
                                 "near_max", "zeros", "special"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      max_size=60)), dtype=float)
    # short and long
    size = draw(st.one_of(st.integers(0, 40), st.integers(0, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], size)
    scale = math.ldexp(1.0, draw(st.integers(-300, 300)))
    if kind == "ties":
        # a base plus half its ulp, split into pieces and hidden among +-c pairs
        base = draw(st.floats(min_value=-1e300, max_value=1e300).filter(lambda b: b != 0))
        half = math.copysign(math.ulp(base) / 2, draw(st.sampled_from([-1.0, 1.0])))
        pairs = rng.uniform(-1.0, 1.0, size // 2) * scale
        terms = np.concatenate([[base, half / 2, half / 2, math.ulp(base)], pairs, -pairs])
        terms[3] *= draw(st.sampled_from([0.0, -1.0, 1.0]))
    elif kind == "cancel":
        # x, -x and tiny terms far below them
        big = rng.uniform(0.5, 1.0, size) * signs * scale
        tiny = rng.uniform(-1.0, 1.0, max(size // 8, 1)) * scale * 2.0 ** -draw(
            st.integers(40, 600))
        terms = np.concatenate([big, -big, tiny])
    elif kind == "subnormal":
        terms = rng.integers(-2**40, 2**40, size) * 2.0**-1074
        terms[: size // 4] = rng.uniform(-1.0, 1.0, size // 4) * 2.0**-1000
    elif kind == "extreme":
        exps = rng.integers(990, 1024, size) * rng.choice([-1, 1], size)
        terms = np.ldexp(rng.uniform(0.5, 1.0, size), exps) * signs
    elif kind == "wide":
        # more binades than the vector passes cover: +-x pairs up to 2^900
        # leave the sum to unpaired terms that only the remainder holds
        paired = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1074, 900, size)) * signs
        odd = np.ldexp(rng.uniform(-1.0, 1.0, size // 8 + 1), rng.integers(-1074, 0, size // 8 + 1))
        terms = np.concatenate([paired, -paired, odd])
    elif kind == "near_max":
        # a few more than a power of two of negative terms just above -2^e:
        # sigma + x falls in the binade below sigma, so q has the finer grid,
        # and their sum overshoots a sigma one binade too small
        size = 2 ** draw(st.integers(1, 13)) + draw(st.integers(1, 3))
        terms = -scale * (1.0 - rng.integers(1, 2**32, size) * 2.0**-52)
    elif kind == "zeros":
        terms = rng.choice([-0.0, 0.0], size)
        if draw(st.booleans()):
            pairs = rng.uniform(-1.0, 1.0, size // 2) * scale
            terms = np.concatenate([terms, pairs, -pairs])
    else:
        terms = rng.uniform(-1.0, 1.0, size + 1) * scale
        terms[rng.integers(0, size + 1, 2)] = draw(
            st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 1e308]), min_size=2, max_size=2))
    return rng.permutation(np.asarray(terms, dtype=float))


class TestExactSum:
    """`exact_sum` returns `math.fsum` bit for bit, signed zeros and exceptions included."""

    @given(terms=adversarial_terms())
    @example(terms=np.array([]))
    @example(terms=np.array([-0.0]))
    @example(terms=np.array([0.0, -0.0]))
    @example(terms=np.array([np.inf]))
    @example(terms=np.array([np.nan]))
    @example(terms=np.array([5e-324]))
    @example(terms=np.array([1e308, 1e308]))      # fsum raises: the total overflows
    @example(terms=np.array([1.0, 1e-300, -1.0]))
    @settings(deadline=None)
    def test_equals_fsum_bitwise(self, terms):
        assert _fsum_outcome(exact_sum, terms) == _fsum_outcome(
            lambda t: math.fsum(t.tolist()), terms)

    @given(terms=adversarial_terms())
    @example(terms=np.array([1.5e308, -1e308]))   # the whole overflows where the half does not
    @settings(deadline=None)
    def test_equal_halves_sum_to_fsum_bitwise(self, terms):
        doubled = np.concatenate([terms, terms])
        assert _fsum_outcome(exact_sum, doubled) == _fsum_outcome(
            lambda t: math.fsum(t.tolist()), doubled)

    @staticmethod
    def _record_fsum(monkeypatch):
        # the number of items each fsum call inside exact_sum receives
        lengths = []

        def fsum(items):
            lengths.append(len(items))
            return math.fsum(items)

        monkeypatch.setattr(px.quadrature, "math", type(math)("math"))
        vars(px.quadrature.math).update(fsum=fsum, frexp=math.frexp, ldexp=math.ldexp)
        return lengths

    @pytest.mark.parametrize("length", [8, 511, 512, 513, 1024])
    def test_passes_run_at_every_length(self, length, monkeypatch):
        # no length takes one fsum of every term: terms in [0.5, 1.5) are
        # exact after two vector passes, and fsum rounds their two sums
        lengths = self._record_fsum(monkeypatch)
        terms = np.random.default_rng(length).uniform(0.5, 1.5, length)
        assert struct.pack("<d", exact_sum(terms)) == struct.pack(
            "<d", math.fsum(terms.tolist()))
        assert lengths == [2], lengths

    def test_equal_halves_run_the_full_passes(self, monkeypatch):
        # equal halves take no path of their own; fsum gets only the pass sums
        lengths = self._record_fsum(monkeypatch)
        terms = np.tile(np.random.default_rng(3).uniform(-1.0, 1.0, 64) ** 3, 2)
        total = exact_sum(terms)
        assert len(lengths) == 1 and lengths[0] <= _EXACT_SUM_PASSES, lengths
        assert struct.pack("<d", total) == struct.pack("<d", math.fsum(terms.tolist()))

    @given(terms=adversarial_terms())
    @example(terms=np.array([1.5e308, -1e308]))   # fsum of both halves raises; 1e308
    @example(terms=np.array([1e308]))             # the doubled total overflows: inf
    @settings(deadline=None)
    def test_sum_of_halves_is_the_fsum_of_both(self, terms):
        # an antipodal integrand held as its upper half is summed this way
        doubled = _fsum_outcome(lambda t: 2.0 * exact_sum(t), terms)
        both = _fsum_outcome(lambda t: math.fsum(np.concatenate([t, t]).tolist()), terms)
        if doubled != both:
            # fsum of both halves overflowed on the way; the doubled half is
            # the correctly rounded total, and inf past the largest float
            assert both[0] is OverflowError and np.all(np.isfinite(terms)), (doubled, both)
            total = 2 * sum(map(Fraction, terms.tolist()))
            try:
                expected = float(total)
            except OverflowError:
                expected = math.inf if total > 0 else -math.inf
            assert doubled == struct.pack("<d", expected)

    @pytest.mark.parametrize("profile", ["positive", "cancel"])
    def test_ball_integral_of_122880_terms(self, params_2d, profile):
        ball = px.build_ball_quadrature(params_2d, 120, 1024)
        rng = np.random.default_rng(7)
        values = rng.uniform(0.5, 1.5, len(ball)) ** 2.5
        if profile == "cancel":
            values *= rng.choice([-1.0, 1.0], len(ball)) * 2.0 ** rng.integers(-60, 60, len(ball))
        assert len(ball) == 122_880
        assert px.integrate_ball(values, ball) == math.fsum((ball.weights * values).tolist())
