import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonext as px


@pytest.fixture(scope="module")
def p3():
    return px.ProblemParams(3, 0.0)


def e_n(n):
    e = np.zeros(n)
    e[-1] = 1.0
    return e


class TestParams:
    def test_exponents_n3_a0(self):
        p = px.ProblemParams(3, 0.0)
        assert p.p_crit == 4.0
        assert p.p_bulk == 6.0
        assert p.q_exp == 5.0

    def test_exponents_n2_a_half(self):
        p = px.ProblemParams(2, 0.5)
        assert p.p_crit == 4.0
        assert p.p_bulk == 8.0
        assert p.q_exp == 7.0

    @pytest.mark.parametrize("n,a", [(2, 0.25), (3, -0.9), (3, 0.99)])
    def test_exponent_relations(self, n, a):
        p = px.ProblemParams(n, a)
        assert p.p_crit < p.p_bulk
        assert p.p_crit - 1.0 + 2.0 / (n + a - 2.0) == pytest.approx(p.q_exp, abs=1e-14)

    # n = 1.5 and 4 with an a inside (2 - n, 1): only n in {2, 3} is admitted
    @pytest.mark.parametrize("n,a", [(1, 0.0), (3, 1.0), (3, -1.0), (2, 0.0), (3, 1.5),
                                     (1.5, 0.75), (4, 0.0)])
    def test_rejects_out_of_range(self, n, a):
        with pytest.raises(ValueError):
            px.ProblemParams(n, a)


class TestMobius:
    def test_origin_maps_to_north_pole(self, p3):
        assert np.allclose(px.mobius_f(np.zeros(3), p3), e_n(3), atol=0)

    def test_unit_height_maps_to_center(self, p3):
        x = np.array([0.0, 0.0, 1.0])
        assert np.allclose(px.mobius_f(x, p3), 0.0, atol=0)

    def test_far_points_approach_south_pole(self, p3):
        x = np.array([0.0, 0.0, 1e8])
        assert np.linalg.norm(px.mobius_f(x, p3) + e_n(3)) < 1e-7

    def test_interior_points_stay_interior(self, p3, rng):
        x = rng.normal(size=(200, 3))
        x[:, 2] = np.abs(x[:, 2]) + 1e-3
        norms = np.linalg.norm(px.mobius_f(x, p3), axis=1)
        assert np.all(norms < 1.0)

    def test_boundary_points_land_on_sphere(self, p3, rng):
        x = rng.normal(size=(200, 3))
        x[:, 2] = 0.0
        norms = np.linalg.norm(px.mobius_f(x, p3), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_rejects_negative_height(self, p3):
        with pytest.raises(ValueError):
            px.mobius_f(np.array([0.0, 0.0, -0.1]), p3)

    def test_inverse_examples(self, p3):
        assert np.allclose(px.mobius_f_inverse(e_n(3), p3), 0.0, atol=0)
        assert np.allclose(px.mobius_f_inverse(np.zeros(3), p3), e_n(3), atol=0)

    def test_inverse_rejects_south_pole(self, p3):
        with pytest.raises(ValueError):
            px.mobius_f_inverse(-e_n(3), p3)

    def test_round_trip_100_random_points(self, p3, rng):
        x = rng.normal(size=(100, 3))
        x[:, 2] = np.abs(x[:, 2]) + 0.01
        xi = px.mobius_f(x, p3)
        back = px.mobius_f_inverse(xi, p3)
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1.0)) < 1e-12
        fwd = px.mobius_f(back, p3)
        assert np.max(np.abs(fwd - xi)) < 1e-12

    def test_boundary_restriction_equals_stereographic(self, p3, rng):
        y = rng.normal(size=(50, 2)) * 3
        lifted = np.concatenate([y, np.zeros((50, 1))], axis=1)
        assert np.max(np.abs(px.mobius_f(lifted, p3) - px.stereographic(y, 3))) < 1e-14


class TestStereographic:
    def test_center_of_chart(self, p3):
        assert np.allclose(px.stereographic(np.zeros(2), 3), e_n(3), atol=0)

    def test_unit_circle_maps_to_equator(self):
        out = px.stereographic(np.array([1.0, 0.0]), 3)
        assert out[2] == 0.0
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_far_points_approach_south_pole(self):
        out = px.stereographic(np.array([1e9, 0.0]), 3)
        assert np.linalg.norm(out + e_n(3)) < 1e-8

    def test_lands_on_sphere(self, rng):
        y = rng.normal(size=(300, 1)) * 5
        out = px.stereographic(y, 2)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-14


class TestConformalWeight:
    def test_value_at_origin(self):
        p = px.ProblemParams(3, 0.0)
        assert px.conformal_weight(np.zeros(3), p) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_value_at_unit_height(self):
        p = px.ProblemParams(3, 0.0)
        x = np.array([0.0, 0.0, 1.0])
        assert px.conformal_weight(x, p) == pytest.approx(2.0 ** (-0.5), rel=1e-15)

    def test_vanishes_at_infinity_and_positive(self, rng):
        p = px.ProblemParams(2, 0.5)
        x = rng.normal(size=(100, 2)) ** 2
        w = px.conformal_weight(x, p)
        assert np.all(w > 0)
        assert px.conformal_weight(np.array([0.0, 1e12]), p) < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    y1=st.floats(-50, 50, allow_nan=False),
    y2=st.floats(-50, 50, allow_nan=False),
    h=st.floats(1e-3, 50, allow_nan=False),
)
def test_property_round_trip_and_interiority(y1, y2, h):
    p = px.ProblemParams(3, 0.25)
    x = np.array([y1, y2, h])
    xi = px.mobius_f(x, p)
    assert np.linalg.norm(xi) < 1.0
    assert np.max(np.abs(px.mobius_f_inverse(xi, p) - x)) < 1e-10 * max(1.0, abs(y1), abs(y2), h)
