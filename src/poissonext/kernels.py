"""Half-space and ball Poisson-type kernels and their normalization.

The half-space kernel is

    P(y', x) = c * x_n^{1-a} / (|x' - y'|^2 + x_n^2)^{(n-a)/2},

with c = c(n, a) chosen so that the kernel integrates to one over the
boundary hyperplane for every interior point.  Transporting it to the unit
ball through the Moebius map gives

    P_ball(eta, xi) = 2^{a-1} c (1 - |xi|^2)^{1-a} / |xi - eta|^{n-a}.

Radial integrals of the ball kernel admit closed forms that the operator
module uses as exact targets: over the sphere (`kernel_ball_sphere_mass`)
and, numerically, over the ball.  For n = 2 the sphere integral is a Gauss
hypergeometric value 2F1(s, s; 1; r^2), summed by its power series for
r^2 <= 1/2 and by the 1 - r^2 connection formula (Abramowitz & Stegun
15.3.6) closer to the sphere, so it stays finite and accurate as r -> 1.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ProblemParams


def normalization_constant(params: ProblemParams) -> float:
    """Closed form of the normalization constant via Gamma functions.

    Reducing the defining integral to its radial part gives

        1/c = |S^{n-2}| * (1/2) B((n-1)/2, (1-a)/2)
            = pi^{(n-1)/2} Gamma((1-a)/2) / Gamma((n-a)/2),

    validated against the quadrature oracle in the test suite.  For n = 3,
    a = 0 this is the classical 1/(2 pi).
    """
    n, a = params.n, params.a
    return math.gamma((n - a) / 2.0) / (math.pi ** ((n - 1) / 2.0) * math.gamma((1.0 - a) / 2.0))


def ball_prefactor(params: ProblemParams) -> float:
    """The ball-kernel prefactor 2^{a-1} c."""
    return 2.0 ** (params.a - 1.0) * normalization_constant(params)


def kernel_halfspace(y_prime: np.ndarray, x: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Evaluate P(y', x); broadcasts y' of shape (..., n-1) against one x."""
    y = np.asarray(y_prime, dtype=float)
    x = np.asarray(x, dtype=float)
    xn = x[..., -1]
    if np.any(xn <= 0):
        raise ValueError("kernel_halfspace needs interior points x_n > 0")
    c = normalization_constant(params)
    diff = y - x[..., :-1]
    d2 = np.sum(diff * diff, axis=-1) + xn * xn
    return c * xn ** (1.0 - params.a) * d2 ** (-(params.n - params.a) / 2.0)


def kernel_ball(eta: np.ndarray, xi: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Evaluate the ball kernel at sphere points eta and interior points xi."""
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    r2 = np.sum(xi * xi, axis=-1)
    if np.any(r2 >= 1.0):
        raise ValueError("kernel_ball needs interior points |xi| < 1")
    diff = xi - eta
    d2 = np.sum(diff * diff, axis=-1)
    if np.any(d2 == 0.0):
        raise ValueError("kernel_ball is singular at xi = eta")
    a, n = params.a, params.n
    return ball_prefactor(params) * (1.0 - r2) ** (1.0 - a) * d2 ** ((a - n) / 2.0)


def kernel_ball_sphere_mass(radii: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Integral of the ball kernel over the unit sphere, as a function of |xi|.

    For n = 3 the surface integral of |xi - eta|^{a-3} is elementary; for
    n = 2 it is 2 pi 2F1(s, s; 1; r^2) with s = (2-a)/2 (`_hyp2f1_ss1`).
    The mass tends to 1 as r -> 1 (the flat normalization) and to
    2^{a-1} c |S^{n-1}| times (1 - r^2)^{1-a} corrections near the center.
    The closed form is evaluated once per distinct radius (a ball rule
    repeats each shell radius at every angular node).
    """
    r, inverse = np.unique(np.asarray(radii, dtype=float), return_inverse=True)
    if np.any((r < 0) | (r >= 1)):
        raise ValueError("radii must lie in [0, 1)")
    n, a = params.n, params.a
    pref = ball_prefactor(params)
    y = (1.0 - r) * (1.0 + r)       # 1 - r^2 without cancellation next to the sphere
    if n == 2:
        surf = 2.0 * np.pi * _hyp2f1_ss1((2.0 - a) / 2.0, y)
    else:
        b = 1.0 - a
        small = r < 1e-6
        rs = np.where(small, 0.5, r)
        surf = np.where(
            small,
            4.0 * np.pi * (1.0 + (b + 1.0) * (b + 2.0) * r * r / 6.0),
            (2.0 * np.pi / (b * rs)) * ((1.0 - rs) ** (-b) - (1.0 + rs) ** (-b)),
        )
    out = (pref * y ** (1.0 - a) * surf)[inverse].reshape(np.shape(radii))
    return out if np.ndim(radii) else float(out)


def _hyp2f1_ss1(s: float, y: np.ndarray) -> np.ndarray:
    """2F1(s, s; 1; x) at x = 1 - y, for 1/2 < s < 1 and 0 < y <= 1.

    Taking y = 1 - x as the argument keeps its digits next to x = 1.  For
    x <= 1/2 (then x = 1 - y exactly) it sums the power series in x.  For
    x > 1/2 it uses the connection formula (Abramowitz & Stegun 15.3.6)
    with g = c - a - b = 1 - 2s,

        F = G(g) / G(1-s)^2 F(s, s; 2s; y)
            + y^g G(-g) / G(s)^2 F(1-s, 1-s; 2-2s; y),

    G the Gamma function.  -1 < g < 0 is never an integer, so the
    logarithmic case cannot occur.  Every series runs at an argument of at
    most 1/2 and has positive terms, so it converges at least like 2^-k
    without cancellation.
    """
    def series(a, b, c, z):
        term, total, k = np.ones_like(z), np.ones_like(z), 0
        while np.any(term > 1e-17 * total):
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z
            total = total + term
            k += 1
        return total

    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    near = y < 0.5
    out[~near] = series(s, s, 1.0, 1.0 - y[~near])
    yn, g = y[near], 1.0 - 2.0 * s
    out[near] = (math.gamma(g) / math.gamma(1.0 - s) ** 2 * series(s, s, 2.0 * s, yn)
                 + yn ** g * math.gamma(-g) / math.gamma(s) ** 2
                 * series(1.0 - s, 1.0 - s, 2.0 - 2.0 * s, yn))
    return out
