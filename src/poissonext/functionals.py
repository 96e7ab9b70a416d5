"""Norms, sharp constants, and thresholds; that of v = 1 is a 1-D sum, on no operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import kernel_ball_sphere_mass
from .operators import BoundaryFunction
from .params import ProblemParams
# integrate_ball is not called here; perfbench/tracer.py wraps it under this name
from .quadrature import (BallQuadrature, SphereQuadrature, ball_volume,  # noqa: F401
                         exact_sum, integrate_ball, integrate_boundary)


@dataclass(eq=False)
class WeightFunction(BoundaryFunction):
    """Positive weight K at sphere nodes, optionally antipodally symmetric.

    Antipodality is checked relative to max K, so a weight and its multiples
    pass or fail together.
    """

    antipodal: bool = False
    _kind = "weight"

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values <= 0):
            raise ValueError("K must be strictly positive")
        if self.antipodal:
            dev = np.max(np.abs(self.values - self.values[self.quad.antipode_index]))
            if dev > 1e-12 * self.max:
                raise ValueError(f"antipodality violated (deviation {dev:.3e})")

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def min(self) -> float:
        return float(self.values.min())


def boundary_norm(v: BoundaryFunction, p: float) -> float:
    """(integral of |v|^p over the sphere)^{1/p}; see `_norm`."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return _norm(np.abs(v.values), v.quad, p)


def bulk_norm(values: np.ndarray, ball: BallQuadrature, q: float) -> float:
    """(integral of |F|^q over the ball)^{1/q} of F's values at the ball nodes; see `_norm`."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return _norm(np.abs(values), ball, q)


def _norm(mags: np.ndarray, quad, q: float, weight=1.0) -> float:
    """(integral of weight * mags^q)^{1/q} of nonnegative magnitudes.

    Only when the plain sum overflows (to inf, or in the OverflowError of an
    fsum whose partial sums pass the float range) and every magnitude is
    finite is it taken again as max * (integral of weight (mags / max)^q)^{1/q},
    so every finite plain result keeps its bits; q runs into the thousands
    near the low end of the range of a.  `weight` is a scalar or an array
    over the nodes (the solver's K).
    """
    with np.errstate(over="ignore"):
        try:
            total = integrate_boundary(weight * mags ** q, quad)
        except OverflowError:
            total = np.inf
    if total < np.inf:
        return total ** (1.0 / q)
    top = float(mags.max())
    if top == np.inf:
        return top
    return top * integrate_boundary(weight * (mags / top) ** q, quad) ** (1.0 / q)


def sharp_constant_formula_a0(params: ProblemParams) -> float:
    """Closed form of the sharp constant at a = 0 (n = 3 only)."""
    if params.a != 0.0 or params.n != 3:
        raise ValueError("the closed form applies to a = 0, n = 3")
    n = params.n
    omega = ball_volume(n)
    return float(n ** (-(n - 2.0) / (2.0 * (n - 1.0)))
                 * omega ** (-(n - 2.0) / (2.0 * n * (n - 1.0))))


def sharp_constant_from_constant_test_function(
    sphere: SphereQuadrature,
    ball: BallQuadrature,
    params: ProblemParams,
) -> float:
    """Ratio of norms of the extension of v = 1 (the claimed extremizer), built on no operator.

    E 1 is the sphere mass m(r) on each shell, the balanced operator's row targets.
    """
    mass = kernel_ball_sphere_mass(ball.shell_radii, params)
    energy = ball.angular.area * exact_sum(ball.shell_weights * mass ** params.p_bulk)
    return energy ** (1.0 / params.p_bulk) / sphere.area ** (1.0 / params.p_crit)


def sharp_constant_by_maximization(
    sphere: SphereQuadrature,
    ball: BallQuadrature,
    params: ProblemParams,
    starts: int = 3,
    seed: int = 0,
    max_iter: int = 2000,
    tol_v: float = 1e-9,
) -> tuple[float, bool]:
    """Maximize the norm ratio over the discretized (antipodal) sphere.

    Runs the solver's multistart with K = 1 at `solver.default_p` from the
    constant and `starts - 1` seeded starts exp(0.5 N(0, 1)), and reports
    the norm ratio of the start with the largest lambda, the maximizer (a
    start stuck at a lower critical point can have a larger ratio), read
    from its bulk energy: lambda^(1/p_bulk) / |v|_{p_crit}.  The
    exponent stays strictly subcritical because exactly at the critical one
    the discrete iteration can drift onto grid-scale concentrated profiles
    whose quadrature functional overshoots the true supremum (the discrete
    shadow of the lost compactness); slightly below it the maximizer is
    smooth and the ratio is an honest lower bound on the discrete supremum.

    Returns (constant, solved): solved if every start's run passes `solver.solved`,
    whose `solver.lambda_bound` takes S from the constant test function.
    """
    from .solver import (SubcriticalProblem, default_p, lambda_bound, maximize_multistart,
                         multistart_inits, solved)

    weight = WeightFunction(np.ones(len(sphere)), sphere, antipodal=True)
    problem = SubcriticalProblem(params=params, weight=weight, p=default_p(params),
                                 sphere=sphere, ball=ball, tol_v=tol_v, max_iter=max_iter)
    (v, lam, _), runs = maximize_multistart(problem,
                                            multistart_inits(sphere, starts - 1, 0.5, seed))
    ratio = lam ** (1.0 / params.p_bulk) / boundary_norm(v, params.p_crit)
    bound = lambda_bound(problem, sharp_constant_from_constant_test_function(sphere, ball, params))
    return ratio, all(solved(rep, lam_i / bound) for _, lam_i, rep in runs)


def sharp_constant(
    params: ProblemParams,
    method: str,
    sphere: SphereQuadrature | None = None,
    ball: BallQuadrature | None = None,
) -> float:
    """Dispatch on the estimation method; see the individual functions.

    Each method runs at its defaults; call `sharp_constant_by_maximization`
    directly to set its starts, seed, iteration cap or tolerance, or to read
    its pass gate.
    """
    if method == "formula_a0":
        return sharp_constant_formula_a0(params)
    if sphere is None or ball is None:
        raise ValueError(f"method {method!r} needs quadratures")
    if method == "constant_test_function":
        return sharp_constant_from_constant_test_function(sphere, ball, params)
    if method == "numerical_maximization":
        return sharp_constant_by_maximization(sphere, ball, params)[0]
    raise ValueError(f"unknown method {method!r}")


def existence_condition(weight: WeightFunction, params: ProblemParams) -> tuple[bool, float, float]:
    """Check max K / min K < 2^{1/n}; returns (holds, ratio, margin)."""
    ratio = weight.max / weight.min
    threshold = 2.0 ** (1.0 / params.n)
    return ratio < threshold, float(ratio), float(threshold - ratio)


def lambda_threshold(weight: WeightFunction, params: ProblemParams, sharp: float) -> float:
    """Attainment threshold S^{p_bulk} / ((min K)^{n/(n-1)} 2^{1/(n-1)}), S = sharp."""
    n = params.n
    return float(sharp ** params.p_bulk
                 / (weight.min ** (n / (n - 1.0)) * 2.0 ** (1.0 / (n - 1.0))))


def richardson_estimate(coarse: float, fine: float) -> tuple[float, float]:
    """Fine value with the two-resolution Richardson error estimate of a second-order method."""
    err = abs(fine - coarse) / 3.0
    return float(fine), float(err)
