"""Bubble test family, blow-up rescaling, and concentration reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import conformal_weight, mobius_f
from .kernels import kernel_ball_sphere_mass
from .operators import BoundaryFunction
from .params import ProblemParams
from .quadrature import integrate_boundary


@dataclass(frozen=True)
class BubbleParams:
    """Scale, center and amplitude of one bubble profile."""

    lambda_scale: float = 1.0
    center: np.ndarray = None
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_scale <= 0:
            raise ValueError("lambda_scale must be positive")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")


def bubble(y_prime: np.ndarray, params: ProblemParams, bp: BubbleParams) -> np.ndarray:
    """amplitude * (lambda^2 + |y' - center|^2)^{-(n+a-2)/2}.

    The exponent for general a is fixed by conformal-weight consistency:
    with amplitude 2^{(n+a-2)/2}, lambda = 1 and center 0 the bubble is
    exactly the conformal factor of the flat chart, so its pullback to the
    sphere is the constant one.
    """
    y = np.atleast_2d(np.asarray(y_prime, dtype=float))
    center = np.zeros(params.n - 1) if bp.center is None else np.asarray(bp.center, dtype=float)
    d2 = np.sum((y - center) ** 2, axis=-1)
    out = bp.amplitude * (bp.lambda_scale**2 + d2) ** (-params.half_weight_power)
    return out if np.ndim(y_prime) > 1 else float(out[0])


def bubble_extension_halfspace(
    x: np.ndarray, params: ProblemParams, bp: BubbleParams
) -> np.ndarray:
    """Closed form of the half-space extension of a bubble.

    The standard bubble is the boundary trace of a conformally transported
    constant, so its extension is the conformal factor times the radial
    sphere-mass profile of the ball kernel, composed with the Moebius map;
    translation and dilation covariance extend this to the whole family.
    Exact up to the closed-form ingredients, hence usable as an oracle for
    the weighted-harmonicity check.  Like `bubble`, a 2-D input of points
    gives an array and a single point a float.
    """
    m = params.half_weight_power
    center = np.zeros(params.n - 1) if bp.center is None else np.asarray(bp.center, dtype=float)
    shift = np.concatenate([center, [0.0]])
    xt = (np.atleast_2d(np.asarray(x, dtype=float)) - shift) / bp.lambda_scale
    w = conformal_weight(xt, params)
    radii = np.sqrt(np.sum(mobius_f(xt, params) ** 2, axis=-1))
    radii = np.minimum(radii, 1.0 - 1e-14)
    vals = (
        bp.amplitude
        * bp.lambda_scale ** (-2.0 * m)
        * 2.0 ** (-m)
        * w
        * kernel_ball_sphere_mass(radii, params)
    )
    return vals if np.ndim(x) > 1 else float(vals[0])


@dataclass(frozen=True)
class RescaleParams:
    """Normalization data for the blow-up rescaling at exponent p."""

    p: float
    u0: float
    params: ProblemParams
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        if self.u0 <= 0:
            raise ValueError("the center value u(0) must be positive")
        object.__setattr__(self, "scale", float(self.u0 ** (self.p - self.params.p_bulk)))
        if self.scale <= 0:
            raise ValueError("rescale factor must be positive")


def blow_up_rescale(u, rp: RescaleParams):
    """Return phi(y') = u(scale * y') / u(0); phi(0) = 1 exactly.

    `u` is a callable on points of R^{n-1}; the rescaled profile is again
    a callable, so the normalization is exact rather than resampled.
    """

    def phi(y_prime: np.ndarray) -> np.ndarray:
        y = np.asarray(y_prime, dtype=float)
        return np.asarray(u(rp.scale * y), dtype=float) / rp.u0

    return phi


def concentration_report(v: BoundaryFunction) -> dict:
    """sup, inf, their ratio, argmax node and mean of v; only ratio and node are scale-invariant."""
    vals = v.values
    sup, inf = float(vals.max()), float(vals.min())
    return {
        "sup": sup,
        "inf": inf,
        "sup_inf_ratio": sup / inf if inf > 0 else np.inf,
        "max_location": [float(c) for c in v.quad.nodes[np.argmax(vals)]],
        "mean": integrate_boundary(vals, v.quad) / v.quad.area,
    }
