"""Moebius map between half-space and ball, stereographic chart, conformal factor.

Conventions: a half-space point is an array (..., n) whose last coordinate is
the height x_n >= 0; a ball point is an array (..., n) with |xi| <= 1.  All
functions are vectorized over leading axes and stateless.
"""

from __future__ import annotations

import numpy as np

from .params import ProblemParams


def _unit_last(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[-1] = 1.0
    return e


def mobius_f(x: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Map the closed half-space onto the closed unit ball.

    F(x) = 2(x + e_n)/|x + e_n|^2 - e_n.  The boundary x_n = 0 lands on the
    sphere, interior points land strictly inside, and x -> infinity tends to
    -e_n.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.n:
        raise ValueError(f"expected points in R^{params.n}, got shape {x.shape}")
    if np.any(x[..., -1] < -1e-15):
        raise ValueError("half-space points need x_n >= 0")
    s = x + _unit_last(params.n)
    norm2 = np.sum(s * s, axis=-1, keepdims=True)
    return 2.0 * s / norm2 - _unit_last(params.n)


def mobius_f_inverse(xi: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Inverse of :func:`mobius_f`; the map is an involution.

    Raises on xi = -e_n, the image of the point at infinity.
    """
    xi = np.asarray(xi, dtype=float)
    s = xi + _unit_last(params.n)
    norm2 = np.sum(s * s, axis=-1, keepdims=True)
    if np.any(norm2 < 1e-28):
        raise ValueError("xi = -e_n is the image of the point at infinity")
    return 2.0 * s / norm2 - _unit_last(params.n)


def stereographic(y_prime: np.ndarray, n: int) -> np.ndarray:
    """Inverse stereographic projection of R^{n-1} onto the unit sphere.

    Returns (2 y'/(1+|y'|^2), (1-|y'|^2)/(1+|y'|^2)); y' = 0 maps to the
    north pole e_n and |y'| -> infinity approaches -e_n.
    """
    y = np.atleast_1d(np.asarray(y_prime, dtype=float))
    if y.shape[-1] != n - 1:
        raise ValueError(f"expected points in R^{n - 1}, got shape {y.shape}")
    r2 = np.sum(y * y, axis=-1, keepdims=True)
    return np.concatenate([2.0 * y / (1.0 + r2), (1.0 - r2) / (1.0 + r2)], axis=-1)


def conformal_weight(x: np.ndarray, params: ProblemParams) -> np.ndarray:
    """Conformal factor (sqrt(2)/|x + e_n|)^{n+a-2} attached to the Moebius map."""
    x = np.asarray(x, dtype=float)
    s = x + _unit_last(params.n)
    norm = np.sqrt(np.sum(s * s, axis=-1))
    return (np.sqrt(2.0) / norm) ** (params.n + params.a - 2.0)
