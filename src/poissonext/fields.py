"""Extension fields off the operator's grid, and the identities they satisfy.

`extend_at_points` is the raw ball quadrature at interior points, with no
balancing: spectrally accurate away from the boundary layer.
`extend_halfspace` is the half-space extension of grid samples.
`interpolate_boundary` turns nodal values into a callable on the sphere.
`conformal_pullback_check` and `weighted_harmonic_residual` are the
conformal intertwining and weighted-harmonicity checks `verify` runs.
The solver's balanced operator is `operators.ExtensionOperator`.
"""

from __future__ import annotations

import numpy as np

from .geometry import conformal_weight, mobius_f, stereographic
from .halfspace import HalfspaceGrid
from .kernels import kernel_ball, kernel_halfspace
from .operators import BoundaryFunction
from .params import ProblemParams
from .quadrature import SphereQuadrature, integrate_boundary


def extend_at_points(
    v: BoundaryFunction, points: np.ndarray, params: ProblemParams
) -> np.ndarray:
    """Pure-quadrature extension at arbitrary interior points.

    Used for point probes away from the boundary layer, where the raw rule
    is spectrally accurate; no balancing is applied.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = kernel_ball(v.quad.nodes[None, :, :], points[:, None, :], params)
    return rows @ (v.quad.weights * v.values)


def extend_halfspace(u_values: np.ndarray, grid: HalfspaceGrid, targets: np.ndarray,
                     params: ProblemParams) -> np.ndarray:
    """Half-space extension of grid samples at targets in R^n with x_n > 0."""
    u_values = np.asarray(u_values, dtype=float)
    if u_values.shape != grid.weights.shape:
        raise ValueError("u must be sampled on the grid nodes")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[-1] != params.n:
        raise ValueError(f"expected points in R^{params.n}, got shape {targets.shape}")
    if np.any(targets[:, -1] <= 0):
        raise ValueError("extension targets need x_n > 0")
    out = np.empty(len(targets))
    for k, x in enumerate(targets):
        out[k] = integrate_boundary(kernel_halfspace(grid.nodes, x, params) * u_values, grid)
    return out


def interpolate_boundary(v: BoundaryFunction):
    """Callable interpolant of nodal boundary values.

    n = 2 uses the exact trigonometric interpolant of the equispaced rule;
    n = 3 is the L^2 projection, in the rule's own inner product, onto real
    spherical harmonics of degree <= min(resolution / 2, 12) (exact on them).
    """
    quad = v.quad
    if quad.n == 2:
        # node i lies at azimuth index i of the even count len(v.values)
        coeff = np.fft.rfft(v.values) / len(v.values)

        def interp2(points: np.ndarray) -> np.ndarray:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            theta = np.arctan2(points[:, 1], points[:, 0])
            k = np.arange(len(coeff))
            phase = np.exp(1j * np.outer(theta, k))
            scale = np.full(len(coeff), 2.0)
            scale[0] = scale[-1] = 1.0
            return np.real(phase @ (coeff * scale))

        return interp2
    degree = min(quad.resolution // 2, 12)
    coeff = _real_sph_design(quad.nodes, degree).T @ (quad.weights * v.values)

    def interp3(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _real_sph_design(points, degree) @ coeff

    return interp3


def _real_sph_design(points: np.ndarray, degree: int) -> np.ndarray:
    """Orthonormal real harmonics, by ell then m, cos(m phi) before sin(m phi).

    Normalized Legendre recurrences (Holmes & Featherstone, J. Geodesy 76,
    2002), without the Condon-Shortley phase.
    """
    t = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    cols, p_mm = {}, np.full(len(t), 0.5 / np.sqrt(np.pi))
    for m in range(degree + 1):
        if m:
            p_mm = np.sqrt(1.0 + 0.5 / m) * np.sqrt(1.0 - t * t) * p_mm
        prev, cur = 0.0, p_mm
        for ell in range(m, degree + 1):
            if ell > m:
                a = np.sqrt((4 * ell * ell - 1) / (ell * ell - m * m))
                b = np.sqrt(((ell - 1) ** 2 - m * m) / (4 * (ell - 1) ** 2 - 1))
                prev, cur = cur, a * (t * cur - b * prev)
            cols[ell, m] = [cur] if m == 0 else [np.sqrt(2.0) * cur * np.cos(m * phi),
                                                 np.sqrt(2.0) * cur * np.sin(m * phi)]
    return np.stack([c for key in sorted(cols) for c in cols[key]], axis=1)


def conformal_pullback_check(
    v,
    sphere: SphereQuadrature,
    grid: HalfspaceGrid,
    params: ProblemParams,
    sample_points: np.ndarray,
) -> float:
    """Max relative discrepancy of the ball/half-space intertwining identity.

    Both sides of

        (ball extension of v)(F(x)) * conformal_weight(x)
            = (half-space extension of conformal_weight * (v o F))(x)

    are evaluated independently: the left through the sphere quadrature,
    the right through the half-space grid.  `v` is a callable on sphere
    points; nodal values go through `interpolate_boundary` first.
    """
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    v_nodes = BoundaryFunction(np.asarray(v(sphere.nodes), dtype=float), sphere)

    xi = mobius_f(sample_points, params)
    lhs = extend_at_points(v_nodes, xi, params)

    boundary_pts = np.concatenate(
        [grid.nodes, np.zeros((len(grid.nodes), 1))], axis=1
    )
    u = conformal_weight(boundary_pts, params) * np.asarray(
        v(stereographic(grid.nodes, params.n)), dtype=float
    )
    rhs = extend_halfspace(u, grid, sample_points, params)
    rhs /= conformal_weight(sample_points, params)
    scale = np.max(np.abs(lhs))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def weighted_harmonic_residual(
    field_eval,
    x: np.ndarray,
    h: float,
    params: ProblemParams,
) -> float:
    """Finite-difference residual of div(x_n^a grad Phi) at an interior point.

    Conservative second-order stencil: plain central differences in the
    tangential directions, flux differences at x_n +/- h/2 in the normal
    direction.  The extension solves the weighted equation for -1 < a < 1,
    which 2 - n < a < 1 implies at n in {2, 3}.  Requires x_n > 2h so the
    stencil stays interior.
    """
    a = params.a
    x = np.asarray(x, dtype=float)
    if x.shape != (params.n,):
        raise ValueError(f"expected a single point in R^{params.n}")
    if x[-1] <= 2.0 * h:
        raise ValueError("point too close to the boundary for the stencil")
    n = params.n
    pts = [x]
    for i in range(n):
        for s in (+1.0, -1.0):
            p = x.copy()
            p[i] += s * h
            pts.append(p)
    vals = np.asarray(field_eval(np.stack(pts)), dtype=float)
    f0 = vals[0]
    res = 0.0
    xn = x[-1]
    for i in range(n - 1):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        res += xn**a * (fp - 2.0 * f0 + fm) / (h * h)
    fp, fm = vals[1 + 2 * (n - 1)], vals[2 + 2 * (n - 1)]
    res += (
        (xn + 0.5 * h) ** a * (fp - f0) - (xn - 0.5 * h) ** a * (f0 - fm)
    ) / (h * h)
    return float(res)
