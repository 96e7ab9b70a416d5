"""Truncated quadrature grids on the boundary hyperplane R^{n-1}.

The half-space extension integrates a boundary function against a kernel
that decays only like |y'|^{-(n-a)}, so the grid must reach a very large
truncation radius.  Geometric radial panels make that affordable: the
panel count grows logarithmically in the radius while resolving unit-scale
features near the origin.  The radial rule is `quadrature.panel_rule` on
those panels, crossed for n = 3 with an equispaced angular rule in the plane.

The truncation error has the analytic bound `halfspace_tail_bound`,
C(n, a) x_n^{1-a} R^{a-1} sup_{|y'|>R} |u| for targets with |x'| <= R/2.
`operators.extend_halfspace` returns it per target; `conformal_pullback_check`
discards it, so no report carries it yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import normalization_constant
from .params import ProblemParams
from .quadrature import panel_rule, surface_area


@dataclass(frozen=True, eq=False)
class HalfspaceGrid:
    """Nodes and weights for integrals over R^{n-1}, truncated at a radius."""

    nodes: np.ndarray         # (M, n-1)
    weights: np.ndarray       # (M,)
    truncation_radius: float

    def __len__(self) -> int:
        return len(self.weights)


def default_truncation_radius(params: ProblemParams) -> float:
    """Radius at which the unit-sup tail bound drops below 3e-7, clipped to [1e4, 1e15]."""
    c = normalization_constant(params)
    n, a = params.n, params.a
    lead = c * surface_area(n - 1) * 2.0 ** (n - a + 1.0) / (1.0 - a)
    try:
        radius = (3e-7 / lead) ** (1.0 / (a - 1.0))
    except OverflowError:  # near a = 1 the radius passes float64, far past the clip
        radius = np.inf
    return float(np.clip(radius, 1e4, 1e15))


def build_halfspace_grid(
    params: ProblemParams,
    inner_scale: float = 0.25,
    panel_ratio: float = 1.5,
    nodes_per_panel: int = 20,
    angular_points: int = 96,
    truncation_radius: float | None = None,
) -> HalfspaceGrid:
    """Geometrically graded polar grid on R^{n-1}.

    Radial panels start at `inner_scale` and grow by `panel_ratio` until
    `truncation_radius` (chosen automatically from the kernel tail bound
    when not given).  For n = 2 the nodes cover both half-lines.
    """
    n = params.n
    if n not in (2, 3):
        raise NotImplementedError("half-space grids implemented for n in {2, 3}")
    if truncation_radius is None:
        truncation_radius = default_truncation_radius(params)
    if panel_ratio <= 1.0:
        raise ValueError("panel_ratio must exceed 1")

    bounds = [0.0, inner_scale]
    while bounds[-1] < truncation_radius:
        bounds.append(min(bounds[-1] * panel_ratio, truncation_radius))
    r, wr = panel_rule(bounds, nodes_per_panel)

    if n == 2:
        nodes = np.concatenate([r, -r])[:, None]
        weights = np.concatenate([wr, wr])
    else:
        phi = 2.0 * np.pi * np.arange(angular_points) / angular_points
        cos, sin = np.cos(phi), np.sin(phi)
        nodes = np.stack(
            [np.outer(r, cos).ravel(), np.outer(r, sin).ravel()], axis=1
        )
        weights = np.outer(wr * r, np.full(angular_points, 2.0 * np.pi / angular_points)).ravel()
    return HalfspaceGrid(nodes, weights, float(truncation_radius))


def halfspace_tail_bound(
    grid: HalfspaceGrid,
    targets: np.ndarray,
    params: ProblemParams,
    u_tail_sup: float,
) -> np.ndarray:
    """Analytic bound on the truncated part of the extension integral.

    Valid for targets with |x'| <= R/2; more distant targets get inf so a
    silent underestimate is impossible.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    c = normalization_constant(params)
    n, a = params.n, params.a
    R = grid.truncation_radius
    xn = targets[:, -1]
    xp = np.sqrt(np.sum(targets[:, :-1] ** 2, axis=-1))
    lead = c * surface_area(n - 1) * 2.0 ** (n - a) / (1.0 - a)
    bound = lead * xn ** (1.0 - a) * R ** (a - 1.0) * abs(u_tail_sup)
    return np.where(xp <= 0.5 * R, bound, np.inf)
