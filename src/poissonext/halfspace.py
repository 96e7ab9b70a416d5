"""Quadrature grids on the whole boundary hyperplane R^{n-1}.

The half-space extension integrates a boundary function against a kernel
that decays only like |y'|^{-(n-a)}, so its radial integrand falls off like
r^{a-2} and a truncated grid misses a mass of order R^{a-1}.  The radial
rule has two parts.  Geometric panels (ratio 1.5, 20 Gauss points each,
`quadrature.panel_rule`) cover (0, R0] with R0 = 64, resolving unit-scale
features near the origin.  One 20-point Gauss panel in t in (0, 1] covers
(R0, inf) through r = R0 t^(-m), the change of variable for an algebraic
endpoint (Davis & Rabinowitz, Methods of Numerical Integration, 1984): with
m = k/(1 - a) the kernel's r^(a-2) tail becomes t^(k-1) in t.  k is the
least integer that makes m >= 2 (k = 1 for a >= 1/2), so a correction of
order r^(-j) becomes t^(k-1+jm), smooth enough for the panel.  m = 2 for
every a < 1/2 would leave t^(1-2a) instead, 1e-5 off at a = 0.44.  m is
capped at 50, which keeps the outermost node near 1e125, so r^2 stays
finite in float64; past a = 0.98 the capped map leaves a t^(-1/2)-type
endpoint, and a unit-mass error near 2e-2 at a = 0.99.  For n = 3 the
radial rule is crossed with an equispaced angular rule in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ProblemParams
from .quadrature import panel_rule

_INNER_RATIO, _PANEL_POINTS, _TAIL_START = 1.5, 20, 64.0


@dataclass(frozen=True, eq=False)
class HalfspaceGrid:
    """Nodes and weights for integrals over all of R^{n-1}."""

    nodes: np.ndarray         # (M, n-1)
    weights: np.ndarray       # (M,)

    def __len__(self) -> int:
        return len(self.weights)


def build_halfspace_grid(
    params: ProblemParams, inner_scale: float = 0.25, angular_points: int = 96
) -> HalfspaceGrid:
    """Graded polar grid on R^{n-1}, its last radial panel mapped to infinity.

    The first radial panel is (0, min(`inner_scale`, 64)]; n = 3 takes
    `angular_points` equispaced azimuths.  For n = 2 the nodes cover both
    half-lines.
    """
    n, a = params.n, params.a
    if n not in (2, 3):
        raise NotImplementedError("half-space grids implemented for n in {2, 3}")
    if not (np.isfinite(inner_scale) and 0.0 < inner_scale):
        raise ValueError(f"inner_scale must be finite and positive, got {inner_scale!r}")
    if not isinstance(angular_points, (int, np.integer)) or angular_points < 1:
        raise ValueError(f"angular_points must be a positive integer, got {angular_points!r}")

    bounds = [0.0, min(inner_scale, _TAIL_START)]
    while bounds[-1] < _TAIL_START:
        bounds.append(min(bounds[-1] * _INNER_RATIO, _TAIL_START))
    r, wr = panel_rule(bounds, _PANEL_POINTS)
    m = min(math.ceil(2.0 * (1.0 - a)) / (1.0 - a), 50.0)
    t, wt = panel_rule([0.0, 1.0], _PANEL_POINTS)
    r = np.concatenate([r, _TAIL_START * t ** -m])
    wr = np.concatenate([wr, m * _TAIL_START * t ** (-m - 1.0) * wt])

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
    return HalfspaceGrid(nodes, weights)
