"""Antipodally closed quadrature rules on the unit sphere and unit ball.

Sphere rules
    n = 2: equispaced nodes on the circle with uniform weights (the
    trapezoid rule, spectrally accurate for smooth periodic integrands).
    n = 3: product of a Gauss-Legendre rule in the polar cosine and an
    equispaced azimuthal rule with twice as many points.

Antipodal exactness matters throughout the library, so both rules store the
first half of the nodes and obtain the second half by exact negation; the
antipode permutation is then index +/- N/2 and node/weight symmetry holds
bit for bit.

Ball rules
    A tensor rule: radial nodes times a sphere rule per shell, with the
    Jacobian r^{n-1} absorbed into the weights.  The radial rule must
    resolve the (1 - r)^{1-a} behaviour of extension fields near the
    boundary: a composite Gauss-Legendre rule on dyadic panels graded
    toward r = 1 (ratio 0.5), which integrates both smooth profiles and
    (1 - r)^{1-a} profiles to ~1e-11 with ~100 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .params import ProblemParams

RADIAL_NODES_PER_PANEL = 6


class _AntipodalRule:
    """What the sphere and ball rules share: nodes, weights and an exact antipode."""

    def __post_init__(self) -> None:
        anti = self.antipode_index
        if not np.array_equal(self.nodes[anti], -self.nodes):
            raise ValueError("node set is not antipodally closed")
        if not np.array_equal(self.weights[anti], self.weights):
            raise ValueError("weights are not antipodally symmetric")
        if not np.array_equal(anti[anti], np.arange(len(anti))):
            raise ValueError("antipode_index is not an involution")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def half(self) -> int:
        return len(self.weights) // 2

    def to_csv(self, path) -> None:
        write_csv(path, self.nodes, self.weights, "weight")


@dataclass(frozen=True)
class SphereQuadrature(_AntipodalRule):
    """Nodes/weights on the unit sphere with an exact antipodal pairing."""

    n: int
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        area = surface_area(self.n)
        if abs(self.weights.sum() - area) > 1e-10 * area:
            raise ValueError("sphere weights do not sum to the surface area")


@dataclass(frozen=True)
class BallQuadrature(_AntipodalRule):
    """Tensor rule on the unit ball: radial nodes times a sphere rule."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray
    radii: np.ndarray
    delta_min: float
    grading: dict = field(compare=False)
    angular: SphereQuadrature = field(compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delta_min <= 0:
            raise ValueError("ball nodes must keep a positive distance to the sphere")


def surface_area(n: int) -> float:
    """|S^{n-1}|: 2 pi for n = 2, 4 pi for n = 3."""
    return float(2.0 * np.pi ** (n / 2.0) / special.gamma(n / 2.0))


def ball_volume(n: int) -> float:
    """|B_1|: pi for n = 2, 4 pi / 3 for n = 3."""
    return surface_area(n) / n


def build_sphere_quadrature(params: ProblemParams, resolution: int) -> SphereQuadrature:
    """Build the sphere rule; `resolution` must be even and at least 4.

    For n = 2 the rule has `resolution` nodes; for n = 3 it has
    `resolution` polar rings times `2 * resolution` azimuthal nodes.
    """
    if resolution < 4 or resolution % 2 != 0:
        raise ValueError("resolution must be an even integer >= 4")
    n = params.n
    if n == 2:
        m = resolution // 2
        theta = 2.0 * np.pi * np.arange(m) / resolution
        upper = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nodes = np.concatenate([upper, -upper], axis=0)
        weights = np.full(resolution, 2.0 * np.pi / resolution)
    elif n == 3:
        naz = 2 * resolution
        t, wt = special.roots_legendre(resolution)
        t = 0.5 * (t - t[::-1])          # enforce exact symmetry of the nodes
        wt = 0.5 * (wt + wt[::-1])
        upper_rings = np.nonzero(t > 0)[0]
        phi = 2.0 * np.pi * np.arange(naz) / naz
        sin_t = np.sqrt(1.0 - t[upper_rings] ** 2)
        upper = np.empty((len(upper_rings) * naz, 3))
        wup = np.empty(len(upper))
        for row, k in enumerate(upper_rings):
            sl = slice(row * naz, (row + 1) * naz)
            upper[sl, 0] = sin_t[row] * np.cos(phi)
            upper[sl, 1] = sin_t[row] * np.sin(phi)
            upper[sl, 2] = t[k]
            wup[sl] = wt[k] * (2.0 * np.pi / naz)
        nodes = np.concatenate([upper, -upper], axis=0)
        weights = np.concatenate([wup, wup])
    else:
        raise NotImplementedError("sphere quadrature implemented for n in {2, 3}")
    half = len(weights) // 2
    anti = np.concatenate([np.arange(half) + half, np.arange(half)])
    return SphereQuadrature(n=n, resolution=resolution, nodes=nodes,
                            weights=weights, antipode_index=anti)


def azimuthal_layout(quad: SphereQuadrature) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The sphere rule as rings of equispaced azimuth.

    Returns (ring cosines, ring index of each node, azimuth index of each
    node, azimuths per ring): node i sits at polar cosine cos[ring[i]] and
    azimuth 2 pi az[i] / naz.  n = 2 is one ring at cosine 0.  The second
    half of the nodes, the negation of the first, lies on the mirror rings
    turned by half a revolution.
    """
    idx = np.arange(len(quad))
    if quad.n == 2:
        return np.zeros(1), np.zeros(len(quad), dtype=np.intp), idx, quad.resolution
    naz = 2 * quad.resolution
    ring, az = idx // naz, idx % naz
    lower = idx >= quad.half
    az[lower] = (az[lower] + naz // 2) % naz
    return quad.nodes[::naz, 2], ring, az, naz


def build_ball_quadrature(
    params: ProblemParams,
    radial_points: int,
    angular_resolution: int,
) -> BallQuadrature:
    """Tensor rule on the ball; see the module docstring for the grading."""
    if radial_points < 8:
        raise ValueError("radial_points must be at least 8")
    q = RADIAL_NODES_PER_PANEL
    panels = max(2, round(radial_points / q))
    bounds = [0.0] + [1.0 - 0.5 ** k for k in range(1, panels)] + [1.0]
    xg, wg = special.roots_legendre(q)
    rs, ws = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid, hl = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rs.append(mid + hl * xg)
        ws.append(hl * wg)
    r, wr = np.concatenate(rs), np.concatenate(ws)
    grading = {"rule": "graded_gl", "panels": panels, "nodes_per_panel": q, "ratio": 0.5}
    ang = build_sphere_quadrature(params, angular_resolution)
    h = ang.half
    nshell = len(r)
    n = params.n

    # upper block: for each shell, the upper half of the angular nodes;
    # lower block is the exact negation, so antipode_index is +/- M/2.
    up_nodes = (r[:, None, None] * ang.nodes[None, :h, :]).reshape(-1, n)
    up_w = (wr[:, None] * r[:, None] ** (n - 1) * ang.weights[None, :h]).reshape(-1)
    up_radii = np.repeat(r, h)
    nodes = np.concatenate([up_nodes, -up_nodes], axis=0)
    weights = np.concatenate([up_w, up_w])
    radii = np.concatenate([up_radii, up_radii])
    half = nshell * h
    anti = np.concatenate([np.arange(half) + half, np.arange(half)])
    return BallQuadrature(
        n=n,
        nodes=nodes,
        weights=weights,
        antipode_index=anti,
        radii=radii,
        delta_min=float(1.0 - r.max()),
        grading=grading,
        angular=ang,
    )


def integrate_boundary(values: np.ndarray, quad: SphereQuadrature | BallQuadrature) -> float:
    """Weighted sum over the nodes of a rule; exact, so order-independent."""
    values = np.asarray(values, dtype=float)
    if values.shape != quad.weights.shape:
        raise ValueError(f"expected {quad.weights.shape} values, got {values.shape}")
    return math.fsum((quad.weights * values).tolist())


integrate_ball = integrate_boundary     # the same sum over a ball rule


def write_csv(path, nodes: np.ndarray, values: np.ndarray, column: str = "value") -> None:
    """One row per node: its coordinates x1..xn, then the value in `column`."""
    dim = nodes.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(dim)) + f",{column}\n")
        for row, val in zip(nodes, values):
            fh.write(",".join(repr(float(c)) for c in row) + f",{float(val)!r}\n")
