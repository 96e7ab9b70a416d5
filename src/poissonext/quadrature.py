"""Antipodally closed quadrature rules on the unit sphere and unit ball.

Sphere rules
    n = 2: equispaced nodes on the circle with uniform weights (the
    trapezoid rule, spectrally accurate for smooth periodic integrands).
    n = 3: product of a Gauss-Legendre rule in the polar cosine and an
    equispaced azimuthal rule with twice as many points.
    Antipodal exactness matters throughout the library, so either rule is
    its first half followed by that half's exact negation: the antipode is
    index +/- N/2 and node/weight symmetry holds bit for bit.

Ball rules
    A tensor rule held as its two factors, radial shells (the Jacobian
    r^{n-1} absorbed into their weights) times a sphere rule, so no array
    of ball length is kept.  The radial rule must resolve the
    (1 - r)^{1-a} behaviour of extension fields near the boundary: a
    composite Gauss-Legendre rule on dyadic panels graded toward r = 1
    (ratio 0.5), which integrates both smooth profiles and (1 - r)^{1-a}
    profiles to ~1e-11 with ~100 nodes.

Panel rule
    `panel_rule` is the one composite Gauss-Legendre builder: the ball's
    graded radial rule and the half-space grid's geometric radial rule are
    both this rule on their own panel bounds.

Integrals
    `integrate_boundary` (also named `integrate_ball`) sums weights * values
    exactly and rounds once, so every integral is `math.fsum` of the
    products bit for bit and independent of the node order.  `exact_sum`
    gets that sum from a few vectorized passes of error-free extraction
    (Rump, Ogita & Oishi 2008) instead of a Python loop over the terms;
    up to 512 terms one `math.fsum` call is faster and runs instead.
    `exact_sum_of_halves` serves `ExtensionOperator.bulk_energy` alone,
    which holds only the upper half of an antipodal integrand: it sums that
    half and doubles it, the full `math.fsum` bit for bit whenever every
    term lies below 2^900 (the full sum runs otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ProblemParams

RADIAL_NODES_PER_PANEL = 6
# passes of exact_sum before the remainder goes to math.fsum; three suffice
# for terms spanning about 2^-50 of the largest
_EXACT_SUM_PASSES = 8
# exact_sum hands at most this many terms to math.fsum at once: one fsum of
# 512 terms took 17 us against 18 us for the vector passes, which cost about
# the same at any length up to a few thousand (numpy 2.4, x86-64, one thread;
# the two break even near 560 terms)
_FSUM_MAX_TERMS = 512


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes/weights on the unit sphere with an exact antipodal pairing; equal only to itself."""

    n: int
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray

    def __post_init__(self) -> None:
        anti = self.antipode_index
        if not np.array_equal(self.nodes[anti], -self.nodes):
            raise ValueError("node set is not antipodally closed")
        if not np.array_equal(self.weights[anti], self.weights):
            raise ValueError("weights are not antipodally symmetric")
        if not np.array_equal(anti[anti], np.arange(len(anti))):
            raise ValueError("antipode_index is not an involution")
        area = surface_area(self.n)
        if abs(self.weights.sum() - area) > 1e-10 * area:
            raise ValueError("sphere weights do not sum to the surface area")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def half(self) -> int:
        return len(self.weights) // 2


@dataclass(frozen=True, eq=False)
class BallQuadrature:
    """Tensor rule on the unit ball, held as its factors: shells times a sphere rule.

    `shell_weights` are the radial weights times r^(n-1).  Node j < len / 2
    is shell j // M times the angular rule's node j % M (M its half), and
    node j + len / 2 is its negation.  `nodes`, `weights`, `radii` (|xi|)
    and `antipode_index` are rebuilt on each access.  Equal only to itself.
    """

    n: int
    shell_radii: np.ndarray
    shell_weights: np.ndarray
    angular: SphereQuadrature

    def __post_init__(self) -> None:
        if self.angular.n != self.n:
            raise ValueError("the angular rule's dimension is not the ball's")
        if self.shell_radii.ndim != 1 or self.shell_radii.shape != self.shell_weights.shape:
            raise ValueError("shell radii and shell weights must be vectors of one length")
        if not np.all((self.shell_radii >= 0.0) & (self.shell_radii < 1.0)):
            raise ValueError("shell radii must lie in [0, 1)")

    def __len__(self) -> int:
        return 2 * self.half

    @property
    def half(self) -> int:
        return len(self.shell_radii) * self.angular.half

    @property
    def delta_min(self) -> float:
        return float(1.0 - self.shell_radii.max())

    @property
    def nodes(self) -> np.ndarray:
        up = np.multiply.outer(self.shell_radii, self.angular.nodes[:self.angular.half])
        return np.concatenate([up, -up]).reshape(-1, self.n)

    @property
    def weights(self) -> np.ndarray:
        up = np.outer(self.shell_weights, self.angular.weights[:self.angular.half]).ravel()
        return np.concatenate([up, up])

    @property
    def radii(self) -> np.ndarray:
        return np.tile(np.repeat(self.shell_radii, self.angular.half), 2)

    @property
    def antipode_index(self) -> np.ndarray:
        return np.roll(np.arange(len(self)), self.half)


def surface_area(n: int) -> float:
    """|S^{n-1}|: 2 pi for n = 2, 4 pi for n = 3."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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
        wup = np.full(m, 2.0 * np.pi / resolution)
    elif n == 3:
        naz = 2 * resolution
        t, wt = gauss_legendre(resolution)
        t, wt = t[t > 0], wt[t > 0]
        phi = 2.0 * np.pi * np.arange(naz) / naz
        sin_t = np.sqrt(1.0 - t ** 2)
        upper = np.stack([np.outer(sin_t, np.cos(phi)).ravel(),
                          np.outer(sin_t, np.sin(phi)).ravel(), np.repeat(t, naz)], axis=1)
        wup = np.repeat(wt * (2.0 * np.pi / naz), naz)
    else:
        raise NotImplementedError("sphere quadrature implemented for n in {2, 3}")
    nodes, weights = np.concatenate([upper, -upper]), np.tile(wup, 2)
    return SphereQuadrature(n=n, resolution=resolution, nodes=nodes, weights=weights,
                            antipode_index=np.roll(np.arange(len(weights)), len(wup)))


def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_q, evaluated by the three-term recurrence, from
    the guesses cos(pi (i - 1/4) / (q + 1/2)) for the q // 2 + q % 2
    nonnegative roots; the weights are 2 / ((1 - x^2) P_q'(x)^2).  The
    negative nodes are the exact negation of the positive ones and an odd
    rule has its middle node at exactly 0, so the rule is symmetric bit for
    bit.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    x = np.cos(np.pi * (np.arange(1, (q + 1) // 2 + 1) - 0.25) / (q + 0.5))
    if q % 2:
        x[-1] = 0.0
    for _ in range(100):
        p, dp = _legendre_and_derivative(q, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * _legendre_and_derivative(q, x)[1] ** 2)
    neg = q // 2        # the middle node of an odd rule is not negated
    return np.concatenate([-x[:neg], x[::-1]]), np.concatenate([w[:neg], w[::-1]])


def _legendre_and_derivative(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) for |x| < 1 by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, q + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, q * (x * p - p_prev) / (x * x - 1.0)


def panel_rule(bounds, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite q-point Gauss-Legendre rule on the panels between consecutive bounds.

    Exact for polynomials of degree 2q - 1 on each panel; returns (nodes, weights).
    """
    xg, wg = gauss_legendre(q)
    bounds = np.asarray(bounds, dtype=float)
    mid, hl = 0.5 * (bounds[:-1] + bounds[1:]), 0.5 * (bounds[1:] - bounds[:-1])
    return (mid[:, None] + hl[:, None] * xg).ravel(), (hl[:, None] * wg).ravel()


def azimuthal_layout(quad: SphereQuadrature) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The sphere rule as rings of equispaced azimuth.

    Returns (ring cosines, ring index of each node, azimuth index of each
    node, azimuths per ring): node i sits at polar cosine cos[ring[i]] and
    azimuth 2 pi az[i] / naz.  n = 2 is one ring at cosine 0.  The second
    half of the nodes, the negation of the first, lies on the mirror rings
    turned by half a revolution.  Raises ValueError unless each (ring,
    azimuth) slot holds exactly one node and every node lies within 1e-12
    of its slot's position.
    """
    idx = np.arange(len(quad))
    naz = quad.resolution if quad.n == 2 else 2 * quad.resolution
    ring, az, cos = idx // naz, idx % naz, np.zeros(1)
    if quad.n == 3:
        az = (az + (idx >= quad.half) * (naz // 2)) % naz
        cos = quad.nodes[::naz, 2]
    if len(quad) != len(cos) * naz or np.bincount(ring * naz + az).max() > 1:
        raise ValueError(f"the sphere rule does not fill {len(cos)} rings of {naz} azimuths "
                         "with one node each")
    phi, sin = 2.0 * np.pi * az / naz, np.sqrt(1.0 - cos[ring] ** 2)
    layout = np.stack([sin * np.cos(phi), sin * np.sin(phi), cos[ring]], axis=1)[:, :quad.n]
    if np.max(np.abs(quad.nodes - layout)) > 1e-12:
        raise ValueError("a sphere node lies more than 1e-12 from its layout position")
    return cos, ring, az, naz


def _max_radial_points(q: int) -> int:
    """The most radial points whose graded rule keeps every node below |xi| = 1.

    The last of P panels is [1 - 2^(1-P), 1].  In float64 its outermost
    node, computed as `panel_rule` does, rounds to 1 once P passes about 50
    (q = 6), and the rule would put nodes on the sphere.
    """
    top = gauss_legendre(q)[0][-1]

    def outermost(panels: int) -> float:
        lo = 1.0 - 0.5 ** (panels - 1)
        return 0.5 * (lo + 1.0) + 0.5 * (1.0 - lo) * top

    panels = 2
    while outermost(panels + 1) < 1.0:
        panels += 1
    points = q * (panels + 1)
    while round(points / q) > panels:
        points -= 1
    return points


MAX_RADIAL_POINTS = _max_radial_points(RADIAL_NODES_PER_PANEL)


def build_ball_quadrature(
    params: ProblemParams,
    radial_points: int,
    angular_resolution: int,
) -> BallQuadrature:
    """Tensor rule on the ball; see the module docstring for the grading."""
    if not 8 <= radial_points <= MAX_RADIAL_POINTS:
        raise ValueError(f"radial_points must lie in [8, {MAX_RADIAL_POINTS}], got {radial_points}")
    q = RADIAL_NODES_PER_PANEL
    panels = max(2, round(radial_points / q))
    bounds = [0.0] + [1.0 - 0.5 ** k for k in range(1, panels)] + [1.0]
    r, wr = panel_rule(bounds, q)
    return BallQuadrature(n=params.n, shell_radii=r, shell_weights=wr * r ** (params.n - 1),
                          angular=build_sphere_quadrature(params, angular_resolution))


def integrate_boundary(values: np.ndarray, quad: SphereQuadrature | BallQuadrature) -> float:
    """Weighted sum over the nodes of any rule with `weights`.

    The products weights * values are summed exactly and rounded once
    (`exact_sum`), so the result is `math.fsum` of the products bit for bit
    and does not depend on the order of the nodes.
    """
    values, weights = np.asarray(values, dtype=float), quad.weights
    if values.shape != weights.shape:
        raise ValueError(f"expected {weights.shape} values, got {values.shape}")
    return exact_sum(weights * values)


integrate_ball = integrate_boundary     # the same sum over a ball rule


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits; unlike ==, -0.0 differs from 0.0."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def exact_sum(terms: np.ndarray) -> float:
    """`math.fsum(terms.tolist())` of a 1-D float array, bit for bit, by vector passes.

    Each pass splits every term x into q + (x - q), with q = (sigma + x) - sigma
    on the ulp grid of sigma = 2^(k + e), 2^k >= len + 2 and max|x| < 2^e.
    Both parts are exact and |sum q| <= sigma, so `np.sum(q)` is exact in any
    order (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008, part I), and
    the largest remainder is at least 2^(52 - k) times smaller.  Once the
    remainder is zero the pass sums hold the exact total and fsum rounds it
    once.  When the largest remainder is zero before any pass, non-finite or
    outside (2^-900, 2^900), or the passes run out, fsum adds the remainder
    itself, which keeps its signed zeros, inf/nan results and exceptions.
    Up to _FSUM_MAX_TERMS terms, fsum of all of them is faster and runs alone.
    """
    if len(terms) <= _FSUM_MAX_TERMS:
        return math.fsum(terms.tolist())
    k = (len(terms) + 1).bit_length()
    partials = []
    for _ in range(_EXACT_SUM_PASSES):
        top = max(terms.max(), -terms.min()) if len(terms) else 0.0
        if top == 0.0 and partials:
            return math.fsum(partials)
        if not 2.0 ** -900 < top < 2.0 ** 900:
            break
        sigma = math.ldexp(1.0, k + math.frexp(top)[1])
        # after the first pass both arrays are this call's own and are reused
        q = np.add(sigma, terms, out=q if partials else None)
        q -= sigma
        terms = np.subtract(terms, q, out=terms if partials else None)
        partials.append(q.sum())
    return math.fsum(partials + terms.tolist())


def exact_sum_of_halves(half: np.ndarray) -> float:
    """`exact_sum` of the terms `half` followed by `half` again, bit for bit.

    `ExtensionOperator.bulk_energy` sums an antipodal integrand this way.
    When every term lies below 2^900 in magnitude this is twice the sum of
    `half`: no partial sum of either fsum overflows, and doubling commutes
    with the one rounding, since an exact sum of floats is a multiple of
    2^-1074 and below 2^-1021 needs no rounding at all.  Otherwise
    (non-finite or huge terms, whose halves fsum may add without the
    overflow it raises on the whole) the full terms are summed.
    """
    if len(half) and max(half.max(), -half.min()) < 2.0 ** 900:
        return 2.0 * exact_sum(half)
    return exact_sum(np.concatenate([half, half]))


def write_csv(path, nodes: np.ndarray, values: np.ndarray) -> None:
    """One row per node: its coordinates x1..xn, then its value."""
    dim = nodes.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(dim)) + ",value\n")
        for row, val in zip(nodes, values):
            fh.write(",".join(repr(float(c)) for c in row) + f",{float(val)!r}\n")
