"""Antipodally closed quadrature rules on the unit sphere and unit ball.

Sphere rules
    n = 2: equispaced nodes on the circle with uniform weights (the
    trapezoid rule, spectrally accurate for smooth periodic integrands).
    n = 3: product of a Gauss-Legendre rule in the polar cosine and an
    equispaced azimuthal rule with twice as many points.
    `SphereQuadrature(n, resolution)` builds the rule and its ring layout
    together, so no other arrays make a sphere rule.  Antipodal exactness
    matters throughout the library, so either rule is its first half
    followed by that half's exact negation: the antipode is index +/- N/2
    and node/weight symmetry holds bit for bit.

Ball rules
    `BallQuadrature(n, radial_points, angular_resolution)`: a tensor rule
    held as its two factors, radial shells (the Jacobian r^{n-1} absorbed
    into their weights) times a sphere rule, so no array of ball length is
    kept.  The radial rule must resolve the (1 - r)^{1-a} behaviour of
    extension fields near the boundary: `graded_radial_rule`, a composite
    Gauss-Legendre rule on dyadic panels graded toward r = 1 (ratio 0.5),
    which integrates both smooth profiles and (1 - r)^{1-a} profiles to
    ~1e-11 with ~100 nodes.  It alone decides how many shells fit below
    r = 1 in float64.

Panel rule
    `panel_rule` is the one composite Gauss-Legendre builder: the ball's
    graded radial rule and the half-space grid's geometric radial rule are
    both this rule on their own panel bounds.

Integrals
    `integrate_boundary` (also named `integrate_ball`) sums weights * values
    exactly and rounds once, so every integral is `math.fsum` of the
    products bit for bit and independent of the node order.  `exact_sum`
    gets that sum from a few vectorized passes of error-free extraction
    (Rump, Ogita & Oishi 2008) instead of a Python loop over the terms, at
    every length.  An antipodal integrand held as its upper half sums that
    half and doubles it.  While every term lies below 2^900 this is the full
    `math.fsum` bit for bit: no partial sum overflows, and doubling commutes
    with the one rounding (an exact sum of floats is a multiple of 2^-1074,
    and below 2^-1021 needs no rounding).  Past that it is the same bits, or
    the correctly rounded total (inf past the largest float) where fsum of
    the whole raises OverflowError.  `SphereQuadrature.area` is the exact
    sum of a rule's weights, the one |S^{n-1}| every caller divides by.

Antipodal profiles
    `SphereQuadrature.symmetrize` is the antipodal average, whose two halves
    hold the same bits, and `SphereQuadrature.check_antipodal` rejects a
    profile whose halves differ in any bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .params import ProblemParams

RADIAL_NODES_PER_PANEL = 6
# passes of exact_sum before the remainder goes to math.fsum; three suffice
# for terms spanning about 2^-50 of the largest
_EXACT_SUM_PASSES = 8


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """The sphere rule of (n, resolution), built with its ring layout; equal only to itself.

    A ring rule with equispaced azimuth.  `layout` is (ring cosines, ring
    index of each node, azimuth index of each node, azimuths per ring):
    node i sits at polar cosine cos[ring[i]] and azimuth 2 pi az[i] / naz.
    n = 2 is one ring at cosine 0 of `resolution` azimuths, its first half
    the upper half of the rule; n = 3 has `resolution` Gauss-Legendre rings
    of 2 * resolution azimuths, its upper half the rings above the equator.
    The second half of the nodes is the first half's exact negation, on the
    mirror rings turned by half a revolution, so the antipode is the half
    shift i -> i + N/2, and a node's weight depends on its ring alone.
    `area`, the exact sum of the weights, is the rule's one |S^{n-1}|.
    Raises ValueError unless `resolution` is even and at least 4.
    """

    n: int
    resolution: int
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    layout: tuple = field(init=False, repr=False)
    area: float = field(init=False)

    def __post_init__(self) -> None:
        n, res = self.n, self.resolution
        if res < 4 or res % 2 != 0:
            raise ValueError("resolution must be an even integer >= 4")
        if n == 2:      # one ring at cosine 0, its own mirror; the upper half is its first half
            naz, per_ring, t, wt = res, res // 2, np.zeros(1), np.ones(1)
            cos = t
        elif n == 3:    # the Gauss-Legendre rings above the equator, then their mirrors
            naz = per_ring = 2 * res
            t, wt = gauss_legendre(res)
            t, wt = t[t > 0], wt[t > 0]
            cos = np.concatenate([t, -t])
        else:
            raise NotImplementedError("sphere quadrature implemented for n in {2, 3}")
        # the upper half: per_ring azimuths on each ring of polar cosine t
        phi = 2.0 * np.pi * np.arange(per_ring) / naz
        sin_t = np.sqrt(1.0 - t ** 2)
        upper = np.stack([np.outer(sin_t, np.cos(phi)).ravel(),
                          np.outer(sin_t, np.sin(phi)).ravel(),
                          np.repeat(t, per_ring)], axis=1)[:, :n]
        wup = np.repeat(wt * (2.0 * np.pi / naz), per_ring)
        idx = np.arange(2 * len(wup))
        az = (idx % per_ring + (idx >= len(wup)) * (naz // 2)) % naz
        object.__setattr__(self, "nodes", np.concatenate([upper, -upper]))
        object.__setattr__(self, "weights", np.tile(wup, 2))
        object.__setattr__(self, "layout", (cos, idx // naz, az, naz))
        object.__setattr__(self, "area", exact_sum(self.weights))
        if abs(self.area - surface_area(n)) > 1e-10 * surface_area(n):
            raise ValueError("sphere weights do not sum to the surface area")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def half(self) -> int:
        return len(self.weights) // 2

    @functools.cached_property
    def antipode_index(self) -> np.ndarray:
        # kept after the first read: a solve step reads it about three times, and
        # one roll took 9-14 us (numpy 2.4, x86-64), 2 % of a 2.2 ms n = 3 step
        return np.roll(np.arange(len(self)), self.half)

    def symmetrize(self, x: np.ndarray) -> np.ndarray:
        """The antipodal average 0.5 (x + x at the antipodes); its two halves hold the same bits."""
        return 0.5 * (x + x[self.antipode_index])

    def check_antipodal(self, x: np.ndarray, prefix: str) -> None:
        """ValueError, its message led by `prefix`, unless x's two halves hold the same bits."""
        if not _same_bits(x[:self.half], x[self.half:]):
            raise ValueError(f"{prefix} (its two halves differ in some bit); symmetrize first")


@dataclass(frozen=True, eq=False)
class BallQuadrature:
    """The ball rule of (n, radial_points, angular_resolution) as factors; equal only to itself.

    Shells at the nodes of `graded_radial_rule(radial_points)`, with
    `shell_weights` its weights times r^(n-1), times the sphere rule
    `angular` = SphereQuadrature(n, angular_resolution).  Node j < len / 2
    is shell j // M times the angular rule's node j % M (M its half), and
    node j + len / 2 is its negation.  `nodes`, `weights`, `radii` (|xi|)
    and `antipode_index` are rebuilt on each access.  Raises ValueError
    where either factor's rule does.
    """

    n: int
    radial_points: int
    angular_resolution: int
    shell_radii: np.ndarray = field(init=False, repr=False)
    shell_weights: np.ndarray = field(init=False, repr=False)
    angular: SphereQuadrature = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r, wr = graded_radial_rule(self.radial_points)
        object.__setattr__(self, "shell_radii", r)
        object.__setattr__(self, "shell_weights", wr * r ** (self.n - 1))
        object.__setattr__(self, "angular", SphereQuadrature(self.n, self.angular_resolution))

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
    """The sphere rule of `resolution` in dimension params.n (`SphereQuadrature`)."""
    return SphereQuadrature(params.n, resolution)


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


def graded_radial_rule(radial_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The ball's radial nodes (ascending) and weights: `panel_rule` graded toward r = 1.

    P = max(2, round(radial_points / 6)) panels of 6 points, with the bounds
    0, 1/2, 3/4, ..., 1 - 2^(1-P) and 1.  Raises ValueError below 8 points,
    and when the outermost node rounds to 1 in float64, from 304 points on:
    the rule would put nodes on the sphere.  That is decided on the last
    panel alone, before the rule is built, at any count.
    """
    if radial_points < 8:
        raise ValueError(f"radial_points must be at least 8, got {radial_points}")
    q = RADIAL_NODES_PER_PANEL
    # round(radial_points / q), half to even, in integers: no float overflow
    whole, rest = divmod(radial_points, q)
    panels = max(2, whole + (2 * rest > q or 2 * rest == q and whole % 2 == 1))
    if panel_rule([1.0 - math.ldexp(1.0, 1 - panels), 1.0], q)[0][-1] >= 1.0:
        raise ValueError(f"{radial_points} radial points put the graded rule's outermost node "
                         "on the sphere in float64")
    return panel_rule([0.0] + [1.0 - math.ldexp(1.0, -k) for k in range(1, panels)] + [1.0], q)


def build_ball_quadrature(params: ProblemParams, radial_points: int,
                          angular_resolution: int) -> BallQuadrature:
    """The ball rule of these counts in dimension params.n (`BallQuadrature`)."""
    return BallQuadrature(params.n, radial_points, angular_resolution)


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
    """
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


def write_csv(path, nodes: np.ndarray, values: np.ndarray) -> None:
    """One row per node: its coordinates x1..xn, then its value."""
    dim = nodes.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(dim)) + ",value\n")
        for row, val in zip(nodes, values):
            fh.write(",".join(repr(float(c)) for c in row) + f",{float(val)!r}\n")
