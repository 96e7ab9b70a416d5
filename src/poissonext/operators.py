"""Discrete extension operator on the ball, its adjoint, and related checks.

The extension of a boundary function v and the adjoint of a bulk function F
are quadrature discretizations of the same kernel matrix M:

    (E v)(xi_j)  = sum_i  M[j, i] w_i v_i
    (T F)(eta_i) = sum_j  M[j, i] W_j F_j

so the discrete duality <E v, F> = <v, T F> is a summation reordering.

M is never formed.  The ball kernel depends only on |xi|, the polar angles
of xi and eta and their azimuth difference, and both quadratures are ring
rules with equispaced azimuth.  One table K therefore holds each distinct
kernel value once: a row per (shell, upper ball ring, azimuthal residue)
and column i for sphere node i (see `_kernel_table`).  The upper half of E
is one matrix product K @ y[IY] with a fixed gather index IY, whose row i
holds node i turned with the ball; its adjoint is K^T @ Z scattered back
through the same index.  The table is smaller than M by the number of
product columns (g/2 for n = 2, g for n = 3, with g the gcd of the azimuth
counts), so it stays in cache instead of streaming M from memory.  FFT
convolution is not used: its roundoff, ~1e-16 of a row's maximum, would
break exact positivity where a kernel row spans twenty decades
(n = 3, a = -0.5, outer shells).

Antipodal fold.  Node i + N/2 is the antipode of node i (the half shift
the sphere rule is built with) and turns with it, so column i + N/2, the
partner of column i, gathers the antipodes of what column i gathers for
every rotation m.  For an antipodal y both multiply the same gathered
values, so only the columns i < N/2 are kept, each holding the sum of the
two kernels; `gather_index` has their rows.  That halves the columns of
the dense product.  The build writes the first kernel into the table and
adds the partner's in place, a block of shells at a time, so no transient
array is larger than one block (`_FILL_DOUBLES`).

Mirror fold.  The kernel depends on the azimuth difference only through
its cosine, so it is also even under a reflection.  Reflecting the sphere
about the azimuth of ball node (m, u) maps its grid onto itself for every
m when the azimuth counts allow it (every residue u for ub in {1, 2},
which covers the default n = 2 and n = 3 rules; u = 0 and u = ub/2
otherwise), and it then maps node i turned by m onto node j turned by m, j
the mirror image of node i: columns i and j are a mirror pair.  The rows
of residue u hold the same kernel bits at both columns of a mirror pair,
so residue class u keeps one column per pair and its product pre-adds the
pair's two gathered inputs: `kernel_table[u]` @ (y[kept] + y[mirror])
fills the table rows u::residues, one product per class (`fold_columns[u]`
holds the kept and mirror columns).  This is a symmetry of the kernel,
exact for any input.  A column that is its own mirror (offset 0 or half a
turn), and every column of a class without an in-grid mirror, is kept once
as it is.  A product costs sum_u rows_u kept_u turns multiply-adds, at
most 0.27 of the dense count on the default rules, against 0.5 with the
antipodal fold alone; each entry is still a sum of positive terms.

Exact contracts.  Every output value is a sum of products of positive
numbers, so positivity of both operators is exact.  The second half of the
ball nodes is the negation of the first and kernel(-xi, eta) =
kernel(xi, -eta), so the lower half of E v is the same upper-half map
applied to v[antipode], and T is T_up(F_up) + T_up(F_down)[antipode]:
antipodal equivariance holds bit for bit, by the same computation and one
commutative addition.  `extend_values` and `adjoint_values`, the general
pair, take any input, point masses included: they run the same class
products in ball order on tables over all columns, mirror-folded only
(about half the unfolded table), which they build on their first call and
keep.  The solver never calls them.

Table layout.  `extend_table`, `adjoint_table`, `power_adjoint` and
`bulk_energy` are the only half-products, for antipodal input, as every
solver iterate is: both halves of E v hold the same bits, so E v is
returned as its upper half, a row per table row and a column per gathered
rotation, and T takes F's upper half in the same layout; each runs one
product per residue class with the folded tables, through one per-class
input (`_class_input`) and one spread of the transpose products
(`_spread_sum`).  `power_adjoint` is the solver's T[(E v)^q] in one pass:
class u's rows of E v come from a product of their own, so it raises them
to q (binary powering for an integer q, `_power_inplace`), weights them
and runs the class's transpose product before the next class starts, and
no array of the full table layout is formed.  `bulk_energy` is the one
ball integral, |E v|^(q + 1).  The results agree with the general pair's
to roundoff, not bit for bit: a folded column adds its partner's kernel
before the product does.  The ball rule is held as shells times an
angular rule whose weight depends on its ring alone (`SphereQuadrature`),
so `row_weights`, a shell weight times a ring weight, holds one ball
weight per table row.  `_table_layout` and `_ball_order` are the one map
between the ball order and this layout.

Near-boundary correction.  Raw kernel rows at ball nodes with
1 - |xi| << (sphere node spacing) overestimate the integral by orders of
magnitude (the kernel peak is narrower than the rule can see).  Instead of
regularizing the kernel, M is the raw kernel balanced by positive diagonal
scalings, M[j, i] = d_j kernel(xi_j, eta_i) e_i (Sinkhorn iteration), so
that both exact marginals of the continuous kernel hold on the discrete
operator:

    sum_i M[j, i] w_i = (integral of the kernel over the sphere at radius
                         |xi_j|, in closed form), and
    sum_j M[j, i] W_j = the matching ball integral.

The rotations K factors out, the antipode and the reflection about
azimuth 0 map both rules onto themselves, so d is one value per table row
and e one value per orbit of sphere nodes under them.  The build sums
each table row over each orbit's columns once, one product per residue
class, and iterates on that (table rows x orbits) matrix alone: its
product with the orbit's sphere weight times e gives the row sums, and a
fixed-order reduction of d times the row weights against it the column
sums, so every node of an orbit, both members of a mirror pair included,
gets the same bits of e.  The scalings are then multiplied into the
tables once, so the products apply no scaling.  d is kept as `row_scale`
and e as `col_scale`, one value per sphere node, column i's at nodes i
and i + N/2.  The row targets are the mass at each shell's radius and the
column target the exact ball sum of the mass over the sphere's `area`, so
the operator holds no ball-length array.  The scalings are ~1 away from
the boundary layer (interior accuracy is untouched) and the balanced
operator reproduces constants on both sides to near machine precision.
The raw quadrature survives only in `extend_at_points`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import conformal_weight, mobius_f, stereographic
from .halfspace import HalfspaceGrid
from .kernels import ball_prefactor, kernel_ball, kernel_ball_sphere_mass, kernel_halfspace
from .params import ProblemParams
from .quadrature import BallQuadrature, SphereQuadrature, exact_sum, integrate_boundary

_SINKHORN_TOL = 1e-12
_SINKHORN_MAX_ITER = 120
# doubles per shell block of a kernel table's fill (256 KiB)
_FILL_DOUBLES = 2 ** 15


def _power_inplace(z: np.ndarray, q: float) -> np.ndarray:
    """z ** q in place, returning z.

    For an integer q >= 1 this is left-to-right binary powering, about
    log2(q) squarings and as many multiplications by z, instead of libm
    pow.  Every multiplication of two powers x^a x^b rounds once, so by
    induction the result is within (q - 1) u of x^q relative (u = 2^-53)
    wherever no power of x leaves the normal range; with pow's own error
    of at most one ulp it differs from `**` by less than q eps relative
    (eps = 2^-52).  Any other q runs `**`, bit for bit.
    """
    if q >= 1 and float(q).is_integer():
        base = z.copy()
        for bit in bin(int(q))[3:]:
            z *= z
            if bit == "1":
                z *= base
    else:
        z **= q
    return z


def _checked(x, shape: tuple, what: str) -> np.ndarray:
    """x as a float array; ValueError "`what` `shape`, got ..." unless x has that shape."""
    if np.shape(x) != shape:
        raise ValueError(f"{what} {shape}, got {np.shape(x)}")
    return np.asarray(x, dtype=float)


@dataclass(eq=False)
class BoundaryFunction:
    """Finite values at the nodes of a sphere quadrature; equal only to itself."""

    values: np.ndarray
    quad: SphereQuadrature
    _kind = "boundary"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.quad.weights.shape:
            raise ValueError("value vector length does not match the quadrature")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self._kind} values must be finite")


def _kernel_table(sphere: SphereQuadrature, ball: BallQuadrature, params: ProblemParams,
                  antipodal: bool = True) -> tuple:
    """Mirror-folded class tables and gather index of the upper-half extension.

    Let g be the gcd of the ball and sphere azimuth counts naz_b = ub g and
    naz_s = us g (the rules' `layout` gives each node's ring and azimuth
    index).  One turn m -> m + 1, a g-th of a revolution, is ub ball
    and us sphere azimuths.  A ball node at azimuth index m ub + u and
    sphere node i turned by m, at (ring_i, az_i + us m), differ in azimuth
    by 2 pi (u us - az_i ub) / (ub naz_s), so the kernel between them
    depends on the shell, the two rings, u and az_i only, and on the offset
    only through its cosine.  Table rows are (shell, upper ball ring,
    u < ub) and column i is sphere node i, holding the kernel at the
    symmetric offset min(t, period - t) so that mirror offsets hold the same
    bits.  gather[i, m] is node i turned by m, so the upper-half extension
    is table @ y[gather] with one output column per m.

    The columns are folded by the mirror (module docstring), which is exact
    for any input, and with `antipodal` also antipodally: only the columns
    i < N/2 are kept, each adding its partner i + N/2, for antipodal input;
    the returned gather index has their rows.  columns[u] is (kept, mirror,
    spread) for residue class u: its kept columns, the mirror columns of
    kept[:len(mirror)] (the rest mirror themselves, or the class has no
    in-grid mirror), and for each column the kept column it adds into.
    tables[u] (class u's rows x kept) holds each kept column's kernel, plus
    its partner's with `antipodal`, computed once.  orbit numbers the
    columns by their nodes' orbit under the turns, the antipode and the
    mirror about azimuth 0.  Returns (tables, gather, columns, orbit, ub).
    Each table is filled in place a block of at most `_FILL_DOUBLES`
    entries (one shell or more) at a time: the node's kernel is written
    into the block's rows and the partner's added to them, the bits of
    summing the two, and no unfolded table is made.
    """
    ang = ball.angular
    cos_b, ring_b, _, naz_b = ang.layout
    cos_s, ring_s, az_s, naz_s = sphere.layout
    g = math.gcd(naz_b, naz_s)
    ub, us = naz_b // g, naz_s // g
    radii = ball.shell_radii
    per_shell = (int(ring_b[ang.half - 1]) + 1) * ub
    m = np.arange(ang.half // per_shell)        # g/2 (a half turn) for n = 2, g for n = 3
    cols = np.arange(sphere.half if antipodal else len(sphere))
    node_at = np.empty((len(cos_s), naz_s), dtype=np.intp)
    node_at[ring_s, az_s] = np.arange(len(sphere))
    gather = node_at[ring_s[cols, None], (az_s[cols, None] + us * m) % naz_s]
    row_ring, u = np.divmod(np.arange(per_shell), ub)
    cb, cs = cos_b[row_ring][:, None], cos_s[ring_s]
    sb, ss = np.sqrt(1.0 - cb * cb), np.sqrt(1.0 - cs * cs)
    period = ub * naz_s
    turn = (u[:, None] * us - az_s * ub) % period   # exact integer offset
    turn = np.minimum(turn, period - turn)
    # |e_b - e_s|^2 and |xi - eta|^2 = (1 - r)^2 + r |e_b - e_s|^2 as sums of
    # nonnegative terms: no cancellation next to the sphere
    e2 = (sb - ss) ** 2 + (cb - cs) ** 2 + 4.0 * sb * ss * np.sin(np.pi * turn / period) ** 2
    columns = []
    for res in range(ub):
        mirror = cols
        if 2 * res % ub == 0:
            # the mirror about ball node (m, res) maps sphere azimuth index t
            # to 2 us m + shift - t on the same ring, so it maps node i turned
            # by m onto the node at shift - az_i turned by m; a mirror in the
            # lower half folds onto its antipode's column
            shift = 2 * res * us // ub
            mirror = node_at[ring_s[cols], (shift - az_s[cols]) % naz_s] % len(cols)
        paired = np.flatnonzero(mirror > cols)
        kept = np.concatenate([paired, np.flatnonzero(mirror == cols)])
        spread = np.empty(len(cols), dtype=np.intp)
        spread[kept] = np.arange(len(kept))
        spread[mirror[paired]] = np.arange(len(paired))
        columns.append((kept, mirror[paired], spread))
    # class u's rows are e2[u::ub] for each shell; each kept column sums the
    # kernel at its node and, with `antipodal`, at that node's antipode.  The
    # per-shell factors are scalar pows, which round otherwise than vector ones
    rings, pref, a, n = per_shell // ub, ball_prefactor(params), params.a, params.n
    r = np.repeat(radii, rings)[:, None]
    sq = np.repeat([(1.0 - x) ** 2 for x in radii], rings)[:, None]
    scale = np.repeat([pref * ((1.0 - x) * (1.0 + x)) ** (1.0 - a) for x in radii], rings)[:, None]
    tables = []
    for res, (kept, _, _) in enumerate(columns):
        parts = [e2[res::ub][:, c[kept]] for c in (cols, cols + sphere.half)[:1 + antipodal]]
        table = np.empty((len(r), len(kept)))
        step = max(1, _FILL_DOUBLES // (rings * len(kept))) * rings
        for lo in range(0, len(table), step):
            rows = slice(lo, lo + step)
            for k, part in enumerate(parts):
                x = table[rows] if k == 0 else np.empty_like(table[rows])
                x.reshape(-1, *part.shape)[:] = part
                x *= r[rows]
                x += sq[rows]
                x **= (a - n) / 2.0
                x *= scale[rows]
                if k:
                    table[rows] += x
        tables.append(table)
    # rotation class (ring, az mod us) of each column, with tau and -tau merged
    tau = az_s[cols] % us
    orbit = np.unique(ring_s[cols] * us + np.minimum(tau, -tau % us), return_inverse=True)[1]
    return tuple(tables), gather, tuple(columns), orbit, ub


@dataclass(eq=False)
class ExtensionOperator:
    """Balanced discretization of the extension/adjoint pair.

    The balanced kernel is stored once per (shell, ring, azimuthal residue)
    and antipodal and mirror column pair.  Column i is sphere node i,
    folded with its partner i + N/2: `kernel_table[u]` is the table of
    residue class u, for the table rows u::residues, and its columns are
    the class's kept columns `fold_columns[u][0]` (all below N/2), each
    adding the input of its mirror column in `fold_columns[u][1]`, if it
    has one; row i of `gather_index` is node i turned by each m.  See the
    module docstring; the solver calls `power_adjoint` and `bulk_energy`
    only.  `row_weights` is the ball weight of each table row.  `row_scale`
    (per table row) and `col_scale` (per sphere node) are the scalings
    folded into the tables; `_scale` multiplies them into the folded tables
    at build time and into the general pair's tables, over all columns, on
    that pair's first call.  No array of ball length is held.
    """

    params: ProblemParams
    sphere: SphereQuadrature
    ball: BallQuadrature
    # populated at build time
    kernel_table: tuple = field(init=False, repr=False)
    gather_index: np.ndarray = field(init=False, repr=False)
    fold_columns: tuple = field(init=False, repr=False)
    residues: int = field(init=False)
    row_weights: np.ndarray = field(init=False, repr=False)
    row_scale: np.ndarray = field(init=False, repr=False)
    col_scale: np.ndarray = field(init=False, repr=False)
    balance_iterations: int = field(init=False)
    balance_row_dev: float = field(init=False)
    balance_col_dev: float = field(init=False)
    # (tables, gather index, columns) over all columns, for the general pair
    _general: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sphere.n != self.params.n or self.ball.n != self.params.n:
            raise ValueError("quadrature dimensions do not match the parameters")
        (self.kernel_table, self.gather_index, self.fold_columns, orbit,
         self.residues) = _kernel_table(self.sphere, self.ball, self.params)
        mass = kernel_ball_sphere_mass(self.ball.radii, self.params)
        # one angular weight per upper ring: a node's weight depends on its ring alone
        ang = self.ball.angular
        rings = ang.weights[:ang.half:ang.layout[3]]
        self.row_weights = (self.ball.shell_weights[:, None]
                            * np.repeat(rings, self.residues)).flatten()
        # a row's target is the mass at its shell's radius.  The column target
        # is the exact ball sum of W mass over the sphere's area; a row's
        # nodes share its weight and radius, so that sum's terms are each
        # row's term once per turn in each half, the upper half's sum doubled
        psi = np.repeat(mass[:self.ball.half:ang.half], len(rings) * self.residues)
        terms = np.repeat(self.row_weights * psi, self.gather_index.shape[1])
        self._balance(orbit, psi, 2.0 * exact_sum(terms) / self.sphere.area)

    # -- upper-half class products (exact pair symmetry, see module docstring) --

    @property
    def _folded(self) -> tuple:
        """(kernel_table, fold_columns): the tables and columns of the solver's products."""
        return self.kernel_table, self.fold_columns

    def _class_input(self, y: np.ndarray, columns: tuple, u: int) -> np.ndarray:
        """Class u's product input: y at its kept columns plus y at their mirrors."""
        kept, mirror, _ = columns[u]
        x = y[kept]
        x[:len(mirror)] += y[mirror]
        return x

    def _fold_product(self, y: np.ndarray, tables: tuple, columns: tuple) -> np.ndarray:
        """Class tables times y, one value (or row of turns) per column of `columns`.

        Class u writes its rows u::residues of the result: one product per class.
        """
        out = np.empty((len(self.row_weights),) + y.shape[1:])
        for u, table in enumerate(tables):
            np.matmul(table, self._class_input(y, columns, u), out=out[u::self.residues])
        return out

    def _spread_sum(self, class_rows, tables: tuple, columns: tuple) -> np.ndarray:
        """Sum over the classes u of tables[u].T @ class_rows(u), one value (or row) per column.

        The kept column of a mirror pair gives its value to both columns.
        Each class's rows are released before the next class's are made, and
        later classes add in place: transient arrays past glibc malloc's trim
        threshold would go back to the system and fault in again every call.
        """
        out = None
        for u, (table, (kept, mirror, spread)) in enumerate(zip(tables, columns)):
            t = table.T @ class_rows(u)
            if out is None:
                out = t[spread]
            else:
                out[kept] += t
                out[mirror] += t[:len(mirror)]
        return out

    def _fold_transpose(self, z: np.ndarray, tables: tuple, columns: tuple) -> np.ndarray:
        """Transpose of _fold_product: one value (or row) per column."""
        return self._spread_sum(lambda u: z[u::self.residues], tables, columns)

    def _table_layout(self, z: np.ndarray) -> np.ndarray:
        """Upper-half ball values, ball order (shell, ring, m, u) -> table rows x columns m."""
        turns = self.gather_index.shape[1]
        return z.reshape(-1, turns, self.residues).transpose(0, 2, 1).reshape(-1, turns)

    def _ball_order(self, t: np.ndarray) -> np.ndarray:
        """Inverse of _table_layout: table rows x columns m -> ball order (shell, ring, m, u)."""
        return t.reshape(-1, self.residues, t.shape[1]).transpose(0, 2, 1).ravel()

    def _balance(self, orbit: np.ndarray, psi: np.ndarray, theta: float) -> None:
        """Sinkhorn on the orbit sums to row targets psi and column target theta.

        orbit numbers the folded columns by their nodes' orbit, which shares
        one column scale (`_kernel_table`).  sums[r, o] adds row r's columns
        of orbit o, the kept column of a mirror pair twice: the one product
        pass over the tables before the scalings are folded into them.  With
        one sphere weight w and one scale e per orbit, each sweep sets
        d = psi / (sums @ (w e)) and e = theta over the column sums of d: an
        orbit's is its total (d W) sums over its folded columns (each
        gathers every node of a rotation class once, itself or its antipode)
        divided by the rotation classes it merges, one or two.  The row sums
        of the deviation check are the next sweep's.
        """
        share = self.gather_index.shape[1] / np.bincount(orbit)
        # each column's orbit indicator: a kept column adds its mirror's
        sums = self._fold_product(np.eye(len(share))[orbit], *self._folded)
        w = self.sphere.weights[np.unique(orbit, return_index=True)[1]]
        rows = sums @ w
        for iters in range(1, _SINKHORN_MAX_ITER + 1):
            d = psi / rows
            # a reduction of its own: BLAS's 1-D transpose product splits by thread
            cols = share * np.einsum("r,ro->o", d * self.row_weights, sums)
            e = theta / cols
            rows = sums @ (w * e)
            row_dev = np.max(np.abs(d * rows / psi - 1.0))
            if row_dev < _SINKHORN_TOL:
                break
        self.balance_iterations = iters
        self.balance_row_dev = float(row_dev)
        self.balance_col_dev = float(np.max(np.abs(e * cols / theta - 1.0)))
        self.row_scale = d
        self.col_scale = np.tile(e[orbit], 2)
        self._scale(self.kernel_table, self.fold_columns)

    def _scale(self, tables: tuple, columns: tuple) -> None:
        """Multiply row_scale, then col_scale, into class tables over `columns`, in place."""
        for u, (table, (kept, _, _)) in enumerate(zip(tables, columns)):
            table *= self.row_scale[u::self.residues, None]
            table *= self.col_scale[kept]

    # -- table-layout pair: the one half-product, the solver's path --

    @property
    def table_shape(self) -> tuple[int, int]:
        """(table rows, turns): the shape of extend_table's output and adjoint_table's input."""
        return len(self.row_weights), self.gather_index.shape[1]

    def _gathered(self, v: np.ndarray, name: str) -> np.ndarray:
        """(w v)[gather_index] of an antipodal v; ValueError naming `name` if not."""
        v = _checked(v, (len(self.sphere),), f"{name} needs v of shape")
        self.sphere.check_antipodal(v, f"{name} needs an antipodal v")
        return (self.sphere.weights * v)[self.gather_index]

    def _scatter(self, t: np.ndarray) -> np.ndarray:
        """T F on the sphere nodes from the per-folded-column sums t of F's upper half."""
        up = np.bincount(self.gather_index.ravel(), weights=t.ravel(),
                         minlength=len(self.sphere))
        return up + up[self.sphere.antipode_index]

    def extend_table(self, v: np.ndarray) -> np.ndarray:
        """E v at the upper ball nodes in table layout, for an antipodal v.

        Row (shell, ring, u), column m holds the value at the upper ball
        node (shell, ring, m, u); the lower half of E v has the same bits
        (module docstring).  Raises ValueError if v does not have the
        sphere's shape, or if its two halves differ in any bit, since the
        folded tables would then be wrong.
        """
        return self._fold_product(self._gathered(v, "extend_table"), *self._folded)

    def adjoint_table(self, z: np.ndarray) -> np.ndarray:
        """T F of the antipodal F whose upper half is z, in the layout of extend_table."""
        z = _checked(z, self.table_shape, "adjoint_table needs z of the table shape")
        return self._scatter(self._fold_transpose(self.row_weights[:, None] * z, *self._folded))

    def power_adjoint(self, v: np.ndarray, q: float) -> np.ndarray:
        """T[(E v)^q] of an antipodal v >= 0: adjoint_table(extend_table(v) ** q) in one pass.

        Each residue class runs its forward product, raises it to q, weights
        it and runs its transpose product before the next class starts, so
        no full table-layout array is formed.  The power is
        `_power_inplace`: the two-call form's bits for a non-integer q, and
        within q eps of them relative in each term for an integer q.
        Raises ValueError as extend_table does.
        """
        y = self._gathered(v, "power_adjoint")

        def weighted_power(u):
            z = self.kernel_table[u] @ self._class_input(y, self.fold_columns, u)
            _power_inplace(z, q)
            z *= self.row_weights[u::self.residues, None]
            return z

        return self._scatter(self._spread_sum(weighted_power, *self._folded))

    def bulk_energy(self, v: np.ndarray, q: float) -> float:
        """Ball integral of E v (E v)^q, the bulk energy |E v|^(q + 1), of an antipodal v >= 0.

        (E v)^q is `_power_inplace`'s.  The exact sum runs on the upper half,
        one ball weight per table row, and is doubled: the full integrand's
        `math.fsum` bit for bit while every term lies below 2^900 (the
        `quadrature` module docstring).  Raises ValueError as extend_table does.
        """
        z = self._fold_product(self._gathered(v, "bulk_energy"), *self._folded)
        z *= _power_inplace(z.copy(), q)
        z *= self.row_weights[:, None]
        return 2.0 * exact_sum(z.ravel())

    # -- general pair: any input, through the class tables over all columns --

    def _general_tables(self) -> tuple:
        """(tables, gather index, columns) over all columns, balanced; built on the first call."""
        if self._general is None:
            tables, gather, columns = _kernel_table(self.sphere, self.ball, self.params,
                                                    antipodal=False)[:3]
            self._scale(tables, columns)
            self._general = tables, gather, columns
        return self._general

    def extend_values(self, v: np.ndarray) -> np.ndarray:
        y = self.sphere.weights * _checked(v, (len(self.sphere),),
                                           "extend_values needs v of shape")
        tables, gather, columns = self._general_tables()
        return np.concatenate([self._ball_order(self._fold_product(w[gather], tables, columns))
                               for w in (y, y[self.sphere.antipode_index])])

    def adjoint_values(self, f: np.ndarray) -> np.ndarray:
        z = self.ball.weights * _checked(f, (len(self.ball),), "adjoint_values needs f of shape")
        tables, gather, columns = self._general_tables()
        up, down = (np.bincount(gather.ravel(), minlength=len(self.sphere),
                                weights=self._fold_transpose(self._table_layout(h), tables,
                                                             columns).ravel())
                    for h in (z[:self.ball.half], z[self.ball.half:]))
        return up + down[self.sphere.antipode_index]

    def diagnostics(self) -> dict:
        return {
            "delta_min": self.ball.delta_min,
            "balance_iterations": self.balance_iterations,
            "balance_row_dev": self.balance_row_dev,
            "balance_col_dev": self.balance_col_dev,
            "max_row_scale_dev": float(np.max(np.abs(self.row_scale - 1.0))),
            "max_col_scale_dev": float(np.max(np.abs(self.col_scale - 1.0))),
        }


@functools.lru_cache(maxsize=1)
def build_extension_operator(
    sphere: SphereQuadrature,
    ball: BallQuadrature,
    params: ProblemParams,
) -> ExtensionOperator:
    """Build the extension operator, or return the one cached for these arguments.

    Only the last one is kept, keyed by the rules' identity and the
    parameters' value: every caller asks again only for the operator it
    built last.  A keyword call is cached under a key of its own.
    """
    return ExtensionOperator(params, sphere, ball)


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
