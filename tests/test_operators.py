import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special
from scipy.integrate import quad

import poissonext as px
from poissonext.config import parse_config
from poissonext.fields import _real_sph_design
from poissonext.operators import _kernel_table, _power_inplace
from poissonext.quadrature import _same_bits, write_csv


def theta_oracle(params):
    """Radial oracle for the ball mass of the kernel (adjoint of constants)."""
    val, err = quad(
        lambda r: r ** (params.n - 1) * px.kernel_ball_sphere_mass(r, params),
        0.0, 1.0, limit=400, points=[1.0 - 1e-9],
    )
    assert err < 1e-10
    return val


def scipy_real_harmonics(points, degree):
    """Real harmonics from scipy, with its Condon-Shortley phase undone."""
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    cols = []
    for ell in range(degree + 1):
        cols.append(special.sph_harm_y(ell, 0, theta, phi).real)
        for m in range(1, ell + 1):
            y = (-1) ** m * np.sqrt(2.0) * special.sph_harm_y(ell, m, theta, phi)
            cols += [y.real, y.imag]
    return np.stack(cols, axis=1)


def random_unit_points(rng, count):
    pts = rng.normal(size=(count, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestExtendBall:
    def test_classical_constant_extension_is_one(self, op_3d, sphere_3d):
        field = op_3d.extend_values(np.ones(len(sphere_3d)))
        assert np.max(np.abs(field - 1.0)) < 1e-6

    def test_constant_extension_matches_sphere_mass(self, op_2d, sphere_2d, ball_2d, params_2d):
        field = op_2d.extend_values(np.ones(len(sphere_2d)))
        expected = px.kernel_ball_sphere_mass(ball_2d.radii, params_2d)
        assert np.max(np.abs(field - expected)) < 1e-10

    def test_value_at_center_for_general_a(self, sphere_2d, params_2d):
        one = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        val = px.extend_at_points(one, np.zeros((1, 2)), params_2d)[0]
        assert val == pytest.approx(px.ball_prefactor(params_2d) * 2 * np.pi, rel=1e-12)

    def test_points_on_or_outside_the_sphere_rejected(self, sphere_2d, params_2d):
        one = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        for point in ([1.0, 0.0], [0.0, -1.5]):
            with pytest.raises(ValueError, match="interior"):
                px.extend_at_points(one, np.array([[0.0, 0.0], point]), params_2d)

    def test_linearity(self, op_2d, sphere_2d, rng):
        v1 = rng.normal(size=len(sphere_2d))
        v2 = rng.normal(size=len(sphere_2d))
        lhs = op_2d.extend_values(2.5 * v1 - 0.3 * v2)
        rhs = 2.5 * op_2d.extend_values(v1) - 0.3 * op_2d.extend_values(v2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_positivity_exact_including_spikes(self, op_2d, sphere_2d, rng):
        # adversarial single-node data: positivity must hold elementwise
        for j in (0, 1, len(sphere_2d) // 2):
            spike = np.zeros(len(sphere_2d))
            spike[j] = 1.0
            assert np.all(op_2d.extend_values(spike) > 0)
        smooth = np.abs(rng.normal(size=len(sphere_2d)))
        assert np.all(op_2d.extend_values(smooth) > 0)

    def test_quadrature_mismatch_rejected(self, op_2d, params_2d):
        other = px.build_sphere_quadrature(params_2d, 32)
        with pytest.raises(ValueError):
            op_2d.extend_values(np.ones(len(other)))

    def test_interior_point_accuracy_against_fine_reference(self, params_2d, rng):
        # pure point evaluation converges spectrally in the sphere resolution
        coarse = px.build_sphere_quadrature(params_2d, 64)
        fine = px.build_sphere_quadrature(params_2d, 256)
        theta_c = np.arctan2(coarse.nodes[:, 1], coarse.nodes[:, 0])
        theta_f = np.arctan2(fine.nodes[:, 1], fine.nodes[:, 0])
        fun = lambda t: 1.0 + 0.4 * np.cos(2 * t) - 0.2 * np.sin(3 * t)
        pts = 0.7 * rng.normal(size=(20, 2))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True) / 0.6)
        vc = px.BoundaryFunction(fun(theta_c), coarse)
        vf = px.BoundaryFunction(fun(theta_f), fine)
        ec = px.extend_at_points(vc, pts, params_2d)
        ef = px.extend_at_points(vf, pts, params_2d)
        assert np.max(np.abs(ec - ef)) < 1e-9


class TestAdjointAndDuality:
    def test_duality_random(self, op_3d, sphere_3d, ball_3d, rng):
        v = rng.random(len(sphere_3d))
        f = rng.random(len(ball_3d))
        # general inputs, then antipodal ones, which take one table product per call
        for v, f in ((v, f), (np.tile(v[:sphere_3d.half], 2), np.tile(f[:ball_3d.half], 2))):
            lhs = np.dot(ball_3d.weights, op_3d.extend_values(v) * f)
            rhs = np.dot(sphere_3d.weights, v * op_3d.adjoint_values(f))
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_adjoint_of_constants_matches_radial_oracle(self, op_3d, ball_3d, params_3d):
        t1 = op_3d.adjoint_values(np.ones(len(ball_3d)))
        assert t1 == pytest.approx(theta_oracle(params_3d), abs=1e-8)

    def test_adjoint_of_constants_classical_third(self, op_3d, ball_3d):
        # n=3, a=0: the ball mass of the kernel is exactly 1/3
        t1 = op_3d.adjoint_values(np.ones(len(ball_3d)))
        assert np.max(np.abs(t1 - 1.0 / 3.0)) < 1e-9

    def test_adjoint_of_constants_2d(self, op_2d, ball_2d, params_2d):
        t1 = op_2d.adjoint_values(np.ones(len(ball_2d)))
        assert t1 == pytest.approx(theta_oracle(params_2d), abs=1e-8)

    def test_adjoint_positivity(self, op_2d, ball_2d, rng):
        f = np.abs(rng.normal(size=len(ball_2d)))
        assert np.all(op_2d.adjoint_values(f) > 0)
        spike = np.zeros(len(ball_2d))
        spike[-1] = 1.0
        assert np.all(op_2d.adjoint_values(spike) > 0)


# (n, a, sphere resolution, ball angular resolution); the second n = 2 case
# has gcd(24, 36) = 12 < 24, the second n = 3 case unequal azimuth counts
STRUCTURED_CASES = [(2, 0.5, 16, 32), (2, 0.5, 24, 36), (3, 0.0, 8, 8), (3, -0.5, 8, 12)]


def _structured_op(case):
    n, a, res, ang = case
    params = px.ProblemParams(n, a)
    sphere = px.build_sphere_quadrature(params, res)
    return px.ExtensionOperator(params, sphere, px.build_ball_quadrature(params, 24, ang))


def column_gather(op):
    """op.gather_index in its column layout, sphere-half rows x turns, from its turn blocks."""
    half = op.sphere.half
    return np.concatenate([op.gather_index[half * lo:half * hi].reshape(half, hi - lo)
                           for lo, hi in op.turn_blocks], axis=1)


def _blocked_op(case, turns_per_block):
    """The operator of `case` built with turn blocks of at most `turns_per_block` turns."""
    half = px.build_sphere_quadrature(px.ProblemParams(*case[:2]), case[2]).half
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(px.operators, "_FILL_DOUBLES", half * turns_per_block)
        return _structured_op(case)


def _assert_scales_are_the_loops(op, area):
    """d and e of op are the bits of the Sinkhorn loop on the orbit sums, theta over `area`."""
    params, sphere, ball = op.params, op.sphere, op.ball
    # sums[r, o] = sum over class u's kept columns k of orbit o of
    # (1 + [k has a mirror]) kernel_table[u][r, k]
    orbit, turns = _kernel_table(sphere, ball, params)[3], op.table_shape[1]
    size = np.bincount(orbit)
    sums = np.empty((op.table_shape[0], len(size)))
    for u, (table, (kept, mirror, _)) in enumerate(zip(_kernel_table(sphere, ball, params)[0],
                                                       op.fold_columns)):
        fold = np.zeros((len(kept), len(size)))
        fold[np.arange(len(kept)), orbit[kept]] = 1.0 + (np.arange(len(kept)) < len(mirror))
        sums[u::op.residues] = table @ fold
    w = sphere.weights[[np.flatnonzero(orbit == o)[0] for o in range(len(size))]]
    mass = px.kernel_ball_sphere_mass(ball.radii, params)
    rows_per_shell = op.table_shape[0] // len(ball.shell_radii)
    psi = np.repeat(mass[:ball.half:ball.angular.half], rows_per_shell)
    theta = px.integrate_ball(mass, ball) / area
    e = np.ones(len(size))
    for iters in range(1, px.operators._SINKHORN_MAX_ITER + 1):
        d = psi / (sums @ (w * e))
        e = theta / ((turns / size) * np.einsum("r,ro->o", d * op.row_weights, sums))
        if np.max(np.abs(d * (sums @ (w * e)) / psi - 1.0)) < px.operators._SINKHORN_TOL:
            break
    assert iters == op.balance_iterations
    assert d.tobytes() == op.row_scale.tobytes()
    # e is one value per orbit, at each node of it and at its antipode
    assert e[orbit].tobytes() == op.col_scale[:sphere.half].tobytes()
    assert e[orbit].tobytes() == op.col_scale[sphere.half:].tobytes()


@pytest.fixture(scope="module", params=STRUCTURED_CASES, ids=lambda c: "n%d-a%g-S%d-A%d" % c)
def small_op(request):
    return _structured_op(request.param)


@pytest.fixture(scope="module", params=[STRUCTURED_CASES[0], STRUCTURED_CASES[3]],
                ids=lambda c: "n%d-a%g-S%d-A%d" % c)
def antipodal_op(request):
    return _structured_op(request.param)


def dense_sinkhorn(raw, op, tol=1e-13, max_iter=500):
    """Row and column scalings of the full ball x sphere matrix `raw`.

    The reference balancing: the same targets and update order as the
    operator, with every marginal a dense matrix product.
    """
    sw, bw = op.sphere.weights, op.ball.weights
    psi = px.kernel_ball_sphere_mass(op.ball.radii, op.params)
    theta = np.dot(bw, psi) / sw.sum()
    d, e = np.ones(len(bw)), np.ones(len(sw))
    for _ in range(max_iter):
        d *= psi / (d * (raw @ (sw * e)))
        e *= theta / (e * ((d * bw) @ raw))
        if np.max(np.abs(d * (raw @ (sw * e)) / psi - 1.0)) < tol:
            return d, e
    raise AssertionError(f"dense Sinkhorn did not reach {tol}")


def at_upper_nodes(op, per_row):
    """One value per table row (shell, ring, u), repeated at its upper ball nodes in ball order."""
    return np.repeat(per_row.reshape(-1, 1, op.residues), op.table_shape[1], axis=1).ravel()


def ball_row_scale(op):
    """row_scale at every ball node."""
    return np.tile(at_upper_nodes(op, op.row_scale), 2)


def antipodal_draw(data, rule, elements=st.floats(-1e6, 1e6)):
    """Values at the nodes of `rule` whose two halves hold the same bits."""
    return np.tile(data.draw(hnp.arrays(float, rule.half, elements=elements)), 2)


def _one_shell(ball, k):
    """Shell k of `ball` alone, as the duck-typed rule `_kernel_table` reads."""
    return types.SimpleNamespace(shell_radii=ball.shell_radii[k:k + 1],
                                 shell_weights=ball.shell_weights[k:k + 1], angular=ball.angular)


def max_rel(got, want):
    return np.max(np.abs(got / want - 1.0))


def assert_fold_agrees(fold, general, magnitude, terms):
    """The folded and the general product of the same input agree to roundoff.

    `magnitude` is the general product of the input's absolute values, and
    `terms` the number of products the general pair sums per output.  A
    sum of k terms in any order is within (k - 1) u of the sum of their
    absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2), u = 2^-53.  The general pair sums
    `terms` products of entries rounded twice (row and column scaling), the
    folded pair half as many of entries rounded three times (the pair sum
    first), so the two differ by at most (3 terms / 2 + 5) u times the
    magnitude while nothing underflows.  A product that underflows adds an
    absolute error of at most 2^-1075 (Higham, section 2.1; sums of
    subnormals are exact).  Both paths multiply the same weighted input,
    so only the table products underflow: at most `terms` of them in each
    of the general, the folded and the magnitude sums, which the term
    2 terms 2^-1074 covers.
    """
    bound = (1.5 * terms + 5) * 2.0 ** -53 * magnitude + 2 * terms * 2.0 ** -1074
    assert np.all(np.abs(fold - general) <= bound)


class TestStructuredProducts:
    """The balanced kernel table against the dense kernel matrix it replaces."""

    def test_raw_products_match_dense_oracle(self, small_op, rng):
        # the raw dense kernel with the recorded scalings against the folded table
        op = small_op
        dense = (ball_row_scale(op)[:, None]
                 * px.kernel_ball(op.sphere.nodes[None], op.ball.nodes[:, None], op.params)
                 * op.col_scale)
        y = rng.random(len(op.sphere))
        z = rng.random(len(op.ball))
        inner = op.ball.radii < 0.999
        # the oracle's own coordinate roundoff reaches ~1e-9 at the outer shells
        ext_err = np.abs(op.extend_values(y) / (dense @ (op.sphere.weights * y)) - 1.0)
        assert np.max(ext_err[inner]) <= 1e-12
        assert np.max(ext_err) <= 1e-8
        z_inner = np.where(inner, z, 0.0)
        assert max_rel(op.adjoint_values(z_inner), (op.ball.weights * z_inner) @ dense) <= 1e-12
        assert max_rel(op.adjoint_values(z), (op.ball.weights * z) @ dense) <= 1e-8

    @pytest.mark.parametrize("case", STRUCTURED_CASES + [(3, -0.5, 12, 8), (2, 0.5, 96, 64)],
                             ids=lambda c: "n%d-a%g-S%d-A%d" % c)
    def test_balance_matches_dense_sinkhorn(self, case, rng):
        # every orbit layout: 1-3 residue classes, classes without an in-grid
        # mirror, and orbits that merge two rotation classes (3 sphere
        # azimuths per turn)
        op = _structured_op(case)
        raw = px.kernel_ball(op.sphere.nodes[None], op.ball.nodes[:, None], op.params)
        d, e = dense_sinkhorn(raw, op)
        assert max_rel(ball_row_scale(op), d) <= 1e-10
        assert max_rel(op.col_scale, e) <= 1e-10
        balanced = d[:, None] * raw * e
        y = rng.random(len(op.sphere))
        z = rng.random(len(op.ball))
        assert max_rel(op.extend_values(y), balanced @ (op.sphere.weights * y)) <= 1e-10
        assert max_rel(op.adjoint_values(z), (op.ball.weights * z) @ balanced) <= 1e-10

    def test_balance_runs_no_operator_product(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("operator product during the build")

        for name in ("extend_values", "adjoint_values", "extend_table", "adjoint_table",
                     "power_adjoint", "bulk_energy", "_general_tables"):
            monkeypatch.setattr(px.ExtensionOperator, name, forbidden)
        params = px.ProblemParams(3, -0.5)
        op = px.ExtensionOperator(params, px.build_sphere_quadrature(params, 8),
                                  px.build_ball_quadrature(params, 24, 12))
        assert op.balance_iterations > 1

    def test_point_mass_at_every_node_stays_positive(self, small_op):
        # a single mass has halves that differ, an antipodal pair equal halves
        op = small_op
        for rule, apply in ((op.sphere, op.extend_values), (op.ball, op.adjoint_values)):
            for j in range(len(rule)):
                spike = np.zeros(len(rule))
                spike[j] = 1.0
                assert np.all(apply(spike) > 0)
                spike[rule.antipode_index[j]] = 1.0
                assert np.all(apply(spike) > 0)

    def test_table_owns_its_memory_at_the_dense_mac_count(self, small_op):
        # class u multiplies its rows by its kept folded columns: one per
        # mirror pair, each serving a column and its antipodal partner
        op, half = small_op, small_op.sphere.half
        rows, turns = op.table_shape
        # the gather index is stored block-major: block (lo, hi) holds the
        # columns' turns lo:hi in C order at offset half * lo
        assert op.gather_index.base is None and op.gather_index.shape == (half * turns,)
        assert op.turn_blocks == ((0, turns),)
        assert np.array_equal(column_gather(op), _kernel_table(op.sphere, op.ball, op.params)[1])
        for block, (lo, hi) in zip(op._blocks, op.turn_blocks):
            assert block.gather.base is op.gather_index and block.gather.shape == (half, hi - lo)
        assert len(op.kernel_table) == len(op.fold_columns) == op.residues
        for table, (kept, mirror, _) in zip(op.kernel_table, op.fold_columns):
            assert table.base is None and table.flags.c_contiguous
            assert table.shape == (rows // op.residues, op.sphere.half - len(mirror)) == (
                rows // op.residues, len(kept))
        macs = sum(table.size for table in op.kernel_table) * turns
        dense = op.ball.half * len(op.sphere)
        assert 4 * macs > dense and 2 * macs <= dense

    @pytest.mark.parametrize("n, a, sphere_res, ball_res",
                             [(2, 0.5, 32, 64), (3, -0.5, 8, 12), (3, -0.5, 12, 8)])
    def test_tables_are_the_bits_of_a_loop_over_shells(self, n, a, sphere_res, ball_res):
        # the reference builds each shell's rows alone, on a one-shell ball:
        # the one array pass over all shells must round each entry as it does
        params = px.ProblemParams(n, a)
        sphere = px.build_sphere_quadrature(params, sphere_res)
        ball = px.build_ball_quadrature(params, 12, ball_res)
        for antipodal in (True, False):
            shells = [_kernel_table(sphere, _one_shell(ball, k), params, antipodal)[0]
                      for k in range(len(ball.shell_radii))]
            for u, table in enumerate(_kernel_table(sphere, ball, params, antipodal)[0]):
                assert table.base is None
                assert _same_bits(table, np.concatenate([shell[u] for shell in shells]))

    @pytest.mark.parametrize("block", [1, 5])
    @pytest.mark.parametrize("n, a, sphere_res, ball_res",
                             [(2, 0.5, 32, 64), (3, -0.5, 8, 12), (3, -0.5, 12, 8)])
    def test_shell_blocks_are_the_bits_of_a_loop_over_shells(self, monkeypatch, block, n, a,
                                                             sphere_res, ball_res):
        # class u's fill takes `block` shells at a time; 12 shells in blocks
        # of 5 leave a ragged last block of 2
        params = px.ProblemParams(n, a)
        sphere = px.build_sphere_quadrature(params, sphere_res)
        ball = px.build_ball_quadrature(params, 12, ball_res)
        for antipodal in (True, False):
            shells = [_kernel_table(sphere, _one_shell(ball, k), params, antipodal)[0]
                      for k in range(len(ball.shell_radii))]
            for u, (kept, _, _) in enumerate(_kernel_table(sphere, ball, params, antipodal)[2]):
                rings = len(shells[0][u])
                monkeypatch.setattr(px.operators, "_FILL_DOUBLES", block * rings * len(kept))
                table = _kernel_table(sphere, ball, params, antipodal)[0][u]
                assert _same_bits(table, np.concatenate([shell[u] for shell in shells]))

    def test_fill_holds_at_most_1_mib_beyond_what_it_returns(self):
        # the n3-balance-solve rules: the folded tables are 1.5 MiB, one fill
        # block 0.25 MiB
        params = px.ProblemParams(3, -0.5)
        sphere = px.build_sphere_quadrature(params, 20)
        ball = px.build_ball_quadrature(params, 96, 20)
        for antipodal in (True, False):
            tracemalloc.start()
            try:
                tables, gather, columns, orbit, _ = _kernel_table(sphere, ball, params, antipodal)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(x.nbytes for x in (*tables, gather, orbit, *sum(columns, ())))
            assert peak - held <= 2 ** 20

    def test_scaling_is_one_blocked_pass_with_the_bits_of_two(self, balance_op):
        # the n3-balance-solve rules: a 960 x 210 class table, scaled in row
        # blocks of 156 rows (the last of 24), must hold the bits of
        # multiplying the whole table by d, then by e
        op = balance_op
        raw = _kernel_table(op.sphere, op.ball, op.params)[0]
        for u, (table, (kept, _, _)) in enumerate(zip(raw, op.fold_columns)):
            assert table.size > 2 * px.operators._FILL_DOUBLES
            table *= op.row_scale[u::op.residues, None]
            table *= op.col_scale[kept]
            assert table.tobytes() == op.kernel_table[u].tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_rules_run_at_most_0_27_of_the_dense_macs(self, n):
        quad = parse_config({"params": {"n": n, "a": 0.5}}).quadrature
        params = px.ProblemParams(n, 0.5)
        sphere = px.build_sphere_quadrature(params, quad["sphere_resolution"])
        ball = px.build_ball_quadrature(params, 8, quad["ball_angular_resolution"])
        tables, gather = _kernel_table(sphere, ball, params)[:2]
        macs = sum(table.size for table in tables) * gather.shape[1]
        assert macs <= 0.27 * ball.half * len(sphere)

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_rules_general_tables_hold_at_most_0_55_of_the_unfolded_table(self, n):
        # the general pair's tables keep every column, one per mirror pair in
        # each class; the unfolded table has table rows x sphere nodes entries
        quad = parse_config({"params": {"n": n, "a": 0.5}}).quadrature
        params = px.ProblemParams(n, 0.5)
        sphere = px.build_sphere_quadrature(params, quad["sphere_resolution"])
        ball = px.build_ball_quadrature(params, 8, quad["ball_angular_resolution"])
        tables = _kernel_table(sphere, ball, params, antipodal=False)[0]
        rows = sum(len(table) for table in tables)
        assert sum(table.size for table in tables) <= 0.55 * rows * len(sphere)

    def test_balance_carries_the_checked_row_sums(self, monkeypatch):
        # the build runs one product per class table, then scales each in
        # place; d and e are the bits of the loop on the orbit sums, which
        # carries the checked row sums to the next iteration
        events = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
                # record the ufunc, run it on plain arrays; an in-place one
                # returns its counted output
                events.append(ufunc.__name__)
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs + out]
                if out:
                    kwargs["out"] = tuple(plain[len(inputs):])
                result = getattr(ufunc, method)(*plain[:len(inputs)], **kwargs)
                return out[0] if out else result

        kernel_table = px.operators._kernel_table

        def counted_tables(*args):
            tables, *rest = kernel_table(*args)
            return (tuple(t.view(Counted) for t in tables), *rest)

        monkeypatch.setattr(px.operators, "_kernel_table", counted_tables)
        params = px.ProblemParams(3, -0.5)
        sphere = px.build_sphere_quadrature(params, 8)
        ball = px.build_ball_quadrature(params, 24, 12)
        op = px.ExtensionOperator(params, sphere, ball)
        assert op.residues == 3 and op.balance_iterations > 1
        assert events == ["matmul"] * op.residues + ["multiply", "multiply"] * op.residues
        _assert_scales_are_the_loops(op, sphere.area)

    @pytest.mark.parametrize("case", [(3, -0.5, 16, 16), (2, 0.5, 128, 64)],
                             ids=lambda c: "n%d-a%g-S%d-A%d" % c)
    def test_column_target_is_over_the_exact_area(self, case):
        # at these sphere rules the pairwise weights.sum() is an ulp off the
        # exact sum, which alone gives the build's bits
        op = _structured_op(case)
        _assert_scales_are_the_loops(op, math.fsum(op.sphere.weights.tolist()))

    @pytest.mark.parametrize("case", [STRUCTURED_CASES[1], (2, 0.5, 96, 64)],
                             ids=lambda c: "n%d-a%g-S%d-A%d" % c)
    def test_column_scale_is_one_value_per_orbit(self, case):
        # the turns, the antipode and the mirror about azimuth 0 map both
        # rules onto themselves, so the scale of a node is the scale of its
        # orbit, bit for bit, and both members of a mirror pair get it
        op = _structured_op(case)
        e = op.col_scale[:op.sphere.half]
        orbits = _kernel_table(op.sphere, op.ball, op.params)[3]
        for orbit in np.unique(orbits):
            assert len(np.unique(e[orbits == orbit])) == 1
        for kept, mirror, _ in op.fold_columns:
            assert e[kept[:len(mirror)]].tobytes() == e[mirror].tobytes()

    def test_general_table_is_built_on_the_first_general_call_and_kept(self):
        op = _structured_op(STRUCTURED_CASES[3])
        assert op._general is None
        ext = op.extend_values(np.ones(len(op.sphere)))
        tables, gather, columns = op._general
        # every column, each class keeping one per mirror pair
        assert np.array_equal(gather[:, 0], np.arange(len(op.sphere)))
        assert np.array_equal(column_gather(op)[:, 0], np.arange(op.sphere.half))
        assert len(tables) == len(columns) == op.residues
        for table, (kept, mirror, _) in zip(tables, columns):
            assert table.base is None and table.shape == (op.table_shape[0] // op.residues,
                                                          len(op.sphere) - len(mirror))
        # the folded columns, then their partners, which gather the antipodes
        folded = column_gather(op)
        pairs = np.concatenate([folded, op.sphere.antipode_index[folded]])
        assert np.array_equal(gather, pairs)
        op.adjoint_values(np.ones(len(op.ball)))
        assert op._general[0] is tables
        assert max_rel(ext, px.kernel_ball_sphere_mass(op.ball.radii, op.params)) <= 1e-10

    def test_row_weights_are_the_upper_ball_weights(self, small_op):
        op = small_op
        assert op.row_weights.shape == (op.table_shape[0],) and op.row_weights.base is None
        upper_weights = op.ball.weights[:op.ball.half]
        assert at_upper_nodes(op, op.row_weights).tobytes() == upper_weights.tobytes()

    def test_operator_holds_no_ball_length_array(self, small_op):
        op = small_op
        lengths = {name: len(value) for name, value in vars(op).items()
                   if isinstance(value, np.ndarray)}
        assert lengths["row_scale"] == op.table_shape[0]
        assert lengths["col_scale"] == len(op.sphere)
        assert len(op.ball) not in lengths.values()
        # the ball rule holds its two factors only: shells and the angular rule
        ball = {name: len(value) for name, value in vars(op.ball).items()
                if isinstance(value, np.ndarray)}
        assert ball == {"shell_radii": len(op.ball) // len(op.ball.angular),
                        "shell_weights": len(op.ball) // len(op.ball.angular)}
        assert not {len(op.ball), op.ball.half} & set(ball.values())


class TestColumnNumbering:
    """Column i of every kernel table is sphere node i, on the sphere rule's layout."""

    # the last case has us = 3 sphere azimuths per ball turn (24 and 16 azimuths)
    @pytest.mark.parametrize("case", STRUCTURED_CASES + [(3, -0.5, 12, 8)],
                             ids=lambda c: "n%d-a%g-S%d-A%d" % c)
    def test_gather_row_i_is_node_i_turned_by_each_ball_turn(self, case):
        n, a, res, ang = case
        params = px.ProblemParams(n, a)
        sphere = px.build_sphere_quadrature(params, res)
        ball = px.build_ball_quadrature(params, 8, ang)
        _, ring, az, naz_s = sphere.layout
        g = math.gcd(naz_s, ball.angular.layout[3])
        for antipodal, count in ((True, sphere.half), (False, len(sphere))):
            gather = _kernel_table(sphere, ball, params, antipodal)[1]
            assert np.array_equal(gather[:, 0], np.arange(count))
            x, y = sphere.nodes[:count, 0], sphere.nodes[:count, 1]
            for m in range(gather.shape[1]):
                # m turns of us = naz_s / g sphere azimuths, a g-th of a revolution each
                assert np.array_equal(ring[gather[:, m]], ring[:count])
                assert np.array_equal(az[gather[:, m]], (az[:count] + m * naz_s // g) % naz_s)
                c, s = np.cos(2 * np.pi * m / g), np.sin(2 * np.pi * m / g)
                turned = sphere.nodes[gather[:, m]]
                assert np.max(np.abs(turned[:, 0] - (c * x - s * y))) <= 1e-12
                assert np.max(np.abs(turned[:, 1] - (s * x + c * y))) <= 1e-12
                assert np.array_equal(turned[:, 2:], sphere.nodes[:count, 2:])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("res", [4, 6, 16, 64])
    def test_built_in_rules_lie_on_their_layout(self, n, res):
        params = px.ProblemParams(n, 0.5)
        for rule in (px.build_sphere_quadrature(params, res),
                     px.build_ball_quadrature(params, 8, res).angular):
            cos, ring, az, naz = rule.layout
            assert naz == (res if n == 2 else 2 * res) and len(cos) == (1 if n == 2 else res)
            slots = np.zeros((len(cos), naz), dtype=int)
            np.add.at(slots, (ring, az), 1)
            assert np.all(slots == 1)
            phi = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
            assert np.max(np.abs(np.angle(np.exp(1j * (phi - 2 * np.pi * az / naz))))) <= 1e-12
            if n == 3:
                assert np.max(np.abs(rule.nodes[:, 2] - cos[ring])) <= 1e-12
            # a node's weight is its ring's, bit for bit: one weight per table row
            first = np.unique(ring, return_index=True)[1]
            assert _same_bits(rule.weights, rule.weights[first][ring])


class TestOperatorCache:
    def test_rules_compare_by_identity_and_key_the_cache(self, params_2d):
        s1, s2 = (px.build_sphere_quadrature(params_2d, 8) for _ in range(2))
        ball = px.build_ball_quadrature(params_2d, 18, 8)
        assert s1 == s1 and s1 != s2 and ball == ball
        assert len({s1, s2, ball}) == 3
        v = px.BoundaryFunction(np.ones(8), s1)
        assert v == v and v != px.BoundaryFunction(np.ones(8), s1)
        op = px.build_extension_operator(s1, ball, params_2d)
        assert px.build_extension_operator(s1, ball, px.ProblemParams(2, 0.5)) is op
        other = px.build_extension_operator(s2, ball, params_2d)
        assert other is not op and other.sphere is s2

    def test_building_another_operator_frees_the_cached_one(self, params_2d):
        # the cache keeps one operator: the first is gone once a second rule
        # pair's is built
        sphere = px.build_sphere_quadrature(params_2d, 8)
        first = weakref.ref(px.build_extension_operator(
            sphere, px.build_ball_quadrature(params_2d, 18, 8), params_2d))
        px.build_extension_operator(sphere, px.build_ball_quadrature(params_2d, 24, 8), params_2d)
        gc.collect()
        assert first() is None

    def test_operators_and_halfspace_grids_compare_by_identity(self, params_2d):
        # array fields must not take part in == or hash
        s = px.build_sphere_quadrature(params_2d, 8)
        ball = px.build_ball_quadrature(params_2d, 18, 8)
        op1, op2 = (px.ExtensionOperator(params_2d, s, ball) for _ in range(2))
        g1, g2 = (px.build_halfspace_grid(params_2d) for _ in range(2))
        for a, b in ((op1, op2), (g1, g2)):
            assert a == a and a != b and not (a == b)
            assert len({a, b, a}) == 2


class TestAntipodalEquivariance:
    def test_extension_equivariance_bitwise(self, op_2d, sphere_2d, ball_2d, rng):
        v = rng.normal(size=len(sphere_2d))
        flipped = op_2d.extend_values(v[sphere_2d.antipode_index])
        straight = op_2d.extend_values(v)[ball_2d.antipode_index]
        assert np.array_equal(flipped, straight)

    def test_extension_equivariance_bitwise_3d(self, op_3d, sphere_3d, ball_3d, rng):
        v = rng.normal(size=len(sphere_3d))
        flipped = op_3d.extend_values(v[sphere_3d.antipode_index])
        straight = op_3d.extend_values(v)[ball_3d.antipode_index]
        assert np.array_equal(flipped, straight)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_adjoint_equivariance_bitwise(self, dim, request, rng):
        op = request.getfixturevalue(f"op_{dim}d")
        f = rng.normal(size=len(op.ball))
        flipped = op.adjoint_values(f[op.ball.antipode_index])
        straight = op.adjoint_values(f)[op.sphere.antipode_index]
        assert np.array_equal(flipped, straight)

    def test_adjoint_maps_antipodal_to_antipodal(self, op_2d, sphere_2d, ball_2d, rng):
        f = rng.random(len(ball_2d))
        f = 0.5 * (f + f[ball_2d.antipode_index])
        t = op_2d.adjoint_values(f)
        assert np.array_equal(t, t[sphere_2d.antipode_index])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_antipodal_input_runs_both_table_products(self, dim, request, monkeypatch):
        # the ball-order products have one path, the class products on the
        # tables over all columns: equal halves run it too, and never the
        # antipodally folded tables
        op = request.getfixturevalue(f"op_{dim}d")
        calls = []
        for name in ("_fold_product", "_fold_transpose"):
            def counted(y, tables, columns, fn=getattr(op, name), name=name):
                calls.append((name, tables))
                return fn(y, tables, columns)

            monkeypatch.setattr(op, name, counted)
        op.extend_values(np.ones(len(op.sphere)))
        op.adjoint_values(np.ones(len(op.ball)))
        general = op._general[0]
        assert general is not op.kernel_table
        assert calls == [("_fold_product", general)] * 2 + [("_fold_transpose", general)] * 2

    @given(data=st.data())
    @settings(deadline=None)
    def test_antipodal_input_gives_the_two_product_bits(self, antipodal_op, data):
        # for antipodal input the general pair's two ball-order products give
        # E v two halves with the same bits, and T F agrees with the folded
        # table product on F's upper half to roundoff
        op, hb = antipodal_op, antipodal_op.ball.half
        v, f = antipodal_draw(data, op.sphere), antipodal_draw(data, op.ball)
        ext = op.extend_values(v)
        assert ext[:hb].tobytes() == ext[hb:].tobytes()
        assert_fold_agrees(op.adjoint_table(op._table_layout(f[:hb])), op.adjoint_values(f),
                           op.adjoint_values(np.abs(f)), len(op.ball))

    @given(data=st.data())
    @settings(deadline=None)
    def test_table_pair_reorders_to_the_ball_order_bits(self, antipodal_op, data):
        op, hb = antipodal_op, antipodal_op.ball.half
        turns, ub = op.table_shape[1], op.residues
        v, f = antipodal_draw(data, op.sphere), antipodal_draw(data, op.ball)
        # table rows (shell, ring, u) x columns m  <->  ball order (shell, ring, m, u)
        ext = op.extend_table(v)
        assert ext.shape == op.table_shape
        upper = ext.reshape(-1, ub, turns).transpose(0, 2, 1).ravel()
        assert upper.tobytes() == op._ball_order(ext).tobytes()
        assert op._table_layout(upper).tobytes() == ext.tobytes()
        f_table = f[:hb].reshape(-1, turns, ub).transpose(0, 2, 1).reshape(op.table_shape)
        assert f_table.tobytes() == op._table_layout(f[:hb]).tobytes()
        # the folded and the general products of the same input, to roundoff
        assert_fold_agrees(upper, op.extend_values(v)[:hb], op.extend_values(np.abs(v))[:hb],
                           len(op.sphere))
        assert_fold_agrees(op.adjoint_table(f_table), op.adjoint_values(f),
                           op.adjoint_values(np.abs(f)), len(op.ball))

    def test_extend_table_rejects_unequal_halves(self, op_2d, sphere_2d):
        v = np.ones(len(sphere_2d))
        v[sphere_2d.half] = np.nextafter(1.0, 2.0)
        with pytest.raises(ValueError, match="symmetrize first"):
            op_2d.extend_table(v)
        z = np.zeros(len(sphere_2d))
        z[sphere_2d.half] = -0.0           # 0.0 and -0.0 differ in a bit
        with pytest.raises(ValueError, match="symmetrize first"):
            op_2d.extend_table(z)

    @pytest.mark.parametrize("entry", ["extend_values", "adjoint_values", "extend_table",
                                       "power_adjoint", "bulk_energy"])
    def test_products_reject_inputs_off_their_shape(self, op_2d, entry):
        # a length-1 vector or a scalar would broadcast to a constant
        op, q = op_2d, op_2d.params.q_exp
        apply = {"power_adjoint": lambda x: op.power_adjoint(x, q),
                 "bulk_energy": lambda x: op.bulk_energy(x, q)}.get(entry, getattr(op, entry))
        length = len(op.ball) if entry == "adjoint_values" else len(op.sphere)
        for x in (np.ones(1), 2.0, np.ones((length, 1)), np.ones(length + 2)):
            with pytest.raises(ValueError, match=r"%s needs [vf] of shape \(%d,\), got %s"
                               % (entry, length, re.escape(str(np.shape(x))))):
                apply(x)

    def test_adjoint_table_rejects_z_off_the_table_shape(self, op_2d):
        # a row of turns would broadcast over every table row
        rows, turns = op_2d.table_shape
        for z in (np.ones(turns), np.ones((rows, 1)), np.ones((rows, turns, 1))):
            with pytest.raises(ValueError, match=r"table shape \(%d, %d\), got %s"
                               % (rows, turns, re.escape(str(z.shape)))):
                op_2d.adjoint_table(z)


class TestFoldedTablePair:
    """The table pair on the antipodally and mirror folded tables, the solver's products."""

    @given(data=st.data())
    @settings(deadline=None)
    def test_positive_on_every_antipodal_point_mass_pair(self, antipodal_op, data):
        op = antipodal_op
        mass = data.draw(st.floats(1e-100, 1e100))
        for rule in (op.sphere, op.ball):
            j = data.draw(st.integers(0, len(rule) - 1))
            pair = np.zeros(len(rule))
            pair[[j, rule.antipode_index[j]]] = mass
            if rule is op.sphere:
                assert np.all(op.extend_table(pair) > 0)
            else:
                assert np.all(op.adjoint_table(op._table_layout(pair[:rule.half])) > 0)

    @given(data=st.data())
    @settings(deadline=None)
    def test_duality(self, antipodal_op, data):
        # <E v, F> over the ball (twice the upper half) against <v, T F>
        op = antipodal_op
        nonnegative = st.one_of(st.just(0.0), st.floats(1e-100, 1e6))
        v = antipodal_draw(data, op.sphere, nonnegative)
        z = data.draw(hnp.arrays(float, op.table_shape, elements=nonnegative))
        lhs = 2.0 * math.fsum((op.row_weights[:, None] * op.extend_table(v) * z).ravel())
        rhs = math.fsum(op.sphere.weights * v * op.adjoint_table(z))
        assert abs(lhs - rhs) <= 1e-12 * lhs

    @given(n=st.sampled_from([2, 3]), sphere_res=st.integers(2, 7), ball_res=st.integers(2, 7))
    @example(n=2, sphere_res=2, ball_res=6)      # 3 residues, two without an in-grid mirror
    @example(n=3, sphere_res=3, ball_res=2)      # 3 sphere azimuths per turn: tau 1 and 2 merge
    @settings(max_examples=40, deadline=None)
    def test_pairing_is_the_same_column_for_every_rotation(self, n, sphere_res, ball_res):
        # the partner of each column gathers the antipodes of its nodes at
        # every m, and the mirror column of a class the mirror images about
        # that class's ball node; the tables over all columns keep one column
        # per mirror pair, and each folded column is a pair sum that holds for
        # both mirror members, bit for bit
        params = px.ProblemParams(n, 0.5)
        sphere = px.build_sphere_quadrature(params, 2 * sphere_res)
        ball = px.build_ball_quadrature(params, 8, 2 * ball_res)
        every, gather, every_columns, _, ub = _kernel_table(sphere, ball, params, antipodal=False)
        tables, half_gather, fold_columns, orbit, _ = _kernel_table(sphere, ball, params)
        anti = sphere.antipode_index
        column_of = {tuple(nodes): c for c, nodes in enumerate(gather)}
        partner = np.array([column_of[tuple(anti[nodes])] for nodes in gather])
        reps = np.array([column_of[tuple(nodes)] for nodes in half_gather])
        # column i is node i, its partner node i + N/2
        assert np.array_equal(reps, np.arange(sphere.half)) and np.array_equal(partner, anti)
        assert np.all(half_gather[:, 0] < sphere.half)
        assert sorted(np.concatenate([reps, partner[reps]])) == list(range(len(sphere)))
        assert len(tables) == len(fold_columns) == len(every) == len(every_columns) == ub

        _, ring, az, naz_s = sphere.layout
        naz_b = ball.angular.layout[3]
        node_at = {(r, t): i for i, (r, t) in enumerate(zip(ring, az))}
        turns = np.arange(gather.shape[1])
        # the kernel at each row's m = 0 ball node and each column's m = 0 sphere node
        rows = ball.nodes[:ball.half].reshape(-1, len(turns), ub, n)[:, 0].reshape(-1, n)
        raw = px.kernel_ball(sphere.nodes[gather[:, 0]][None], rows[:, None], params)

        def mirror_image(u, col):
            """The column gathering the mirror images about ball node (m, u) at every m."""
            shift = 2 * (turns * ub + u) * naz_s // naz_b
            return column_of[tuple(node_at[ring[x], (s - az[x]) % naz_s]
                                   for x, s in zip(gather[col], shift))]

        for u in range(ub):
            # reflecting about ball node (m, u), at azimuth index m ub + u of
            # naz_b, maps the sphere grid onto itself iff 2 u naz_s / naz_b is whole
            in_grid = 2 * u * naz_s % naz_b == 0
            kernel = every[u][:, every_columns[u][2]]        # class u's kernel at every column
            assert max_rel(kernel, raw[u::ub]) <= 1e-12
            for columns, cols in ((every_columns[u], np.arange(len(sphere))),
                                  (fold_columns[u], reps)):
                kept, mirror, spread = columns
                assert np.array_equal(spread[kept], np.arange(len(kept)))
                assert np.array_equal(spread[mirror], np.arange(len(mirror)))
                assert sorted(np.concatenate([kept, mirror])) == list(range(len(cols)))
                if not in_grid:
                    assert len(mirror) == 0
                    continue
                for j, col in enumerate(cols[kept]):
                    image_col = mirror_image(u, col)       # one column gathers them all
                    if j < len(mirror):
                        assert image_col in (cols[mirror[j]], partner[cols[mirror[j]]])
                    else:
                        assert image_col in (col, partner[col])
            # the kernel of each folded column plus its antipodal partner's,
            # computed apart from the tables over all columns
            pair_sum = kernel[:, reps] + kernel[:, partner[reps]]
            kept, mirror, _ = fold_columns[u]
            assert tables[u].tobytes() == pair_sum[:, kept].tobytes()
            assert tables[u][:, :len(mirror)].tobytes() == pair_sum[:, mirror].tobytes()
            assert np.array_equal(orbit[kept[:len(mirror)]], orbit[mirror])


@pytest.fixture(scope="module")
def fraction_op():
    """n = 2, a = 0.75: q_exp = 13/3 is not an integer."""
    return _structured_op((2, 0.75, 16, 32))


class TestPowerAdjoint:
    """power_adjoint: T[(E v)^q] in one pass per residue class, the solver's right-hand side."""

    @given(data=st.data())
    @settings(deadline=None)
    def test_non_integer_q_gives_the_bits_of_the_two_calls(self, fraction_op, antipodal_op,
                                                           data):
        positive = st.floats(1e-3, 1e3)
        for op, q in ((fraction_op, fraction_op.params.q_exp), (antipodal_op, 2.5)):
            assert not float(q).is_integer()
            v = antipodal_draw(data, op.sphere, positive)
            want = op.adjoint_table(op.extend_table(v) ** q)
            assert op.power_adjoint(v, q).tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(deadline=None)
    def test_integer_q_agrees_within_2_q_eps(self, antipodal_op, data):
        # binary powering moves each positive term by less than q eps relative
        op, q, hs = antipodal_op, antipodal_op.params.q_exp, antipodal_op.sphere.half
        assert float(q).is_integer()
        v = antipodal_draw(data, op.sphere, st.floats(1e-3, 1e3))
        got = op.power_adjoint(v, q)
        want = op.adjoint_table(op.extend_table(v) ** q)
        assert np.all(np.abs(got - want) <= 2 * q * np.finfo(float).eps * want)
        assert np.all(got > 0)
        assert got[:hs].tobytes() == got[hs:].tobytes()
        j = data.draw(st.integers(0, len(op.sphere) - 1))
        pair = np.zeros(len(op.sphere))
        pair[[j, op.sphere.antipode_index[j]]] = data.draw(st.floats(1e-2, 1e2))
        assert np.all(op.power_adjoint(pair, q) > 0)

    @pytest.mark.parametrize("rules", ["n2-fine-solve", "small-multi-block"])
    def test_warm_products_peak_at_their_output_plus_64_kib(self, rules, fine_op):
        # every table-size array of a call lives in the operator's workspace
        op = fine_op if rules == "n2-fine-solve" else _blocked_op(STRUCTURED_CASES[3], 3)
        assert len(op.turn_blocks) > 1
        v = op.sphere.symmetrize(np.random.default_rng(0).uniform(0.5, 1.5, len(op.sphere)))
        for call in (op.power_adjoint, op.bulk_energy):
            call(v, op.params.q_exp)        # the traced call is warm
            tracemalloc.start()
            try:
                out = call(v, op.params.q_exp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= np.asarray(out).nbytes + 2 ** 16, (call.__name__, peak)

    def test_in_place_spread_is_the_bits_of_the_summed_spreads(self, small_op, rng):
        # reference: each class's transpose product spread to every column,
        # the spreads summed in class order
        op = small_op
        z = rng.uniform(0.5, 1.5, op.table_shape)
        want = None
        for u, (table, (_, _, spread)) in enumerate(zip(op.kernel_table, op.fold_columns)):
            part = (table.T @ z[u::op.residues])[spread]
            want = part if want is None else want + part
        assert op._fold_transpose(z, *op._folded).tobytes() == want.tobytes()

    def test_rejects_unequal_halves(self, fraction_op):
        v = np.ones(len(fraction_op.sphere))
        v[-1] = np.nextafter(1.0, 2.0)
        with pytest.raises(ValueError, match="power_adjoint needs an antipodal v.*symmetrize"):
            fraction_op.power_adjoint(v, fraction_op.params.q_exp)


@pytest.fixture(scope="module")
def fine_op():
    """The n2-fine-solve rules of perfbench/workloads.py: two turn blocks of 128 turns."""
    params = px.ProblemParams(2, 0.5)
    return px.ExtensionOperator(params, px.build_sphere_quadrature(params, 512),
                                px.build_ball_quadrature(params, 120, 1024))


@pytest.fixture(scope="module")
def balance_op():
    """The n3-balance-solve rules: one residue class, one turn block of 40 turns."""
    params = px.ProblemParams(3, -0.5)
    return px.ExtensionOperator(params, px.build_sphere_quadrature(params, 20),
                                px.build_ball_quadrature(params, 96, 20))


@pytest.fixture(scope="module", params=[STRUCTURED_CASES[0], STRUCTURED_CASES[3]],
                ids=lambda c: "n%d-a%g-S%d-A%d" % c)
def block_pair(request):
    """(one-block operator, the same rules' operator in turn blocks of at most 3 of 8 turns)."""
    return _structured_op(request.param), _blocked_op(request.param, 3)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a benchmark process's heap history (perfbench/worker.py imported first),
# then the minor faults of 20 warm calls of each solver product
FAULT_PROBE = """
import json, resource
import worker
import numpy as np
import poissonext as px

params = px.ProblemParams(2, 0.5)
sphere = px.build_sphere_quadrature(params, 512)
op = px.ExtensionOperator(params, sphere, px.build_ball_quadrature(params, 120, 1024))
v = sphere.symmetrize(np.random.default_rng(0).uniform(0.5, 1.5, len(sphere)))
faults = {}
for call in (op.power_adjoint, op.bulk_energy):
    call(v, params.q_exp)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        call(v, params.q_exp)
    faults[call.__name__] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


class TestTurnBlocks:
    """The table-layout products run in turn blocks through the operator's one workspace."""

    def test_blocks_follow_the_fill_budget(self, fine_op):
        # half x turns per block <= _FILL_DOUBLES; the workspace holds the
        # gathered input and the spread sum (half rows each), the class input
        # (129 kept columns at most) and the mirror input (128), 128 turns wide
        op = fine_op
        assert op.sphere.half * 128 == px.operators._FILL_DOUBLES
        assert op.turn_blocks == ((0, 128), (128, 256))
        assert op.workspace.base is None
        assert op.workspace.nbytes == (256 + 256 + 129 + 128) * 128 * 8
        for block, (lo, hi) in zip(op._blocks, op.turn_blocks):
            for view in block[3:]:
                assert view.base is op.workspace and view.flags.c_contiguous
                assert view.shape[1] == hi - lo

    def test_one_class_gathers_into_its_class_input_buffer(self, balance_op):
        # with one class the gathered input (400 rows) lies after the class
        # input's 210 kept rows, in the buffer of the 960-row power base
        op = balance_op
        (block,) = op._blocks
        assert op.residues == 1 and op.turn_blocks == ((0, 40),)
        assert op.workspace.nbytes == (960 + 960) * 40 * 8
        kept = len(op.fold_columns[0][0])
        assert kept == 210 and block.acc.shape == block.y.shape
        assert block.acc.ctypes.data == block.y.ctypes.data
        assert np.shares_memory(block.y, block.x[kept:]) and block.x.shape == (960, 40)
        assert not np.shares_memory(block.y, block.x[:kept])
        assert not np.shares_memory(block.x, block.z) and block.z.shape == (960, 40)

    def test_uneven_blocks_cover_every_turn_once(self, block_pair):
        one, blocked = block_pair
        assert one.turn_blocks == ((0, 8),) and blocked.turn_blocks == ((0, 2), (2, 5), (5, 8))
        assert np.array_equal(column_gather(blocked), column_gather(one))
        assert blocked.gather_index.tobytes() != one.gather_index.tobytes()

    @given(data=st.data())
    @settings(deadline=None)
    def test_blocks_agree_with_one_block(self, block_pair, data):
        # the tables hold the same bits at any block size; T[(E v)^q] moves by
        # the order of the per-block scatter sums, the bulk energy not at all
        one, blocked = block_pair
        q, hs, anti = one.params.q_exp, one.sphere.half, one.sphere.antipode_index
        for a, b in zip(one.kernel_table, blocked.kernel_table):
            assert a.tobytes() == b.tobytes()
        v = antipodal_draw(data, one.sphere, st.floats(1e-3, 1e3))
        got = blocked.power_adjoint(v, q)
        assert max_rel(got, one.power_adjoint(v, q)) <= 1e-14
        assert got[:hs].tobytes() == got[hs:].tobytes()
        # the two-call form scatters block by block too
        want = blocked.adjoint_table(blocked.extend_table(v) ** 2.5)
        assert blocked.power_adjoint(v, 2.5).tobytes() == want.tobytes()
        ext = blocked.extend_table(v)
        integrand = blocked.row_weights[:, None] * (ext * _power_inplace(ext.copy(), q))
        energy = blocked.bulk_energy(v, q)
        assert energy == 2.0 * math.fsum(integrand.ravel().tolist())
        assert abs(energy / one.bulk_energy(v, q) - 1.0) <= 1e-14
        j = data.draw(st.integers(0, len(one.sphere) - 1))
        pair = np.zeros(len(one.sphere))
        pair[[j, anti[j]]] = data.draw(st.floats(1e-2, 1e2))
        assert np.all(blocked.power_adjoint(pair, q) > 0)
        assert np.all(blocked.extend_table(pair) > 0)

    @pytest.mark.parametrize("malloc", [{}, {"MALLOC_MMAP_THRESHOLD_": "131072",
                                              "MALLOC_TRIM_THRESHOLD_": "131072"}],
                             ids=["import-first", "low-malloc-thresholds"])
    def test_warm_products_take_no_minor_fault(self, malloc):
        # one BLAS thread, as the benchmark pins it: a threaded BLAS call
        # faults on buffers of its own
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", **malloc,
                   PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                               os.path.join(ROOT, "perfbench")]))
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert json.loads(run.stdout) == {"power_adjoint": 0, "bulk_energy": 0}


class TestPowerInplace:
    """_power_inplace: `**` for a non-integer q, binary powering for an integer one."""

    finite = hnp.arrays(float, st.integers(1, 40), elements=st.floats(1e-100, 1e100))

    @given(x=finite, q=st.floats(0.1, 64.0).filter(lambda q: not q.is_integer()))
    def test_non_integer_q_is_pow_bit_for_bit(self, x, q):
        with np.errstate(over="ignore", under="ignore"):
            want = x ** q
            assert _power_inplace(x, q) is x
        assert x.tobytes() == want.tobytes()

    @given(x=finite, q=st.integers(2, 64))
    def test_integer_q_is_within_2_q_eps_of_pow(self, x, q):
        with np.errstate(over="ignore", under="ignore"):
            want = x ** float(q)
            got = _power_inplace(x.copy(), float(q))
        info = np.finfo(float)
        normal = (want >= info.tiny) & (want <= info.max)
        assert np.all(np.abs(got[normal] - want[normal]) <= 2 * q * info.eps * want[normal])
        # positive inputs give positive outputs; past the normal range
        # both underflow to a subnormal or zero, or both overflow
        assert np.all(got[normal] > 0) and np.all(got >= 0)
        assert np.all((got[~normal] <= 2 * info.tiny) == (want[~normal] < info.tiny))
        assert np.array_equal(got[want == np.inf], want[want == np.inf])


class TestCorrectionModes:
    def test_extend_at_points_is_the_raw_quadrature(self, params_2d, sphere_2d, ball_2d, rng):
        v = rng.normal(size=len(sphere_2d))
        manual = px.kernel_ball(
            sphere_2d.nodes[None, :, :], ball_2d.nodes[:, None, :], params_2d
        ) @ (sphere_2d.weights * v)
        got = px.extend_at_points(px.BoundaryFunction(v, sphere_2d), ball_2d.nodes, params_2d)
        assert np.max(np.abs(got - manual) / np.abs(manual)) < 1e-10

    def test_balanced_operator_repairs_the_raw_boundary_layer(self, op_2d, params_2d, sphere_2d,
                                                              ball_2d):
        one = px.BoundaryFunction(np.ones(len(sphere_2d)), sphere_2d)
        target = px.kernel_ball_sphere_mass(ball_2d.radii, params_2d)
        raw = px.extend_at_points(one, ball_2d.nodes, params_2d)
        raw_err = np.max(np.abs(raw / target - 1.0))
        bal_err = np.max(np.abs(op_2d.extend_values(one.values) / target - 1.0))
        assert raw_err > 1.0          # raw rows overshoot in the boundary layer
        assert bal_err < 1e-10

    def test_scalings_are_near_one_in_the_interior(self, op_2d, ball_2d):
        # the shell radius of each table row (shell, ring, u), read at its m = 0 node
        turns = op_2d.table_shape[1]
        row_radii = ball_2d.radii[:ball_2d.half].reshape(-1, turns, op_2d.residues)[:, 0].ravel()
        assert np.max(np.abs(op_2d.row_scale[row_radii < 0.5] - 1.0)) < 1e-10

    def test_diagnostics_fields(self, op_2d):
        d = op_2d.diagnostics()
        assert d["delta_min"] > 0
        assert d["balance_row_dev"] < 1e-11


class TestExtendHalfspace:
    def test_constant_boundary_function_extends_to_one(self, params_2d):
        grid = px.build_halfspace_grid(params_2d)
        targets = np.array([[0.0, 0.7], [0.4, 1.3], [-1.0, 2.0]])
        vals = px.extend_halfspace(np.ones(len(grid)), grid, targets, params_2d)
        assert np.max(np.abs(vals - 1.0)) < 1e-6

    def test_bubble_extension_matches_closed_form(self, params_3d):
        # P_0 of (1 + |y|^2)^{-1/2} at (0, 0, t) equals 1/(1 + t)
        grid = px.build_halfspace_grid(params_3d, angular_points=64)
        u = (1.0 + np.sum(grid.nodes**2, axis=1)) ** (-0.5)
        for t in (0.5, 1.0, 3.0):
            val = px.extend_halfspace(u, grid, np.array([[0.0, 0.0, t]]), params_3d)
            assert val[0] == pytest.approx(1.0 / (1.0 + t), abs=2e-7)

    def test_bubble_extension_matches_radial_quadrature_oracle(self, params_3d):
        t = 1.4
        oracle, err = quad(
            lambda r: t * r * (r * r + t * t) ** (-1.5) * (1 + r * r) ** (-0.5),
            0, np.inf,
        )
        assert err < 5e-8
        grid = px.build_halfspace_grid(params_3d, angular_points=64)
        u = (1.0 + np.sum(grid.nodes**2, axis=1)) ** (-0.5)
        val = px.extend_halfspace(u, grid, np.array([[0.0, 0.0, t]]), params_3d)
        assert val[0] == pytest.approx(oracle, rel=1e-6)

    def test_linearity(self, params_2d, rng):
        grid = px.build_halfspace_grid(params_2d)
        u = np.exp(-np.sum(grid.nodes**2, axis=1))
        x = np.array([[0.1, 0.9]])
        v1 = px.extend_halfspace(3.0 * u, grid, x, params_2d)
        v2 = px.extend_halfspace(u, grid, x, params_2d)
        assert v1[0] == pytest.approx(3.0 * v2[0], rel=1e-12)

    def test_rejects_boundary_targets(self, params_2d):
        grid = px.build_halfspace_grid(params_2d)
        with pytest.raises(ValueError):
            px.extend_halfspace(np.ones(len(grid)), grid, np.array([[0.0, 0.0]]), params_2d)

    @pytest.mark.parametrize("n, a, dim", [(2, 0.5, 3), (3, 0.0, 2)])
    def test_rejects_targets_of_the_wrong_dimension(self, n, a, dim):
        # a wrong-length x' would broadcast against the nodes to a wrong value
        params = px.ProblemParams(n, a)
        grid = px.build_halfspace_grid(params)
        targets = np.full((2, dim), 0.5)
        with pytest.raises(ValueError, match=f"R\\^{n}"):
            px.extend_halfspace(np.ones(len(grid)), grid, targets, params)
        sphere = px.build_sphere_quadrature(params, 8)
        with pytest.raises(ValueError, match=f"R\\^{n}"):
            px.conformal_pullback_check(lambda q: np.ones(len(np.atleast_2d(q))),
                                        sphere, grid, params, targets)


class TestConformalPullback:
    def test_constant_boundary_function(self, params_2d, sphere_2d, rng):
        grid = px.build_halfspace_grid(params_2d)
        pts = np.stack([rng.uniform(-0.5, 0.5, 5), rng.uniform(0.3, 1.0, 5)], axis=1)
        disc = px.conformal_pullback_check(lambda q: np.ones(len(np.atleast_2d(q))),
                                           sphere_2d, grid, params_2d, pts)
        assert disc < 1e-7

    def test_bandlimited_data_small_discrepancy(self, params_2d, rng):
        sphere = px.build_sphere_quadrature(params_2d, 256)
        grid = px.build_halfspace_grid(params_2d)

        def v(pts):
            pts = np.atleast_2d(pts)
            th = np.arctan2(pts[:, 1], pts[:, 0])
            return 1.0 + 0.5 * np.cos(2 * th) + 0.25 * np.sin(3 * th)

        pts = np.stack([rng.uniform(-1, 1, 6), rng.uniform(0.1, 0.6, 6)], axis=1)
        assert px.conformal_pullback_check(v, sphere, grid, params_2d, pts) < 1e-4

    def test_boundary_function_input_is_interpolated(self, params_2d, rng):
        sphere = px.build_sphere_quadrature(params_2d, 128)
        grid = px.build_halfspace_grid(params_2d)
        theta = np.arctan2(sphere.nodes[:, 1], sphere.nodes[:, 0])
        bf = px.BoundaryFunction(1.0 + 0.3 * np.cos(4 * theta), sphere)
        pts = np.array([[0.2, 0.5], [-0.4, 0.8]])
        disc = px.conformal_pullback_check(px.interpolate_boundary(bf), sphere, grid,
                                           params_2d, pts)
        assert disc < 1e-4


class TestSerialization:
    def test_boundary_function_csv(self, sphere_2d, rng, tmp_path):
        v = px.BoundaryFunction(rng.random(len(sphere_2d)), sphere_2d)
        path = tmp_path / "v.csv"
        write_csv(path, sphere_2d.nodes, v.values)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, :2], sphere_2d.nodes)
        assert np.array_equal(data[:, 2], v.values)

    def test_extension_field_csv(self, op_3d, sphere_3d, ball_3d, tmp_path):
        field = op_3d.extend_values(np.ones(len(sphere_3d)))
        path = tmp_path / "f.csv"
        write_csv(path, ball_3d.nodes, field)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,value"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 3], field)


class TestInterpolation:
    def test_trig_interpolation_exact_on_bandlimited(self, sphere_2d, rng):
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        vals = 2.0 + np.cos(3 * theta) - 0.7 * np.sin(5 * theta)
        interp = px.interpolate_boundary(px.BoundaryFunction(vals, sphere_2d))
        t = rng.uniform(0, 2 * np.pi, 40)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        expected = 2.0 + np.cos(3 * t) - 0.7 * np.sin(5 * t)
        assert np.max(np.abs(interp(pts) - expected)) < 1e-12

    @pytest.mark.parametrize("resolution", [4, 6, 16])
    def test_trig_interpolant_takes_the_nodal_values(self, params_2d, resolution, rng):
        # data that is not bandlimited: the interpolant meets it at every node,
        # which holds only if node i is read at its own azimuth
        sphere = px.build_sphere_quadrature(params_2d, resolution)
        vals = rng.uniform(-1.0, 1.0, len(sphere))
        interp = px.interpolate_boundary(px.BoundaryFunction(vals, sphere))
        assert np.max(np.abs(interp(sphere.nodes) - vals)) < 1e-12

    def test_spherical_harmonic_fit_exact_on_low_degree(self, sphere_3d, rng):
        vals = 1.0 + sphere_3d.nodes[:, 2] ** 2 - 0.5 * sphere_3d.nodes[:, 0] * sphere_3d.nodes[:, 1]
        interp = px.interpolate_boundary(px.BoundaryFunction(vals, sphere_3d))
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        expected = 1.0 + pts[:, 2] ** 2 - 0.5 * pts[:, 0] * pts[:, 1]
        assert np.max(np.abs(interp(pts) - expected)) < 1e-10

    @pytest.mark.parametrize("resolution", [4, 16, 32])
    def test_design_matches_scipy_real_harmonics(self, params_3d, resolution, rng):
        sphere = px.build_sphere_quadrature(params_3d, resolution)
        pts = np.concatenate([sphere.nodes, random_unit_points(rng, 50), np.eye(3), -np.eye(3)])
        degree = min(resolution // 2, 12)
        assert np.max(np.abs(_real_sph_design(pts, degree)
                             - scipy_real_harmonics(pts, degree))) < 1e-13

    @given(resolution=st.sampled_from([4, 6, 8, 16, 24]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_projection_reproduces_bandlimited_data(self, params_3d, resolution, seed):
        rng = np.random.default_rng(seed)
        sphere = px.build_sphere_quadrature(params_3d, resolution)
        degree = min(resolution // 2, 12)
        coeff = rng.normal(size=(degree + 1) ** 2)
        vals = scipy_real_harmonics(sphere.nodes, degree) @ coeff
        interp = px.interpolate_boundary(px.BoundaryFunction(vals, sphere))
        pts = random_unit_points(rng, 20)
        assert np.max(np.abs(interp(pts) - scipy_real_harmonics(pts, degree) @ coeff)) < 1e-12

    @pytest.mark.parametrize("resolution", [8, 16, 30])
    def test_projection_is_the_rule_weighted_fit(self, params_3d, resolution, rng):
        # data that is not bandlimited: the projection is the least-squares
        # fit in the rule's inner product, not the unweighted one
        sphere = px.build_sphere_quadrature(params_3d, resolution)
        vals = rng.uniform(-1.0, 1.0, len(sphere.weights))
        degree = min(resolution // 2, 12)
        root_w = np.sqrt(sphere.weights)
        coeff = np.linalg.lstsq(root_w[:, None] * _real_sph_design(sphere.nodes, degree),
                                root_w * vals, rcond=None)[0]
        pts = random_unit_points(rng, 40)
        interp = px.interpolate_boundary(px.BoundaryFunction(vals, sphere))
        assert np.max(np.abs(interp(pts) - _real_sph_design(pts, degree) @ coeff)) < 1e-12


class TestWeightedHarmonicity:
    def test_constant_field_has_zero_residual(self, params_3d):
        res = px.weighted_harmonic_residual(
            lambda xs: np.ones(len(xs)), np.array([0.0, 0.0, 1.0]), 1e-2, params_3d
        )
        assert abs(res) < 1e-10

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
    def test_bubble_extension_residual_small(self, a):
        p = px.ProblemParams(3, a)
        bp = px.BubbleParams(lambda_scale=1.2, center=np.array([0.1, -0.2]), amplitude=0.8)
        ev = lambda xs: px.bubble_extension_halfspace(xs, p, bp)
        x = np.array([0.3, 0.2, 1.1])
        assert abs(px.weighted_harmonic_residual(ev, x, 1e-2, p)) < 1e-4

    def test_second_order_convergence(self, params_3d):
        bp = px.BubbleParams()
        ev = lambda xs: px.bubble_extension_halfspace(xs, params_3d, bp)
        x = np.array([0.2, -0.4, 0.9])
        r1 = px.weighted_harmonic_residual(ev, x, 1e-2, params_3d)
        r2 = px.weighted_harmonic_residual(ev, x, 5e-3, params_3d)
        assert abs(r1) / abs(r2) == pytest.approx(4.0, abs=0.7)

    def test_rejects_points_close_to_boundary(self, params_3d):
        with pytest.raises(ValueError):
            px.weighted_harmonic_residual(
                lambda xs: np.ones(len(xs)), np.array([0.0, 0.0, 0.015]), 1e-2, params_3d
            )


class TestSharpInequalitySanity:
    def test_random_nonnegative_ratios_stay_below_sharp_constant(
        self, op_2d, sphere_2d, ball_2d, params_2d, rng
    ):
        sharp = px.sharp_constant(
            params_2d, "constant_test_function", sphere_2d, ball_2d
        )
        theta = np.arctan2(sphere_2d.nodes[:, 1], sphere_2d.nodes[:, 0])
        worst = 0.0
        for _ in range(30):
            v = 1.0 + 0.6 * rng.uniform(-1, 1) * np.cos(2 * theta) \
                + 0.4 * rng.uniform(-1, 1) * np.sin(theta)
            v = np.maximum(v, 0.01)
            bf = px.BoundaryFunction(v, sphere_2d)
            ratio = px.bulk_norm(op_2d.extend_values(v), ball_2d, params_2d.p_bulk) / (
                px.boundary_norm(bf, params_2d.p_crit))
            worst = max(worst, ratio / sharp)
        assert worst <= 1.0 + 1e-3
