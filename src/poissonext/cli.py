"""Batch front end: verify | sharp | solve | continue | diagnose.

Every command reads one JSON configuration (strictly validated), writes a
schema-versioned report.json plus CSV artifacts into the output directory,
and returns its exit status: 0 when every row of the report's `checks`
passed, 1 when one failed (the stdout line names them), 2 for a
configuration error (reported before anything is built, and no report is
written), 3 for an internal error (an exception from the program itself;
its traceback goes to stderr, after a line `internal error:`, and no
report is written).
The same configuration, seed and BLAS library produce byte-identical
reports: summation orders are fixed, randomness is seeded, and no volatile
fields (timestamps, host names) enter the outputs.  `solve`, `continue`
and `verify` on the examples give the same bytes at one and at two
OpenBLAS threads (a Tier-1 test).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback

import numpy as np

from . import diagnostics as diag
from . import fields
from . import functionals as fn
from . import operators as ops
from . import solver as slv
from .config import (ConfigError, RunConfig, check_key, evaluate_weight, load_config, parse_config,
                     weight_extremes)
from .geometry import conformal_weight, mobius_f_inverse
from .halfspace import build_halfspace_grid
from .kernels import kernel_ball_sphere_mass, kernel_halfspace, normalization_constant
from .quadrature import (build_ball_quadrature, build_sphere_quadrature, graded_radial_rule,
                         integrate_ball, integrate_boundary, write_csv)

REPORT_SCHEMA_VERSION = 1
# `sharp` refines its Richardson pair on a ball rule with this many times
# the configured radial points
SHARP_RADIAL_REFINEMENT = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poissonext",
        description="Poisson-type extension operators and the subcritical variational solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="path to a JSON configuration")
        p.add_argument("--out", help="output directory (overrides the configuration)")
        p.add_argument("--seed", type=int, help="override the configured seed")
    args = parser.parse_args(argv)

    try:
        config = _load(args)
        _make_output_dir(config.output_dir)
        report = COMMANDS[args.command][0](config)
        _write_report(config, args.command, report)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a defect of the program, not a failed check: exit 3, not 1
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
    failed = [row["check"] for row in report["checks"] if not row["passed"]]
    print(json.dumps({"command": args.command, "passed": not failed, "failed": failed,
                      "output_dir": config.output_dir}, sort_keys=True))
    return 1 if failed else 0


def _load(args) -> RunConfig:
    if args.config == "":
        raise ConfigError("--config must be a path to a JSON file, got ''")
    config = load_config(args.config) if args.config is not None else parse_config({})
    # a flag overrides its configuration key and meets the key's requirement
    for flag, key, value in (("--seed", "seed", args.seed), ("--out", "output_dir", args.out)):
        if value is not None:
            check_key(key, value, flag)
            setattr(config, key, value)
    # the configuration bounds the radial points of every rule but sharp's refined one
    if args.command == "sharp":
        try:
            graded_radial_rule(SHARP_RADIAL_REFINEMENT * config.quadrature["ball_radial_points"])
        except ValueError as exc:
            raise ConfigError(f"quadrature.ball_radial_points: sharp refines it "
                              f"{SHARP_RADIAL_REFINEMENT}-fold, and {exc}") from exc
    return config


def _quads(config: RunConfig, scale: float = 1.0):
    resolution = max(4, 2 * round(scale * config.quadrature["sphere_resolution"] / 2))
    angular = max(4, 2 * round(scale * config.quadrature["ball_angular_resolution"] / 2))
    radial = max(18, round(scale * config.quadrature["ball_radial_points"]))
    sphere = build_sphere_quadrature(config.params, resolution)
    ball = build_ball_quadrature(config.params, radial, angular)
    return sphere, ball


def _random_bandlimited(config: RunConfig, rng, nonnegative=False):
    """Random low-frequency callable on the sphere.

    Nonnegative profiles are squared bandlimited fields plus a constant, so
    positivity never needs clipping (which would break bandlimitedness).
    """
    n = config.params.n
    kmax = 3 if nonnegative else 6
    if n == 2:
        terms = [(k, rng.normal() / (1 + k), rng.normal() / (1 + k)) for k in range(1, kmax + 1)]

        def f2(pts):
            pts = np.atleast_2d(pts)
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            out = np.ones(len(pts))
            for k, ca, cb in terms:
                out += ca * np.cos(k * theta) + cb * np.sin(k * theta)
            return out**2 + 0.05 if nonnegative else out
        return f2
    coeff = rng.normal(size=(3, 3)) / 3.0
    lin = rng.normal(size=3) / 3.0

    def f3(pts):
        pts = np.atleast_2d(pts)
        if nonnegative:
            return (1.0 + pts @ lin)**2 + 0.05
        return 1.0 + np.einsum("ij,jk,ik->i", pts, coeff, pts) + pts @ lin
    return f3


def _problem(config: RunConfig, p: float, scale: float = 1.0) -> slv.SubcriticalProblem:
    """The configured maximization at exponent p on the rules at `scale` (`_quads`)."""
    sphere, ball = _quads(config, scale)
    return slv.SubcriticalProblem(
        params=config.params, weight=evaluate_weight(config, sphere), p=p, sphere=sphere,
        ball=ball, tol_v=config.solver["tol_v"], max_iter=config.solver["max_iter"])


def _check(checks: list, *args, **kwargs) -> None:
    """Append the row `solver.check_row(*args, **kwargs)` to checks."""
    checks.append(slv.check_row(*args, **kwargs))


# ----------------------------------------------------------------- verify

def cmd_verify(config: RunConfig):
    params = config.params
    rng = np.random.default_rng(config.seed)
    checks = []

    sphere, ball = _quads(config)
    op = ops.build_extension_operator(sphere, ball, params)

    # kernel normalization over the half-space grid at sampled interior points
    grid = build_halfspace_grid(params)
    pts = _sample_interior_halfspace(params, rng, 20)
    devs = [
        abs(integrate_boundary(kernel_halfspace(grid.nodes, x, params), grid) - 1.0) for x in pts
    ]
    _check(checks, "halfspace_kernel_normalization", max(devs), 1e-6)

    # extension of the constant reproduces the exact kernel sphere-mass
    field = op.extend_values(np.ones(len(sphere)))
    _check(checks, "constant_extension_matches_sphere_mass",
           np.max(np.abs(field - kernel_ball_sphere_mass(ball.radii, params))), 1e-9)

    # duality, positivity, antipodal equivariance
    v, f = rng.random(len(sphere)), rng.random(len(ball))
    ev = op.extend_values(v)
    lhs = integrate_ball(ev * f, ball)
    rhs = integrate_boundary(v * op.adjoint_values(f), sphere)
    _check(checks, "duality", abs(lhs - rhs) / abs(lhs), 1e-10)
    vpos = rng.random(len(sphere))
    _check(checks, "positivity", passed=bool(np.all(op.extend_values(vpos) > 0)))
    flipped = op.extend_values(v[sphere.antipode_index])
    straight = ev[ball.antipode_index]
    _check(checks, "antipodal_equivariance_exact", passed=bool(np.array_equal(flipped, straight)))

    # conformal pullback identity at random bandlimited data
    vfun = _random_bandlimited(config, rng)
    samples = _sample_pullback_points(params, rng, 8)
    disc = fields.conformal_pullback_check(vfun, sphere, grid, params, samples)
    _check(checks, "conformal_pullback", disc, 1e-4)

    # weighted harmonicity of the closed-form bubble extension
    bp = diag.BubbleParams()
    res = max(
        abs(
            fields.weighted_harmonic_residual(
                lambda xs: diag.bubble_extension_halfspace(xs, params, bp), x, 1e-2, params
            )
        )
        for x in _sample_interior_halfspace(params, rng, 10, span=0.8)
    )
    _check(checks, "weighted_harmonicity", res, 1e-3)

    # sharp inequality sample battery
    sharp = fn.sharp_constant_from_constant_test_function(sphere, ball, params)
    worst = 0.0
    for _ in range(50):
        vb = ops.BoundaryFunction(
            _random_bandlimited(config, rng, nonnegative=True)(sphere.nodes), sphere
        )
        ratio = (fn.bulk_norm(op.extend_values(vb.values), ball, params.p_bulk)
                 / fn.boundary_norm(vb, params.p_crit))
        worst = max(worst, ratio / sharp)
    _check(checks, "sharp_inequality_ratio", worst, 1.0 + slv.LAMBDA_BOUND_SLACK)

    # weight spec checks
    margin = weight_extremes(config.weight_spec, params)[0]
    _check(checks, "weight_positive", passed=margin > 0)

    return {
        "checks": checks,
        "normalization_constant": normalization_constant(params),
        "operator_diagnostics": op.diagnostics(),
        "weight_positivity_margin": margin,
        "resolution": config.quadrature["sphere_resolution"],
    }


def _sample_interior_halfspace(params, rng, count, span=2.0):
    pts = np.empty((count, params.n))
    pts[:, :-1] = rng.uniform(-span / 2, span / 2, size=(count, params.n - 1))
    pts[:, -1] = np.exp(rng.uniform(np.log(0.5), np.log(span), size=count))
    return pts


def _sample_pullback_points(params, rng, count):
    # deep interior images: |F(x)| stays below ~0.5, so even coarse sphere
    # rules evaluate the ball side to near machine precision
    pts = np.empty((count, params.n))
    pts[:, :-1] = rng.uniform(-0.5, 0.5, size=(count, params.n - 1))
    pts[:, -1] = rng.uniform(0.8, 2.0, size=count)
    return pts


# ----------------------------------------------------------------- sharp

def cmd_sharp(config: RunConfig):
    params = config.params
    sphere, ball = _quads(config)
    # (method, value, resolution, est_error), one row per applicable method
    rows = []
    if params.a == 0.0 and params.n == 3:
        rows.append(("formula_a0", fn.sharp_constant_formula_a0(params), None, 0.0))

    smax, smax_solved = fn.sharp_constant_by_maximization(
        sphere, ball, params, starts=max(2, config.solver["multistart"]), seed=config.seed,
        max_iter=config.solver["max_iter"], tol_v=config.solver["tol_v"]
    )
    # the constant's extension is the sphere mass on each shell, so this
    # method's error is purely radial: its Richardson pair is a 1-D sum on
    # the configured shells and on a refined radial rule, with no operator
    ball2 = build_ball_quadrature(
        params, SHARP_RADIAL_REFINEMENT * config.quadrature["ball_radial_points"],
        config.quadrature["ball_angular_resolution"]
    )
    coarse, fine = (fn.sharp_constant_from_constant_test_function(sphere, b, params)
                    for b in (ball, ball2))
    sconst, err = fn.richardson_estimate(coarse, fine)
    resolution = config.quadrature["sphere_resolution"]
    rows += [("constant_test_function", sconst, resolution, err),
             ("numerical_maximization", smax, resolution, None)]
    entries = [{"quantity": "sharp_constant", "method": method, "value": v,
                "resolution": res, "est_error": e} for method, v, res, e in rows]
    discrepancies = {f"{m1}_vs_{m2}": abs(v1 - v2) for (m1, v1, *_), (m2, v2, *_)
                     in itertools.combinations(sorted(rows, key=lambda row: row[0]), 2)}
    # the maximum lies within 1e-4 below the constant's ratio and the slack above it
    checks = []
    _check(checks, "maximization_solved", passed=smax_solved)
    _check(checks, "constant_minus_maximization", sconst - smax, 1e-4)
    _check(checks, "maximization_over_constant", smax / sconst, 1.0 + slv.LAMBDA_BOUND_SLACK)
    return {"checks": checks, "entries": entries, "discrepancies": discrepancies}


# ----------------------------------------------------------------- solve

def cmd_solve(config: RunConfig):
    problem = _problem(config, config.solver["p"] or slv.default_p(config.params))
    inits = slv.multistart_inits(problem.sphere, config.solver["multistart"], 0.3, config.seed)
    (v, lam, rep), solves = slv.maximize_multistart(problem, inits)
    sharp = fn.sharp_constant_from_constant_test_function(problem.sphere, problem.ball,
                                                          config.params)
    bound = slv.lambda_bound(problem, sharp)
    runs = [{"lambda_est": lam_i, "converged": rep_i["converged"],
             "iterations": rep_i["iterations"], "el_residual": rep_i["el_residual"],
             "multiplier_identity_dev": rep_i["multiplier_identity_dev"],
             "lambda_over_bound": lam_i / bound}
            for _, lam_i, rep_i in solves]
    return {
        "checks": slv.gate_checks(rep, lam / bound),
        "p": problem.p,
        "el_residual": rep["el_residual"],
        "multiplier_identity_dev": rep["multiplier_identity_dev"],
        "converged": rep["converged"],
        "iterations": rep["iterations"],
        "multistart_runs": runs,
        "multistart_lambda_spread": (max(r["lambda_est"] for r in runs)
                                     - min(r["lambda_est"] for r in runs)),
        "sup_v": float(v.values.max()),
        "inf_v": float(v.values.min()),
        **_solution(config, problem, sharp, lam, v, slv.solved(rep, lam / bound)),
    }


def _solution(config: RunConfig, problem: slv.SubcriticalProblem, sharp: float, lam: float, v,
              solved: bool) -> dict:
    """Report keys `solve` and `continue` share for (v, lam) solving `problem`; writes final_v.csv.

    `lambda_est_error` is Richardson's from a half-resolution re-solve warm-started from v:
    None unless the command's run is `solved` and the re-solve passes `solver.solved` too.
    """
    params, weight = config.params, problem.weight
    error = None
    if solved:
        coarse = _problem(config, problem.p, scale=0.5)
        init = ops.BoundaryFunction(
            np.maximum(fields.interpolate_boundary(v)(coarse.sphere.nodes), 1e-10), coarse.sphere)
        _, lam_coarse, rep = slv.maximize_subcritical(coarse, init)
        if slv.solved(rep, lam_coarse / slv.lambda_bound(coarse, sharp)):
            error = fn.richardson_estimate(lam_coarse, lam)[1]
    threshold = fn.lambda_threshold(weight, params, sharp)
    holds, ratio, margin = fn.existence_condition(weight, params)
    _write_profile(config, "final_v.csv", problem.sphere, v.values)
    return {
        "lambda_est": lam,
        "lambda_est_error": error,
        "lambda_upper_bound": slv.lambda_bound(problem, sharp),
        "lambda_threshold": threshold,
        "exceeds_threshold": lam > threshold,
        "existence_condition": {"holds": holds, "max_min_ratio": ratio, "margin": margin},
        "resolution": config.quadrature["sphere_resolution"],
    }


# ----------------------------------------------------------------- continue

def cmd_continue(config: RunConfig):
    schedule = config.solver["schedule"] or slv.default_schedule(
        config.params, floor=config.solver["epsilon_floor"]
    )
    # built at the last stage's p, the p of the error bar
    problem = _problem(config, schedule[-1])
    sphere = problem.sphere
    sharp = fn.sharp_constant_from_constant_test_function(sphere, problem.ball, config.params)
    result = slv.continuation(
        problem.weight, schedule, config.params, sphere, problem.ball, tol_v=problem.tol_v,
        max_iter=problem.max_iter, blow_up_factor=config.solver["blow_up_factor"], sharp=sharp)
    rows = result.stage_rows()
    for stage in result.stages:
        # repr is distinct for each p of a strictly decreasing schedule
        _write_profile(config, f"stage_p{float(stage.p)!r}.csv", sphere, stage.v.values)
    _write_stages(config, rows)
    return {
        "checks": result.checks(),
        "schedule": schedule,
        "stages": rows,
        "blow_up_flag": result.blow_up_flag,
        "final_sup_v": float(result.final_v.values.max()),
        "final_inf_v": float(result.final_v.values.min()),
        **_solution(config, problem, sharp, result.lambda_est, result.final_v, result.solved),
    }


# ----------------------------------------------------------------- diagnose

def cmd_diagnose(config: RunConfig):
    params = config.params
    sphere = build_sphere_quadrature(params, config.quadrature["sphere_resolution"])
    checks = []

    # blow-up rescaling fixes the standard bubble exactly at p_crit
    probe = np.linspace(-3.0, 3.0, 41)
    ygrid = np.stack([probe] + [np.zeros_like(probe)] * (params.n - 2), axis=1)
    std = diag.bubble(ygrid, params, diag.BubbleParams())
    worst = 0.0
    for lam in (1.0, 0.1, 0.01):
        bp = diag.BubbleParams(lambda_scale=lam,
                               amplitude=lam**params.half_weight_power)
        rp = diag.RescaleParams(p=params.p_crit,
                                u0=diag.bubble(np.zeros((1, params.n - 1)), params, bp)[0],
                                params=params)
        phi = diag.blow_up_rescale(lambda y, b=bp: diag.bubble(y, params, b), rp)
        worst = max(worst, float(np.max(np.abs(phi(ygrid) - std))))
    _check(checks, "rescale_fixes_standard_bubble", worst, 1e-12)

    # bubble pullback to the sphere is the constant one
    bp0 = diag.BubbleParams(amplitude=2.0**params.half_weight_power)
    lift = np.concatenate([ygrid, np.zeros((len(ygrid), 1))], axis=1)
    pull = diag.bubble(ygrid, params, bp0) / conformal_weight(lift, params)
    _check(checks, "bubble_pullback_constant", np.max(np.abs(pull - 1.0)), 1e-12)

    # concentration of the bubble family pulled back to the sphere
    reports = []
    for lam in (1.0, 0.3, 0.1):
        bp = diag.BubbleParams(lambda_scale=lam)
        # transport the bubble to the sphere through the inverse chart
        safe = sphere.nodes * (1.0 - 1e-13)
        ys = mobius_f_inverse(safe, params)[:, :-1]
        vals = diag.bubble(ys, params, bp) / conformal_weight(
            np.concatenate([ys, np.zeros((len(ys), 1))], axis=1), params
        )
        _write_profile(config, f"bubble_lambda_{lam}.csv", sphere, vals)
        reports.append(diag.concentration_report(ops.BoundaryFunction(vals, sphere)))
    # sup / inf over the nodes grows strictly as lambda falls, on any rule
    ratios = [r["sup_inf_ratio"] for r in reports]
    _check(checks, "sup_inf_ratio_grows", ratios, "monotone",
           passed=all(b > a for a, b in zip(ratios, ratios[1:])))
    return {"checks": checks, "concentration_reports": reports}


COMMANDS = {
    "verify": (cmd_verify, "run the cross-module identity and inequality checks"),
    "sharp": (cmd_sharp, "estimate the sharp constant by every applicable method"),
    "solve": (cmd_solve, "solve one subcritical maximization"),
    "continue": (cmd_continue, "run the p-continuation toward the critical exponent"),
    "diagnose": (cmd_diagnose, "run the bubble/blow-up diagnostic battery"),
}


# ----------------------------------------------------------------- output

def _make_output_dir(out: str) -> None:
    """Create `out` and its profiles/ directory before any computation."""
    try:
        os.makedirs(os.path.join(out, "profiles"), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create {out!r}: {exc.strerror or exc}") from exc


def _write_report(config: RunConfig, command: str, report: dict) -> None:
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config.to_dict(),
        "report": report,
    }
    with open(os.path.join(config.output_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_profile(config: RunConfig, name: str, sphere, values: np.ndarray) -> None:
    write_csv(os.path.join(config.output_dir, "profiles", name), sphere.nodes, values)


def _write_stages(config: RunConfig, rows: list[dict]) -> None:
    """stages.csv: a header of the rows' keys, then each row's values by repr."""
    with open(os.path.join(config.output_dir, "stages.csv"), "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row.values())) + "\n")


if __name__ == "__main__":
    sys.exit(main())
