"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

The parent (run.py) starts this script with PYTHONPATH set to the
checkout's ``src`` and the BLAS thread variables set to 1.  It prints one
JSON record: the timings, peak RSS, the correctness verdict and, when
traced, the per-layer figures.  Nothing from numpy or poissonext is
imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracer
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0


def seeded_profile(np, nodes, seed: int):
    """Positive, antipodal, bandlimited initial profile drawn from ``seed``.

    v0 = 1 + q / (2 max|q|) with q a random even polynomial of degree <= 4
    in the node coordinates: even monomials take the same value at x and
    -x exactly, so v0 is antipodal bit for bit, lies in [0.5, 1.5] and has
    spherical-harmonic degree at most 4.
    """
    from itertools import combinations_with_replacement

    rng = np.random.default_rng(seed)
    q = np.zeros(len(nodes))
    for degree in (2, 4):
        for idx in combinations_with_replacement(range(nodes.shape[1]), degree):
            q += rng.standard_normal() * np.prod(nodes[:, list(idx)], axis=1)
    return 1.0 + q / (2.0 * np.max(np.abs(q)))


def weight_values(spec, nodes):
    kind, eps = spec["weight"]
    if kind == "cos2":
        return 1.0 + eps * (nodes[:, 0] ** 2 - nodes[:, 1] ** 2)
    if kind == "p2":
        return 1.0 + eps * 0.5 * (3.0 * nodes[:, 2] ** 2 - 1.0)
    raise ValueError(f"unknown weight {kind!r}")


def resident_bytes(op, np) -> int:
    """Bytes of every ndarray the operator holds, computed from array sizes.

    Walks the operator's attributes (and containers and objects below them),
    skipping the quadratures and parameters it was built from.
    """
    skip = {id(op.sphere), id(op.ball), id(op.params)}
    seen, total, todo = set(), 0, [op]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in skip:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes if obj.base is None else 0
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return total


def check_operation(px, np, spec, seed, sphere, ball, op, weight, out) -> list[str]:
    """Correctness gate; returns the failed checks (empty when correct)."""
    failures = []
    params = op.params
    if not out["converged"]:
        failures.append("solver did not converge")
    try:
        el = px.solver.el_residual(out["v"], weight, params, ball,
                                   lam=out["lambda"], p=out["p"], operator=op)
    except ValueError as exc:
        el = float("inf")
        failures.append(f"EL residual undefined: {exc}")
    if not el <= workloads.EL_RESIDUAL_MAX:
        failures.append(f"EL residual {el:.3e} > {workloads.EL_RESIDUAL_MAX:g}")
    ref = spec["lambda_ref"]
    lam_dev = abs(out["lambda"] / ref - 1.0) if ref else float("inf")
    if not lam_dev <= workloads.LAMBDA_RTOL:
        failures.append(f"lambda {out['lambda']!r} is {lam_dev:.3e} from reference {ref!r}")
    if spec["kind"] == "continue":
        if not out["lambda"] > out["threshold"]:
            failures.append(f"lambda {out['lambda']!r} <= threshold {out['threshold']!r}")
        if out["blow_up"]:
            failures.append("blow-up flag raised")

    # operator contract
    rng = np.random.default_rng(seed + 1)
    v = rng.uniform(0.5, 1.5, len(sphere))
    f = rng.uniform(0.5, 1.5, len(ball))
    ev, tf = op.extend_values(v), op.adjoint_values(f)
    lhs = px.quadrature.integrate_ball(ev * f, ball)
    rhs = px.quadrature.integrate_boundary(v * tf, sphere)
    duality = abs(lhs - rhs) / abs(lhs)
    if not duality <= workloads.DUALITY_MAX:
        failures.append(f"duality {duality:.3e} > {workloads.DUALITY_MAX:g}")
    if not (np.array_equal(op.extend_values(v[sphere.antipode_index]), ev[ball.antipode_index])
            and np.array_equal(op.adjoint_values(f[ball.antipode_index]), tf[sphere.antipode_index])):
        failures.append("antipodal equivariance is not exact")
    e_s, e_b = np.zeros(len(sphere)), np.zeros(len(ball))
    e_s[0] = e_b[0] = 1.0
    if not (np.all(op.extend_values(e_s) > 0) and np.all(op.adjoint_values(e_b) > 0)):
        failures.append("extension or adjoint of a point mass is not positive everywhere")
    radii, inverse = np.unique(ball.radii, return_inverse=True)
    mass = px.kernels.kernel_ball_sphere_mass(radii, params)[inverse]
    mass_dev = float(np.max(np.abs(op.extend_values(np.ones(len(sphere))) / mass - 1.0)))
    if not mass_dev <= workloads.SPHERE_MASS_RTOL:
        failures.append(f"constant extension is {mass_dev:.3e} from the sphere mass")
    return failures


def provenance(np) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_operation(spec: dict, seed: int, trace: bool) -> dict:
    """Set up, solve and check one workload; the record the parent reads."""
    rec = tracer.Recorder() if trace else None
    t0 = time.perf_counter()
    import numpy as np
    import poissonext as px

    if rec:
        rec.install()
        rec.active = True
        setup_span = rec.open("bench.setup")
    params = px.ProblemParams(spec["n"], spec["a"])
    sphere = px.quadrature.build_sphere_quadrature(params, spec["sphere"])
    ball = px.quadrature.build_ball_quadrature(params, *spec["ball"])
    op = px.operators.build_extension_operator(sphere, ball, params)
    t1 = time.perf_counter()
    if rec:
        rec.close(setup_span)
        rec.active = False

    weight = px.WeightFunction(weight_values(spec, sphere.nodes), sphere, antipodal=True)
    init = px.BoundaryFunction(seeded_profile(np, sphere.nodes, seed), sphere)
    if rec:
        rec.active = True
        solve_span = rec.open("bench.solve")
    t2 = time.perf_counter()
    if spec["kind"] == "continue":
        sharp = px.functionals.sharp_constant(params, "constant_test_function", sphere, ball)
        schedule = px.solver.default_schedule(params, floor=spec["floor"])
        rep = px.solver.continuation(weight, schedule, params, sphere, ball,
                                     init=init, sharp=sharp)
        out = {
            "v": rep.final_v, "lambda": rep.lambda_est, "p": schedule[-1],
            "converged": len(rep.stages) == len(schedule)
            and all(s.converged for s in rep.stages),
            "threshold": rep.lambda_threshold, "blow_up": rep.blow_up_flag,
            "steps": sum(s.iterations for s in rep.stages),
        }
    else:
        p = params.p_crit + spec["p_frac"] * (params.p_bulk - params.p_crit)
        problem = px.solver.SubcriticalProblem(params=params, weight=weight, p=p,
                                               sphere=sphere, ball=ball, operator=op)
        v, lam, report = px.solver.maximize_subcritical(problem, init)
        out = {"v": v, "lambda": lam, "p": p,
               "converged": report["converged"] and not report["step_failed"],
               "steps": report["iterations"]}
    t3 = time.perf_counter()
    if rec:
        rec.close(solve_span)
        rec.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": t1 - t0,
        "solve_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "lambda": out["lambda"],
        "steps": out["steps"],
        "failures": check_operation(px, np, spec, seed, sphere, ball, op, weight, out),
        "provenance": provenance(np),
    }
    if rec:
        layers = tracer.layer_metrics(rec, solve_span)
        layers["operators.balance_iterations"] = op.diagnostics()["balance_iterations"]
        layers["operators.resident_mb"] = resident_bytes(op, np) / 2.0**20
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    try:
        record = run_operation(spec, args.seed, bool(args.trace))
    except tracer.TraceTargetMissing as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 3
    except Exception:  # the operation failed; the parent counts it as failed
        record = {"failures": ["operation raised:\n" + traceback.format_exc()]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
