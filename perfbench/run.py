"""poissonext benchmark: time to a verified solution, memory, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs in a fresh worker
process (perfbench/worker.py) with BLAS pinned to one thread, one worker at
a time (a closed loop with one client).  Operations repeat on the same
seeded input while the next one still fits in ``--seconds``; at least one
always runs.  Every operation is checked, and one whose checks fail counts
as failed.

--trace 0 reports the end-to-end metrics (medians over the operations).
--trace 1 alternates an untraced and a traced operation and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md here for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import DEFAULT_SEED, THREAD_VARS  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "quadrature.build_s": "s",
    "quadrature.integrate_calls": "count",
    "quadrature.integrate_s": "s",
    "kernels.sphere_mass_s": "s",
    "kernels.sphere_mass_points": "count",
    "operators.build_self_s": "s",
    "operators.balance_iterations": "count",
    "operators.resident_mb": "MB",
    "operators.extend_calls": "count",
    "operators.extend_ms_p50": "ms",
    "operators.adjoint_calls": "count",
    "operators.adjoint_ms_p50": "ms",
    "solver.stages": "count",
    "solver.steps": "count",
    "solver.step_ms_p50": "ms",
    "solver.products_per_step": "ratio",
    "solver.accept_ratio": "ratio",
    "trace.solve_coverage": "ratio",
    "trace.overhead_pct": "%",
}
# a run must end within 180 s even if an operation hangs
RUN_DEADLINE_S = 170


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def locate_program(root: str, env: dict) -> None:
    """Exit non-zero unless poissonext imports from this checkout's ``src``.

    The import also fills the bytecode and file caches once, before any
    timing, so the first measured operation does not pay for them.
    """
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "poissonext", "__init__.py")):
        sys.exit(f"run.py: no poissonext sources under {os.path.join(root, 'src')}; "
                 "run from the root of a poissonext checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import poissonext; print(poissonext.__file__)"],
        env=env, cwd=root, capture_output=True, text=True, timeout=RUN_DEADLINE_S / 2)
    found = os.path.realpath(probe.stdout.strip() or ".")
    if probe.returncode != 0 or not found.startswith(src + os.sep):
        sys.exit(f"run.py: poissonext does not import from {src}:\n{probe.stderr}")


def run_worker(root: str, env: dict, workload: str, seed: int, trace: bool,
               timeout: float) -> dict:
    """One operation in a fresh process; a crash or timeout becomes a failed record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"operation exceeded {timeout:.0f} s"], "timed_out": True}
    if proc.returncode == 3:  # a trace target is missing: no layer may read as zero
        sys.exit(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"worker exited {proc.returncode}:\n{proc.stderr}"]}
    return json.loads(lines[-1])


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def summarize(records: list[dict], trace: bool) -> dict:
    """The result object: correctness counts and the reported metrics."""
    failed = sum(1 for r in records if r.get("failures"))
    if trace:
        traced = [r["layers"] for r in records if "layers" in r]
        plain = [r for r in records if "layers" not in r and "solve_s" in r]
        values = {name: median_of(traced, name) for name in PER_LAYER
                  if name != "trace.overhead_pct"}
        untraced_solve = median_of(plain, "solve_s")
        traced_solve = median_of([r for r in records if "layers" in r], "solve_s")
        if untraced_solve and traced_solve:
            values["trace.overhead_pct"] = 100.0 * (traced_solve / untraced_solve - 1.0)
        units = PER_LAYER
    else:
        values = {name: median_of(records, name) for name in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": v, "unit": units[name]}
               for name, v in values.items() if v is not None}
    return {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"draws the initial profile (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="measurement budget; no operation starts that would overrun it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    env = worker_env(root)
    locate_program(root, env)
    # with --trace 1 each round is an untraced operation, then a traced one
    plan = (False, True) if args.trace else (False,)
    records, longest_round = [], 0.0
    start = time.perf_counter()
    while not records or (time.perf_counter() - start + longest_round <= args.seconds
                          and not records[-1].get("timed_out")):
        round_start = time.perf_counter()
        for traced in plan:
            remaining = RUN_DEADLINE_S - (time.perf_counter() - start)
            if remaining <= 0:
                break
            rec = run_worker(root, env, args.workload, args.seed, traced, remaining)
            records.append(rec)
            status = "ok" if not rec.get("failures") else "FAILED: " + "; ".join(rec["failures"])
            timing = (f"setup {rec['setup_s']:.3f} s, solve {rec['solve_s']:.3f} s, "
                      f"rss {rec['peak_rss_mb']:.1f} MB, steps {rec['steps']}, "
                      f"lambda {rec['lambda']!r}, " if "solve_s" in rec else "")
            print(f"# op {len(records)} {'traced' if traced else 'untraced'}: {timing}{status}")
        longest_round = max(longest_round, time.perf_counter() - round_start)

    prov = next((r["provenance"] for r in records if "provenance" in r), {})
    print(f"# workload {args.workload}, seed {args.seed}, {len(records)} operations, "
          f"environment {json.dumps(prov, sort_keys=True)}")
    result = summarize(records, bool(args.trace))
    samples = sum(1 for r in records if ("layers" in r) == bool(args.trace) and "solve_s" in r)
    for name, m in result["metrics"].items():
        print(f"# {name:30s} {m['value']:14.6g} {m['unit']:6s} median of {samples}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
