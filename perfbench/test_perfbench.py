"""Checks of the benchmark itself: span arithmetic, trace targets, the gate.

Needs poissonext importable (PYTHONPATH=src).  The traced operation runs in
a child process, because installing the trace rebinds poissonext functions
for the whole interpreter.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = {
    "kind": "solve", "n": 2, "a": 0.5, "sphere": 32, "ball": (16, 64),
    "weight": ("cos2", 0.1), "p_frac": 0.25, "lambda_ref": None,
}


def test_self_times_of_synthetic_tree():
    # root [0,10] with children A [1,4] and B [3,6] that overlap, C [9,12]
    # that outlives the root, and D [2,3] under A.
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_layer_metrics_of_synthetic_trace():
    # the clock advances by one at every open and close
    clock = iter(range(100)).__next__
    rec = tracer.Recorder(clock=lambda: float(clock()))
    rec.active = True
    setup = rec.open("bench.setup")
    build = rec.open("operators.build")
    rec.close(rec.open("kernels.sphere_mass"), 7)
    rec.close(build)
    rec.close(setup)
    solve = rec.open("bench.solve")
    for accepted in (1, 1):
        step = rec.open("solver.step")
        for name in ("operators.extend", "operators.adjoint",
                     "quadrature.integrate_ball", "quadrature.integrate_ball"):
            rec.close(rec.open(name))
        rec.close(step, accepted)
    rec.close(rec.open("operators.extend"))
    rec.close(solve)

    m = tracer.layer_metrics(rec, solve)
    assert m["operators.build_self_s"] == 2.0
    assert m["kernels.sphere_mass_s"] == 1.0
    assert m["kernels.sphere_mass_points"] == 7
    assert m["solver.steps"] == 2
    assert m["solver.step_ms_p50"] == 9000.0
    assert m["operators.extend_calls"] == 3
    assert m["solver.products_per_step"] == 2.0
    assert m["solver.accept_ratio"] == 0.5
    assert m["quadrature.integrate_calls"] == 4
    # solve lasts 23 ticks; steps own 2 x 5 of them, the calls 9
    assert m["trace.solve_coverage"] == pytest.approx(19.0 / 23.0)


def test_missing_trace_target_is_named_and_nothing_is_rebound():
    import poissonext.solver as solver

    before = solver.fixed_point_step
    targets = [
        ("poissonext.solver", "fixed_point_step", "solver.step", None),
        ("poissonext.solver", "no_such_entry", "solver.gone", None),
    ]
    with pytest.raises(tracer.TraceTargetMissing, match=r"poissonext\.solver\.no_such_entry"):
        tracer.Recorder().install(targets)
    assert solver.fixed_point_step is before
    with pytest.raises(tracer.TraceTargetMissing, match=r"poissonext\.operators\.Gone\.extend"):
        tracer.resolve([("poissonext.operators:Gone", "extend", "x", None)])


def test_wrong_lambda_counts_as_failed():
    good = worker.run_operation(TINY, seed=1, trace=False)
    lam = good["lambda"]
    right = worker.run_operation(dict(TINY, lambda_ref=lam), seed=2, trace=False)
    assert right["failures"] == []
    wrong = worker.run_operation(dict(TINY, lambda_ref=lam * (1 + 1e-6)), seed=2, trace=False)
    assert any("reference" in f for f in wrong["failures"])
    result = run.summarize([right, wrong], trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_traced_operation_reports_every_layer():
    import poissonext as px

    ball = px.build_ball_quadrature(px.ProblemParams(TINY["n"], TINY["a"]), *TINY["ball"])
    code = (
        "import json, worker, test_perfbench as t\n"
        "print(json.dumps(worker.run_operation(dict(t.TINY, kind='continue', floor=1e-2),"
        " seed=3, trace=True)['layers']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(os.path.dirname(HERE), "src")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])
    assert set(layers) == set(run.PER_LAYER) - {"trace.overhead_pct"}
    assert layers["solver.stages"] >= 2
    assert layers["kernels.sphere_mass_points"] == len(ball)
    assert layers["operators.resident_mb"] > 0
    assert layers["trace.solve_coverage"] > 0.9


def test_seeded_profile_is_positive_antipodal_and_seeded():
    import poissonext as px

    for n, res in ((2, 64), (3, 8)):
        sphere = px.build_sphere_quadrature(px.ProblemParams(n, 0.5), res)
        v = worker.seeded_profile(np, sphere.nodes, 5)
        assert np.all(v >= 0.5) and np.all(v <= 1.5)
        assert np.array_equal(v, v[sphere.antipode_index])
        assert np.array_equal(v, worker.seeded_profile(np, sphere.nodes, 5))
        assert not np.array_equal(v, worker.seeded_profile(np, sphere.nodes, 6))


def test_benchmark_json_matches_the_script():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads.WORKLOADS)
