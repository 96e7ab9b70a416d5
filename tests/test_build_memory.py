import importlib.util
import os

import poissonext as px

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("build_memory",
                                               os.path.join(ROOT, "tools", "build_memory.py"))
build_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_memory)


def test_reads_every_benchmark_workload():
    assert set(build_memory.load_workloads()) >= {"n2-fine-solve", "n3-balance-solve"}


def test_measures_the_tables_the_operator_holds():
    spec = {"n": 3, "a": -0.5, "sphere": 8, "ball": (12, 12)}
    row = build_memory.measure(spec)
    params = px.ProblemParams(3, -0.5)
    op = px.ExtensionOperator(params, px.build_sphere_quadrature(params, 8),
                              px.build_ball_quadrature(params, 12, 12))
    assert row["tables"] == sum(t.nbytes for t in op.kernel_table)
    assert row["gather"] == op.gather_index.nbytes
    assert row["workspace"] == op.workspace.nbytes
    assert 0 < row["fill_transient"] and row["tables"] + row["gather"] < row["build_peak"]
    # the solve's per-call transients beyond each output: every table-size
    # array is in the workspace
    assert 0 < row["power_adjoint_transient"] <= 2 ** 16
    assert 0 < row["bulk_energy_transient"] <= 2 ** 16
