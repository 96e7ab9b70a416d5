"""Print what the operator build of each benchmark workload allocates.

    python3 tools/build_memory.py

For the rules of every workload in perfbench/workloads.py, one line with,
in MiB: the solver's kernel tables, its gather index, the workspace its
table-layout products write through, the transient peak of
`_kernel_table` (its traced peak minus the bytes of the arrays it returns),
the traced peak of the whole build (quadratures and operator), and the
transients of one warm `power_adjoint` and one warm `bulk_energy` call,
the solve's per-call transients (each traced peak minus its output's
bytes).  All of them come from `tracemalloc`, so they do not depend on
where the checkout sits or on the allocator's state, as RSS does.
poissonext is imported from the repository's src/; perfbench/ is only
read.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import poissonext as px  # noqa: E402
from poissonext.operators import _kernel_table  # noqa: E402

MIB = 2 ** 20


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def traced(call):
    """(call's result, its traced peak in bytes)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(spec: dict) -> dict:
    """Build memory of one workload's rules, in bytes."""
    params = px.ProblemParams(spec["n"], spec["a"])

    def build():
        sphere = px.build_sphere_quadrature(params, spec["sphere"])
        ball = px.build_ball_quadrature(params, *spec["ball"])
        return sphere, ball, px.ExtensionOperator(params, sphere, ball)

    (sphere, ball, op), build_peak = traced(build)
    (tables, gather, columns, orbit, _), fill_peak = traced(
        lambda: _kernel_table(sphere, ball, params))
    held = sum(x.nbytes for x in (*tables, gather, orbit, *sum(columns, ())))
    v = np.ones(len(sphere))
    row = {"tables": sum(t.nbytes for t in op.kernel_table), "gather": op.gather_index.nbytes,
           "workspace": op.workspace.nbytes, "fill_transient": fill_peak - held,
           "build_peak": build_peak}
    for call in (op.power_adjoint, op.bulk_energy):
        call(v, params.q_exp)       # the traced call below is warm
        out, peak = traced(lambda: call(v, params.q_exp))
        row[f"{call.__name__}_transient"] = peak - np.asarray(out).nbytes
    return row


def main() -> None:
    for name, spec in load_workloads().items():
        row = measure(spec)
        print(name, " ".join(f"{key}_mib {value / MIB:.3f}" for key, value in row.items()))


if __name__ == "__main__":
    main()
