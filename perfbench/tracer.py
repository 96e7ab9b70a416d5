"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each poissonext layer by
rebinding module and class attributes, so no file under ``src/`` changes.
Each wrapped call becomes a span (name, start, end, parent, count); spans
stay in memory until the operation ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.

This module imports no third-party package, so the worker can load it
before the timed ``import poissonext``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (owner, attribute, span name, count).  The owner is a module, or a class
# written as "module:Class".  Functions imported by name into a module are
# wrapped where they are looked up, so the span records the caller's layer
# boundary.  ``count`` maps (args, result) to the span's count: the number
# of radii a sphere-mass call evaluated, or 1 for an accepted solver step.
TARGETS = (
    ("poissonext.quadrature", "build_sphere_quadrature", "quadrature.build", None),
    ("poissonext.quadrature", "build_ball_quadrature", "quadrature.build", None),
    ("poissonext.solver", "integrate_ball", "quadrature.integrate_ball", None),
    ("poissonext.solver", "integrate_boundary", "quadrature.integrate_boundary", None),
    ("poissonext.functionals", "integrate_ball", "quadrature.integrate_ball", None),
    ("poissonext.functionals", "integrate_boundary", "quadrature.integrate_boundary", None),
    ("poissonext.operators", "kernel_ball_sphere_mass", "kernels.sphere_mass",
     lambda args, result: getattr(args[0], "size", 1)),
    ("poissonext.operators:ExtensionOperator", "__post_init__", "operators.build", None),
    ("poissonext.operators:ExtensionOperator", "extend_values", "operators.extend", None),
    ("poissonext.operators:ExtensionOperator", "adjoint_values", "operators.adjoint", None),
    ("poissonext.solver", "continuation", "solver.continuation", None),
    ("poissonext.solver", "maximize_subcritical", "solver.maximize", None),
    ("poissonext.solver", "fixed_point_step", "solver.step",
     lambda args, result: 0 if result.step_failed else 1),
)


class TraceTargetMissing(RuntimeError):
    """A wrap target no longer exists; the layer would read as zero."""


class Recorder:
    """In-memory span tree; records only while ``active`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self.counts.append(1)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int, count: int | None = None) -> None:
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        if count is not None:
            self.counts[idx] = count

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, None if count is None else count(args, result))
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Rebind every target, or none if one is missing."""
        for owner, attr, fn, name, count in resolve(targets):
            setattr(owner, attr, self.wrap(fn, name, count))


def resolve(targets=TARGETS) -> list[tuple]:
    """(owner, attribute, function, span name, count) for each target.

    Raises TraceTargetMissing naming the first target that does not exist.
    """
    resolved = []
    for owner_name, attr, name, count in targets:
        module_name, _, class_name = owner_name.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            where = f"{owner_name.replace(':', '.')}.{attr}"
            raise TraceTargetMissing(
                f"trace target {where} is missing; the traced run cannot report {name}"
            ) from None
        resolved.append((owner, attr, fn, name, count))
    return resolved


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for c in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def layer_metrics(rec: Recorder, solve_root: int) -> dict[str, float]:
    """Per-layer figures of one traced operation.

    ``solve_root`` is the span that brackets the solve; spans outside it
    belong to set-up.  Spans whose name starts with ``bench.`` are the
    worker's own brackets and count toward no layer.
    """
    names, starts, ends, parents, counts = (
        rec.names, rec.starts, rec.ends, rec.parents, rec.counts)
    own = self_times(starts, ends, parents)
    dur = [e - s for s, e in zip(starts, ends)]

    def ancestors(idx):
        idx = parents[idx]
        while idx >= 0:
            yield idx
            idx = parents[idx]

    in_solve = [solve_root in ancestors(i) for i in range(len(names))]
    in_step = [any(names[a] == "solver.step" for a in ancestors(i)) for i in range(len(names))]

    def pick(name, solve_only=False):
        return [i for i, nm in enumerate(names)
                if nm == name and (in_solve[i] or not solve_only)]

    integrate = pick("quadrature.integrate_ball", True) + pick("quadrature.integrate_boundary", True)
    extend, adjoint = pick("operators.extend", True), pick("operators.adjoint", True)
    steps = pick("solver.step", True)
    sphere_mass = pick("kernels.sphere_mass")
    n_steps = len(steps)
    in_step_products = sum(1 for i in extend + adjoint if in_step[i])
    candidates = sum(1 for i in pick("quadrature.integrate_ball", True) if in_step[i])
    accepted = sum(counts[i] for i in steps)
    layer_self = sum(own[i] for i in range(len(names))
                     if in_solve[i] and not names[i].startswith("bench."))

    def p50_ms(idx):
        return 1e3 * statistics.median(dur[i] for i in idx) if idx else 0.0

    return {
        "quadrature.build_s": sum(own[i] for i in pick("quadrature.build")),
        "quadrature.integrate_calls": len(integrate),
        "quadrature.integrate_s": sum(own[i] for i in integrate),
        "kernels.sphere_mass_s": sum(own[i] for i in sphere_mass),
        "kernels.sphere_mass_points": sum(counts[i] for i in sphere_mass),
        "operators.build_self_s": sum(own[i] for i in pick("operators.build")),
        "operators.extend_calls": len(extend),
        "operators.extend_ms_p50": p50_ms(extend),
        "operators.adjoint_calls": len(adjoint),
        "operators.adjoint_ms_p50": p50_ms(adjoint),
        "solver.stages": len(pick("solver.maximize", True)),
        "solver.steps": n_steps,
        "solver.step_ms_p50": p50_ms(steps),
        "solver.products_per_step": in_step_products / n_steps if n_steps else 0.0,
        "solver.accept_ratio": accepted / candidates if candidates else 0.0,
        "trace.solve_coverage": layer_self / dur[solve_root],
    }
