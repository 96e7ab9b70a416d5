"""Strict JSON run configuration for the command-line front end.

Unknown keys are rejected with their path, so a typo in a tolerance name
fails loudly instead of silently running with defaults.  The weight is
specified as a truncated series (constant, cosine series on the circle,
zonal Legendre series on the two-sphere) so antipodal symmetry is a parity
check on the frequencies and positivity can be certified on a fine grid
with an explicit margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .functionals import WeightFunction
from .params import ProblemParams
from .quadrature import SphereQuadrature, graded_radial_rule

_SCHEMA_VERSION = 1
# weight positivity is certified on this many sample points; a series term
# above the grid's Nyquist limit would pass unseen between them
_POSITIVITY_GRID = 4096
_MAX_FREQUENCY = _POSITIVITY_GRID // 2
# lambda scales as K^(-p_bulk / p) with p_bulk / p <= 2, so a weight within
# this range keeps lambda and its threshold representable
_WEIGHT_RANGE = (1e-50, 1e50)

# keys of earlier configurations, rejected with the reason they went
_REMOVED = {
    "halfspace": "halfspace: removed; verify builds the half-space grid at its library defaults",
    "operator": "operator: removed; the extension operator is always balanced",
    "quadrature.radial_rule": "quadrature.radial_rule: removed; the radial rule is always graded_gl",
    "solver.damping": "solver.damping: removed; every step is Anderson-mixed or starts at the full step",
}


class ConfigError(ValueError):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


_EVEN_RESOLUTION = (lambda x: _is_int(x) and x >= 4 and x % 2 == 0, "an even integer >= 4")
_POSITIVE = (lambda x: _is_real(x) and x > 0, "a positive number")

# every key by its path: (default, predicate, what the predicate requires).
# A None default also admits null, which selects the derived default; a None
# predicate leaves the key to its own check in parse_config.
_KEYS = {
    "schema_version": (_SCHEMA_VERSION, None, None),
    "params.n": (3, _is_int, "an integer"),
    "params.a": (0.0, _is_real, "a number"),
    "weight": ({"kind": "constant", "value": 1.0}, None, None),
    "quadrature.sphere_resolution": (None, *_EVEN_RESOLUTION),
    # the front end never builds fewer radial points than 18; parse_config
    # asks the graded rule whether the count fits inside the ball in float64
    "quadrature.ball_radial_points": (96, lambda x: _is_int(x) and x >= 18, "an integer >= 18"),
    "quadrature.ball_angular_resolution": (None, *_EVEN_RESOLUTION),
    "solver.p": (None, _is_real, "a number"),
    "solver.schedule": (None, None, None),
    "solver.epsilon_floor": (1e-3, *_POSITIVE),
    "solver.tol_v": (1e-9, *_POSITIVE),
    "solver.max_iter": (5000, lambda x: _is_int(x) and x >= 1, "a positive integer"),
    "solver.blow_up_factor": (3.0, *_POSITIVE),
    "solver.multistart": (0, lambda x: _is_int(x) and x >= 0, "a nonnegative integer"),
    "output_dir": ("out", lambda x: isinstance(x, str) and x != "", "a nonempty string"),
    "seed": (7, lambda x: _is_int(x) and x >= 0, "a nonnegative integer"),
}


def _defaults(section: str) -> dict:
    """The defaults of a section's keys, by key."""
    prefix = section + "."
    return {path[len(prefix):]: entry[0] for path, entry in _KEYS.items()
            if path.startswith(prefix)}


def _check(path: str, value) -> None:
    default, ok, requirement = _KEYS[path]
    if ok and not (value is None and default is None or ok(value)):
        raise ConfigError(f"{path} must be {requirement}, got {value!r}")


@dataclass
class RunConfig:
    params: ProblemParams
    weight_spec: dict
    quadrature: dict
    solver: dict
    output_dir: str
    seed: int

    def to_dict(self) -> dict:
        """Normalized, losslessly re-parseable echo of the configuration."""
        record = {
            "schema_version": _SCHEMA_VERSION,
            "params": {"n": self.params.n, "a": self.params.a},
            "weight": self.weight_spec,
            "quadrature": self.quadrature,
            "solver": self.solver,
            "output_dir": self.output_dir,
            "seed": self.seed,
        }
        return json.loads(json.dumps(record, sort_keys=True))


def _merge_strict(section: str, user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{section}: expected an object")
    for key in user:
        if f"{section}.{key}" in _REMOVED:
            raise ConfigError(_REMOVED[f"{section}.{key}"])
    out = _defaults(section)
    unknown = set(user) - set(out)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}")
    out.update(user)
    for key, value in out.items():
        _check(f"{section}.{key}", value)
    return out


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in data:
        if key in _REMOVED:
            raise ConfigError(_REMOVED[key])
    unknown = set(data) - {path.partition(".")[0] for path in _KEYS}
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    if data.get("schema_version", _SCHEMA_VERSION) != _SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version")

    pdata = _merge_strict("params", data.get("params", {}))
    try:
        params = ProblemParams(pdata["n"], pdata["a"])
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    if not isinstance(data.get("weight", {}), dict):
        raise ConfigError("weight: expected an object")
    wdata = dict(data.get("weight", _KEYS["weight"][0]))
    _validate_weight_spec(wdata, params)

    qdata = _merge_strict("quadrature", data.get("quadrature", {}))
    try:
        graded_radial_rule(qdata["ball_radial_points"])
    except ValueError as exc:
        raise ConfigError(f"quadrature.ball_radial_points: {exc}") from exc
    if qdata["sphere_resolution"] is None:
        qdata["sphere_resolution"] = 128 if params.n == 2 else 16
    if qdata["ball_angular_resolution"] is None:
        qdata["ball_angular_resolution"] = (
            2 * qdata["sphere_resolution"] if params.n == 2 else qdata["sphere_resolution"]
        )

    sdata = _merge_strict("solver", data.get("solver", {}))
    if sdata["p"] is not None and not params.p_crit < sdata["p"] < params.p_bulk:
        raise ConfigError(f"solver.p must lie in (p_crit, p_bulk) = "
                          f"({params.p_crit}, {params.p_bulk}), got {sdata['p']!r}")
    if not sdata["epsilon_floor"] < params.p_bulk - params.p_crit:
        raise ConfigError("solver.epsilon_floor must be below p_bulk - p_crit")
    if sdata["schedule"] is not None:
        sched = sdata["schedule"]
        if not (isinstance(sched, list) and sched and all(_is_real(p) for p in sched)):
            raise ConfigError("solver.schedule must be a nonempty list of numbers")
        sched = [float(p) for p in sched]
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("solver.schedule must be strictly decreasing")
        if not params.p_crit <= sched[-1] <= sched[0] < params.p_bulk:
            raise ConfigError("solver.schedule must stay inside [p_crit, p_bulk)")
        sdata["schedule"] = sched

    output_dir = data.get("output_dir", _KEYS["output_dir"][0])
    seed = data.get("seed", _KEYS["seed"][0])
    _check("output_dir", output_dir)
    _check("seed", seed)
    return RunConfig(
        params=params,
        weight_spec=wdata,
        quadrature=qdata,
        solver=sdata,
        output_dir=output_dir,
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    return parse_config(data)


def _validate_weight_spec(spec: dict, params: ProblemParams) -> None:
    kind = spec.get("kind")
    if kind == "constant":
        unknown = set(spec) - {"kind", "value"}
        if unknown:
            raise ConfigError(f"weight: unknown key(s) {sorted(unknown)}")
        value = spec.get("value", 1.0)
        if not (_is_real(value) and _WEIGHT_RANGE[0] <= value <= _WEIGHT_RANGE[1]):
            raise ConfigError(f"weight: constant must be a number in {list(_WEIGHT_RANGE)}")
        return
    if kind == "cosine_series":
        if params.n != 2:
            raise ConfigError("weight: cosine_series requires n = 2")
    elif kind == "zonal_series":
        if params.n != 3:
            raise ConfigError("weight: zonal_series requires n = 3")
    else:
        raise ConfigError(f"weight: unknown kind {kind!r}")
    unknown = set(spec) - {"kind", "coefficients"}
    if unknown:
        raise ConfigError(f"weight: unknown key(s) {sorted(unknown)}")
    coeffs = spec.get("coefficients")
    if not isinstance(coeffs, dict) or not coeffs:
        raise ConfigError("weight: coefficients must be a nonempty object")
    noun = "frequency" if kind == "cosine_series" else "degree"
    for key, value in coeffs.items():
        if not _is_real(value):
            raise ConfigError(f"weight: coefficient {key!r} must be a number")
        try:
            k = int(key)
        except ValueError:
            k = None
        if k is None or str(key) != str(k):
            raise ConfigError(f"weight: bad frequency/degree {key!r}; write it as a plain decimal")
        if k < 0:
            raise ConfigError("weight: frequencies/degrees must be nonnegative")
        if k > _MAX_FREQUENCY:
            raise ConfigError(f"weight: {noun} {k} is above {_MAX_FREQUENCY}, the Nyquist "
                              f"limit of the {_POSITIVITY_GRID}-point positivity grid")
        if k % 2:
            raise ConfigError(f"weight: antipodality violated (odd {noun} {k})")
    low, high = weight_extremes(spec, params)
    if low <= 0:
        raise ConfigError(f"weight: not positive (min over fine grid {low:.3e})")
    if not _WEIGHT_RANGE[0] <= low <= high <= _WEIGHT_RANGE[1]:
        raise ConfigError(f"weight: min and max over fine grid must lie in {list(_WEIGHT_RANGE)}")


def _weight_callable(spec: dict, params: ProblemParams):
    kind = spec["kind"]
    if kind == "constant":
        value = float(spec.get("value", 1.0))
        return lambda pts: np.full(len(np.atleast_2d(pts)), value)
    coeffs = {int(k): float(v) for k, v in spec["coefficients"].items()}
    if kind == "cosine_series":
        def k2(pts):
            pts = np.atleast_2d(pts)
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            out = np.zeros(len(pts))
            for freq, c in sorted(coeffs.items()):
                out += c * np.cos(freq * theta)
            return out
        return k2
    deg = max(coeffs)
    series = np.zeros(deg + 1)
    for ell, c in coeffs.items():
        series[ell] = c

    def k3(pts):
        pts = np.atleast_2d(pts)
        return legendre.legval(np.clip(pts[:, 2], -1.0, 1.0), series)
    return k3


def weight_extremes(spec: dict, params: ProblemParams) -> tuple[float, float]:
    """Minimum and maximum of the weight over a fine parity-respecting sample grid."""
    fn = _weight_callable(spec, params)
    if params.n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, _POSITIVITY_GRID, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        t = np.linspace(-1.0, 1.0, _POSITIVITY_GRID)
        pts = np.stack([np.sqrt(1 - t**2), np.zeros(_POSITIVITY_GRID), t], axis=1)
    values = fn(pts)
    return float(values.min()), float(values.max())


def evaluate_weight(config: RunConfig, quad: SphereQuadrature) -> WeightFunction:
    fn = _weight_callable(config.weight_spec, config.params)
    return WeightFunction(quad.symmetrize(fn(quad.nodes)), quad, antipodal=True)
