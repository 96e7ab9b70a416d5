"""Constrained maximization of the bulk energy over antipodal boundary data.

The maximizers of

    lambda_p(K) = sup { integral |E v|^{p_bulk} :
                        v >= 0 antipodal, integral K |v|^p ds = 1 }

satisfy the Euler-Lagrange equation lambda K v^{p-1} = T[(E v)^{q_exp}]
with E the extension and T its adjoint.  The solver iterates the
normalized fixed-point map of that equation,

    G(v) = N(sym(w)),  w = (T[(E v)^{q_exp}] / K)^{1/(p-1)},

with sym the antipodal average and N the constraint normalization
x / (integral K |x|^p)^{1/p}.  N shares the weighted L^p norm of the other
norms, `functionals._norm`, and with it the rescale by max |x| that runs
only when the plain sum overflows (p runs into the thousands near the low
end of a).  Each step first tries Anderson mixing of depth ANDERSON_DEPTH
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011): from the last pairs
(v_i, G(v_i)), with f = G(v) - v, gamma minimizes |f_k - dF gamma| over the
differences dF of f and dX of v, and the mixed point is
x = v_k - dX gamma + (f_k - dF gamma) = G(v_k) - dG gamma.  gamma comes from
a modified Gram-Schmidt QR of the (at most ANDERSON_DEPTH) rows of dF and
back substitution (`_least_squares`); a row whose R diagonal falls below
lstsq's default cutoff is dropped, so a rank-deficient history still gives a
finite point, and the solve path calls no LAPACK routine.
N(sym(x)) is kept only if x is positive and the functional does not drop
(up to max(ASCENT_SLACK, q_exp eps) times it, the larger being the pairing's
roundoff past q_exp = 4,500; lambda scales with K); otherwise the history
restarts and the plain step v+ = N(sym((1 - tau) v + tau w)) runs from
tau = 1, halving tau until the functional does not drop.  The functional
history is therefore nondecreasing.  Convergence is judged on the
unmixed full-step residual |G(v) - v| / |v|, which neither halving nor
mixing can shrink; a state whose residual is below `tol_v` is returned
without a further candidate, so a converged solve certifies its own profile.
Continuation lowers p along a schedule toward the critical exponent,
warm-starting each stage from the previous one.  `maximize_multistart`
keeps the best of several starts (`multistart_inits`).  The pass gate of
every solve is `solved`, the conjunction of the `gate_checks` rows.

Every iterate is antipodal bit for bit, so E v and (E v)^{q_exp} have two
halves with the same bits; the solver extends into the upper half alone,
in the kernel table's layout.  Each candidate costs one evaluation of
g = T[(E v)^{q_exp}] (`ExtensionOperator.power_adjoint`), one pass of
extension, power and adjoint per azimuthal residue class on the folded
tables.  A step compares the pairing <v, g>, an exact sum over the sphere
nodes that equals the bulk energy up to product roundoff by discrete
duality, and g is the next step's right-hand side.  The exact ball sum
(`ExtensionOperator.bulk_energy`) runs once per solve, on one extension,
for the returned multiplier.  The solver never builds the general pair's
tables.  Profiles are plain arrays inside a solve; one `BoundaryFunction`
is built per state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .functionals import (WeightFunction, _norm, lambda_threshold,
                          sharp_constant_from_constant_test_function)
from .operators import BoundaryFunction, ExtensionOperator, build_extension_operator
from .params import ProblemParams
# integrate_ball is not called here; perfbench/tracer.py wraps it under this name
from .quadrature import (BallQuadrature, SphereQuadrature, integrate_ball,  # noqa: F401
                         integrate_boundary)

MAX_DAMPING_HALVINGS = 20
# relative: a candidate may lower the functional by this fraction of it,
# or by q_exp eps, the pairing's roundoff, where that is larger
ASCENT_SLACK = 1e-12
# Anderson mixing combines the last ANDERSON_DEPTH + 1 iterates
ANDERSON_DEPTH = 5
# a solve passes (`solved`) only if its profile solves the Euler-Lagrange
# equation to this relative residual; a converged step alone can be a stalled one
EL_RESIDUAL_TOL = 1e-3
# and lambda <= Lambda_p (1 + this): above the bound it has found a maximizer of the
# discretization alone; verify's sharp inequality and sharp's constant get this slack
LAMBDA_BOUND_SLACK = 1e-3


@dataclass
class SubcriticalProblem:
    """One constrained maximization: weight, exponent p in [p_crit, p_bulk), quadratures, knobs."""

    params: ProblemParams
    weight: WeightFunction
    p: float
    sphere: SphereQuadrature
    ball: BallQuadrature
    tol_v: float = 1e-9
    max_iter: int = 5000
    operator: ExtensionOperator = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.weight.antipodal:
            raise ValueError("the solver requires an antipodally symmetric weight")
        if self.weight.quad is not self.sphere:
            raise ValueError("weight must live on the problem's sphere quadrature")
        check_exponents(self.params, [self.p])
        self.operator = _operator_for(self.operator, self.params, self.sphere, self.ball)


def check_exponents(params: ProblemParams, ps) -> list[float]:
    """ps as floats; ValueError unless nonempty, strictly decreasing and in
    [p_crit, p_bulk) once rounded.  The one owner of the exponent range:
    problems, continuations and the configuration's solver keys ask it."""
    ps = [float(p) for p in ps]
    if not ps:
        raise ValueError("empty schedule")
    if any(b >= a for a, b in zip(ps, ps[1:])):
        raise ValueError("schedule must be strictly decreasing")
    for p in (ps[0], ps[-1]):
        if not params.p_crit <= p < params.p_bulk:
            raise ValueError(f"p must lie in [{params.p_crit}, {params.p_bulk}), got {p}")
    return ps


def _operator_for(op, params, sphere, ball) -> ExtensionOperator:
    """op, or the cached operator when op is None; ValueError if op was built for others."""
    if op is None:
        return build_extension_operator(sphere, ball, params)
    if op.params != params or op.sphere is not sphere or op.ball is not ball:
        raise ValueError("the operator was built for other parameters or quadrature rules")
    return op


@dataclass
class SolverState:
    """Iterate of the fixed point.

    `lambda_est` is the pairing <v, el_rhs> (`_functional`), and `el_rhs`
    is g = T[(E v)^q_exp] on the sphere nodes when known (None makes the
    next step compute it); each step appends to `functional_history` in
    place.  `v` must be antipodal bit for bit: a step rejects a state whose
    `v` halves differ or whose `el_rhs` has another shape.
    """

    v: BoundaryFunction
    lambda_est: float
    iteration: int = 0
    residual: float = np.inf
    functional_history: list = field(default_factory=list)
    step_failed: bool = False
    el_rhs: np.ndarray | None = field(default=None, repr=False)


def _prepare(problem: SubcriticalProblem, init: BoundaryFunction) -> SolverState:
    if init.quad is not problem.sphere:
        raise ValueError("the initial guess must live on the problem's sphere quadrature")
    v = np.maximum(np.asarray(init.values, dtype=float), 0.0)
    if not np.any(v > 0):
        raise ValueError("initial guess must be nonnegative and nonzero")
    v = _candidate(v, problem)
    lam, el_rhs = _functional(v, problem)
    return SolverState(
        v=BoundaryFunction(v, problem.sphere),
        lambda_est=lam,
        functional_history=[lam],
        el_rhs=el_rhs,
    )


def _functional(v: np.ndarray, problem: SubcriticalProblem) -> tuple[float, np.ndarray]:
    """The pairing <v, g> and g = T[(E v)^q_exp], which the next step reads.

    By the discrete duality <E v, F>_ball = <v, T F>_sphere with
    F = (E v)^q_exp, the pairing is the bulk energy integral |E v|^p_bulk
    (v >= 0, so E v >= 0 and p_bulk = q_exp + 1) up to the roundoff of the
    two products; it is an exact sum over the sphere nodes, not the ball.
    """
    g = problem.operator.power_adjoint(v, problem.params.q_exp)
    return integrate_boundary(v * g, problem.sphere), g


def _candidate(values: np.ndarray, problem: SubcriticalProblem) -> np.ndarray:
    """N(sym(values)) = x / |x|_{K,p}: x the antipodal average (bit for bit
    antipodal), |x|_{K,p} = (integral K |x|^p)^{1/p} by `_norm`, rescaled only
    when the sum overflows.  ValueError when the norm is 0 or the result is
    not finite (as it is when x is not: the norm is then inf or nan)."""
    x = problem.sphere.symmetrize(values)
    norm = _norm(np.abs(x), problem.sphere, problem.p, problem.weight.values)
    if norm <= 0:
        raise ValueError("cannot normalize the zero function")
    out = x / norm
    if not np.all(np.isfinite(out)):
        raise ValueError("boundary values must be finite")
    return out


def fixed_point_step(
    state: SolverState, problem: SubcriticalProblem, history: deque
) -> SolverState:
    """One Euler-Lagrange fixed-point step with ascent acceptance.

    A state whose full-step residual |G(v) - v| / |v| is below the problem's
    `tol_v` is returned as it is, with that residual and its g as `el_rhs`:
    no candidate is evaluated, so the residual a solve stops on is that of
    the profile it returns.  Otherwise `history` (a deque of (v, G(v))
    pairs, maxlen ANDERSON_DEPTH + 1, owned by the caller) gets the step's
    pair; from two pairs on, the Anderson-mixed point is tried first, and a
    rejected one leaves only the step's pair.  A history of maxlen 1 never
    holds two, so it gives the plain step alone.
    Where (E v)^q_exp underflows, g is 0 at some node (and the functional may
    read 0); w is then taken from g of v / max E v, which has its direction.
    """
    v = state.v.values
    problem.sphere.check_antipodal(v, "the state's v is not antipodal")
    g = state.el_rhs
    if g is None:
        g = problem.operator.power_adjoint(v, problem.params.q_exp)
    elif g.shape != v.shape:
        raise ValueError(f"the state's el_rhs has shape {g.shape}; T[(E v)^q_exp] on the "
                         f"sphere nodes has {v.shape}")
    direction = g
    if not np.all(g > 0):
        # the largest power at this scale is 1 (q_exp runs into the thousands near a's low end)
        direction = problem.operator.power_adjoint(v / problem.operator.extend_table(v).max(),
                                                   problem.params.q_exp)
    w = (direction / problem.weight.values) ** (1.0 / (problem.p - 1.0))
    full = _candidate(w, problem)
    residual = float(np.max(np.abs(full - v)) / np.max(np.abs(v)))
    if residual < problem.tol_v:
        return replace(state, residual=residual, el_rhs=g)
    history.append((v, full))
    if len(history) > 1:
        mixed = _anderson_point(history)
        if np.all(mixed > 0):
            if (new := _accepted(state, _candidate(mixed, problem), problem, residual)):
                return new
        history.clear()
        history.append((v, full))
    tau = 1.0
    for _ in range(MAX_DAMPING_HALVINGS + 1):
        cand = full if tau == 1.0 else _candidate((1.0 - tau) * v + tau * w, problem)
        if (new := _accepted(state, cand, problem, residual)):
            return new
        tau *= 0.5
    return replace(state, step_failed=True)


def _accepted(state, cand, problem, residual) -> SolverState | None:
    """The state at the array cand, or None if its functional is nan or drops
    by more than the slack, ASCENT_SLACK or q_exp eps, the relative roundoff
    of (E v)^q_exp in the pairing, whichever is larger."""
    lam, cand_rhs = _functional(cand, problem)
    slack = max(ASCENT_SLACK, problem.params.q_exp * np.finfo(float).eps)
    if not lam >= state.lambda_est - slack * abs(state.lambda_est):
        return None
    state.functional_history.append(lam)
    return SolverState(
        v=BoundaryFunction(cand, problem.sphere),
        lambda_est=lam,
        iteration=state.iteration + 1,
        residual=residual,
        functional_history=state.functional_history,
        el_rhs=cand_rhs,
    )


def _anderson_point(history: deque) -> np.ndarray:
    """Mixed point G(v_k) - gamma dG of two or more (v, G(v)) pairs, newest last.

    gamma is a least-squares solution of dF^T gamma = f_k (`_least_squares`),
    so the point equals v_k - gamma dX + (f_k - gamma dF).
    """
    xs = np.array([x for x, _ in history])
    gs = np.array([gx for _, gx in history])
    d_g = np.diff(gs, axis=0)
    d_f = d_g - np.diff(xs, axis=0)
    return gs[-1] - _least_squares(d_f, gs[-1] - xs[-1]) @ d_g


def _least_squares(rows: np.ndarray, f: np.ndarray) -> np.ndarray:
    """gamma minimizing |f - gamma rows| over the k rows (k small, each of length N).

    Modified Gram-Schmidt QR of the rows, newest (last) first, with f carried
    as one more row so that its projections are Q^T f; then back
    substitution.  A row whose part orthogonal to the rows kept before it has
    norm at most eps max(N, k) times the largest row norm (lstsq's default
    cutoff, with that norm for the largest singular value) is dropped and gets
    gamma 0: the QR with deletion of Walker & Ni, which drops the oldest
    difference the newer ones span.  gamma is therefore finite on a
    rank-deficient history.  The sums over the N nodes are `np.einsum`'s own,
    the same at any BLAS thread count; no LAPACK routine runs.
    """
    k, n = rows.shape
    cutoff = np.finfo(float).eps * max(n, k) * np.sqrt(np.einsum("ij,ij->i", rows, rows).max())
    a = np.vstack([rows[::-1], f])      # reduced in place, row by row, to Q and f - Q Q^T f
    r = np.zeros((k, k + 1))            # R, and Q^T f in its last column
    kept = []
    for i in range(k):
        r[i, i] = np.sqrt(np.einsum("j,j->", a[i], a[i]))
        if r[i, i] <= cutoff:
            continue
        a[i] /= r[i, i]
        r[i, i + 1:] = np.einsum("ij,j->i", a[i + 1:], a[i])
        a[i + 1:] -= r[i, i + 1:, None] * a[i]
        kept.append(i)
    coef = np.zeros(k)                  # gamma in pivot order, 0 for a dropped row
    for i in reversed(kept):
        coef[i] = (r[i, k] - r[i, i + 1:k] @ coef[i + 1:]) / r[i, i]
    return coef[::-1]


def maximize_subcritical(
    problem: SubcriticalProblem, init: BoundaryFunction
) -> tuple[BoundaryFunction, float, dict]:
    """Iterate fixed-point steps to convergence; returns (v, lambda, report).

    lambda is the `bulk_energy` of the returned v, the one ball sum of a solve;
    `multiplier_identity_dev` checks the steps' pairing against it.
    """
    state = _prepare(problem, init)
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    converged = False
    for _ in range(problem.max_iter):
        state = fixed_point_step(state, problem, history)
        if state.step_failed:
            break
        if state.residual < problem.tol_v:
            converged = True
            break
    lam = problem.operator.bulk_energy(state.v.values, problem.params.q_exp)
    lam_pair, el = _el_terms(state.v, problem.weight, problem.params, problem.operator,
                             problem.p, lam, state.el_rhs)
    report = {
        "iterations": state.iteration,
        "converged": converged,
        "step_failed": state.step_failed,
        "multiplier_identity_dev": abs(lam_pair / lam - 1.0),
        "el_residual": el,
        "functional_history": state.functional_history,
    }
    return state.v, lam, report


def lambda_bound(problem: SubcriticalProblem, sharp: float) -> float:
    """Lambda_p = S^{p_bulk} |S^{n-1}|^{(1/p_crit - 1/p) p_bulk} (min K)^{-p_bulk/p}, S = `sharp`,
    bounds lambda at the problem's p by the sharp inequality and Hoelder's (|S^{n-1}| the
    rule's `area`; the constant attains it at constant K).  S, a 1-D sum, is free of p."""
    params = problem.params
    return (sharp ** params.p_bulk
            * problem.sphere.area ** ((1.0 / params.p_crit - 1.0 / problem.p) * params.p_bulk)
            * problem.weight.min ** (-params.p_bulk / problem.p))


def check_row(name: str, value=0.0, tolerance=0.0, passed=None) -> dict:
    """One named check, passed when value <= tolerance unless `passed` is given
    (a yes/no row, whose value and tolerance are 0)."""
    passed = value <= tolerance if passed is None else passed
    return {"check": name, "value": value if isinstance(value, list) else float(value),
            "tolerance": tolerance, "passed": bool(passed)}


def gate_checks(report: dict, lambda_over_bound: float) -> list[dict]:
    """The gate's rows of a solve's report at lambda / Lambda_p (`lambda_bound`)."""
    return [check_row("converged", passed=report["converged"]),
            check_row("no_failed_step", passed=not report["step_failed"]),
            check_row("el_residual", report["el_residual"], EL_RESIDUAL_TOL),
            check_row("lambda_over_bound", lambda_over_bound, 1.0 + LAMBDA_BOUND_SLACK)]


def solved(report: dict, lambda_over_bound: float) -> bool:
    """The pass gate of a solve: the conjunction of its `gate_checks`."""
    return all(row["passed"] for row in gate_checks(report, lambda_over_bound))


def default_p(params: ProblemParams) -> float:
    """The exponent of a single solve: a quarter of the way from p_crit to p_bulk."""
    return params.p_crit + 0.25 * (params.p_bulk - params.p_crit)


def multistart_inits(
    sphere: SphereQuadrature, count: int, sigma: float, seed: int
) -> list[BoundaryFunction]:
    """The constant, then `count` starts exp(sigma N(0, 1)) drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    starts = [np.ones(len(sphere))]
    starts += [np.exp(sigma * rng.standard_normal(len(sphere))) for _ in range(count)]
    return [BoundaryFunction(v, sphere) for v in starts]


def maximize_multistart(problem: SubcriticalProblem, inits: list) -> tuple[tuple, list]:
    """`maximize_subcritical` from each start; returns (best run, all runs in start order).

    The best run has the largest lambda; the first of tied runs wins.
    """
    runs = [maximize_subcritical(problem, init) for init in inits]
    return max(runs, key=lambda run: run[1]), runs


def el_residual(
    v: BoundaryFunction,
    weight: WeightFunction,
    params: ProblemParams,
    ball: BallQuadrature,
    lam: float | None = None,
    p: float | None = None,
    operator: ExtensionOperator = None,
) -> float:
    """Relative sup-norm residual of the Euler-Lagrange equation.

    With a multiplier: sup |lam K v^{p-1} - T[(E v)^q]| / sup T[(E v)^q].
    Without one, the multiplier is first estimated by pairing the equation
    with v and then absorbed into the scaling of v (v -> c v with
    c = lam^{1/(p-1-q)}, which leaves both sides equal exactly when v
    solves the multiplier form), and the plain equation is evaluated; by
    default p is the critical exponent, so this is the residual of the
    parameter-free critical equation.  A given `operator` must be built
    for `params`, v's rule and `ball`.  v must be positive and, as every
    solver iterate is, antipodal bit for bit (`extend_table`).
    """
    if p is None:
        p = params.p_crit
    op = _operator_for(operator, params, v.quad, ball)
    return _el_terms(v, weight, params, op, p, lam)[1]


def _el_terms(v, weight, params, op, p, lam, el_rhs=None) -> tuple[float, float]:
    """Pairing multiplier <v, g> / <v, K v^{p-1}> and the EL residual.

    Both come from one evaluation of g = T[(E v)^q] through the table pair,
    as in `fixed_point_step`; see el_residual.  A solver state passes its
    carried `el_rhs`, and then no product runs.
    """
    if np.any(v.values <= 0):
        raise ValueError("the residual is defined for positive v")
    g = op.power_adjoint(v.values, params.q_exp) if el_rhs is None else el_rhs
    num = integrate_boundary(v.values * g, v.quad)
    den = integrate_boundary(weight.values * v.values**p, v.quad)
    lam_pair = num / den
    if lam is None:
        c = lam_pair ** (1.0 / (p - 1.0 - params.q_exp))
        lhs = weight.values * (c * v.values) ** (p - 1.0)
        rhs = c**params.q_exp * g
        return lam_pair, float(np.max(np.abs(lhs - rhs)) / np.max(rhs))
    lhs = lam * weight.values * v.values ** (p - 1.0)
    return lam_pair, float(np.max(np.abs(lhs - g)) / np.max(g))


@dataclass
class StageReport:
    """One continuation stage: its p, its solve's results and gate rows, and its profile v."""

    p: float
    lambda_est: float
    lambda_over_bound: float
    el_residual: float
    sup_v: float
    inf_v: float
    iterations: int
    converged: bool
    checks: list = field(repr=False)
    v: BoundaryFunction = field(repr=False)

    @property
    def solved(self) -> bool:
        return all(row["passed"] for row in self.checks)


@dataclass
class ContinuationReport:
    """The stages in schedule order; the final values are the last stage's."""

    stages: list
    blow_up_flag: bool
    lambda_threshold: float | None = None

    @property
    def final_v(self) -> BoundaryFunction:
        return self.stages[-1].v

    @property
    def lambda_est(self) -> float:
        return self.stages[-1].lambda_est

    def checks(self) -> list[dict]:
        """Each gate row at its worst stage (failing, then largest), then the blow-up row."""
        worst = [max(rows, key=lambda row: (not row["passed"], row["value"]))
                 for rows in zip(*(s.checks for s in self.stages))]
        return worst + [check_row("no_blow_up", passed=not self.blow_up_flag)]

    @property
    def solved(self) -> bool:
        return all(row["passed"] for row in self.checks())

    def stage_rows(self) -> list[dict]:
        return [{"p": s.p, "lambda": s.lambda_est, "el_residual": s.el_residual,
                 "sup_v": s.sup_v, "inf_v": s.inf_v, "iterations": s.iterations,
                 "converged": s.converged, "lambda_over_bound": s.lambda_over_bound}
                for s in self.stages]


def default_schedule(params: ProblemParams, floor: float = 1e-3) -> list[float]:
    """Geometric approach of p from midway between the critical exponents
    toward p_crit + floor, halving the excess; at most 17 stages."""
    out, last = [], params.p_crit + floor
    excess = 0.5 * (params.p_crit + params.p_bulk) - params.p_crit
    for _ in range(16):
        # compared as exponents: an excess just above the floor can round to the last p
        if params.p_crit + excess <= last:
            break
        out.append(params.p_crit + excess)
        excess *= 0.5
    out.append(last)
    return out


def continuation(
    weight: WeightFunction,
    schedule: list[float],
    params: ProblemParams,
    sphere: SphereQuadrature,
    ball: BallQuadrature,
    init: BoundaryFunction | None = None,
    tol_v: float = 1e-9,
    max_iter: int = 5000,
    blow_up_factor: float = 3.0,
    sharp: float | None = None,
) -> ContinuationReport:
    """Solve the stages of a decreasing-p schedule with warm starts.

    The schedule must pass `check_exponents`, so its last p may be p_crit.
    Every stage is one problem at the stage's p.  Flags a blow-up symptom
    when sup v over its L^p mean, (integral v^p / |S|)^(1/p) with |S| the
    rule's exact `area`, grows by more than `blow_up_factor` between
    consecutive stages.  Stage failure aborts with the partial report.
    `sharp`, the sharp constant S (by default the constant test function's),
    gives each stage its `lambda_bound` and the report its `lambda_threshold`.
    """
    check_exponents(params, schedule)
    if sharp is None:
        sharp = sharp_constant_from_constant_test_function(sphere, ball, params)
    v = BoundaryFunction(np.ones(len(sphere)), sphere) if init is None else init
    problem = SubcriticalProblem(params=params, weight=weight, p=schedule[0], sphere=sphere,
                                 ball=ball, tol_v=tol_v, max_iter=max_iter)
    stages: list[StageReport] = []
    peaks: list[float] = []
    blow_up = False
    for p in schedule:
        stage = replace(problem, p=p)
        v, lam, report = maximize_subcritical(stage, v)
        ratio = lam / lambda_bound(stage, sharp)
        stages.append(StageReport(
            p=p, lambda_est=lam, lambda_over_bound=ratio, el_residual=report["el_residual"],
            sup_v=float(v.values.max()), inf_v=float(v.values.min()),
            iterations=report["iterations"], converged=report["converged"],
            checks=gate_checks(report, ratio), v=v))
        # sup v over its L^p mean: 1 for a constant, and unchanged under K -> c K,
        # which scales v by c^(-1/p) with a p that changes from stage to stage
        mean = _norm(v.values, sphere, p) / sphere.area ** (1.0 / p)
        peaks.append(stages[-1].sup_v / mean)
        if len(peaks) >= 2 and peaks[-1] > blow_up_factor * peaks[-2]:
            blow_up = True
        if report["step_failed"]:
            break
    return ContinuationReport(stages=stages, blow_up_flag=blow_up,
                              lambda_threshold=lambda_threshold(weight, params, sharp))
