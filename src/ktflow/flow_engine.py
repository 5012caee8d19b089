"""Method-of-lines integration of the metric flow d/dt omega = -rho^(1,1).

rho = d alpha with alpha = J(theta - (1/2) d log D), D = u lam - p^2 - q^2,
so lam is frozen, and on the flow's pluriclosed seeds, of one lam value
lam0, the flow is three fields (the hermitian_geometry docstring derives
it): dw/dt = lam0 (sigma1^2 + sigma2^2) w + (1/2) lap log w and df_i/dt =
(1/2) lap sigma_i, with w = D/lam0 and f_i = sigma_i w.  states(m0, cfg)
converts the seed once and steps the stacked (w, f1, f2) by classical RK4
(step): a stage is one transform pair, 3/3 fields, in the grid's work
arrays, and a step allocates only its new stack.  It rejects a step beyond
the parabolic bound or the positive cone w > 0 and aborts on NaN/Inf.  A
state goes back to (u, p, q) on m0's lam_data only where one is read, for
a rejection's margin or a caller's state(): one Helmholtz pair, 2/2 fields
(_state).  run records from the stacked fields themselves, with lam0, the
mean shift and lam's data: one transform pair of 5/7 fields a record
(_record) gives mu1's shift (a, b), lap log w and the partials of sigma1
and sigma2, and every column is pointwise from there, d theta and s
included; no record builds a state, and the final state is built once,
from the last record's shift.  max |lap lam| = max |d H| is taken once per
run.  Each row carries the conservation diagnostics of the splitting
calculus: the fiber part of the state velocity (zero where lam, sigma_1 and
sigma_2 are constant), the drift of the connection forms and of the
characteristic numbers, the mean-sigma_1 ODE residual |d/dt mean(sigma_1) -
mean(sigma_1) mean(s)| and the pairing residual |g(d/dt mu_1, mu_1) +
lam'/(2 lam^2)|, 0 by construction; no form is built for them, each is a
closed form in mu_1's shift (a, b) and its rate (da, db).
"""

from __future__ import annotations

import copy
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTransverseError,
    KTError,
    NonFiniteFieldError,
    NumericalAbort,
    PositivityError,
    StepRejected,
)
from .hermitian_geometry import MetricState, require_transverse_area
from .invariant_forms import DX, DY, largest, mean, mean_and_variance, smallest

TRACE_COLUMNS = (
    "t",
    "lambda_mean", "lambda_var",
    "sigma1_mean", "sigma1_var",
    "sigma2_mean", "sigma2_var",
    "s_mean", "s_var",
    "pluriclosed_defect", "lck_defect", "vaisman_defect",
    "char_1", "char_2",
    "fiber_rhs_residual", "fiber_fd_residual",
    "mu_drift",
    "sigma1_ode_residual", "lambda_rel_residual",
    "positivity_margin",
)


# (field, factor, symbol) terms of BaseGrid.partial_sums: lap of (log w,
# sigma1, sigma2) on lam's Laplacian symbols; mu1's shift less its mean, a =
# phi_x - psi_y and b = phi_y + psi_x, from its curl and divergence (f1 + 1,
# f2) = (lap psi, lap phi); a record's, from (f1 + 1, f2, log w, sigma1,
# sigma2): that shift, lap log w and (sigma1_x, sigma1_y, sigma2_x, sigma2_y)
_LAPLACIANS = tuple(((j, 1.0, DX + DX), (j, 1.0, DY + DY)) for j in range(3))
_HELMHOLTZ_TERMS = (((1, 1.0, DX + ("inv_lap",)), (0, -1.0, DY + ("inv_lap",))),
                    ((1, 1.0, DY + ("inv_lap",)), (0, 1.0, DX + ("inv_lap",))))
_RECORD_TERMS = _HELMHOLTZ_TERMS + (((2, 1.0, DX + DX), (2, 1.0, DY + DY)),) + tuple(
    ((j, 1.0, d),) for j in (3, 4) for d in (DX, DY))


# 500x the longest flow planned (a rigid run to t = 1 at n = 64, about 20,000
# steps); the tests run at most 1000 steps and the demos 100
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters of one run, and the thresholds that read its defects."""

    dt: float = 1e-4
    t_end: float = 0.1
    record_every: int = 2
    cfl_safety: float = 0.2
    vaisman_tol: float = 1e-8       # constancy threshold for Vaisman instants
    variance_tol: float = 1e-14     # threshold for 'constant scalar curvature'
    exit_threshold: float = 1e-9    # defect level defining the exit time

    def __post_init__(self):
        for name in ("dt", "t_end", "cfl_safety", "vaisman_tol", "variance_tol", "exit_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be {'finite' if value > 0 else 'positive'},"
                                  f" got {value}")
        if not (0.0 < self.cfl_safety <= 0.5):
            raise ConfigError(f"cfl_safety must lie in (0, 0.5], got {self.cfl_safety}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ConfigError(f"record_every must be an integer >= 1, got {every!r}")

    def steps(self):
        """Number of steps, at most MAX_STEPS; t_end is a whole number of them to 1e-9 relative."""
        ratio = self.t_end / self.dt
        if not ratio < np.inf:
            raise ConfigError(f"t_end / dt overflows: t_end = {self.t_end}, dt = {self.dt}")
        n = int(round(ratio))
        if n > MAX_STEPS:
            raise ConfigError(f"t_end = {self.t_end} at dt = {self.dt} is {n} steps,"
                              f" more than MAX_STEPS = {MAX_STEPS}")
        if n < 1:
            raise ConfigError("t_end shorter than one time step")
        if abs(n * self.dt - self.t_end) > 1e-9 * n * self.dt:
            raise ConfigError(
                f"t_end = {self.t_end} is not an integer number of steps of dt = {self.dt}"
            )
        return n

    def records(self):
        """Number of trace records, at t = 0, every record_every steps and at t_end; at least 3."""
        records = 1 + -(-self.steps() // self.record_every)
        if records < 3:
            raise ConfigError(f"run too short: {records} trace records, fewer than 3")
        return records


@dataclass
class FlowTrace:
    """Per-record diagnostics of one run; column-major arrays."""

    config: FlowConfig
    columns: dict
    final_state: MetricState
    initial_state: MetricState

    def __len__(self):
        return len(self.columns["t"])

    def column(self, name):
        return self.columns[name]


def _mean_shift(split):
    """mu1's mean shift (a0, b0) of a split, shaped (2, 1, 1)."""
    return np.add.reduce(split.mu1.coeffs[:2], axis=(1, 2), keepdims=True) / split.w_check.size


def _fields(m, what):
    """lam0, the stacked (w, f1, f2) = (w, sigma1 w, sigma2 w) and mu1's mean shift of m.

    A transverse area below DEGENERACY_TOL raises DegenerateTransverseError (metric_split).
    """
    lam0, high = m.lam_data.min, largest(m.lam)
    if high != lam0:
        raise ConfigError(f"{what} takes a seed of one lam value, a pluriclosed seed;"
                          f" lam spreads over [{lam0!r}, {high!r}], by {high - lam0:.3e}")
    split = m.split
    w = split.w_check
    return lam0, np.stack((w, split.sigma1 * w, split.sigma2 * w)), _mean_shift(split)


def _fiber(shift, lam0):
    """lam0 mu1^mu2 of mu1's shift (a, b): (lam0 (a^2 + b^2), lam0 b, lam0 a).

    These are its coefficients on e12, e13 = e24 and e14 = -e23 (on e34 it
    is lam0); on a state of the flow they are (u - w, p, q).
    """
    a, b = shift
    fiber = np.empty((3,) + a.shape)
    np.multiply(a, a, out=fiber[0])
    fiber[0] += np.multiply(b, b, out=fiber[1])
    fiber[0] *= lam0
    np.multiply(b, lam0, out=fiber[1])
    np.multiply(a, lam0, out=fiber[2])
    return fiber


def _fiber_state(seed, w, fiber):
    """The state on the seed's lam of area w and fiber part fiber: u = w + fiber[0], p, q.

    fiber, a fresh array from _fiber, becomes the state's (u, p, q) stack.
    """
    fiber[0] += w
    return seed.with_fields(fiber)


def _state(seed, fields, lam0, shift0):
    """The state of (w, f1, f2) on the seed's lam, by one Helmholtz pair (2/2 fields)."""
    curl_div = fields[1:].copy()
    curl_div[0] += 1.0
    shift = seed.grid.partial_sums(curl_div, _HELMHOLTZ_TERMS) + shift0
    return _fiber_state(seed, fields[0], _fiber(shift, lam0))


def _degenerate_abort(exc, t):
    """NumericalAbort at run time t for the DegenerateTransverseError exc."""
    return NumericalAbort(f"degenerate transverse area at t = {t:.6f}: {exc}", t=t)


def _rates(grid, fields, lam0, out):
    """(dw, df1, df2)/dt of (w, f1, f2) into out, 3/3 fields; log w, sigma_i in work rows 0-2."""
    w = fields[0]
    work = grid._work(2, fields.shape)
    np.log(w, out=work[0])
    sigmas = np.divide(fields[1:], w, out=work[1:])
    grid.partial_sums(work, _LAPLACIANS, out)
    out *= 0.5   # exact: bitwise the sums of half symbols
    forcing = np.add(*np.square(sigmas, out=sigmas), out=sigmas[0])
    forcing *= w
    forcing *= lam0
    out[0] += forcing
    return out


def step(grid, fields, lam0, dt):
    """One classical RK4 step of the stacked (w, f1, f2), into a fresh (3, n, n) array.

    k1 to k4 and the stage stack are rows 3 to 17 of the grid's real work array.  NaN/Inf
    raises NumericalAbort, a stage w <= 0 PositivityError; the caller keeps the bound.
    """
    k1, k2, k3, k4, stage = grid._work(2, (6,) + fields.shape)[1:]   # first: it may grow
    try:
        _rates(grid, fields, lam0, k1)
        for rate, factor, out in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
            np.multiply(factor, rate, out=stage)
            stage += fields
            w = grid.check_field(stage, "stage fields (w, f1, f2)")[0]
            if not smallest(w) > 0.0:
                bad = tuple(map(int, np.unravel_index(np.argmin(w), w.shape)))
                raise PositivityError(f"w = {smallest(w):.6e} at grid point {bad}")
            _rates(grid, stage, lam0, out)
        k2 += k3   # k1 + 2 (k2 + k3) + k4 in k2, then the new stack
        k2 *= 2.0
        k2 += k1
        k2 += k4
        np.multiply(dt / 6.0, k2, out=k2)
        return grid.check_field(np.add(k2, fields), "stepped fields (w, f1, f2)")
    except NonFiniteFieldError as exc:
        raise NumericalAbort(f"non-finite state during a step: {exc}") from exc


def sigma1_ode_residual_instant(m):
    """max |d sigma1/dt - sigma1 s| at a state of one lam value, by the exact rates.

    sigma1 = f1/w and s = -(dw/dt)/w come from the state's (w, f1, f2) and
    their rates (3/3 fields).  A transverse area below DEGENERACY_TOL raises
    DegenerateTransverseError.
    """
    lam0, fields, _ = _fields(m, "sigma1_ode_residual_instant")
    w, f1, _ = fields
    dw, df1, _ = _rates(m.grid, fields, lam0, np.empty_like(fields))
    sigma1, s = f1 / w, -dw / w
    return largest(np.abs((df1 - sigma1 * dw) / w - sigma1 * s))


def states(m0, cfg):
    """Yield (k, t, fields, state), t = k dt, from k = 0 to cfg.steps().

    fields is step k's stacked (w, f1, f2), and state() builds state k.  m0
    is one positive state of one lam value.  State 0 is a shallow copy of
    m0, whose own caches stay bare; state k > 0 is built from its stack on
    first call.  Each step must keep the parabolic bound; a rejection or
    abort carries its t, and a seed whose transverse area is below
    DEGENERACY_TOL aborts at t = 0.
    """
    m0.grid.require_single(m0.lam, "states")
    state = functools.cache(functools.partial(copy.copy, m0))
    seed = state()
    seed.require_positive()
    try:
        lam0, fields, shift0 = _fields(seed, "states")
    except DegenerateTransverseError as exc:
        raise _degenerate_abort(exc, 0.0) from exc
    grid, steps, w_min = seed.grid, cfg.steps(), smallest(fields[0])
    h_squared = grid.h * grid.h
    t = 0.0
    yield 0, t, fields, state
    for k in range(1, steps + 1):
        # u >= w, so a dt within the bound of w is within the bound of u
        if cfg.dt > cfg.cfl_safety * h_squared * min(w_min, lam0):
            bound = cfg.cfl_safety * h_squared * min(state().u_min, lam0)
            if cfg.dt > bound:
                raise StepRejected(f"dt = {cfg.dt:.3e} exceeds the parabolic bound"
                                   f" {bound:.3e} at t = {t:.6f}",
                                   margin=state().positivity_margin(), t=t)
        try:
            fields = step(grid, fields, lam0, cfg.dt)
        except PositivityError as exc:
            raise StepRejected(f"step dt={cfg.dt:.3e} rejected, positivity lost in a stage:"
                               f" {exc}", margin=state().positivity_margin(), t=t) from exc
        except NumericalAbort as exc:
            exc.t = t
            raise
        state = functools.cache(functools.partial(_state, seed, fields, lam0, shift0))
        w_min = smallest(fields[0])
        if not w_min > 0.0:
            margin = state().positivity_margin()
            raise StepRejected(f"step dt={cfg.dt:.3e} rejected, positivity margin"
                               f" {margin:.3e}", margin=margin, t=t)
        t = k * cfg.dt
        yield k, t, fields, state


def _record(grid, lam0, shift0, lam_data, fields, t, prev):
    """Trace row of the stacked (w, f1, f2) at time t after the previous row, None at t = 0.

    One transform pair, 5/7 fields in rows of the grid's real work array,
    takes (f1 + 1, f2, log w, sigma1, sigma2) to mu1's shift (a, b) less its
    mean shift0, lap log w and the partials of sigma1 and sigma2; the shift
    is bitwise _state's.  The rest is pointwise (the hermitian_geometry
    docstring derives it): the shift's rate (da, db) = ((sigma2_x -
    sigma1_y)/2, (sigma1_x + sigma2_y)/2), s = -(dw/dt)/w = -lam0 (sigma1^2
    + sigma2^2) - (1/2) (lap log w)/w, d theta = lam0 (2 (a db - b da),
    -sigma2_x, sigma1_x, -sigma2_y, sigma1_y, 0) on e12, e13, e14, e23, e24,
    e34, char_i = mean(f_i), u = w + lam0 (a^2 + b^2) and D = lam0 w.
    mu1 = a e1 + b e2 + e3 and mu2 = -b e1 + a e2 + e4 move with (da, db),
    since lam' = 0, so lam0 mu1^mu2 (_fiber) moves with lam0 (2 (a da + b
    db), db, da).  A transverse area below DEGENERACY_TOL aborts the run at
    t.  Besides the columns, a row keeps that fiber part, the state's (u - w,
    p, q), and the first row's shift, for the next.
    """
    w = fields[0]
    w_min = smallest(w)
    try:
        require_transverse_area(w_min)
    except DegenerateTransverseError as exc:
        raise _degenerate_abort(exc, t) from exc
    rows = grid._work(2, (12,) + w.shape)
    np.add(fields[1], 1.0, out=rows[0])
    rows[1] = fields[2]
    np.log(w, out=rows[2])
    sigma1, sigma2 = np.divide(fields[1:], w, out=rows[3:5])
    grid.partial_sums(rows[:5], _RECORD_TERMS, rows[5:])
    shift, s, partials = rows[5:7], rows[7], rows[8:]
    shift += shift0
    a, b = shift
    sigma1_x, sigma1_y, sigma2_x, sigma2_y = partials
    da, db = rate = rows[:2]
    np.subtract(sigma2_x, sigma1_y, out=da)
    np.add(sigma1_x, sigma2_y, out=db)
    rate *= 0.5
    # max |d theta| / lam0: the partials on e13, e14, e23, e24, then e12
    d_theta = largest(np.abs(partials, out=partials))
    scratch, e12 = partials[:2]
    np.multiply(a, db, out=e12)
    e12 -= np.multiply(b, da, out=scratch)
    e12 *= 2.0
    d_theta = max(d_theta, largest(np.abs(e12, out=e12)))
    fiber_rate = rows[:3]   # (da, db, 2 (a da + b db)): lam0 mu1^mu2's rate over lam0
    np.multiply(da, a, out=fiber_rate[2])
    fiber_rate[2] += np.multiply(db, b, out=scratch)
    fiber_rate[2] *= 2.0
    fiber_rhs = largest(np.abs(fiber_rate, out=fiber_rate))
    np.multiply(sigma1, sigma1, out=scratch)
    scratch += np.multiply(sigma2, sigma2, out=e12)
    scratch *= lam0
    s *= -0.5
    s /= w
    s -= scratch
    fiber = _fiber(shift, lam0)
    u_min = smallest(np.add(w, fiber[0], out=scratch))
    start_shift = shift.copy() if prev is None else prev["start_shift"]
    drift = np.subtract(shift, start_shift, out=partials[:2])
    mu_drift = largest(np.abs(drift, out=drift))
    if prev is None:
        fiber_fd = 0.0
    else:
        change = np.subtract(fiber, prev["fiber"], out=rows[:3])
        fiber_fd = largest(np.abs(change, out=change)) / (t - prev["t"])
    lam_mean, lam_var = lam_data.moments
    (s1_mean, s1_var), (s2_mean, s2_var), (s_mean, s_var) = map(mean_and_variance,
                                                                (sigma1, sigma2, s))
    return {
        "t": t,
        "lambda_mean": lam_mean, "lambda_var": lam_var,
        "sigma1_mean": s1_mean, "sigma1_var": s1_var,
        "sigma2_mean": s2_mean, "sigma2_var": s2_var,
        "s_mean": s_mean, "s_var": s_var,
        "pluriclosed_defect": lam_data.laplacian_max,
        "lck_defect": lam0 * d_theta,
        "vaisman_defect": lam_var + s1_var + s2_var,
        "char_1": mean(fields[1]),   # the integrals of d(mu_i) = f_i e1^e2
        "char_2": mean(fields[2]),
        "fiber_rhs_residual": lam0 * fiber_rhs,
        "fiber_fd_residual": fiber_fd,
        "mu_drift": mu_drift,
        "sigma1_ode_residual": 0.0,   # filled in by run's post-pass
        # mu1 is g-orthogonal to the horizontal mu1_dot, and lam' = 0
        "lambda_rel_residual": 0.0,
        "positivity_margin": float(min(u_min, lam_data.min, lam0 * w_min)),
        "start_shift": start_shift,
        "fiber": fiber,
    }


def run(m0, cfg):
    """Integrate to t_end by states(m0, cfg), recording every record_every steps.

    Each record is taken from the stacked (w, f1, f2) (_record); the final
    state is built from the last record's fiber part.  The final partial
    block is always recorded; a run must produce at least three records so
    that the centered time differences in the trace are defined, which is
    checked after run and states have checked m0.
    """
    m0.grid.require_single(m0.lam, "run")
    stream = states(m0, cfg)
    _, t, fields, state = next(stream)
    cfg.records()
    steps = cfg.steps()
    seed = state()
    # lam0 and the mean shift as states converted the seed, its split cached
    flow = seed.grid, seed.lam_data.min, _mean_shift(seed.split), seed.lam_data
    prev = _record(*flow, fields, t, None)
    columns = {name: [prev[name]] for name in TRACE_COLUMNS}
    for k, t, fields, _ in stream:
        if k % cfg.record_every == 0 or k == steps:
            prev = _record(*flow, fields, t, prev)
            for name in TRACE_COLUMNS:
                columns[name].append(prev[name])

    arrays = {name: np.asarray(vals) for name, vals in columns.items()}
    times = arrays["t"]
    sigma1_rate = np.gradient(arrays["sigma1_mean"], times, edge_order=2)
    arrays["sigma1_ode_residual"] = np.abs(
        sigma1_rate - arrays["sigma1_mean"] * arrays["s_mean"]
    )
    final_state = _fiber_state(seed, fields[0], prev["fiber"])
    return FlowTrace(config=cfg, columns=arrays, final_state=final_state, initial_state=m0)


def conservation_monitors(trace):
    """Worst-case residuals over a trace plus the Vaisman persistence verdict.

    'stays_vaisman' requires the constancy defect to remain under tolerance
    for the whole run and the seed to have constant scalar curvature; the
    residual maxima taken 'at Vaisman instants' are restricted to records
    whose defect is under the tolerance.
    """
    if len(trace) < 3:
        raise KTError(f"need at least 3 trace rows, got {len(trace)}")
    cfg = trace.config
    cols = trace.columns
    duration = float(cols["t"][-1] - cols["t"][0])
    char_drift = max(largest(np.abs(cols["char_1"] - cols["char_1"][0])),
                     largest(np.abs(cols["char_2"] - cols["char_2"][0])))
    vaisman_rows = cols["vaisman_defect"] < cfg.vaisman_tol
    def vaisman_max(name):
        return largest(cols[name][vaisman_rows]) if np.logical_or.reduce(vaisman_rows) else None
    max_defect = largest(cols["vaisman_defect"])
    stays = bool(max_defect < cfg.vaisman_tol and cols["s_var"][0] < cfg.variance_tol)
    above = np.nonzero(cols["vaisman_defect"] > cfg.exit_threshold)[0]
    exit_time = float(cols["t"][above[0]]) if above.size else None
    return {
        "rows": len(trace),
        "duration": duration,
        "char_drift_rate": char_drift / duration,
        "max_vaisman_defect": max_defect,
        "max_pluriclosed_defect": largest(cols["pluriclosed_defect"]),
        "max_lck_defect": largest(cols["lck_defect"]),
        "max_mu_drift": largest(cols["mu_drift"]),
        "max_fiber_fd_residual": largest(cols["fiber_fd_residual"]),
        "fiber_rhs_residual_at_vaisman": vaisman_max("fiber_rhs_residual"),
        "sigma1_ode_residual_at_vaisman": vaisman_max("sigma1_ode_residual"),
        "lambda_rel_residual_at_vaisman": vaisman_max("lambda_rel_residual"),
        "initial_s_variance": float(cols["s_var"][0]),
        "stays_vaisman": stays,
        "exit_time": exit_time,
    }
