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
state goes back to (u, p, q) on m0's lam_data only where one is read, at a
record, at the end and for a rejection's margin: one Helmholtz pair, 2/2
fields (_state).  run records the states: the velocity (flow_velocity, 7/7
fields), s = -d/dt log D, the split and d theta (6/7), and max |lap lam| =
max |d H| once per run.  Each row carries the conservation diagnostics of
the splitting calculus: the fiber part of the state velocity (zero where
lam, sigma_1 and sigma_2 are constant), the drift of the connection forms
and of the characteristic numbers, the mean-sigma_1 ODE residual |d/dt
mean(sigma_1) - mean(sigma_1) mean(s)| and the pairing residual
|g(d/dt mu_1, mu_1) + lam'/(2 lam^2)|, 0 by construction; no form is built
for them, each is a closed form in mu_1's shift (a, b) = (q, p)/lam and its
rate (q', p')/lam (see _record).
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
from .hermitian_geometry import MetricState, characteristic_numbers
from .invariant_forms import DX, DY, largest, smallest
from .vaisman_toolkit import assess

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
# sigma1, sigma2) on lam's Laplacian symbols; mu1's shift a = phi_x - psi_y,
# b = phi_y + psi_x from its curl and divergence (f1 + 1, f2) = (lap psi, lap phi)
_LAPLACIANS = tuple(((j, 1.0, DX + DX), (j, 1.0, DY + DY)) for j in range(3))
_HELMHOLTZ_TERMS = (((1, 1.0, DX + ("inv_lap",)), (0, -1.0, DY + ("inv_lap",))),
                    ((1, 1.0, DY + ("inv_lap",)), (0, 1.0, DX + ("inv_lap",))))


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


def _fields(m, what):
    """lam0, the stacked (w, f1, f2) = (w, sigma1 w, sigma2 w) and mu1's mean shift of m."""
    lam0, high = m.lam_data.min, largest(m.lam)
    if high != lam0:
        raise ConfigError(f"{what} takes a seed of one lam value, a pluriclosed seed;"
                          f" lam spreads over [{lam0!r}, {high!r}], by {high - lam0:.3e}")
    split = _split(m, 0.0)
    w = split.w_check
    shift0 = np.add.reduce(split.mu1.coeffs[:2], axis=(1, 2), keepdims=True) / w.size
    return lam0, np.stack((w, split.sigma1 * w, split.sigma2 * w)), shift0


def _state(seed, fields, lam0, shift0):
    """The state of (w, f1, f2) on the seed's lam, by one Helmholtz pair (2/2 fields)."""
    curl_div = fields[1:].copy()
    curl_div[0] += 1.0
    a, b = seed.grid.partial_sums(curl_div, _HELMHOLTZ_TERMS) + shift0
    return seed.with_fields(np.stack((fields[0] + lam0 * (a * a + b * b), lam0 * b, lam0 * a)))


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
    """max |d sigma1/dt - sigma1 s| at a state of one lam value, by the exact rates."""
    lam0, fields, _ = _fields(m, "sigma1_ode_residual_instant")
    dw, df1, _ = _rates(m.grid, fields, lam0, np.empty_like(fields))
    return largest(np.abs((df1 - m.split.sigma1 * dw) / fields[0] - m.split.sigma1 * m.s))


def states(m0, cfg):
    """Yield (k, t, state), t = k dt, from k = 0 to cfg.steps(); state() builds state k.

    m0 is one positive state of one lam value.  State 0 is a shallow copy of m0, whose own
    caches stay bare; state k > 0 is built from a stack of its own on first call.  Each step
    must keep the parabolic bound; a rejection or abort carries its t.
    """
    m0.grid.require_single(m0.lam, "states")
    state = functools.cache(functools.partial(copy.copy, m0))
    seed = state()
    seed.require_positive()
    lam0, fields, shift0 = _fields(seed, "states")
    grid, steps, w_min = seed.grid, cfg.steps(), smallest(fields[0])
    h_squared = grid.h * grid.h
    t = 0.0
    yield 0, t, state
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
        yield k, t, state


def _split(m, t):
    """m.split; a transverse area w = D/lam below DEGENERACY_TOL aborts the run at t."""
    try:
        return m.split
    except DegenerateTransverseError as exc:
        raise NumericalAbort(f"degenerate transverse area at t = {t:.6f}: {exc}",
                             t=t) from exc


def _record(m, t, prev):
    """Trace row of state m at time t after the previous row, None at t = 0.

    Besides the columns, a row keeps lam mu1^mu2's fiber part and the first
    row's mu1 shift, shift0, for the next.
    """
    split = _split(m, t)
    vel = m.velocity  # first: it leaves m.theta for assess
    report = assess(m)
    # mu1 = a e1 + b e2 + e3 and mu2 = -b e1 + a e2 + e4 move with (da, db)
    # = (q', p')/lam, since lam' = 0; lam mu1^mu2 is (lam (a^2 + b^2), lam b,
    # lam a, lam) on e12, e13 = e24, e14 = -e23, e34, moving with
    # (2 (a da + b db) lam, db lam, da lam)
    a, b = shift = split.mu1.coeffs[:2]
    shift0 = shift.copy() if prev is None else prev["shift0"]
    da, db = rate = vel[:0:-1] * m.lam_data.inv
    fiber_vel, fiber = np.empty((3,) + a.shape), np.empty((3,) + a.shape)  # lam is frozen
    np.multiply(2.0 * (da * a + db * b), m.lam, out=fiber_vel[0])
    np.multiply(rate[::-1], m.lam, out=fiber_vel[1:])
    np.multiply(a * a + b * b, m.lam, out=fiber[0])
    np.multiply(shift[::-1], m.lam, out=fiber[1:])
    char1, char2 = characteristic_numbers(split)
    return {
        "t": t,
        **vars(report),
        "vaisman_defect": report.vaisman_defect,
        "char_1": char1,
        "char_2": char2,
        "fiber_rhs_residual": largest(np.abs(fiber_vel)),
        "fiber_fd_residual": (0.0 if prev is None else
                              largest(np.abs(fiber - prev["fiber"])) / (t - prev["t"])),
        "mu_drift": largest(np.abs(shift - shift0)),
        "sigma1_ode_residual": 0.0,   # filled in by run's post-pass
        # mu1 is g-orthogonal to the horizontal mu1_dot, and lam' = 0
        "lambda_rel_residual": 0.0,
        "positivity_margin": m.positivity_margin(),
        "shift0": shift0,
        "fiber": fiber,
    }


def run(m0, cfg):
    """Integrate to t_end by states(m0, cfg), recording every record_every steps.

    The final partial block is always recorded; a run must produce at least
    three records so that the centered time differences in the trace are
    defined, which is checked after run and states have checked m0.
    """
    m0.grid.require_single(m0.lam, "run")
    stream = states(m0, cfg)
    _, t, state = next(stream)
    cfg.records()
    steps = cfg.steps()
    prev = _record(state(), t, None)
    columns = {name: [prev[name]] for name in TRACE_COLUMNS}
    for k, t, state in stream:
        if k % cfg.record_every == 0 or k == steps:
            prev = _record(state(), t, prev)
            for name in TRACE_COLUMNS:
                columns[name].append(prev[name])

    arrays = {name: np.asarray(vals) for name, vals in columns.items()}
    times = arrays["t"]
    sigma1_rate = np.gradient(arrays["sigma1_mean"], times, edge_order=2)
    arrays["sigma1_ode_residual"] = np.abs(
        sigma1_rate - arrays["sigma1_mean"] * arrays["s_mean"]
    )
    return FlowTrace(config=cfg, columns=arrays, final_state=state(), initial_state=m0)


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
