"""Method-of-lines integration of the metric flow d/dt omega = -rho^(1,1).

The right-hand side is the J-invariant part of the Bismut Ricci form with a
minus sign.  On invariant states rho = d alpha with alpha = J(theta -
(1/2) d log D), D = u lam - p^2 - q^2, and alpha's coefficients depend on
the base only, so -rho^(1,1) has no e3^e4 term: lam is frozen by
construction, and the flow is a parabolic system for (u, p, q) on the base
grid.  Its velocity is a closed form (hermitian_geometry.flow_velocity),
cached on each state as m.velocity, which the trace records share with the
next step's first stage.  lam passes through bitwise, so every state of a
run holds m0's lam_data (MetricState.with_fields) and each lam datum is
computed once per run; a stage moves 7/7 forward/inverse fields in two
transform pairs.  A stage state is one axpy on the (u, p, q) stack, and it
computes D and its minima once for the positivity guard, the velocity and
the step bound; it allocates only what outlives it, its upq and D, theta
and the velocity.  The RK4 sum, and then the new state's (u, p, q), go
into k2's buffer.  Classical RK4 keeps the integrator auditable at desk
scale.  states(m0, cfg) yields a run's states; it rejects a step beyond the
parabolic bound or the positive cone, never restoring it, and aborts on
NaN/Inf.  run records them.

Two identities put the record path on the same velocity: the curvature
scalar is s = -d/dt log D (m.s, read once per record), and the torsion
derivative is d H = -(lam_xx + lam_yy) e1^e2^e3^e4, so the pluriclosed
defect is a measured max |lap lam|, taken once per run: a record moves 6/7
fields, the split and d theta, and reads its means and variances from assess.

Each recorded row carries the conservation diagnostics that the splitting
calculus predicts: the fiber part of the state velocity (exactly zero at
instants where lam, sigma_1, sigma_2 are constant), drift of the connection
forms, drift of the characteristic numbers, the mean-sigma_1 logarithmic
ODE residual |d/dt mean(sigma_1) - mean(sigma_1) mean(s)|, and the pairing
residual |g(d/dt mu_1, mu_1) + lam'/(2 lam^2)|, which is 0 by construction.
No form is built for them: each is a closed form in mu_1's shift (a, b) =
(q, p)/lam and its rate (q', p')/lam (see _record).
"""

from __future__ import annotations

import copy
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
from .invariant_forms import largest
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


def _shifted(m, vel, factor, out=None):
    """m moved by factor * vel, one axpy on its (u, p, q) stack into out or a fresh array."""
    upq = np.multiply(factor, vel, out=out)
    try:
        return m.with_fields(np.add(m.upq, upq, out=upq))
    except NonFiniteFieldError as exc:
        raise NumericalAbort(f"non-finite state during a step: {exc}") from exc


def step(m, dt):
    """One classical RK4 step; rejects positivity loss, aborts on NaN/Inf.

    The caller is responsible for keeping dt within the parabolic bound;
    states() enforces it before each step.
    """
    try:
        k1 = m.velocity
        k2 = _shifted(m, k1, 0.5 * dt).velocity
        k3 = _shifted(m, k2, 0.5 * dt).velocity
        k4 = _shifted(m, k3, dt).velocity
        # k1 + 2 (k2 + k3) + k4, and then the new state's (u, p, q), in k2,
        # whose stage state is gone; k1 is m's cached velocity, which the
        # trace shares, and is never written
        incr = np.add(k2, k3, out=k2)
        np.multiply(2.0, incr, out=incr)
        np.add(k1, incr, out=incr)
        incr += k4
        out = _shifted(m, incr, dt / 6.0, incr)
    except PositivityError as exc:
        margin = m.positivity_margin()
        raise StepRejected(
            f"step dt={dt:.3e} rejected, positivity lost in a stage: {exc}",
            margin=margin,
        ) from exc
    margin = out.positivity_margin()
    if not margin > 0.0:
        raise StepRejected(
            f"step dt={dt:.3e} rejected, positivity margin {margin:.3e}",
            margin=margin,
        )
    return out


_SIGMA1_RATE_STEP = 1e-5


def sigma1_ode_residual_instant(m):
    """Pointwise residual of d/dt sigma_1 = sigma_1 s at the given state.

    The time derivative is taken along the exact flow velocity by a centered
    difference in state space with increment h = _SIGMA1_RATE_STEP (time
    units), so the estimate carries no time-integration error; h = 1e-5
    balances the O(h^2) truncation against roundoff at desk scale.
    """
    h = _SIGMA1_RATE_STEP
    vel = m.velocity
    plus = _shifted(m, vel, h).split
    minus = _shifted(m, vel, -h).split
    rate = (plus.sigma1 - minus.sigma1) / (2.0 * h)
    return largest(np.abs(rate - m.split.sigma1 * m.s))


def states(m0, cfg):
    """Yield (k, t, state), t = k dt, from k = 0 to cfg.steps(), each state before the next.

    m0 is one positive state (a stack raises GridError).  The stream starts
    from a shallow copy, so m0's own caches stay bare; its lam_data, which
    every state holds, may not.  A consumer reads state k before step k + 1
    runs, so the velocity it caches there is that step's k1.  Each step must
    keep the parabolic bound; a rejection or abort carries its t.
    """
    m0.grid.require_single(m0.lam, "states")
    state = copy.copy(m0)
    state.require_positive()
    steps = cfg.steps()
    h_squared = state.grid.h * state.grid.h
    t = 0.0
    yield 0, t, state
    for k in range(1, steps + 1):
        bound = cfg.cfl_safety * h_squared * min(state.u_min, state.lam_data.min)
        if cfg.dt > bound:
            raise StepRejected(f"dt = {cfg.dt:.3e} exceeds the parabolic bound {bound:.3e}"
                               f" at t = {t:.6f}", margin=state.positivity_margin(), t=t)
        try:
            state = step(state, cfg.dt)
        except (StepRejected, NumericalAbort) as exc:
            exc.t = t
            raise
        t = k * cfg.dt
        yield k, t, state


def _record(m, t, prev):
    """Trace row of state m at time t after the previous row, None at t = 0.

    Besides the columns, a row keeps lam mu1^mu2's fiber part and the first
    row's mu1 shift, shift0, for the next.  A transverse area w = D/lam
    below DEGENERACY_TOL aborts the run at t.
    """
    try:
        split = m.split
    except DegenerateTransverseError as exc:
        raise NumericalAbort(f"degenerate transverse area at t = {t:.6f}: {exc}",
                             t=t) from exc
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
    prev = _record(state, t, None)
    columns = {name: [prev[name]] for name in TRACE_COLUMNS}
    for k, t, state in stream:
        if k % cfg.record_every == 0 or k == steps:
            prev = _record(state, t, prev)
            for name in TRACE_COLUMNS:
                columns[name].append(prev[name])

    arrays = {name: np.asarray(vals) for name, vals in columns.items()}
    times = arrays["t"]
    sigma1_rate = np.gradient(arrays["sigma1_mean"], times, edge_order=2)
    arrays["sigma1_ode_residual"] = np.abs(
        sigma1_rate - arrays["sigma1_mean"] * arrays["s_mean"]
    )
    return FlowTrace(config=cfg, columns=arrays, final_state=state, initial_state=m0)


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
