"""Method-of-lines integration of the metric flow d/dt omega = -rho^(1,1).

The right-hand side is the J-invariant part of the Bismut Ricci form with a
minus sign; since it is again an invariant (1,1)-form it decomposes in the
same four-coefficient basis as the metric state, and the flow reduces to a
coupled parabolic system for (u, lam, p, q) on the base grid.  Classical
RK4 with a parabolic step bound keeps the integrator auditable at desk
scale.  Positivity is enforced, never restored: a step that leaves the
positive cone is rejected, and non-finite values abort the run.

Each recorded row carries the conservation diagnostics that the splitting
calculus predicts: the fiber part of the state velocity (exactly zero at
instants where lam, sigma_1, sigma_2 are constant), drift of the connection
forms, drift of the characteristic numbers, the mean-sigma_1 logarithmic
ODE residual |d/dt mean(sigma_1) - mean(sigma_1) mean(s)|, and the pairing
residual |g(d/dt mu_1, mu_1) + lam'/(2 lam^2)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    KTError,
    NonFiniteFieldError,
    NumericalAbort,
    PositivityError,
    StepRejected,
)
from .hermitian_geometry import (
    MetricState,
    bismut_ricci,
    characteristic_numbers,
    inner_1forms,
    metric_split,
)
from .invariant_forms import form_from, wedge
from .vaisman_toolkit import report_from_parts

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


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters and tolerance knobs for one run."""

    dt: float = 1e-4
    t_end: float = 0.1
    record_every: int = 2
    cfl_safety: float = 0.2
    vaisman_tol: float = 1e-8       # constancy threshold for Vaisman instants
    variance_tol: float = 1e-14     # threshold for 'constant scalar curvature'
    exit_threshold: float = 1e-9    # defect level defining the exit time

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.cfl_safety <= 0.5):
            raise ConfigError(f"cfl_safety must lie in (0, 0.5], got {self.cfl_safety}")
        if int(self.record_every) < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")

    def steps(self):
        n = int(round(self.t_end / self.dt))
        if n < 1:
            raise ConfigError("t_end shorter than one time step")
        return n


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

    def rows(self):
        data = [self.columns[name] for name in TRACE_COLUMNS]
        for i in range(len(self)):
            yield tuple(float(col[i]) for col in data)


def flow_rhs(m, pkg=None):
    """The 2-form -rho^(1,1) driving the flow."""
    if pkg is None:
        pkg = bismut_ricci(m)
    return -1.0 * pkg.rho11


DECOMPOSITION_TOL = 1e-12


def coefficient_velocity(rhs):
    """Coefficient fields (du, dlam, dp, dq)/dt of a J-invariant 2-form.

    The (1,1) basis pins c(e1^e3) = c(e2^e4) and c(e1^e4) = -c(e2^e3); the
    residual of those pairings is returned alongside and must stay below
    1e-12 for a genuine flow velocity.
    """
    c = rhs.coeffs
    residual = max(float(np.max(np.abs(c[1] - c[4]))), float(np.max(np.abs(c[2] + c[3]))))
    vel = np.stack((c[0], c[5], 0.5 * (c[1] + c[4]), 0.5 * (c[2] - c[3])))
    return vel, residual


def _velocity(m):
    """State-space velocity (4, n, n) ordered (u, lam, p, q)."""
    vel, residual = coefficient_velocity(flow_rhs(m))
    if residual > DECOMPOSITION_TOL:
        raise NumericalAbort(
            f"flow velocity failed the (1,1) decomposition check: {residual:.3e}"
        )
    return vel


def _shifted(m, vel, factor):
    try:
        return MetricState(m.grid,
                           m.u + factor * vel[0],
                           m.lam + factor * vel[1],
                           m.p + factor * vel[2],
                           m.q + factor * vel[3])
    except NonFiniteFieldError as exc:
        raise NumericalAbort(f"non-finite state during a step: {exc}") from exc


def step(m, dt):
    """One classical RK4 step; rejects positivity loss, aborts on NaN/Inf.

    The caller is responsible for keeping dt within the parabolic bound;
    run() enforces it per step.
    """
    try:
        k1 = _velocity(m)
        k2 = _velocity(_shifted(m, k1, 0.5 * dt))
        k3 = _velocity(_shifted(m, k2, 0.5 * dt))
        k4 = _velocity(_shifted(m, k3, dt))
        out = _shifted(m, k1 + 2.0 * (k2 + k3) + k4, dt / 6.0)
    except PositivityError as exc:
        margin = m.positivity_margin()
        raise StepRejected(
            f"step dt={dt:.3e} rejected, positivity lost in a stage: {exc}",
            margin=margin,
        ) from exc
    except NonFiniteFieldError as exc:
        raise NumericalAbort(f"non-finite values in a step: {exc}") from exc
    margin = out.positivity_margin()
    if not margin > 0.0:
        raise StepRejected(
            f"step dt={dt:.3e} rejected, positivity margin {margin:.3e}",
            margin=margin,
        )
    return out


def _cfl_bound(m, cfg):
    h2 = m.grid.h * m.grid.h
    return cfg.cfl_safety * h2 * min(float(m.u.min()), float(m.lam.min()))


def _fiber_form(split):
    return wedge(split.mu1, split.mu2) * split.lam


def _mu_velocities(m, vel):
    """Time derivatives of the connection forms induced by a state velocity.

    mu_1 carries the shift fields (q/lam, p/lam) against e1, e2, and mu_2 is
    its J-image; their velocities follow by the quotient rule from the
    coefficient velocities, with no finite-difference error.
    """
    _, dlam, dp, dq = vel
    inv = 1.0 / m.lam
    da = (dq - m.q * inv * dlam) * inv           # d/dt (q/lam)
    db = (dp - m.p * inv * dlam) * inv           # d/dt (p/lam)
    mu1_dot = form_from(m.grid, 1, {(0,): da, (1,): db})
    mu2_dot = form_from(m.grid, 1, {(0,): -db, (1,): da})
    return mu1_dot, mu2_dot


def _fiber_velocity(m, split, vel):
    """d/dt (lam mu1^mu2) evaluated from the instantaneous state velocity."""
    mu1_dot, mu2_dot = _mu_velocities(m, vel)
    return (wedge(split.mu1, split.mu2) * vel[1]
            + (wedge(mu1_dot, split.mu2) + wedge(split.mu1, mu2_dot)) * split.lam)


def sigma1_ode_residual_instant(m, h=1e-5):
    """Pointwise residual of d/dt sigma_1 = sigma_1 s at the given state.

    The time derivative is taken along the exact flow velocity by a centered
    difference in state space with increment h (time units), so the estimate
    carries no time-integration error; h = 1e-5 balances the O(h^2)
    truncation against roundoff at desk scale.
    """
    vel = _velocity(m)
    split = metric_split(m)
    pkg = bismut_ricci(m, split)
    plus = metric_split(_shifted(m, vel, h))
    minus = metric_split(_shifted(m, vel, -h))
    rate = (plus.sigma1 - minus.sigma1) / (2.0 * h)
    return float(np.max(np.abs(rate - split.sigma1 * pkg.s)))


def run(m0, cfg):
    """Integrate to t_end, recording diagnostics every record_every steps.

    The final partial block is always recorded; a run must produce at least
    three records so that the centered time differences in the trace are
    defined.  Exceptions from step() propagate with the failure time filled
    in.
    """
    m0.require_positive()
    steps = cfg.steps()
    if abs(steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"t_end = {cfg.t_end} is not an integer number of steps of dt = {cfg.dt}"
        )
    n_records = steps // cfg.record_every + (1 if steps % cfg.record_every else 0)
    if n_records + 1 < 3:
        raise ConfigError("run too short: fewer than 3 trace records")

    columns = {name: [] for name in TRACE_COLUMNS}
    state = m0
    t = 0.0
    initial_split = metric_split(m0)
    prev_fiber = None
    prev_t = None

    def record(m, t_now):
        nonlocal prev_fiber, prev_t
        split = metric_split(m)
        pkg = bismut_ricci(m, split)
        report = report_from_parts(m, split, pkg, cfg.vaisman_tol)
        vel, _ = coefficient_velocity(-1.0 * pkg.rho11)
        fiber_vel = _fiber_velocity(m, split, vel)
        fiber = _fiber_form(split)
        if prev_fiber is None:
            fd = 0.0  # first record has no predecessor
        else:
            fd = (fiber - prev_fiber).max_abs() / (t_now - prev_t)
        prev_fiber, prev_t = fiber, t_now
        mu_drift = max((split.mu1 - initial_split.mu1).max_abs(),
                       (split.mu2 - initial_split.mu2).max_abs())
        char1, char2 = characteristic_numbers(split)
        mu1_dot, _ = _mu_velocities(m, vel)
        pairing = inner_1forms(m, mu1_dot, split.mu1)
        lam_rel = float(np.max(np.abs(pairing + 0.5 * vel[1] / (m.lam * m.lam))))
        row = {
            "t": t_now,
            "lambda_mean": float(np.mean(split.lam)),
            "lambda_var": float(np.var(split.lam)),
            "sigma1_mean": float(np.mean(split.sigma1)),
            "sigma1_var": float(np.var(split.sigma1)),
            "sigma2_mean": float(np.mean(split.sigma2)),
            "sigma2_var": float(np.var(split.sigma2)),
            "s_mean": float(np.mean(pkg.s)),
            "s_var": float(np.var(pkg.s)),
            "pluriclosed_defect": report.pluriclosed_defect,
            "lck_defect": report.lck_defect,
            "vaisman_defect": report.vaisman_defect,
            "char_1": char1,
            "char_2": char2,
            "fiber_rhs_residual": fiber_vel.max_abs(),
            "fiber_fd_residual": fd,
            "mu_drift": mu_drift,
            "sigma1_ode_residual": 0.0,   # filled in a post-pass
            "lambda_rel_residual": lam_rel,
            "positivity_margin": m.positivity_margin(),
        }
        for name in TRACE_COLUMNS:
            columns[name].append(row[name])

    record(state, t)
    for k in range(1, steps + 1):
        bound = _cfl_bound(state, cfg)
        if cfg.dt > bound:
            raise StepRejected(
                f"dt = {cfg.dt:.3e} exceeds the parabolic bound {bound:.3e} at t = {t:.6f}",
                margin=state.positivity_margin(),
                t=t,
            )
        try:
            state = step(state, cfg.dt)
        except (StepRejected, NumericalAbort) as exc:
            exc.t = t
            raise
        t = k * cfg.dt
        if k % cfg.record_every == 0 or k == steps:
            record(state, t)

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
    char_drift = max(float(np.max(np.abs(cols["char_1"] - cols["char_1"][0]))),
                     float(np.max(np.abs(cols["char_2"] - cols["char_2"][0]))))
    vaisman_rows = cols["vaisman_defect"] < cfg.vaisman_tol
    def vaisman_max(name):
        if not np.any(vaisman_rows):
            return None
        return float(np.max(cols[name][vaisman_rows]))
    max_defect = float(np.max(cols["vaisman_defect"]))
    stays = bool(max_defect < cfg.vaisman_tol and cols["s_var"][0] < cfg.variance_tol)
    above = np.nonzero(cols["vaisman_defect"] > cfg.exit_threshold)[0]
    exit_time = float(cols["t"][above[0]]) if above.size else None
    return {
        "rows": len(trace),
        "duration": duration,
        "char_drift_rate": char_drift / duration,
        "max_vaisman_defect": max_defect,
        "max_pluriclosed_defect": float(np.max(cols["pluriclosed_defect"])),
        "max_lck_defect": float(np.max(cols["lck_defect"])),
        "max_mu_drift": float(np.max(cols["mu_drift"])),
        "max_fiber_fd_residual": float(np.max(cols["fiber_fd_residual"])),
        "fiber_rhs_residual_at_vaisman": vaisman_max("fiber_rhs_residual"),
        "sigma1_ode_residual_at_vaisman": vaisman_max("sigma1_ode_residual"),
        "lambda_rel_residual_at_vaisman": vaisman_max("lambda_rel_residual"),
        "initial_s_variance": float(cols["s_var"][0]),
        "stays_vaisman": stays,
        "exit_time": exit_time,
    }
