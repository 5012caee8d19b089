"""RK4 driver, trace diagnostics and guard rails."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

import ktflow.flow_engine as flow_engine
import ktflow.hermitian_geometry as hermitian_geometry
import ktflow.identities as identities
import ktflow.vaisman_toolkit as vaisman_toolkit
from ktflow.errors import (ConfigError, DegenerateTransverseError, GridError, KTError,
                           NumericalAbort, PositivityError, StepRejected)
from ktflow.flow_engine import (FlowConfig, FlowTrace, TRACE_COLUMNS, _fields, _rates,
                                _record, _state, conservation_monitors, run,
                                sigma1_ode_residual_instant, states, step)
from ktflow.hermitian_geometry import (MetricState, bismut_ricci,
                                       bismut_torsion, scalar_curvature)
from ktflow.invariant_forms import (BaseGrid, InvariantForm, basis_form, exterior_d,
                                    p11_projection, random_band_limited)
from ktflow.vaisman_toolkit import (DefectReport, assess, make_noncsc_vaisman,
                                    make_standard_vaisman)

from oracles import (coefficient_velocity, form_algebra_record, form_route_ricci,
                     fresh_array_rk4_step, three_field_split, three_field_state,
                     three_field_velocity, upq_record, upq_rk4_step)


def test_flow_rhs_standard(grid16):
    m = make_standard_vaisman(grid16, 1.0)
    assert m.velocity.shape == (3, 16, 16)
    assert np.max(np.abs(m.velocity - np.array([1.0, 0.0, 0.0])[:, None, None])) == 0.0
    # scale 2: rho = s omega_check = -(1/4)(2 e1^e2)
    m2 = make_standard_vaisman(grid16, 2.0)
    assert np.max(np.abs(m2.velocity - np.array([0.5, 0.0, 0.0])[:, None, None])) < 1e-14


def test_coefficient_velocity_reconstruction(grid32, rng):
    m = make_noncsc_vaisman(grid32, 0.2, mode=(2, 1))
    rhs = -1.0 * bismut_ricci(m).rho11
    vel, residual = coefficient_velocity(rhs)
    assert residual < 1e-12
    du, dlam, dp, dq = vel
    # e12, e13, e14, e23, e24, e34
    rebuilt = InvariantForm(grid32, 2, np.stack((du, dp, dq, -dq, dp, dlam)))
    assert (rebuilt - rhs).max_abs() < 1e-12


def test_coefficient_velocity_reports_broken_pairing(grid16):
    bad = basis_form(grid16, (0, 2))
    _, residual = coefficient_velocity(bad)
    assert residual == 1.0


def test_velocity_matches_ricci_oracle(rng):
    # varying lam: the closed-form velocity, the scalar s = -d/dt log D and
    # the defect max |lap lam| against the form-route Bismut package and the
    # torsion
    for n in (16, 32, 64):
        grid = BaseGrid(n)
        for _ in range(3):
            m = _varying_lam_state(grid, rng)
            pkg = form_route_ricci(m)
            vel, residual = coefficient_velocity(-1.0 * p11_projection(pkg.rho))
            assert residual < 1e-13
            assert np.max(np.abs(vel[1])) < 1e-13
            assert np.max(np.abs(vel[[0, 2, 3]] - m.velocity)) < 1e-13
            s_gap = np.max(np.abs(scalar_curvature(m) - pkg.s))
            assert s_gap < 1e-13 * np.max(np.abs(pkg.s))
            torsion = exterior_d(bismut_torsion(m)).max_abs()
            assert abs(assess(m).pluriclosed_defect - torsion) < 1e-13


@pytest.mark.parametrize("n", (16, 32, 64))
def test_bismut_ricci_equals_form_route(n):
    # rho = d alpha on the flow's alpha is the form route's d J (theta -
    # (1/2) d log D) operand for operand; s = -d/dt log D agrees with the
    # wedge ratio to rounding.  The oracle gets a fresh state, so its theta
    # is lee_form's, not the velocity's.
    grid = BaseGrid(n)
    rng = np.random.default_rng(n)
    states = [make_standard_vaisman(grid, 1.37), make_noncsc_vaisman(grid, 0.15, (2, 1))]
    states += [_varying_lam_state(grid, rng) for _ in range(3)]
    for m in states:
        pkg = bismut_ricci(m)
        oracle = form_route_ricci(MetricState(grid, m.u, m.lam, m.p, m.q))
        assert np.array_equal(pkg.rho.coeffs, oracle.rho.coeffs)
        assert np.array_equal(pkg.rho11.coeffs, oracle.rho11.coeffs)
        assert np.max(np.abs(pkg.s - oracle.s)) <= 1e-14 * np.max(np.abs(oracle.s))


def test_flow_config_validation():
    FlowConfig()
    with pytest.raises(ConfigError):
        FlowConfig(dt=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(cfl_safety=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(cfl_safety=0.6)
    with pytest.raises(ConfigError):
        FlowConfig(record_every=0)
    with pytest.raises(ConfigError, match="record_every must be an integer"):
        FlowConfig(record_every=2.5)
    # a non-finite, bool or non-real time is named, not left to steps(), where
    # an infinite t_end raised OverflowError and dt = True stepped by 1
    for name, value, why in (("t_end", math.inf, "finite"), ("dt", math.inf, "finite"),
                             ("dt", True, "a real number"), ("t_end", True, "a real number"),
                             ("dt", "1e-4", "a real number"),
                             ("cfl_safety", "0.2", "a real number"),
                             ("cfl_safety", True, "a real number")):
        with pytest.raises(ConfigError, match=f"{name} must be {why}, got"):
            FlowConfig(**{name: value})


@pytest.mark.parametrize("name", ("vaisman_tol", "variance_tol", "exit_threshold"))
@pytest.mark.parametrize("value", (0.0, -1.0, float("nan"), float("inf"), True))
def test_flow_config_rejects_nonpositive_tolerances(name, value):
    # a FlowConfig built without an ExperimentConfig checks its own thresholds:
    # each a positive, finite real number that is not a bool
    why = "a real number" if value is True else "finite" if value == math.inf else "positive"
    with pytest.raises(ConfigError, match=f"{name} must be {why}, got {value}"):
        FlowConfig(**{name: value})


def test_single_step_matches_closed_form_at_fifth_order(grid16):
    # w' = 1/w (w = u on the standard seed) integrates to w = sqrt(1 + 2t);
    # one RK4 step is O(dt^5)
    _, fields, _ = _fields(make_standard_vaisman(grid16, 1.0), "states")
    errs = []
    for dt in (1e-2, 5e-3):
        out = step(grid16, fields, 1.0, dt)
        errs.append(abs(float(out[0, 0, 0]) - np.sqrt(1.0 + 2.0 * dt)))
    assert errs[0] / errs[1] > 20.0
    assert errs[0] / errs[1] < 45.0


def test_step_rejects_positivity_loss(grid32, monkeypatch):
    # dt = 0.25, far beyond the parabolic bound, takes w negative in a stage:
    # step names w and its point, and states rejects the step with the
    # pre-step margin
    m = make_noncsc_vaisman(grid32, 0.1)
    _, fields, _ = _fields(m, "states")
    with pytest.raises(PositivityError, match=r"^w = -\S+ at grid point \(\d+, \d+\)$"):
        step(grid32, fields, 1.0, 0.25)
    true_step = flow_engine.step

    def far_step(grid, x, lam0, dt):
        return true_step(grid, x, lam0, 0.25)

    monkeypatch.setattr(flow_engine, "step", far_step)
    with pytest.raises(StepRejected, match=r"^step dt=1.000e-04 rejected, positivity lost in a"
                                           r" stage: w = -") as info:
        list(states(m, FlowConfig(dt=1e-4, t_end=5e-4)))
    assert info.value.margin == m.positivity_margin() > 0.0 and info.value.t == 0.0


def test_step_aborts_on_nonfinite_velocity(grid16, monkeypatch):
    # NaN rates make the first stage stack non-finite
    def nan_rates(grid, fields, lam0, out):
        out.fill(np.nan)
        return out

    _, fields, _ = _fields(make_standard_vaisman(grid16, 1.0), "states")
    monkeypatch.setattr(flow_engine, "_rates", nan_rates)
    with pytest.raises(NumericalAbort, match="non-finite state during a step: stage fields"):
        step(grid16, fields, 1.0, 1e-4)


def test_run_rejects_bad_time_grid(grid16):
    m = make_standard_vaisman(grid16, 1.0)
    with pytest.raises(ConfigError):
        run(m, FlowConfig(dt=3e-4, t_end=1e-3))
    with pytest.raises(ConfigError, match="not an integer number of steps"):
        # 3.4 steps: within a tolerance of 1e-9 * steps, not of 1e-9 * steps * dt
        run(m, FlowConfig(dt=1e-10, t_end=3.4e-10))
    with pytest.raises(ConfigError):
        # two records only
        run(m, FlowConfig(dt=1e-4, t_end=2e-4, record_every=2))


@pytest.mark.parametrize("dt, t_end, steps", (
    (1e-4, 0.1, 1000),      # the defaults
    (1e-4, 2e-3, 20),       # benchmark noncsc
    (2e-5, 2.2e-4, 11),     # benchmark rigid
    (1e-4, 0.01, 100),      # demos
    (2e-5, 1e-3, 50),
    (1e-10, 3e-10, 3),
    (1.0, 1e7, flow_engine.MAX_STEPS),
))
def test_time_grid_accepts_whole_step_counts(dt, t_end, steps):
    assert FlowConfig(dt=dt, t_end=t_end).steps() == steps


def test_step_count_above_max_steps_is_rejected():
    # FlowConfig(dt=1e-20, t_end=0.1).steps() returned 10000000000000002048
    assert flow_engine.MAX_STEPS >= 100 * 20_000   # a rigid run to t = 1 at n = 64
    with pytest.raises(ConfigError, match=r"^t_end = 10000001.0 at dt = 1.0 is 10000001 steps,"
                                          r" more than MAX_STEPS = 10000000$"):
        FlowConfig(dt=1.0, t_end=float(flow_engine.MAX_STEPS + 1)).steps()


def test_run_enforces_parabolic_bound(grid32):
    m = make_standard_vaisman(grid32, 1.0)
    # bound = 0.2 h^2 min(u, lam) = 1.953e-4 at n = 32
    with pytest.raises(StepRejected) as info:
        run(m, FlowConfig(dt=2e-4, t_end=2e-3))
    assert info.value.t == 0.0


def test_run_abort_carries_failure_time(grid16, monkeypatch):
    m = make_standard_vaisman(grid16, 1.0)
    calls = {"k": 0}

    def flaky(grid, fields, lam0, out):
        # calls 1-8 are the four stages of steps 1 and 2; call 9 is the
        # third step's k1, so its first stage stack is non-finite
        calls["k"] += 1
        if calls["k"] > 8:
            out.fill(np.inf)
            return out
        return true_rates(grid, fields, lam0, out)

    true_rates = flow_engine._rates
    monkeypatch.setattr(flow_engine, "_rates", flaky)
    with pytest.raises(NumericalAbort) as info:
        run(m, FlowConfig(dt=1e-4, t_end=1e-3, record_every=1))
    assert info.value.t == pytest.approx(2e-4)


def test_states_yields_each_step_at_k_dt(grid16):
    # steps + 1 items from a copy of the seed; the fields of item k are step
    # applied k times to the seed's (w, f1, f2), bitwise, state k is the
    # state of those fields, and t is k dt, which a running sum of dt misses
    # from k = 7.  Each state is built once, on its first call, and stays
    # valid after the stream has moved on.
    m = make_noncsc_vaisman(grid16, 0.1)
    cfg = FlowConfig(dt=1e-4, t_end=1e-3)
    yielded = list(states(m, cfg))
    assert [k for k, *_ in yielded] == list(range(cfg.steps() + 1)) == list(range(11))
    assert all(type(t) is float and t == k * cfg.dt for k, t, *_ in yielded)
    seed = yielded[0][3]()
    assert seed is not m and seed.upq.tobytes() == m.upq.tobytes()
    _, fields, shift0 = _fields(m, "states")
    assert yielded[0][2].tobytes() == fields.tobytes()
    for _, _, stepped, state in yielded[1:]:
        fields = step(grid16, fields, 1.0, cfg.dt)
        assert stepped.tobytes() == fields.tobytes()
        assert state().upq.tobytes() == _state(m, fields, 1.0, shift0).upq.tobytes()
        assert state() is state() and state().lam_data is m.lam_data


def test_states_bound_rejection_mid_run_carries_its_time(grid16, monkeypatch):
    # dw = -4500 drains w, and u = w, from 1 to 0.55 and 0.1; the bound 0.2 h^2
    # min(u, lam) then reads 7.8e-5 < dt, so the third step is refused at t = 2e-4
    def draining(grid, fields, lam0, out):
        out.fill(0.0)
        out[0] = -4500.0
        return out

    monkeypatch.setattr(flow_engine, "_rates", draining)
    yielded = []
    with pytest.raises(StepRejected, match="exceeds the parabolic bound 7.8") as info:
        for k, t, _, state in states(make_standard_vaisman(grid16, 1.0),
                                     FlowConfig(dt=1e-4, t_end=1e-3)):
            yielded.append((k, t))
    assert yielded == [(0, 0.0), (1, 1e-4), (2, 2e-4)]
    assert info.value.t == 2e-4 and info.value.margin == pytest.approx(0.1)


def test_states_stopped_early_leaves_the_seed_bare(grid16):
    # the consumer's records cache on the stream's copy, never on the seed
    m = make_noncsc_vaisman(grid16, 0.1)
    before = dict(m.__dict__)
    stream = states(m, FlowConfig(dt=1e-4, t_end=1e-3))
    for k, t, _, state in stream:
        assess(state())
        if k == 2:
            break
    stream.close()
    assert not {"velocity", "theta", "split", "s", "D"} & m.__dict__.keys()
    assert m.__dict__.keys() == before.keys()
    assert all(m.__dict__[key] is value for key, value in before.items())


@pytest.mark.parametrize("stack, positive, short, error, message", (
    (True, False, True, GridError, "run takes one state"),
    (False, False, True, PositivityError, r"positivity violated: u\*lam - p\^2"),
    (False, True, True, ConfigError, "run too short: 2 trace records"),
    (True, True, False, GridError, "run takes one state"),
    (False, False, False, PositivityError, r"positivity violated: u\*lam - p\^2"),
))
def test_run_checks_the_seed_before_the_config(stack, positive, short, error, message):
    # a stack, then a seed off the positive cone, then a run of two records:
    # states checks the seed before run checks the config
    u = np.ones((2, 1, 1)) if stack else 1.0
    m = MetricState(BaseGrid(8), u, 1.0, 0.0 if positive else 2.0, 0.0)
    with pytest.raises(error, match=message):
        run(m, FlowConfig(dt=1e-4, t_end=2e-4 if short else 5e-4, record_every=2))


def test_states_names_itself_when_it_refuses_a_stack():
    m = MetricState(BaseGrid(8), np.ones((2, 1, 1)), 1.0, 0.0, 0.0)
    message = r"^states takes one state, got fields of shape \(2, 8, 8\)$"
    with pytest.raises(GridError, match=message):
        next(states(m, FlowConfig(dt=1e-4, t_end=5e-4)))


def test_report_and_trace_share_one_vocabulary(grid16):
    # each defect of assess is recorded in the trace column of its name, and
    # the last row is assess of the final state rebuilt from its fields, to
    # the bound of the record against the (u, p, q) route: the record takes
    # them from (w, f1, f2), 9.8e-13 from assess here (lck_defect; bitwise
    # when the record assessed its rebuilt state)
    names = [field.name for field in dataclasses.fields(DefectReport)] + ["vaisman_defect"]
    assert set(names) <= set(TRACE_COLUMNS)
    trace = run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=1e-3))
    final = trace.final_state
    report = assess(MetricState(grid16, final.u, final.lam, final.p, final.q))
    for name in names:
        assert abs(trace.column(name)[-1] - getattr(report, name)) <= UPQ_RECORD_BOUND, name


def test_run_computes_each_state_geometry_once(grid16, monkeypatch):
    # 5 steps, records at steps 0, 2, 4, 5: one split, the seed's, which
    # converts it to (w, f1, f2); no record builds a state, takes its
    # velocity, Lee form, d theta or defect report, and the flow path never
    # builds the Bismut curvature package.  (velocity 4, split 4, d 4 and
    # assess 4, one of each per record, when each record assessed its state
    # rebuilt from the fields; 21 velocities, 20 of them the stages', when
    # the flow stepped (u, p, q))
    calls = dict.fromkeys(("velocity", "split", "curvature", "theta", "d", "assess"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module, name, attr in ((hermitian_geometry, "velocity", "flow_velocity"),
                               (hermitian_geometry, "split", "metric_split"),
                               (hermitian_geometry, "curvature", "bismut_ricci"),
                               (hermitian_geometry, "theta", "lee_form"),
                               (hermitian_geometry, "d", "exterior_d"),
                               (vaisman_toolkit, "d", "exterior_d"),
                               (vaisman_toolkit, "assess", "assess")):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert calls == {"velocity": 0, "split": 1, "curvature": 0, "theta": 0, "d": 0, "assess": 0}


def test_flow_transform_budget(grid16, transform_fields, transform_calls):
    # n x n fields and calls through BaseGrid._forward / _inverse.  The run
    # of test_run_computes_each_state_geometry_once: 5 steps, 4 records.
    #   once per run: the seed's split 2/2 + lap lam 1/1  3/3 fields, 2/2 calls
    #   every step: 4 stages, each (1/2) lap of (log w, sigma1, sigma2)
    #                                     4 x 3/3 = 12/12 fields, 4/4 calls
    #   every record: (f1 + 1, f2, log w, sigma1, sigma2) -> (a - a0, b - b0,
    #     lap log w, sigma1_x, sigma1_y, sigma2_x, sigma2_y)
    #                                                   5/7 fields, 1/1 calls
    #   the final state: the last record's shift            0/0
    #   3/3 + 5 x 12/12 + 4 x 5/7 = 83/91 fields; 2 + 20 + 4 = 26/26 calls
    # (120/125 fields and 41/41 calls when each record took its velocity
    # (3/4 + d11 4/3, reading lam's partials 1/2 once per run), split 2/2
    # and d theta 4/5, 13/14 fields, and each record after the first and the
    # final state were rebuilt from (w, f1, f2) by a Helmholtz pair 2/2;
    # 173/178 fields and 52/52 calls when each step took 3 stage
    # velocities of 7/7 fields and each k1 was its record's velocity;
    # 174/181 fields when lap lam was the derivative of lam's partials, 2/4;
    # 1/2 + 21 x 7/7 + 4 x 8/11 = 180/193 fields and 55/55 calls when each
    # record took lap lam afresh; 21 x 8/11 + 4 x 12/21 = 216/315 fields and
    # 62/62 calls when each velocity and record differentiated lam and each
    # velocity and theta inverse-transformed all six partials of (lam, p, q))
    m = make_noncsc_vaisman(grid16, 0.1)
    transform_fields[:] = transform_calls[:] = [0, 0]
    run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert transform_fields == [83, 91]
    assert transform_calls == [26, 26]


def test_rk4_step_scans_only_its_stage_states(grid16, scanned_fields):
    # the three stage stacks and the result, one (3, n, n) scan each; the
    # rates and their (log w, sigma1, sigma2) are not scanned (the same 4/12
    # when the stages were (u, p, q) states; 10 calls over 33 fields when
    # each stage velocity scanned (p, q, log D) and alpha)
    _, fields, _ = _fields(make_noncsc_vaisman(grid16, 0.1), "states")
    scanned_fields[:] = [0, 0]
    step(grid16, fields, 1.0, 1e-4)
    assert scanned_fields == [4, 12]


def test_step_leaves_the_start_velocity_bitwise(grid16):
    # a record reads state k's velocity before step k + 1 runs in the grid's
    # work arrays; the velocity, the state and the yielded stacks share no
    # memory with them, so a kept state reads bitwise what it read when it
    # was yielded
    for m in (make_noncsc_vaisman(grid16, 0.1), _pluriclosed_state(grid16, 3)):
        kept = []
        for k, t, _, state in states(m, FlowConfig(dt=1e-4, t_end=3e-4)):
            velocity = state().velocity
            kept.append((state(), velocity, velocity.copy(), state().upq.copy()))
        for state, velocity, velocity_bytes, upq in kept:
            assert state.velocity is velocity and velocity.tobytes() == velocity_bytes.tobytes()
            assert state.upq.tobytes() == upq.tobytes()
            assert not any(np.shares_memory(work, x) for work in grid16._work_arrays
                           for x in (velocity, state.upq))


def test_warm_rk4_step_allocates_only_what_its_states_keep():
    # tracemalloc peak of one step at n = 64 after a warm-up step, in n x n
    # fields of 32 KiB.  The run's k-buffers, k1 to k4 and the stage stack
    # (15 fields), and the rates' (log w, sigma1, sigma2) are rows of the
    # grid's real work array, which the warm-up grew; the step allocates its
    # new (3, n, n) stack (3 fields) and, for each NaN/Inf scan, a boolean
    # (3, n, n) mask (3/8 of a field), freed before the next; the slack is
    # for small objects.  (17 fields when each stage built a (u, p, q) state
    # with its D, theta and velocity; 25.1 fields, 823 KB, when each
    # velocity allocated its intermediates and the sum a buffer of its own.)
    n = 64
    field = 8 * n * n
    grid = BaseGrid(n)
    _, fields, _ = _fields(make_noncsc_vaisman(grid, 0.1), "states")
    step(grid, fields, 1.0, 1e-5)
    tracemalloc.start()
    try:
        out = step(grid, fields, 1.0, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3 + 3 / 8) * field + 8192, peak / field
    assert out.shape == (3, n, n) and np.min(out[0]) > 0.0


def test_flow_after_a_battery_equals_a_fresh_grid_flow(monkeypatch):
    # the battery leaves the grid's work arrays grown by its stacks (the
    # real one by the curvature of its two seed stacks of two states) and
    # views of their shapes cached; a flow on that grid is bitwise the flow
    # on a grid of its own
    grid = BaseGrid(16)
    monkeypatch.setattr(identities, "BaseGrid", lambda n: grid)
    assert all(item.ok for item in identities.identity_battery(16, 6, 5))
    assert grid._work_arrays[2].size == 12 * 2 * 16 * 16
    cfg = FlowConfig(dt=1e-4, t_end=6e-4, record_every=2)
    used, fresh = (run(make_noncsc_vaisman(g, 0.1, (2, 1)), cfg) for g in (grid, BaseGrid(16)))
    for name in TRACE_COLUMNS:
        assert used.column(name).tobytes() == fresh.column(name).tobytes(), name
    assert used.final_state.upq.tobytes() == fresh.final_state.upq.tobytes()


def test_record_builds_neither_mu2_nor_omega_check(grid16):
    # the records build no split, so neither its mu2 nor its omega_check, and
    # no velocity or Lee form: the final state, built from the last record's
    # shift, caches none of them (the split of each record, without mu2 and
    # omega_check, when the trace read each state's split)
    trace = run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=4e-4))
    assert not {"split", "velocity", "theta", "s", "D"} & vars(trace.final_state).keys()


def test_flow_scan_budget(grid16, scanned_fields):
    # calls/fields through BaseGrid.check_field in the run of
    # test_run_computes_each_state_geometry_once: 5 steps, 4 records
    #   every step: 3 stage stacks and the new stack, 4 x 1/3   4/12
    #   every record: nothing, it builds no state               0/0
    #   the final state's (u, p, q), by with_fields             1/3
    #   5 x 4/12 + 1/3 = 21/63
    # (24/70 when the run took lam's partials by derivative, 1/1, and each
    # record after the first was a state built by with_fields, 1/3; 21/61
    # when each step built 4 (u, p, q) states and each record was one of
    # them; 29/101 when each record's split scanned mu1 (1/4) and
    # omega_check (1/6) on construction; 91/296 when each velocity scanned
    # (p, q, log D) and alpha, the split its shift and the record its forms)
    m = make_noncsc_vaisman(grid16, 0.1)
    scanned_fields[:] = [0, 0]
    run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert scanned_fields == [21, 63]


RECORD_MONITORS = ("fiber_rhs_residual", "fiber_fd_residual", "mu_drift",
                   "lambda_rel_residual")


@pytest.mark.parametrize("seed", ("noncsc", "rigid", 16, 32, 64, "wide"))
def test_record_equals_form_algebra_bitwise(seed):
    # the columns are maxima over components: with |(a, b)| < 1 the e13 and
    # e14 terms carry them, and the "wide" state's shift |(a, b)| > 1 makes
    # the e12 terms lam (a^2 + b^2) and 2 (a da + b db) lam carry them
    if seed == "noncsc":
        m, cfg = make_noncsc_vaisman(BaseGrid(32), 0.15, (2, 1)), FlowConfig(dt=1e-4, t_end=1e-3)
    elif seed == "rigid":
        m = make_standard_vaisman(BaseGrid(16), 1.37)
        cfg = FlowConfig(dt=1e-4, t_end=1e-3, record_every=3)
    else:
        grid = BaseGrid(32 if seed == "wide" else seed)
        m = _pluriclosed_state(grid, 7)
        if seed == "wide":
            m = MetricState(grid, 20.0 * m.u, m.lam, 10.0 * m.p, 10.0 * m.q)
        dt = 0.05 * grid.h ** 2
        cfg = FlowConfig(dt=dt, t_end=6 * dt, record_every=1)
    trace = run(m, cfg)
    expected = form_algebra_record(m, cfg)
    for name in RECORD_MONITORS:
        assert np.array_equal(trace.column(name), expected[name]), name
    assert np.all(expected["lambda_rel_residual"] == 0.0)
    if seed != "rigid":   # the rigid seed has p = q = 0 at every record
        assert np.max(expected["fiber_rhs_residual"]) > 0.0
        assert np.max(expected["mu_drift"]) > 0.0


# max |run - oracles.upq_record| over every trace column on the standard
# configs, the ktflow run presets as the benchmark and the docs run them:
# 1.1e-16 (stationary_csc, s_mean), 2.0e-12 (noncsc_vaisman, lck_defect) and
# 5.6e-13 (custom, fiber_fd_residual, where the (u, p, q) route reads the
# shift back as q/lam)
UPQ_RECORD_BOUND = 1e-11
STANDARD_RUNS = {
    "stationary_csc": (lambda: make_standard_vaisman(BaseGrid(64), 1.37),
                       FlowConfig(dt=2e-5, t_end=2.2e-4, record_every=10)),
    "noncsc_vaisman": (lambda: make_noncsc_vaisman(BaseGrid(32), 0.1, (2, 1)),
                       FlowConfig(dt=1e-4, t_end=2e-3)),
    "custom": (lambda: MetricState.constant(BaseGrid(16), 1.5, 1.3, 0.2, -0.3),
               FlowConfig(dt=1e-4, t_end=1e-3)),
}


@pytest.mark.parametrize("preset", STANDARD_RUNS)
def test_record_matches_the_upq_route_on_the_standard_runs(preset):
    seed, cfg = STANDARD_RUNS[preset]
    m = seed()
    trace, expected = run(m, cfg), upq_record(m, cfg)
    for name in TRACE_COLUMNS:
        assert np.max(np.abs(trace.column(name) - expected[name])) <= UPQ_RECORD_BOUND, name


# relative bounds of run's columns against oracles.upq_record on the random
# seeds, 6 steps of dt = 0.05 h^2 with a record at each: |run - upq| over the
# column's largest magnitude, or over 1 if that is smaller.  The two routes
# alias the products of under-resolved fields in different places; over
# seeds 0 to 47 the worst reads 6.4e-5, 3.9e-9 and 4.4e-11 at n = 16, 32 and
# 64 (lck_defect, lck_defect and sigma1_ode_residual) on _pluriclosed_state,
# and 1.6e-2, 3.2e-5 and 2.7e-10 (lck_defect) on its "wide" version, whose
# shift |(a, b)| > 1 lets d theta's e12 term, 2 lam0 (a db - b da), carry
# the maximum.  Dropping that term's a db reads 0.98 to 1.03 on the wide
# seeds at every n; dropping the 1/2 of s moves s_mean by O(1) on both.
UPQ_RECORD_RELATIVE = {16: (2e-4, 5e-2), 32: (1e-8, 1e-4), 64: (2e-10, 1e-9)}


@pytest.mark.parametrize("n", sorted(UPQ_RECORD_RELATIVE))
def test_record_matches_the_upq_route_on_random_seeds(n):
    grid = BaseGrid(n)
    dt = 0.05 * grid.h ** 2
    cfg = FlowConfig(dt=dt, t_end=6 * dt, record_every=1)
    for wide, bound in enumerate(UPQ_RECORD_RELATIVE[n]):
        for seed in range(6):
            m = _pluriclosed_state(grid, seed)
            if wide:
                m = MetricState(grid, 20.0 * m.u, m.lam, 10.0 * m.p, 10.0 * m.q)
            trace, expected = run(m, cfg), upq_record(m, cfg)
            for name in TRACE_COLUMNS:
                scale = max(np.max(np.abs(expected[name])), 1.0)
                error = np.max(np.abs(trace.column(name) - expected[name])) / scale
                assert error <= bound, (wide, seed, name, error)


def test_warm_record_allocates_only_what_it_keeps():
    # tracemalloc peak of one record at n = 64 after two warm-up records, in
    # n x n fields of 32 KiB: its one transform pair, the shift, the partials
    # and every product are rows of the grid's real work array; the record
    # allocates its fiber part (3 fields), kept for the next record's
    # difference and the final state, and each mean_and_variance's centred
    # copy (1 field), freed before the next; the slack is for small objects.
    # (33.1 fields, 1.04 MiB, when a record rebuilt its (u, p, q) state and
    # took its velocity, split, Lee form and d theta)
    n = 64
    field = 8 * n * n
    grid = BaseGrid(n)
    m = make_noncsc_vaisman(grid, 0.1)
    lam0, fields, shift0 = _fields(m, "states")
    prev = _record(grid, lam0, shift0, m.lam_data, fields, 0.0, None)
    for t in (1e-5, 2e-5):
        fields = step(grid, fields, lam0, 1e-5)
        tracemalloc.start()
        try:
            row = _record(grid, lam0, shift0, m.lam_data, fields, t, prev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        prev = row
    assert peak <= 4 * field + 8192, peak / field
    assert row["fiber"].shape == (3, n, n) and row["start_shift"] is prev["start_shift"]


def test_record_aborts_on_degenerate_area_with_its_time(grid16, monkeypatch):
    # a step that leaves w at 1e-13 > 0 passes the stream's positivity check;
    # the record of step 2 finds the area below DEGENERACY_TOL and aborts the
    # run at its t
    true_step = flow_engine.step
    calls = {"k": 0}

    def thinning(grid, fields, lam0, dt):
        calls["k"] += 1
        out = true_step(grid, fields, lam0, dt)
        if calls["k"] == 2:
            out[0] = 1e-13
        return out

    monkeypatch.setattr(flow_engine, "step", thinning)
    with pytest.raises(NumericalAbort, match=r"^degenerate transverse area at t = 0\.000200:"
                                             r" transverse area coefficient 1\.000e-13") as info:
        run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert info.value.t == 2e-4
    assert isinstance(info.value.__cause__, DegenerateTransverseError)


def _varying_lam_state(grid, rng):
    # a general state for the calculus; the flow refuses it
    u, lam = (1.0 + 0.3 * random_band_limited(grid, rng) for _ in range(2))
    p, q = (0.2 * random_band_limited(grid, rng) for _ in range(2))
    return MetricState(grid, u, lam, p, q)


def _pluriclosed_state(grid, seed):
    # a random state of one lam value, lam0 = 1.3
    f0, f1, f2 = random_band_limited(grid, random.Random(seed), 2, (3,))
    return MetricState(grid, 1.5 + 0.4 * f0, 1.3, 0.25 * f1, 0.25 * f2)


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_step_equals_fresh_state_rk4_bitwise(n):
    # the step's stage stacks, rates and their (log w, sigma1, sigma2) are
    # rows of the grid's work arrays, filled in place; a step whose every
    # intermediate is a fresh array is bitwise equal
    grid = BaseGrid(n)
    dt = 0.05 * grid.h ** 2
    for seed in range(3):
        _, fields, _ = _fields(_pluriclosed_state(grid, seed), "states")
        got = step(grid, fields, 1.3, dt)
        assert np.array_equal(got, fresh_array_rk4_step(grid, fields, 1.3, dt))


def test_every_state_of_a_run_holds_the_seeds_lam_data():
    # each state states() yields holds m0's one LamData, which computes a
    # lam datum once for the run; the seed's own caches stay bare
    m0 = _pluriclosed_state(BaseGrid(16), 3)
    yielded = [state() for *_, state in states(m0, FlowConfig(dt=1e-4, t_end=5e-4))]
    assert len(yielded) == 6
    assert m0.lam_data.lam is m0.lam
    for state in yielded:
        assert state.lam_data is m0.lam_data and state.lam is m0.lam
        state.velocity
    assert {"min", "partials"} <= vars(m0.lam_data).keys()
    assert not {"velocity", "D", "u_min"} & vars(m0).keys()


def test_run_aborts_on_degenerate_transverse_area(grid16):
    # D = 1 - p^2 = 1e-13 > 0, but w = D/lam is below DEGENERACY_TOL: the
    # first record's split aborts the run at t = 0 and names the area
    thin = MetricState.constant(grid16, 1.0, 1.0, 0.99999999999995)
    thin.require_positive()
    with pytest.raises(NumericalAbort, match="degenerate transverse area at t = 0") as info:
        run(thin, FlowConfig(dt=1e-4, t_end=5e-4, record_every=1))
    assert info.value.t == 0.0
    assert isinstance(info.value.__cause__, DegenerateTransverseError)


def test_run_trace_structure(grid32):
    m = make_standard_vaisman(grid32, 1.0)
    cfg = FlowConfig(dt=1e-4, t_end=5e-4, record_every=2)
    tr = run(m, cfg)
    # records at steps 0, 2, 4, 5: the partial final block is kept
    assert len(tr) == 4
    t = tr.column("t")
    assert t[0] == 0.0 and t[-1] == pytest.approx(5e-4)
    assert np.all(np.diff(t) > 0)
    for name in TRACE_COLUMNS:
        col = tr.column(name)
        assert col.shape == t.shape
        assert np.all(np.isfinite(col))
    assert tuple(tr.columns) == TRACE_COLUMNS


def test_run_leaves_its_seed_as_given(grid32):
    # the run cached its velocity, theta, split and s on the seed, and the
    # start shift kept a view of the seed's 4-row mu1: 0.63 MiB that a held
    # seed kept after a rigid run at n = 64
    m = make_noncsc_vaisman(grid32, 0.1)
    before = dict(m.__dict__)
    trace = run(m, FlowConfig(dt=1e-4, t_end=5e-4))
    assert trace.initial_state is m
    assert not {"velocity", "theta", "split", "s", "D"} & m.__dict__.keys()
    assert m.__dict__.keys() == before.keys()
    assert all(m.__dict__[key] is value for key, value in before.items())


def test_csc_run_tracks_closed_form(grid32):
    # homogeneous seed: lam frozen, u = sqrt(1 + 2t), s = -1/(1 + 2t)
    m = make_standard_vaisman(grid32, 1.0)
    cfg = FlowConfig(dt=1e-4, t_end=3e-3, record_every=10)
    tr = run(m, cfg)
    t_final = tr.column("t")[-1]
    u_exact = np.sqrt(1.0 + 2.0 * t_final)
    assert np.max(np.abs(tr.final_state.u - u_exact)) < 1e-12
    assert np.max(np.abs(tr.final_state.lam - 1.0)) == 0.0
    assert np.max(np.abs(tr.column("s_mean") + 1.0 / (1.0 + 2.0 * tr.column("t")))) < 1e-11
    assert np.max(tr.column("lambda_var")) == 0.0
    assert np.max(tr.column("pluriclosed_defect")) == 0.0
    assert np.max(tr.column("vaisman_defect")) < 1e-24


def test_monitors_on_rigid_run(grid32):
    m = make_standard_vaisman(grid32, 1.0)
    tr = run(m, FlowConfig(dt=1e-4, t_end=3e-3, record_every=10))
    mon = conservation_monitors(tr)
    assert mon["rows"] == len(tr)
    assert mon["duration"] == pytest.approx(3e-3)
    assert mon["stays_vaisman"]
    assert mon["exit_time"] is None
    assert mon["char_drift_rate"] < 1e-9
    assert mon["max_pluriclosed_defect"] == 0.0
    assert mon["fiber_rhs_residual_at_vaisman"] < 1e-10
    assert mon["lambda_rel_residual_at_vaisman"] < 1e-10
    assert mon["initial_s_variance"] < 1e-28


def test_monitors_on_leaving_run(grid32):
    m = make_noncsc_vaisman(grid32, 0.1)
    tr = run(m, FlowConfig(dt=1e-4, t_end=1e-3, record_every=1))
    mon = conservation_monitors(tr)
    assert not mon["stays_vaisman"]
    assert mon["initial_s_variance"] > 1e-6
    assert mon["exit_time"] is not None
    assert mon["exit_time"] <= 1e-3
    # lam never moves, so pluriclosedness survives the exit exactly
    assert mon["max_pluriclosed_defect"] == 0.0
    assert np.max(tr.column("lambda_var")) == 0.0


def test_monitors_need_three_rows(grid32):
    m = make_standard_vaisman(grid32, 1.0)
    tr = run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    short = FlowTrace(config=tr.config,
                      columns={k: v[:2] for k, v in tr.columns.items()},
                      final_state=tr.final_state,
                      initial_state=tr.initial_state)
    with pytest.raises(KTError):
        conservation_monitors(short)


def test_sigma1_ode_residual_instant(grid32):
    assert sigma1_ode_residual_instant(make_standard_vaisman(grid32, 1.0)) < 1e-8
    assert sigma1_ode_residual_instant(make_noncsc_vaisman(grid32, 0.1)) < 1e-6


def test_sigma1_ode_residual_instant_refuses_a_degenerate_state(grid16):
    # a transverse area below DEGENERACY_TOL is the state's own fault, with no
    # run time to name (it read "degenerate transverse area at t = 0.000000")
    thin = MetricState.constant(grid16, 1.0, 1.0, 0.99999999999995)
    with pytest.raises(DegenerateTransverseError,
                       match=r"^transverse area coefficient 9\.992e-14 below 1e-12$"):
        sigma1_ode_residual_instant(thin)


def test_states_refuses_a_lam_of_two_values():
    # the flow takes pluriclosed seeds, whose lam is one value; a lam one ulp
    # above the rest at one point is refused, and the error names its spread
    grid = BaseGrid(8)
    lam = grid.constant(1.0)
    lam[3, 5] = np.nextafter(1.0, 2.0)
    m = MetricState(grid, 2.0, lam, 0.0, 0.0)
    message = (r"^states takes a seed of one lam value, a pluriclosed seed; lam spreads over"
               r" \[1\.0, 1\.0000000000000002\], by 2\.220e-16$")
    with pytest.raises(ConfigError, match=message):
        next(states(m, FlowConfig(dt=1e-4, t_end=5e-4)))
    with pytest.raises(ConfigError, match="^sigma1_ode_residual_instant takes a seed"):
        sigma1_ode_residual_instant(m)
    lam[3, 5] = 1.0
    assert next(states(MetricState(grid, 2.0, lam, 0.0, 0.0),
                       FlowConfig(dt=1e-4, t_end=5e-4)))[0] == 0


# relative bounds of the stage rates (dw, df1, df2) against the oracle's,
# derived from flow_velocity, on _pluriclosed_state seeds 0 to 3.  dw carries
# the aliasing of products of under-resolved random fields, which the two
# routes take in different places: 1.8e-3 at n = 16, 2.9e-7 at n = 32 and
# 2.0e-13 at n = 64; df1 and df2 read 7.7e-15, 1.2e-13 and 1.1e-12.  A dw that
# drops the lam0 factor reads 6.9e-3 to 7.4e-3 at every n.
RATE_BOUNDS = {16: (3e-3, 1e-13), 32: (1e-6, 1e-12), 64: (1e-12, 1e-11)}


@pytest.mark.parametrize("n", sorted(RATE_BOUNDS))
def test_stage_rates_match_the_three_field_oracle(n):
    grid = BaseGrid(n)
    dw_bound, df_bound = RATE_BOUNDS[n]
    for seed in range(4):
        m = _pluriclosed_state(grid, seed)
        _, fields, _ = _fields(m, "states")
        assert np.max(np.abs(fields - three_field_split(m))) < 1e-13
        expected = three_field_velocity(m)
        scale = np.max(np.abs(expected), axis=(1, 2))
        for lam0, ok in ((1.3, True), (1.0, False)):   # 1.0: the lam0 factor dropped
            rates = _rates(grid, fields, lam0, np.empty_like(fields))
            error = np.max(np.abs(rates - expected), axis=(1, 2)) / scale
            assert bool(error[0] < dw_bound) is ok, (seed, lam0, error)
            assert np.all(error[1:] < df_bound), (seed, lam0, error)


@pytest.mark.parametrize("n", (16, 32, 64))
def test_three_field_round_trip(n):
    # (u, p, q) -> (w, f1, f2) -> (u, p, q) to rounding, by the library's
    # split and Helmholtz pair (6.7e-16 at every n) and by the oracle's rfft2
    # route (2.2e-16); the mean shift is the only datum the fields lack
    grid = BaseGrid(n)
    for m in (_pluriclosed_state(grid, 5), make_noncsc_vaisman(grid, 0.15, (2, 1))):
        lam0 = float(m.lam[0, 0])
        _, fields, shift0 = _fields(m, "states")
        assert m.max_difference(_state(m, fields, lam0, shift0)) < 2e-15
        mean_shift = (np.mean(m.q) / lam0, np.mean(m.p) / lam0)
        back = three_field_state(grid, lam0, three_field_split(m), mean_shift)
        assert m.max_difference(back) < 2e-15


@pytest.mark.parametrize("n", (16, 32))
def test_volume_law(n):
    # with W = mean(w), mean(lap) = 0 and mean(f1) = -1 make 2 W mean(dw/dt)
    # = 2 lam0 (1 + W V_w), V_w = mean(((sigma1 + 1/W)^2 + sigma2^2) w): 2.1e-16
    # relative or less on these seeds.  A constant 1e-8 added to dw moves the
    # left side by about 1e-9 relative.
    grid = BaseGrid(n)
    seeds = [_pluriclosed_state(grid, seed) for seed in range(4)]
    for m in seeds + [make_noncsc_vaisman(grid, 0.1, (2, 1))]:
        lam0 = float(m.lam[0, 0])
        _, fields, _ = _fields(m, "states")
        dw = _rates(grid, fields, lam0, np.empty_like(fields))[0]
        w, f1, f2 = fields
        big_w = np.mean(w)
        spread = np.mean(((f1 / w + 1.0 / big_w) ** 2 + (f2 / w) ** 2) * w)
        law = 2.0 * lam0 * (1.0 + big_w * spread)
        for shift, ok in ((0.0, True), (1e-8, False)):
            assert bool(abs(2.0 * big_w * np.mean(dw + shift) - law) < 1e-14 * law) is ok


@pytest.mark.parametrize("seed, n, dt, steps, bound", (
    ("noncsc", 32, 1e-4, 20, 1e-13),
    ("rigid", 64, 2e-5, 11, 0.0),
    (0, 64, 1e-5, 10, 1e-12),
))
def test_three_field_flow_matches_the_upq_route(seed, n, dt, steps, bound):
    # the three-field stepping against the (u, p, q) RK4 on flow_velocity it
    # replaced (oracles.upq_rk4_step): 1.6e-14 on the noncsc seed, 0.0 on the
    # rigid one and 1.3e-15 on a random seed at n = 64, where its products
    # are resolved (5.3e-11 at n = 32, the routes' different aliasing)
    grid = BaseGrid(n)
    m = (make_noncsc_vaisman(grid, 0.1, (2, 1)) if seed == "noncsc" else
         make_standard_vaisman(grid, 1.37) if seed == "rigid" else _pluriclosed_state(grid, seed))
    *_, (_, _, _, final) = states(m, FlowConfig(dt=dt, t_end=steps * dt))
    reference = m
    for _ in range(steps):
        reference = upq_rk4_step(reference, dt)
    assert final().max_difference(reference) <= bound
