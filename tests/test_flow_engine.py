"""RK4 driver, trace diagnostics and guard rails."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ktflow.flow_engine as flow_engine
import ktflow.hermitian_geometry as hermitian_geometry
import ktflow.identities as identities
from ktflow.errors import (ConfigError, DegenerateTransverseError, GridError, KTError,
                           NumericalAbort, PositivityError, StepRejected)
from ktflow.flow_engine import (FlowConfig, FlowTrace, TRACE_COLUMNS,
                                conservation_monitors, run,
                                sigma1_ode_residual_instant, states, step)
from ktflow.hermitian_geometry import (MetricState, bismut_ricci,
                                       bismut_torsion, scalar_curvature)
from ktflow.invariant_forms import (BaseGrid, InvariantForm, basis_form, exterior_d,
                                    p11_projection, random_band_limited)
from ktflow.vaisman_toolkit import (DefectReport, assess, make_noncsc_vaisman,
                                    make_standard_vaisman)

from oracles import (coefficient_velocity, form_algebra_record, form_route_ricci,
                     fresh_state_rk4_step)


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
    # u' = 1/u integrates to u = sqrt(1 + 2t); one RK4 step is O(dt^5)
    m = make_standard_vaisman(grid16, 1.0)
    errs = []
    for dt in (1e-2, 5e-3):
        out = step(m, dt)
        errs.append(abs(float(out.u[0, 0]) - np.sqrt(1.0 + 2.0 * dt)))
    assert errs[0] / errs[1] > 20.0
    assert errs[0] / errs[1] < 45.0


def test_step_rejects_positivity_loss(grid32):
    m = make_noncsc_vaisman(grid32, 0.1)
    with pytest.raises(StepRejected) as info:
        step(m, 0.25)
    assert info.value.margin > 0.0   # margin reported is the pre-step one


def test_step_aborts_on_nonfinite_velocity(grid16, monkeypatch):
    m = make_standard_vaisman(grid16, 1.0)
    bad = np.full((3, grid16.n, grid16.n), np.nan)
    monkeypatch.setattr(hermitian_geometry, "flow_velocity", lambda state: bad)
    with pytest.raises(NumericalAbort):
        step(m, 1e-4)


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
    true_velocity = hermitian_geometry.flow_velocity

    def flaky(state):
        # calls 1-9 are the velocities of records 0, 1 and 2 and the stages
        # 2-4 of steps 1 and 2 (each k1 is its record's); call 10 is the
        # third step's k2
        calls["k"] += 1
        if calls["k"] > 9:
            return np.full((3, grid16.n, grid16.n), np.inf)
        return true_velocity(state)

    monkeypatch.setattr(hermitian_geometry, "flow_velocity", flaky)
    with pytest.raises(NumericalAbort) as info:
        run(m, FlowConfig(dt=1e-4, t_end=1e-3, record_every=1))
    assert info.value.t == pytest.approx(2e-4)


def test_states_yields_each_step_at_k_dt(grid16):
    # steps + 1 triples from a copy of the seed; state k is bitwise step(state k - 1, dt),
    # and t is k dt, which a running sum of dt misses from k = 7
    m = make_noncsc_vaisman(grid16, 0.1)
    cfg = FlowConfig(dt=1e-4, t_end=1e-3)
    triples = list(states(m, cfg))
    assert [k for k, _, _ in triples] == list(range(cfg.steps() + 1)) == list(range(11))
    assert all(type(t) is float and t == k * cfg.dt for k, t, _ in triples)
    assert triples[0][2] is not m and triples[0][2].upq.tobytes() == m.upq.tobytes()
    for (_, _, previous), (_, _, state) in zip(triples, triples[1:]):
        assert state.upq.tobytes() == step(previous, cfg.dt).upq.tobytes()


def test_states_bound_rejection_mid_run_carries_its_time(grid16, monkeypatch):
    # du = -4500 drains u from 1 to 0.55 and 0.1; the bound 0.2 h^2 min(u, lam)
    # then reads 7.8e-5 < dt, so the third step is refused at t = 2e-4
    monkeypatch.setattr(hermitian_geometry, "flow_velocity", lambda m: np.stack(
        (np.full_like(m.u, -4500.0), m.grid.zeros(), m.grid.zeros())))
    yielded = []
    with pytest.raises(StepRejected, match="exceeds the parabolic bound 7.8") as info:
        for k, t, state in states(make_standard_vaisman(grid16, 1.0),
                                  FlowConfig(dt=1e-4, t_end=1e-3)):
            yielded.append((k, t))
    assert yielded == [(0, 0.0), (1, 1e-4), (2, 2e-4)]
    assert info.value.t == 2e-4 and info.value.margin == pytest.approx(0.1)


def test_states_stopped_early_leaves_the_seed_bare(grid16):
    # the consumer's records cache on the stream's copy, never on the seed
    m = make_noncsc_vaisman(grid16, 0.1)
    before = dict(m.__dict__)
    stream = states(m, FlowConfig(dt=1e-4, t_end=1e-3))
    for k, t, state in stream:
        assess(state)
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
    # the last row is bitwise assess of the final state rebuilt from its fields
    names = [field.name for field in dataclasses.fields(DefectReport)] + ["vaisman_defect"]
    assert set(names) <= set(TRACE_COLUMNS)
    trace = run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=1e-3))
    final = trace.final_state
    report = assess(MetricState(grid16, final.u, final.lam, final.p, final.q))
    for name in names:
        assert float(trace.column(name)[-1]).hex() == float(getattr(report, name)).hex(), name


def test_run_computes_each_state_geometry_once(grid16, monkeypatch):
    # 5 steps, records at steps 0, 2, 4, 5: 20 stage velocities plus 4 record
    # velocities, less the 3 steps whose k1 starts from a recorded state; the
    # initial split is the first record's split, and the flow path never
    # builds the Bismut curvature package
    calls = {"velocity": 0, "split": 0, "curvature": 0}

    def counted(name, fn):
        def wrapper(m):
            calls[name] += 1
            return fn(m)
        return wrapper

    for name, attr in (("velocity", "flow_velocity"), ("split", "metric_split"),
                       ("curvature", "bismut_ricci")):
        monkeypatch.setattr(hermitian_geometry, attr,
                            counted(name, getattr(hermitian_geometry, attr)))
    run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert calls == {"velocity": 21, "split": 4, "curvature": 0}


def test_flow_transform_budget(grid16, transform_fields, transform_calls):
    # n x n fields and calls through BaseGrid._forward / _inverse.  The run
    # of test_run_computes_each_state_geometry_once: 21 velocities, 4 records.
    #   once per run: lam partials 1/2 + lap lam 1/1     2/3 fields, 2/2 calls
    #   every velocity: (p, q, log D) -> (A, B, d log D) 3/4 + d11 4/3
    #                                                  7/7 fields, 2/2 calls
    #   every record: split 2/2 + d theta 4/5, theta from the record's
    #     velocity, lap lam from the state's lam data  6/7 fields, 2/2 calls
    #   2/3 + 21 x 7/7 + 4 x 6/7 = 173/178 fields; 2 + 42 + 8 = 52/52 calls
    # (174/181 fields when lap lam was the derivative of lam's partials, 2/4;
    # 1/2 + 21 x 7/7 + 4 x 8/11 = 180/193 fields and 55/55 calls when each
    # record took lap lam afresh; 21 x 8/11 + 4 x 12/21 = 216/315 fields and
    # 62/62 calls when each velocity and record differentiated lam and each
    # velocity and theta inverse-transformed all six partials of (lam, p, q))
    m = make_noncsc_vaisman(grid16, 0.1)
    transform_fields[:] = transform_calls[:] = [0, 0]
    run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert transform_fields == [173, 178]
    assert transform_calls == [52, 52]


def test_rk4_step_scans_only_its_stage_states(grid16, scanned_fields):
    # k1 cached: the three stage states and the result, one (3, n, n) scan
    # each; their velocities and d11's alpha are not scanned (10 calls over
    # 33 fields when each stage velocity scanned (p, q, log D) and alpha)
    m = make_noncsc_vaisman(grid16, 0.1)
    m.velocity
    scanned_fields[:] = [0, 0]
    step(m, 1e-4)
    assert scanned_fields == [4, 12]


def test_step_leaves_the_start_velocity_bitwise(grid16):
    # k1 is m.velocity, which the trace record shares; the RK4 sum goes into k2
    rng = np.random.default_rng(3)
    for m in (make_noncsc_vaisman(grid16, 0.1), _varying_lam_state(grid16, rng)):
        k1 = m.velocity
        kept = k1.copy()
        out = step(m, 1e-4)
        assert m.velocity is k1 and k1.tobytes() == kept.tobytes()
        assert not np.shares_memory(out.upq, k1)


def test_warm_rk4_step_allocates_only_what_its_states_keep():
    # tracemalloc peak of one step at n = 64 after a warm-up step, in n x n
    # fields of 32 KiB.  The peak comes as stage 4 ends, when k2 and k3 (3
    # fields each) and the stage-4 state's upq (3), D (1), theta (4) and
    # velocity k4 (3) are alive: 17 fields.  Everything else of a stage, the
    # (p, q, log D) stack, its partial sums, alpha and the Lee scratch row,
    # is in the grid's work arrays, and the RK4 sum goes into k2; the slack
    # is for small objects.  (25.1 fields, 823 KB, when each velocity
    # allocated its intermediates and the sum a buffer of its own.)
    n = 64
    field = 8 * n * n
    m = make_noncsc_vaisman(BaseGrid(n), 0.1)
    step(m, 1e-5)
    tracemalloc.start()
    try:
        out = step(m, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * field + 8192, peak / field
    assert out.positivity_margin() > 0.0


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
    # the trace reads mu1's shift, sigma1, sigma2 and w_check of each split
    trace = run(make_noncsc_vaisman(grid16, 0.1), FlowConfig(dt=1e-4, t_end=4e-4))
    split = vars(trace.final_state)["split"]
    assert "mu2" not in vars(split) and "omega_check" not in vars(split)


def test_flow_scan_budget(grid16, scanned_fields):
    # calls/fields through BaseGrid.check_field in the run of
    # test_run_computes_each_state_geometry_once: 5 steps, 4 records
    #   once per run: derivative of lam (the lam partials)      1/1
    #   every step: 4 new stage states, 4 x 1/3                 4/12
    #   every record: nothing; the split's mu1 and omega_check
    #     come from the scanned state                           0/0
    #   1/1 + 5 x 4/12 = 21/61
    # (29/101 when each record's split scanned mu1 (1/4) and omega_check
    # (1/6) on construction; 91/296 when each velocity scanned (p, q, log D)
    # and alpha, the split its shift and the record its forms)
    m = make_noncsc_vaisman(grid16, 0.1)
    scanned_fields[:] = [0, 0]
    run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=2))
    assert scanned_fields == [21, 61]


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
        m = _varying_lam_state(grid, np.random.default_rng(7))
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


def _varying_lam_state(grid, rng):
    u, lam = (1.0 + 0.3 * random_band_limited(grid, rng) for _ in range(2))
    p, q = (0.2 * random_band_limited(grid, rng) for _ in range(2))
    return MetricState(grid, u, lam, p, q)


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_step_equals_fresh_state_rk4_bitwise(n):
    # the stage states share the start state's lam and lam partials; a step
    # whose stage states are built and differentiated afresh is bitwise equal
    grid = BaseGrid(n)
    dt = 0.05 * grid.h ** 2
    for seed in range(3):
        m = _varying_lam_state(grid, np.random.default_rng(seed))
        got, expected = step(m, dt), fresh_state_rk4_step(m, dt)
        for name in ("u", "lam", "p", "q"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def test_run_shares_lam_laplacian():
    # five steps of a varying-lam state at n = 16, a record after each: every
    # record reads the laplacian of the run's first state; a fresh state's is
    # bitwise the same, and lam is frozen
    m = _varying_lam_state(BaseGrid(16), np.random.default_rng(3))
    trace = run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=1))
    fresh = [assess(MetricState(s.grid, s.u, s.lam, s.p, s.q)).pluriclosed_defect
             for s in (trace.initial_state, trace.final_state)]
    assert fresh[0] == fresh[1] > 0.1
    assert np.all(trace.column("pluriclosed_defect") == fresh[0])


def test_every_state_of_a_run_holds_the_seeds_lam_data(monkeypatch):
    # each state states() yields and each RK4 stage state holds m0's one
    # LamData, which computes a lam datum once for the run; the seed's own
    # caches stay bare
    m0 = _varying_lam_state(BaseGrid(16), np.random.default_rng(3))
    true_velocity = hermitian_geometry.flow_velocity
    differentiated = []

    def recording(m):
        differentiated.append(m)
        return true_velocity(m)

    monkeypatch.setattr(hermitian_geometry, "flow_velocity", recording)
    yielded = [state for _, _, state in states(m0, FlowConfig(dt=1e-4, t_end=5e-4))]
    assert len(yielded) == 6 and len(differentiated) == 5 * 4   # k1 to k4 of 5 steps
    assert m0.lam_data.lam is m0.lam
    for state in yielded + differentiated:
        assert state.lam_data is m0.lam_data and state.lam is m0.lam
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
