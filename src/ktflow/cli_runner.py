"""Configuration-driven experiment runner; the package's external surface.

Config files are plain text, one `key = value` per line, `#` comments.
Recognized keys and defaults:

    preset        identity_suite | stationary_csc | noncsc_vaisman | custom
    n             32          grid resolution, power of two >= 8
    epsilon       0.1         non-CSC seed amplitude, |epsilon| < 0.5
    mode          1,1         non-CSC seed wave numbers, positive integers
    scale         1.0         base area of the standard seed
    u0 lam0 p0 q0 1 1 0 0     custom preset: constant coefficient fields
    dt            1e-4        time step
    t_end         0.1         final time (integer number of steps)
    record_every  2           steps between trace records
    cfl_safety    0.2         parabolic step-bound factor, in (0, 0.5]
    tol           1e-7        identity/assertion tolerance
    vaisman_tol   1e-8        constancy threshold for Vaisman instants
    variance_tol  1e-14       scalar-curvature constancy threshold
    exit_threshold 1e-9       defect level defining the exit time
    samples       50          randomized states in the identity battery
    seed          2024        RNG seed for the battery
    out_dir       .           output directory

Flow presets write `<preset>_trace.csv` (header row, comma separated,
17 significant digits so reloads are bit-exact), `<preset>_verdict.json`
and `<preset>_final_state.json`.  The identity suite prints one line per
identity and writes `identity_battery.json`.

Exit codes: 0 all assertions pass, 1 assertion failures, 2 config errors,
3 numerical aborts (rejected step or non-finite state).

The environment variable KTFLOW_THREADS caps the thread count of the grid
kernels; it is read before the numerical modules are imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, NumericalAbort, StepRejected

PRESETS = ("identity_suite", "stationary_csc", "noncsc_vaisman", "custom")

SNAPSHOT_FORMAT = "ktflow-state"


def _parse_mode(text):
    parts = [piece.strip() for piece in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError(f"mode needs two comma-separated integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "identity_suite"
    n: int = 32
    epsilon: float = 0.1
    mode: tuple = (1, 1)
    scale: float = 1.0
    u0: float = 1.0
    lam0: float = 1.0
    p0: float = 0.0
    q0: float = 0.0
    dt: float = 1e-4
    t_end: float = 0.1
    record_every: int = 2
    cfl_safety: float = 0.2
    tol: float = 1e-7
    vaisman_tol: float = 1e-8
    variance_tol: float = 1e-14
    exit_threshold: float = 1e-9
    samples: int = 50
    seed: int = 2024
    out_dir: str = "."

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; choose one of {', '.join(PRESETS)}"
            )
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n must be a power of two >= 8, got {n}")
        if not abs(self.epsilon) < 0.5:
            raise ConfigError(f"epsilon must satisfy |epsilon| < 0.5, got {self.epsilon}")
        if min(self.mode) < 1:
            raise ConfigError(f"mode entries must be positive integers, got {self.mode}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.preset == "custom":
            if not (self.u0 > 0 and self.lam0 > 0):
                raise ConfigError(
                    f"custom preset needs u0 > 0 and lam0 > 0, got {self.u0}, {self.lam0}"
                )
            margin = self.u0 * self.lam0 - self.p0 * self.p0 - self.q0 * self.q0
            if not margin > 0:
                raise ConfigError(
                    f"custom preset violates u0*lam0 - p0^2 - q0^2 > 0 (margin {margin})"
                )
        self.flow_config()
        for name in ("tol", "vaisman_tol", "variance_tol", "exit_threshold"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")

    def flow_config(self):
        """The FlowConfig carried by this experiment; it validates its fields."""
        from .flow_engine import FlowConfig
        return FlowConfig(**{f.name: getattr(self, f.name) for f in fields(FlowConfig)})


_CASTERS = {f.name: {"str": str, "int": int, "float": float, "tuple": _parse_mode}[f.type]
            for f in fields(ExperimentConfig)}


def parse_config(text, strict=True):
    """Parse `key = value` lines into an ExperimentConfig.

    Unknown keys are rejected in strict mode (warned about otherwise);
    malformed lines and duplicates report their line number; constraint
    violations come back as ConfigError with the named constraint.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CASTERS:
            if strict:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            print(f"warning: line {lineno}: ignoring unknown key {key!r}", file=sys.stderr)
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            values[key] = _CASTERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def serialize_config(cfg):
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "mode":
            value = f"{value[0]},{value[1]}"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _echo_header(cfg, stream):
    stream.write("# effective configuration\n")
    for line in serialize_config(cfg).splitlines():
        stream.write(f"#   {line}\n")


# ---------------------------------------------------------------------------
# identity battery

class BatteryItem:
    __slots__ = ("name", "value", "bound")

    def __init__(self, name, value, bound):
        self.name = name
        self.value = float(value)
        self.bound = float(bound)

    @property
    def ok(self):
        return self.value < self.bound

    def as_dict(self):
        return {"name": self.name, "max_residual": self.value,
                "bound": self.bound, "ok": self.ok}


def _battery_states(grid, samples, seed):
    import numpy as np
    from .hermitian_geometry import MetricState
    from .invariant_forms import random_band_limited

    rng = np.random.default_rng(seed)
    general, lam_const, constant = [], [], []
    for _ in range(samples):
        u = 1.0 + 0.3 * random_band_limited(grid, rng)
        lam = 1.0 + 0.3 * random_band_limited(grid, rng)
        p = 0.2 * random_band_limited(grid, rng)
        q = 0.2 * random_band_limited(grid, rng)
        general.append(MetricState(grid, u, lam, p, q))
        lam_const.append(MetricState(grid, u, 1.0 + 0.5 * rng.random(), p, q))
    for _ in range(max(4, samples // 8)):
        u0 = float(np.exp(0.5 * rng.normal()))
        lam0 = float(np.exp(0.5 * rng.normal()))
        r = 0.8 * np.sqrt(u0 * lam0) * rng.random()
        ang = 2.0 * np.pi * rng.random()
        constant.append(MetricState.constant(grid, u0, lam0,
                                             r * np.cos(ang), r * np.sin(ang)))
    return general, lam_const, constant


def identity_battery(n=32, tol=1e-7, samples=50, seed=2024):
    """All structural identities at resolution n; returns BatteryItem list.

    Randomized states exercise the splitting calculus; the two seed
    families exercise the curvature identities.
    """
    import numpy as np
    from .hermitian_geometry import (bismut_ricci, bismut_torsion, metric_split,
                                     norm_squared_1form)
    from .invariant_forms import (BaseGrid, apply_J, base_integral, basis_form,
                                  coframe, exterior_d, random_band_limited,
                                  random_form, wedge)
    from .vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman

    grid = BaseGrid(n)
    rng = np.random.default_rng(seed + 1)
    items = []

    # calculus hygiene, fixed machine-level bounds
    f = np.sin(2.0 * np.pi * grid.xx) * np.cos(4.0 * np.pi * grid.yy)
    fx = 2.0 * np.pi * np.cos(2.0 * np.pi * grid.xx) * np.cos(4.0 * np.pi * grid.yy)
    fy = -4.0 * np.pi * np.sin(2.0 * np.pi * grid.xx) * np.sin(4.0 * np.pi * grid.yy)
    value = max(float(np.max(np.abs(grid.derivative(f, "x") - fx))),
                float(np.max(np.abs(grid.derivative(f, "y") - fy))))
    items.append(BatteryItem("spectral derivative exactness", value, 1e-12))

    e12 = basis_form(grid, (0, 1))
    items.append(BatteryItem("structure equation",
                             (exterior_d(coframe(grid, 2)) + e12).max_abs(), 1e-14))

    dd = 0.0
    leib = 0.0
    jj = 0.0
    comm = 0.0
    for _ in range(8):
        a = random_form(grid, rng, int(rng.integers(0, 3)))
        b = random_form(grid, rng, int(rng.integers(0, 4 - a.degree)))
        if a.degree <= 2:
            dd = max(dd, exterior_d(exterior_d(a)).max_abs())
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)) * ((-1.0) ** a.degree)
        leib = max(leib, (lhs - rhs).max_abs())
        sign = -1.0 if a.degree in (1, 3) else 1.0
        jj = max(jj, (apply_J(apply_J(a)) - a * sign).max_abs())
        flip = (-1.0) ** (a.degree * b.degree)
        comm = max(comm, (wedge(a, b) - wedge(b, a) * flip).max_abs())
    items.append(BatteryItem("exterior nilpotency", dd, 1e-10))
    items.append(BatteryItem("leibniz rule", leib, 1e-10))
    items.append(BatteryItem("complex structure squares", jj, 1e-14))
    items.append(BatteryItem("wedge graded symmetry", comm, 1e-14))

    general, lam_const, constant = _battery_states(grid, samples, seed)
    seeds = [make_standard_vaisman(grid, 1.0), make_standard_vaisman(grid, 2.0),
             make_noncsc_vaisman(grid, 0.1, (1, 1)),
             make_noncsc_vaisman(grid, 0.1, (2, 1))]

    closed = ratio1 = ratio2 = jinv = reass = chars = 0.0
    for m in general + lam_const + constant + seeds:
        sp = metric_split(m)
        closed = max(closed, exterior_d(sp.omega_check).max_abs())
        ratio1 = max(ratio1, (exterior_d(sp.mu1) - sp.omega_check * sp.sigma1).max_abs())
        ratio2 = max(ratio2, (exterior_d(sp.mu2) - sp.omega_check * sp.sigma2).max_abs())
        for mu in (sp.mu1, sp.mu2):
            dmu = exterior_d(mu)
            jinv = max(jinv, (apply_J(dmu) - dmu).max_abs())
        rebuilt = sp.omega_check + wedge(sp.mu1, sp.mu2) * sp.lam
        reass = max(reass, (m.omega() - rebuilt).max_abs())
        chars = max(chars, abs(base_integral(exterior_d(sp.mu1)) + 1.0),
                    abs(base_integral(exterior_d(sp.mu2))))
    items.append(BatteryItem("transverse form closed", closed, tol))
    items.append(BatteryItem("first curvature ratio", ratio1, tol))
    items.append(BatteryItem("second curvature ratio", ratio2, tol))
    items.append(BatteryItem("curvature forms j-invariant", jinv, tol))
    items.append(BatteryItem("state reassembly", reass, tol))
    items.append(BatteryItem("characteristic numbers", chars, 1e-10))

    lee = norm = torsion = 0.0
    for m in lam_const + constant + seeds:
        sp = metric_split(m)
        formula = sp.mu2 * (sp.lam * sp.sigma1) + sp.mu1 * (-sp.lam * sp.sigma2)
        lee = max(lee, (sp.theta - formula).max_abs())
        nsq = norm_squared_1form(m, sp.theta)
        norm = max(norm, float(np.max(np.abs(
            nsq - sp.lam * (sp.sigma1 ** 2 + sp.sigma2 ** 2)))))
        torsion = max(torsion, exterior_d(bismut_torsion(m)).max_abs())
    items.append(BatteryItem("lee form formula", lee, 1e-8))
    items.append(BatteryItem("lee norm identity", norm, 1e-10))
    items.append(BatteryItem("torsion closure", torsion, tol))

    potential = 0.0
    for m in constant + seeds[:2]:
        sp = metric_split(m)
        theta = sp.theta
        jtheta = apply_J(theta)
        nsq = norm_squared_1form(m, theta)
        residual = (m.omega() * nsq - wedge(theta, jtheta) + exterior_d(jtheta))
        potential = max(potential, residual.max_abs())
    items.append(BatteryItem("potential identity", potential, tol))

    ricci = closed_rho = 0.0
    for m in seeds:
        sp = metric_split(m)
        pkg = bismut_ricci(m, sp)
        ricci = max(ricci, (pkg.rho - sp.omega_check * pkg.s).max_abs())
        closed_rho = max(closed_rho, exterior_d(pkg.rho).max_abs())
    items.append(BatteryItem("transverse ricci", ricci, 1e-6))
    items.append(BatteryItem("ricci closedness", closed_rho, 1e-12))

    return items


def _print_battery(items, stream):
    width = max(len(item.name) for item in items)
    for item in items:
        tag = "PASS" if item.ok else "FAIL"
        stream.write(f"{tag}  {item.name:<{width}}  max residual {item.value:10.3e}"
                     f"  (bound {item.bound:.0e})\n")
    failed = [item.name for item in items if not item.ok]
    stream.write(f"{len(items) - len(failed)}/{len(items)} identities pass\n")
    if failed:
        stream.write("failed: " + ", ".join(failed) + "\n")


# ---------------------------------------------------------------------------
# emission

def emit_csv(trace, path):
    """Trace rows as CSV; 17 significant digits, so reload is bit-exact."""
    from .flow_engine import TRACE_COLUMNS
    try:
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for row in trace.rows():
                fh.write(",".join("%.17g" % x for x in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write trace CSV {path!r}: {exc}") from exc


def load_trace_csv(path):
    import numpy as np
    from .flow_engine import TRACE_COLUMNS
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != TRACE_COLUMNS:
                raise ConfigError(f"unexpected trace columns in {path!r}: {header}")
            rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read trace CSV {path!r}: {exc}") from exc
    data = np.asarray(rows)
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def emit_snapshot(m, path):
    """Metric state as JSON: resolution, coefficient arrays, convention tag."""
    from .invariant_forms import CONVENTIONS_VERSION
    payload = {
        "format": SNAPSHOT_FORMAT,
        "conventions": CONVENTIONS_VERSION,
        "n": m.grid.n,
        "u": m.u.tolist(),
        "lam": m.lam.tolist(),
        "p": m.p.tolist(),
        "q": m.q.tolist(),
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write snapshot {path!r}: {exc}") from exc


def load_snapshot(path, grid=None):
    import numpy as np
    from .hermitian_geometry import MetricState
    from .invariant_forms import CONVENTIONS_VERSION, BaseGrid
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path!r}: {exc}") from exc
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ConfigError(f"{path!r} is not a state snapshot")
    if payload.get("conventions") != CONVENTIONS_VERSION:
        raise ConfigError(
            f"snapshot {path!r} uses conventions {payload.get('conventions')!r}, "
            f"this build has {CONVENTIONS_VERSION!r}"
        )
    n = int(payload["n"])
    if grid is None:
        grid = BaseGrid(n)
    elif grid.n != n:
        raise ConfigError(f"snapshot resolution {n} does not match grid n={grid.n}")
    arrays = [np.asarray(payload[key], dtype=float) for key in ("u", "lam", "p", "q")]
    return MetricState(grid, *arrays)


# ---------------------------------------------------------------------------
# experiment driver

def _seed_state(cfg, grid):
    from .hermitian_geometry import MetricState
    from .vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman
    if cfg.preset == "stationary_csc":
        return make_standard_vaisman(grid, cfg.scale)
    if cfg.preset == "noncsc_vaisman":
        return make_noncsc_vaisman(grid, cfg.epsilon, cfg.mode)
    return MetricState.constant(grid, cfg.u0, cfg.lam0, cfg.p0, cfg.q0)


def _flow_assertions(cfg, monitors):
    checks = []
    if cfg.preset == "stationary_csc":
        checks.append(("stays vaisman", monitors["stays_vaisman"],
                       f"max defect {monitors['max_vaisman_defect']:.3e}"))
    elif cfg.preset == "noncsc_vaisman":
        checks.append(("leaves vaisman", not monitors["stays_vaisman"],
                       f"max defect {monitors['max_vaisman_defect']:.3e}"))
        exited = monitors["exit_time"] is not None
        if cfg.t_end >= 0.01:
            exited = exited and monitors["exit_time"] <= 0.01
        checks.append(("exit time recorded", exited,
                       f"exit_time {monitors['exit_time']}"))
    checks.append(("pluriclosed preserved",
                   monitors["max_pluriclosed_defect"] < cfg.tol,
                   f"max {monitors['max_pluriclosed_defect']:.3e}"))
    checks.append(("characteristic numbers conserved",
                   monitors["char_drift_rate"] < 1e-9,
                   f"drift rate {monitors['char_drift_rate']:.3e}"))
    return checks


def run_experiment(cfg, stream=None):
    """Execute one configured experiment; returns the process exit code."""
    stream = stream or sys.stdout
    _echo_header(cfg, stream)
    started = time.perf_counter()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {cfg.out_dir!r}: {exc}") from exc

    if cfg.preset == "identity_suite":
        items = identity_battery(cfg.n, cfg.tol, cfg.samples, cfg.seed)
        _print_battery(items, stream)
        verdict = {
            "preset": cfg.preset,
            "config": serialize_config(cfg),
            "items": [item.as_dict() for item in items],
            "ok": all(item.ok for item in items),
            "wall_time": time.perf_counter() - started,
        }
        path = os.path.join(cfg.out_dir, "identity_battery.json")
        with open(path, "w") as fh:
            json.dump(verdict, fh, indent=1)
            fh.write("\n")
        stream.write(f"wrote {path}\n")
        return 0 if verdict["ok"] else 1

    from .flow_engine import conservation_monitors, run
    from .invariant_forms import BaseGrid

    grid = BaseGrid(cfg.n)
    seed_state = _seed_state(cfg, grid)
    flow_cfg = cfg.flow_config()
    base = os.path.join(cfg.out_dir, cfg.preset)
    try:
        trace = run(seed_state, flow_cfg)
    except (StepRejected, NumericalAbort) as exc:
        stream.write(f"numerical abort at t={exc.t}: {exc}\n")
        verdict = {"preset": cfg.preset, "config": serialize_config(cfg),
                   "ok": False, "aborted": True, "reason": str(exc),
                   "t": exc.t, "wall_time": time.perf_counter() - started}
        with open(base + "_verdict.json", "w") as fh:
            json.dump(verdict, fh, indent=1)
            fh.write("\n")
        return 3

    monitors = conservation_monitors(trace)
    emit_csv(trace, base + "_trace.csv")
    emit_snapshot(trace.final_state, base + "_final_state.json")
    checks = _flow_assertions(cfg, monitors)
    for name, ok, detail in checks:
        stream.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    verdict = {
        "preset": cfg.preset,
        "config": serialize_config(cfg),
        "monitors": monitors,
        "assertions": [{"name": n_, "ok": bool(ok), "detail": d}
                       for n_, ok, d in checks],
        "ok": all(ok for _, ok, _ in checks),
        "trace_rows": len(trace),
        "wall_time": time.perf_counter() - started,
    }
    with open(base + "_verdict.json", "w") as fh:
        json.dump(verdict, fh, indent=1)
        fh.write("\n")
    stream.write(f"stays_vaisman: {monitors['stays_vaisman']}"
                 f"   exit_time: {monitors['exit_time']}\n")
    stream.write(f"wrote {base}_trace.csv, {base}_verdict.json, "
                 f"{base}_final_state.json\n")
    return 0 if verdict["ok"] else 1


# ---------------------------------------------------------------------------
# entry point

def _apply_thread_env():
    raw = os.environ.get("KTFLOW_THREADS")
    if raw is None:
        return
    try:
        count = int(raw)
        if count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"KTFLOW_THREADS must be a positive integer, got {raw!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ktflow",
        description="invariant-metric flow laboratory (see module docs for the "
                    "config grammar)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None, help="output directory override")
        p.add_argument("--tol", type=float, default=None,
                       help="identity/assertion tolerance override")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="reject unknown config keys (default on)")

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    common(run_p)

    suite_p = sub.add_parser("suite", help="identity battery with default settings")
    common(suite_p)
    return parser


def main(argv=None):
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        if args.command == "suite":
            cfg = ExperimentConfig()
        else:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            cfg = parse_config(text, strict=args.strict)
        overrides = {}
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        if args.tol is not None:
            overrides["tol"] = args.tol
        if overrides:
            cfg = replace(cfg, **overrides)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepRejected, NumericalAbort) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
