"""Configuration-driven experiment runner; the package's external surface.

Config files are plain text, one `key = value` per line, `#` comments.
Recognized keys and defaults:

    preset        identity_suite | stationary_csc | noncsc_vaisman | custom
    n             32          grid resolution, power of two >= 8
    epsilon       0.1         non-CSC seed amplitude, |epsilon| < 0.5
    mode          1,1         non-CSC seed wave numbers, positive, 2 max(mode) < n
    scale         1.0         base area of the standard seed
    u0 lam0 p0 q0 1 1 0 0     custom preset: constant coefficient fields
    dt            1e-4        time step
    t_end         0.1         final time, at most MAX_STEPS (1e7) whole steps
    record_every  2           steps between trace records
    cfl_safety    0.2         parabolic step-bound factor, in (0, 0.5]
    tol           1e-7        flow's pluriclosed-preserved bound, in (0, inf)
    vaisman_tol   1e-8        constancy threshold for Vaisman instants
    variance_tol  1e-14       scalar-curvature constancy threshold
    exit_threshold 1e-9       defect level defining the exit time
    samples       50          randomized states in the identity battery
    seed          2024        battery's random.Random seed, a non-negative integer
    out_dir       .           output directory: one line, no '#', no outer whitespace

Flow presets write `<preset>_trace.csv` (header row, comma separated,
17 significant digits, so np.genfromtxt(path, delimiter=",", names=True)
reloads it bit-exact), `<preset>_verdict.json` and
`<preset>_final_state.json`.  The identity suite (ktflow.identities)
prints one line per identity and writes `identity_battery.json`.

`ktflow run CONFIG` runs a config file (read as UTF-8) and `ktflow suite`
the default config, the identity battery; each takes one option,
`--out-dir PATH`, which sets out_dir.  Every other setting lives in the
config file, so any other option is a usage error.

Exit codes: 0 all assertions pass, 1 assertion failures, 2 config or usage
errors, 3 numerical aborts (rejected step or non-finite state).

The runner reads no environment variable.  The grid kernels, numpy's
pocketfft transforms, start no thread, and no computation calls BLAS.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, GridError, NonFiniteFieldError, NumericalAbort, StepRejected
from .flow_engine import TRACE_COLUMNS, FlowConfig, conservation_monitors, run
from .hermitian_geometry import DEGENERACY_TOL, MetricState
from .invariant_forms import CONVENTIONS_VERSION, BaseGrid
from .vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman

PRESETS = ("identity_suite", "stationary_csc", "noncsc_vaisman", "custom")

SNAPSHOT_FORMAT = "ktflow-state"


def _parse_mode(text):
    parts = [piece.strip() for piece in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError(f"mode needs two comma-separated integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    dt: float = FlowConfig.dt
    t_end: float = FlowConfig.t_end
    record_every: int = FlowConfig.record_every
    cfl_safety: float = FlowConfig.cfl_safety
    tol: float = 1e-7
    vaisman_tol: float = FlowConfig.vaisman_tol
    variance_tol: float = FlowConfig.variance_tol
    exit_threshold: float = FlowConfig.exit_threshold
    samples: int = 50
    seed: int = 2024
    out_dir: str = "."

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; choose one of {', '.join(PRESETS)}"
            )
        for key in ("n", "samples", "seed"):
            if not _is_integer(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, got {getattr(self, key)!r}")
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{key} must be a finite real number, got {value!r}")
            # a float, which serialize_config writes by repr so that it parses back
            object.__setattr__(self, key, float(value))
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n must be a power of two >= 8, got {n}")
        if not abs(self.epsilon) < 0.5:
            raise ConfigError(f"epsilon must satisfy |epsilon| < 0.5, got {self.epsilon}")
        if not isinstance(self.mode, tuple) or len(self.mode) != 2:
            raise ConfigError(f"mode must be a tuple of two integers, got {self.mode!r}")
        if not all(map(_is_integer, self.mode)) or min(self.mode) < 1:
            raise ConfigError(f"mode entries must be positive integers, got {self.mode}")
        if not 2 * max(self.mode) < n:
            raise ConfigError(f"mode {self.mode} is not resolved: needs 2 max(mode) < n = {n}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.preset == "custom":
            if not (self.u0 > 0 and self.lam0 > 0):
                raise ConfigError(
                    f"custom preset needs u0 > 0 and lam0 > 0, got {self.u0}, {self.lam0}"
                )
            margin = self.u0 * self.lam0 - self.p0 * self.p0 - self.q0 * self.q0
            if not 0 < margin < math.inf:
                raise ConfigError(
                    f"custom preset violates 0 < u0*lam0 - p0^2 - q0^2 < inf (margin {margin})"
                )
            area = margin * (1.0 / self.lam0)   # w = D/lam as metric_split evaluates it
            if not DEGENERACY_TOL <= area < math.inf:
                raise ConfigError(
                    f"custom preset has a degenerate transverse area u0 - (p0^2 + q0^2)/lam0"
                    f" = {area:.3e}, outside [{DEGENERACY_TOL:.0e}, inf)"
                )
        self.flow_config().records()
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must satisfy 0 < tol < inf, got {self.tol}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            # random.Random seeds with |seed|: -5 would draw the states of 5
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        out = self.out_dir
        # a NUL byte, which no path can hold, fails os.makedirs with a ValueError
        if (not isinstance(out, str) or not out or out != out.strip() or "#" in out
                or "\0" in out or len(out.splitlines()) != 1):
            raise ConfigError(f"out_dir must be one nonempty line (a str) without '#', NUL"
                              f" or surrounding whitespace, got {out!r}")

    def flow_config(self):
        """The FlowConfig carried by this experiment; it validates its fields."""
        return FlowConfig(**{f.name: getattr(self, f.name) for f in fields(FlowConfig)})


_CASTERS = {f.name: {"str": str, "int": int, "float": float, "tuple": _parse_mode}[f.type]
            for f in fields(ExperimentConfig)}
_FLOAT_KEYS = tuple(key for key, cast in _CASTERS.items() if cast is float)


def parse_config(text):
    """Parse `key = value` lines into an ExperimentConfig.

    Unknown keys, malformed lines, duplicates and nan/inf report their line
    number; constraint violations come back as ConfigError with the named
    constraint.
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
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            values[key] = cast = _CASTERS[key](value)
            if isinstance(cast, float) and not math.isfinite(cast):
                raise ValueError(f"{value!r} is not a finite number")
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
# emission

def _write_text(path, text, what):
    """Write text and a closing newline; an OSError becomes a ConfigError naming what."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path!r}: {exc}") from exc


def emit_csv(trace, path):
    """Trace rows as CSV; 17 significant digits, so reload is bit-exact."""
    rows = zip(*(trace.columns[name].tolist() for name in TRACE_COLUMNS))
    lines = [",".join(TRACE_COLUMNS)] + [",".join("%.17g" % x for x in row) for row in rows]
    _write_text(path, "\n".join(lines), "trace CSV")


def _json_matrix(values):
    """An (n, n) float field as json.dumps writes values.tolist().

    Each distinct value, keyed by its bit pattern so that -0.0 and 0.0 stay
    apart, is formatted once by repr, json's format of a finite float.
    """
    keys, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in keys.view(float).tolist()], dtype=object)
    rows = texts[index.reshape(values.shape)].tolist()
    return "[[" + "], [".join(map(", ".join, rows)) + "]]"


def emit_snapshot(m, path):
    """Metric state as JSON: resolution, coefficient arrays, convention tag.

    A snapshot holds one state; a stack of states raises GridError.  The
    bytes are json.dumps of {format, conventions, n, u, lam, p, q}, each
    field a list of rows; a field is written through _json_matrix, so a
    final state with few distinct values formats few floats.
    """
    m.grid.require_single(m.lam, "emit_snapshot")
    head = json.dumps({"format": SNAPSHOT_FORMAT, "conventions": CONVENTIONS_VERSION,
                       "n": m.grid.n})
    body = "".join(f', "{key}": {_json_matrix(getattr(m, key))}'
                   for key in ("u", "lam", "p", "q"))
    _write_text(path, head[:-1] + body + "}", "snapshot")


def _write_verdict(cfg, path, started, **entries):
    """The run's verdict as indented JSON: preset, config, entries in order, wall_time."""
    verdict = {"preset": cfg.preset, "config": serialize_config(cfg), **entries,
               "wall_time": time.perf_counter() - started}
    _write_text(path, json.dumps(verdict, indent=1), "verdict")


def load_snapshot(path, grid=None):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"snapshot {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise ConfigError(f"{path!r} is not a state snapshot")
    if payload.get("conventions") != CONVENTIONS_VERSION:
        raise ConfigError(
            f"snapshot {path!r} uses conventions {payload.get('conventions')!r}, "
            f"this build has {CONVENTIONS_VERSION!r}"
        )
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"snapshot {path!r} has no integer resolution n, got {n!r}")
    if grid is not None and grid.n != n:
        raise ConfigError(f"snapshot resolution {n} does not match grid n={grid.n}")
    arrays = []
    for key in ("u", "lam", "p", "q"):
        try:
            values = np.asarray(payload[key], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"snapshot {path!r} field {key!r} is missing or "
                              f"not a numeric array: {exc!r}") from exc
        if values.shape != (n, n):
            raise ConfigError(f"snapshot {path!r} field {key!r} has shape "
                              f"{values.shape}, expected ({n}, {n})")
        # json reads true as a bool and "1.5" as a str, and float() takes both
        bad = next(((i, j, x) for i, row in enumerate(payload[key])
                    for j, x in enumerate(row) if type(x) not in (int, float)), None)
        if bad is not None:
            raise ConfigError(f"snapshot {path!r}: coefficient {key} is not a JSON number"
                              f" at grid index {bad[:2]}, got {bad[2]!r}")
        arrays.append(values)
    if grid is None:   # after the fields, whose shapes bound n by the file's size
        try:
            grid = BaseGrid(n)
        except GridError as exc:
            raise ConfigError(f"snapshot {path!r}: {exc}") from exc
    try:
        return MetricState(grid, *arrays)
    except NonFiniteFieldError as exc:
        raise ConfigError(f"snapshot {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment driver

def _seed_state(cfg, grid):
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
        checks.append(("leaves vaisman", monitors["max_vaisman_defect"] >= cfg.vaisman_tol,
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
        from . import identities   # only this preset runs the battery
        items = identities.identity_battery(cfg.n, cfg.samples, cfg.seed)
        identities._print_battery(items, stream)
        passed = all(item.ok for item in items)
        path = os.path.join(cfg.out_dir, "identity_battery.json")
        _write_verdict(cfg, path, started, items=[item.as_dict() for item in items],
                       ok=passed)
        stream.write(f"wrote {path}\n")
        return 0 if passed else 1

    grid = BaseGrid(cfg.n)
    seed_state = _seed_state(cfg, grid)
    flow_cfg = cfg.flow_config()
    base = os.path.join(cfg.out_dir, cfg.preset)
    try:
        trace = run(seed_state, flow_cfg)
    except (StepRejected, NumericalAbort) as exc:
        stream.write(f"numerical abort at t={exc.t}: {exc}\n")
        _write_verdict(cfg, base + "_verdict.json", started,
                       ok=False, aborted=True, reason=str(exc), t=exc.t)
        return 3

    monitors = conservation_monitors(trace)
    emit_csv(trace, base + "_trace.csv")
    emit_snapshot(trace.final_state, base + "_final_state.json")
    checks = _flow_assertions(cfg, monitors)
    for name, ok, detail in checks:
        stream.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    passed = all(ok for _, ok, _ in checks)
    _write_verdict(cfg, base + "_verdict.json", started, monitors=monitors,
                   assertions=[{"name": n_, "ok": bool(ok), "detail": d}
                               for n_, ok, d in checks],
                   ok=passed, trace_rows=len(trace))
    stream.write(f"stays_vaisman: {monitors['stays_vaisman']}"
                 f"   exit_time: {monitors['exit_time']}\n")
    stream.write(f"wrote {base}_trace.csv, {base}_verdict.json, "
                 f"{base}_final_state.json\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    import argparse   # a caller of run_experiment alone never loads it
    parser = argparse.ArgumentParser(
        prog="ktflow",
        description="invariant-metric flow laboratory (see module docs for the "
                    "config grammar)")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    suite_p = sub.add_parser("suite", help="identity battery with default settings")
    for p in (run_p, suite_p):
        p.add_argument("--out-dir", default=None, help="output directory override")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "suite":
            cfg = ExperimentConfig()
        else:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            cfg = parse_config(text)
        if args.out_dir is not None:
            cfg = replace(cfg, out_dir=args.out_dir)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepRejected, NumericalAbort) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
