#!/usr/bin/env python3
"""ktflow benchmark: time to a checked verdict, and where the time goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ktflow checkout; the package is imported from
`src/`.  Each run of `ktflow.cli_runner.run_experiment` gets a fresh child
process (`perfbench/child.py`) with `KTFLOW_THREADS=1`.  The loop is closed:
one child at a time, the next starts when the last has returned, until S
seconds have passed.  A few set-up-only children come first, so that
`setup_s` is a median over several set-ups.

Every run's outputs are checked (see `check_run`).  A run fails on a nonzero
exit code, an exception or a failed check, and failed runs are counted, not
skipped.  With `--trace 0` the end-to-end metrics of `BENCHMARK.json` are
reported from untraced runs.  `run_s` and `setup_s` are in reference
seconds: each wall time is scaled by the speed the machine showed on the
fixed kernel of `perfbench/speed.py` just before and just after it,
because the shared host drifts far more than the changes to be measured.
The raw wall times are printed and stored next to them.  With `--trace 1`
untraced and traced children alternate, and the per-layer metrics come
from the traced ones (`perfbench/tracer.py`).

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The full result,
with an environment block and every child's record, is written to
`perfbench/results/<workload>_seed<N>_trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
REFERENCE = HERE / "reference" / "noncsc_n32.npz"

THREAD_ENV = {"KTFLOW_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
SETUP_ONLY_CHILDREN = 4
CHILD_TIMEOUT_S = 60.0
STOP_LAUNCHING_S = 100.0

# The eps-seed draw is a finite table so that every draw has a reference
# final state, produced at the seed revision by make_reference.py.
NONCSC_EPSILONS = (0.05, 0.075, 0.1, 0.125, 0.15)
NONCSC_MODES = ((1, 1), (2, 1), (1, 2))

# Final-state tolerances.  On flow_noncsc_n32 the RK4 error at dt = 1e-4,
# estimated against dt = 5e-5, is at most 5e-11, so 1e-8 admits any
# consistent change of arithmetic and still catches a wrong right-hand side.
NONCSC_STATE_TOL = 1e-8
RIGID_U_TOL = 1e-10
RIGID_FROZEN_TOL = 1e-12

# Per-layer figures that are exact counts: they must agree between traced runs.
EXACT_SUFFIXES = (".calls", ".fields", ".repeats", ".repeat_frac", ".computed_mb",
                  ".tail_pct", ".tail_n", "emit_bytes")
SELF_SUM_TOL = 0.01


def noncsc_inputs(seed):
    rng = random.Random(seed)
    return {"preset": "noncsc_vaisman", "n": 32, "dt": 1e-4, "t_end": 2e-3,
            "record_every": 2, "epsilon": rng.choice(NONCSC_EPSILONS),
            "mode": rng.choice(NONCSC_MODES)}


def rigid_inputs(seed):
    rng = random.Random(seed)
    return {"preset": "stationary_csc", "n": 64, "dt": 2e-5, "t_end": 2.2e-4,
            "record_every": 10, "scale": rng.uniform(1.0, 2.0)}


def suite_inputs(seed):
    # numpy's generators take only non-negative seeds
    return {"preset": "identity_suite", "n": 32, "samples": 50, "seed": seed % 2**32}


WORKLOADS = {
    "flow_noncsc_n32": noncsc_inputs,
    "flow_rigid_n64": rigid_inputs,
    "suite_n32": suite_inputs,
}


def reference_key(params):
    kx, ky = params["mode"]
    return f"eps{params['epsilon']!r}_mode{kx}x{ky}"


def config_text(params, out_dir):
    lines = []
    for key, value in dict(params, out_dir=str(out_dir)).items():
        if key == "mode":
            value = f"{value[0]},{value[1]}"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output checks

def _load_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _load_state(path, n, problems):
    import numpy as np
    payload = _load_json(path, problems)
    if payload is None:
        return None
    if payload.get("n") != n:
        problems.append(f"snapshot n = {payload.get('n')}, expected {n}")
        return None
    return {key: np.asarray(payload[key], dtype=float)
            for key in ("u", "lam", "p", "q")}


def check_flow_verdict(verdict, problems):
    if verdict is None:
        return
    if verdict.get("ok") is not True:
        problems.append("verdict not ok")
    for item in verdict.get("assertions", []):
        if not item.get("ok"):
            problems.append(f"assertion failed: {item.get('name')}")


def check_rigid_state(params, state, monitors, problems):
    import numpy as np
    if monitors is None or monitors.get("stays_vaisman") is not True:
        problems.append("stays_vaisman does not hold")
    if state is None:
        return
    exact = float(np.sqrt(params["scale"] ** 2 + 2.0 * params["t_end"]))
    u_err = float(np.max(np.abs(state["u"] - exact)))
    if not u_err <= RIGID_U_TOL:
        problems.append(f"final u off sqrt(scale^2 + 2 t_end) by {u_err:.3e}")
    frozen = max(float(np.max(np.abs(state["lam"] - 1.0))),
                 float(np.max(np.abs(state["p"]))), float(np.max(np.abs(state["q"]))))
    if not frozen <= RIGID_FROZEN_TOL:
        problems.append(f"lam, p, q moved by {frozen:.3e}")


def check_noncsc_state(params, state, problems):
    import numpy as np
    if state is None:
        return
    with np.load(REFERENCE) as refs:
        ref = refs[reference_key(params)]
    diff = max(float(np.max(np.abs(state[key] - ref[i])))
               for i, key in enumerate(("u", "lam", "p", "q")))
    if not diff <= NONCSC_STATE_TOL:
        problems.append(f"final state off the reference by {diff:.3e}")


def check_battery(battery, problems):
    if battery is None:
        return
    items = battery.get("items", [])
    if not items or battery.get("ok") is not True:
        problems.append("identity battery not ok")
    for item in items:
        if not item.get("ok"):
            problems.append(f"battery item failed: {item.get('name')}")


def check_run(params, out_dir):
    """Problems found in the outputs of one finished run; empty when correct."""
    problems = []
    preset = params["preset"]
    if preset == "identity_suite":
        check_battery(_load_json(out_dir / "identity_battery.json", problems), problems)
        return problems
    verdict = _load_json(out_dir / f"{preset}_verdict.json", problems)
    check_flow_verdict(verdict, problems)
    state = _load_state(out_dir / f"{preset}_final_state.json", params["n"], problems)
    if preset == "stationary_csc":
        monitors = verdict.get("monitors") if verdict else None
        check_rigid_state(params, state, monitors, problems)
    elif preset == "noncsc_vaisman":
        check_noncsc_state(params, state, problems)
    return problems


# ---------------------------------------------------------------------------
# children

def run_child(config_path, setup_only=False, spans_path=None):
    """Start one child, wait for it, and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path)]
    env = dict(os.environ, **THREAD_ENV)
    record = {"kind": "setup" if setup_only else ("traced" if spans_path else "run")}
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if setup_only:
        cmd.append("--setup-only")
    if spans_path:
        cmd += ["--trace", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["problems"] = [f"timed out after {CHILD_TIMEOUT_S} s"]
        record["wall_s"] = CHILD_TIMEOUT_S
        return record
    record["wall_s"] = time.monotonic() - spawned_at
    record["returncode"] = proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        record["stderr"] = proc.stderr[-2000:]
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if "error" in record:
        problems.append("run raised: " + record["error"].strip().splitlines()[-1])
    record["problems"] = problems
    return record


# ---------------------------------------------------------------------------
# environment and aggregation

def environment(params, seed):
    import numpy
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
            revision = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ktflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "n": params["n"],
        "workload_seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else None


def attach_speed(records, n):
    """Give each record the machine speed around its measured phase.

    That phase lies between the kernel passes of the child before and those
    of the record's own child, which runs them once the phase is over.
    `speed` is the reference kernel time over their median.
    """
    before = []
    for record in records:
        own = record.get("kernel_s", [])
        if own:
            record["speed"] = REFERENCE_KERNEL_S[n] / statistics.median(before + own)
        before = own


def reference_seconds(record, key):
    """The record's `key` time at the reference kernel speed."""
    return record[key] * record["speed"]


def end_to_end(records, kind="run"):
    runs = [r for r in records if r["kind"] == kind and not r["problems"]]
    setups = [r for r in records if "setup_s" in r and "speed" in r]
    return {
        "run_s": _median([reference_seconds(r, "run_s") for r in runs]),
        "setup_s": _median([reference_seconds(r, "setup_s") for r in setups]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "run_wall_s": _median([r["run_s"] for r in runs]),
        "setup_wall_s": _median([r["setup_s"] for r in setups]),
        "kernel_s": _median([k for r in setups for k in r["kernel_s"]]),
    }


def per_layer(records, names):
    """Per-layer metrics from the traced runs, and any problems with them."""
    traced = [r for r in records if r["kind"] == "traced" and not r["problems"]]
    problems = []
    if not traced:
        return {}, ["no traced run succeeded"]
    for r in traced:
        layers = r["layers"]
        gap = abs(layers["trace.self_sum_s"] - r["run_s"]) / r["run_s"]
        if gap > SELF_SUM_TOL:
            problems.append(f"module self times miss traced run_s by {gap:.2%}")
    values = {}
    for name in set(traced[0]["layers"]) | set(names):
        series = [r["layers"].get(name, 0) for r in traced]
        if name.endswith(EXACT_SUFFIXES):
            if len(set(series)) > 1:
                problems.append(f"{name} differs between traced runs: {series}")
            values[name] = series[0]
        else:
            values[name] = _median(series)
    untraced = end_to_end(records)["run_s"]
    traced_run = end_to_end(records, kind="traced")
    values["trace_overhead_frac"] = ((traced_run["run_s"] - untraced) / untraced
                                     if untraced else 0.0)
    # wall seconds, like the self times it is compared with
    values["trace.run_s"] = traced_run["run_wall_s"]
    return values, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ktflow" / "cli_runner.py").is_file():
        print(f"no ktflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not spec_path.is_file() or not REFERENCE.is_file():
        print("BENCHMARK.json or the reference states are missing", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    params = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)

    records = []
    start = time.monotonic()
    index = 0

    def launch(**kwargs):
        nonlocal index
        out_dir = work / f"child{index:03d}"
        index += 1
        out_dir.mkdir()
        config_path = out_dir / "experiment.cfg"
        config_path.write_text(config_text(params, out_dir))
        record = run_child(config_path, **kwargs)
        if not kwargs.get("setup_only") and not record["problems"]:
            record["problems"] = check_run(params, out_dir)
        if not record["problems"]:
            shutil.rmtree(out_dir)
        records.append(record)

    for _ in range(SETUP_ONLY_CHILDREN):
        launch(setup_only=True)
    full = 0
    while True:
        traced = bool(args.trace) and full % 2 == 1
        launch(spans_path=RESULTS / f"{args.workload}_seed{args.seed}_spans.json"
               if traced else None)
        full += 1
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in records if r["kind"] != "setup")
        # The next run starts only if it should end inside the window, so a
        # benchmark run lasts about --seconds whatever the workload's run time.
        if elapsed >= STOP_LAUNCHING_S or (
                full >= (2 if args.trace else 1) and elapsed + typical > args.seconds):
            break

    attach_speed(records, params["n"])
    runs = [r for r in records if r["kind"] != "setup"]
    failed = sum(1 for r in runs if r["problems"])
    attempted = len(runs)
    problems = [p for r in records for p in r["problems"]]
    if not any(not r["problems"] for r in runs):
        print("no run succeeded:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1

    summary = end_to_end(records)
    summary["failed_frac"] = failed / attempted
    layers = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        layers, layer_problems = per_layer(records, names)
        problems += layer_problems
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = summary
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{attempted} runs, {failed} failed, failed_frac {summary['failed_frac']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  raw wall: run {summary['run_wall_s']} s, setup {summary['setup_wall_s']} s; "
          f"kernel {summary['kernel_s']} s against {REFERENCE_KERNEL_S[params['n']]} s")
    for problem in problems:
        print(f"  problem: {problem}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, params=params,
                       environment=environment(params, args.seed),
                       end_to_end=summary, layers=layers, problems=problems,
                       records=[{k: v for k, v in r.items() if k != "layers"}
                                for r in records]),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
