"""One benchmark run of ktflow in a fresh process.

    python3 perfbench/child.py CONFIG SPAWNED_AT [--setup-only] [--trace SPANS]

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process; both clocks are the system-wide monotonic clock.  The set-up phase
covers the interpreter start, the numpy and ktflow imports, the config
parse, the grid and the seed state.  The run phase is one
`ktflow.cli_runner.run_experiment` call, from the parsed config to the
written verdict.  With `--trace` the outside-in tracer is installed after
set-up and the spans are written to SPANS.  The reference kernel of
`speed.py` is timed once the measured phases are over: after the run, or
after set-up in a set-up-only child.  It runs after the peak resident set
is read, so it leaves that figure alone.

The last line of standard output is one JSON object with the timings, the
kernel times, the run's exit code and the peak resident set.  The process
exits with the run's exit code, or 1 if the run raised.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _seed_state(cfg):
    from ktflow.invariant_forms import BaseGrid
    from ktflow.vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman

    grid = BaseGrid(cfg.n)
    if cfg.preset == "stationary_csc":
        return make_standard_vaisman(grid, cfg.scale)
    if cfg.preset == "noncsc_vaisman":
        return make_noncsc_vaisman(grid, cfg.epsilon, cfg.mode)
    return grid


def main(argv):
    config_path, spawned_at = argv[0], float(argv[1])
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    from ktflow import cli_runner

    with open(config_path) as fh:
        cfg = cli_runner.parse_config(fh.read())
    _seed_state(cfg)
    result = {"setup_s": time.monotonic() - spawned_at}
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import kernel_times
    if setup_only:
        result["kernel_s"] = kernel_times(cfg.n)
        print(json.dumps(result))
        return 0

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    log = io.StringIO()
    code = 1
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = cli_runner.run_experiment(cfg, stream=log)
    except Exception:
        result["error"] = traceback.format_exc()
    result["run_s"] = time.perf_counter() - start
    result["run_cpu_s"] = time.process_time() - cpu_start
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["kernel_s"] = kernel_times(cfg.n)
    with open(os.path.join(cfg.out_dir, "run.log"), "w") as fh:
        fh.write(log.getvalue())
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    print(json.dumps(result))
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
