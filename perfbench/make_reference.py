#!/usr/bin/env python3
"""Write the reference final states of the flow_noncsc_n32 draw table.

    python3 perfbench/make_reference.py

Runs every (epsilon, mode) pair the workload can draw, each in a fresh
child exactly as the benchmark does, and stores the final (u, lam, p, q)
fields in `perfbench/reference/noncsc_n32.npz`.  The stored file was made
at the revision that defined the benchmark; later revisions are checked
against it, so it is regenerated only when the workload itself changes.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import run as bench


def main():
    work = bench.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    states = {}
    for eps in bench.NONCSC_EPSILONS:
        for mode in bench.NONCSC_MODES:
            params = dict(bench.noncsc_inputs(0), epsilon=eps, mode=mode)
            out_dir = work / bench.reference_key(params)
            out_dir.mkdir(parents=True)
            config_path = out_dir / "experiment.cfg"
            config_path.write_text(bench.config_text(params, out_dir))
            record = bench.run_child(config_path)
            problems = list(record["problems"])
            bench.check_flow_verdict(
                bench._load_json(out_dir / "noncsc_vaisman_verdict.json", problems),
                problems)
            state = bench._load_state(out_dir / "noncsc_vaisman_final_state.json",
                                      params["n"], problems)
            if problems:
                print(f"{out_dir.name}: {problems}", file=sys.stderr)
                return 1
            states[out_dir.name] = np.stack([state[k] for k in ("u", "lam", "p", "q")])
            print(f"{out_dir.name}: run_s {record['run_s']:.3f}")
    bench.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(bench.REFERENCE, **states)
    shutil.rmtree(work)
    print(f"wrote {len(states)} states to {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
