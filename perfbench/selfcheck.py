#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong results.

    python3 perfbench/selfcheck.py

For each workload a correct output passes `run.check_run`, and a perturbed
final state, a failed assertion or a failed battery item trips it.  Two
real children, one whose run raises and one that aborts with exit code 3,
must come back as failed runs.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run as bench


def _write(out_dir, name, payload):
    with open(out_dir / name, "w") as fh:
        json.dump(payload, fh)


def _flow_outputs(out_dir, params, state, ok=True, stays=True):
    preset = params["preset"]
    _write(out_dir, f"{preset}_verdict.json",
           {"ok": ok, "assertions": [{"name": "all", "ok": ok}],
            "monitors": {"stays_vaisman": stays}})
    _write(out_dir, f"{preset}_final_state.json",
           dict({k: v.tolist() for k, v in state.items()}, n=params["n"]))


def _case(out_dir, label, expect_ok, write):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    params = write(out_dir)
    problems = bench.check_run(params, out_dir)
    good = (not problems) == expect_ok
    print(f"{'ok  ' if good else 'BAD '} {label}: {problems or 'passes'}")
    return good


def main():
    work = bench.WORK / "selfcheck"
    results = []

    noncsc = bench.noncsc_inputs(1)
    with np.load(bench.REFERENCE) as refs:
        ref = refs[bench.reference_key(noncsc)]
    ref_state = dict(zip(("u", "lam", "p", "q"), ref))

    def noncsc_case(delta=0.0, ok=True):
        def write(out_dir):
            state = {k: v.copy() for k, v in ref_state.items()}
            state["u"][3, 5] += delta
            _flow_outputs(out_dir, noncsc, state, ok=ok, stays=False)
            return noncsc
        return write

    results.append(_case(work / "a", "noncsc reference state", True, noncsc_case()))
    results.append(_case(work / "b", "noncsc state perturbed by 1e-6", False,
                         noncsc_case(delta=1e-6)))
    results.append(_case(work / "c", "noncsc failed assertion", False,
                         noncsc_case(ok=False)))

    rigid = bench.rigid_inputs(1)
    n = rigid["n"]
    exact = np.sqrt(rigid["scale"] ** 2 + 2.0 * rigid["t_end"])

    def rigid_case(du=0.0, dp=0.0, stays=True):
        def write(out_dir):
            state = {"u": np.full((n, n), exact), "lam": np.ones((n, n)),
                     "p": np.zeros((n, n)), "q": np.zeros((n, n))}
            state["u"][0, 0] += du
            state["p"][1, 2] += dp
            _flow_outputs(out_dir, rigid, state, stays=stays)
            return rigid
        return write

    results.append(_case(work / "d", "rigid closed-form state", True, rigid_case()))
    results.append(_case(work / "e", "rigid u perturbed by 1e-8", False,
                         rigid_case(du=1e-8)))
    results.append(_case(work / "f", "rigid p perturbed by 1e-9", False,
                         rigid_case(dp=1e-9)))
    results.append(_case(work / "g", "rigid leaves Vaisman", False,
                         rigid_case(stays=False)))

    suite = bench.suite_inputs(1)

    def suite_case(item_ok):
        def write(out_dir):
            items = [{"name": "a", "ok": True}, {"name": "b", "ok": item_ok}]
            _write(out_dir, "identity_battery.json", {"ok": True, "items": items})
            return suite
        return write

    results.append(_case(work / "h", "suite all items ok", True, suite_case(True)))
    results.append(_case(work / "i", "suite one item failed", False, suite_case(False)))

    for label, params in (
            ("run that raises", dict(noncsc, n=8, t_end=1.5e-4)),
            ("run that aborts with exit code 3", dict(noncsc, n=8, dt=1e-2, t_end=0.05))):
        out_dir = work / "child"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        config_path = out_dir / "experiment.cfg"
        config_path.write_text(bench.config_text(params, out_dir))
        problems = bench.run_child(config_path)["problems"]
        results.append(bool(problems))
        print(f"{'ok  ' if problems else 'BAD '} {label}: {problems or 'passes'}")

    shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-check cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
