#!/usr/bin/env python3
"""Flow from the non-constant-curvature seed: the Vaisman property breaks.

sigma_1 starts exactly constant (-1) but obeys d sigma_1/dt = sigma_1 s with
a non-constant s, so Var(sigma_1) grows quadratically, Var(sigma1)(t) ~
t^2 Var(sigma_1(0) s(0)), with the coefficient itself decaying at the
transverse heat rate of the seeded mode.  The run prints the measured ratio
against that prediction and the exit time of the 1e-9 defect threshold.
"""

import numpy as np

from ktflow.flow_engine import (FlowConfig, conservation_monitors, run,
                                sigma1_ode_residual_instant)
from ktflow.hermitian_geometry import bismut_ricci, metric_split
from ktflow.invariant_forms import BaseGrid
from ktflow.vaisman_toolkit import make_noncsc_vaisman


def main():
    grid = BaseGrid(32)
    seed = make_noncsc_vaisman(grid, 0.1)
    split = metric_split(seed)
    pkg = bismut_ricci(seed)
    var0 = float(np.var(split.sigma1 * pkg.s))
    print(f"seed: eps = 0.1, Var(sigma1(0) s(0)) = {var0:.4f}")
    print(f"sigma1 ODE residual at the seed: "
          f"{sigma1_ode_residual_instant(seed):.3e}")

    trace = run(seed, FlowConfig(dt=1e-4, t_end=0.01, record_every=5))
    t = trace.column("t")
    var = trace.column("sigma1_var")
    print("t        Var(sigma1)   t^2 Var0     ratio    vaisman_defect")
    for i in range(0, len(trace), max(1, len(trace) // 8)):
        if t[i] == 0.0:
            continue
        pred = t[i] * t[i] * var0
        print(f"{t[i]:.4f}   {var[i]:.3e}    {pred:.3e}   {var[i] / pred:.3f}"
              f"    {trace.column('vaisman_defect')[i]:.3e}")

    mon = conservation_monitors(trace)
    print(f"exit time (defect > 1e-9): {mon['exit_time']}")
    print(f"stays_vaisman = {mon['stays_vaisman']}")
    print(f"lambda stays constant: max Var(lam) = "
          f"{float(np.max(trace.column('lambda_var'))):.3e}"
          f"   max pluriclosed_defect = {mon['max_pluriclosed_defect']:.3e}")
    print(f"characteristic numbers drift rate = {mon['char_drift_rate']:.3e}")


if __name__ == "__main__":
    main()
