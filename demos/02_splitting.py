#!/usr/bin/env python3
"""Transverse/fiber splitting of an invariant metric and the defect report.

Shows omega = w e1^e2 + lam mu1^mu2 with d mu_i = sigma_i omega_check on three
states: the rigid seed, the curvature-oscillation seed, and a state rough
enough to break every predicate in the report.
"""

import numpy as np

from ktflow.flow_engine import FlowConfig
from ktflow.hermitian_geometry import MetricState, metric_split
from ktflow.invariant_forms import BaseGrid, base_integral, exterior_d
from ktflow.vaisman_toolkit import assess, make_noncsc_vaisman, make_standard_vaisman


def show(name, m):
    split = metric_split(m)
    rep = assess(m)
    resid1 = (exterior_d(split.mu1) - split.omega_check * split.sigma1).max_abs()
    resid2 = (exterior_d(split.mu2) - split.omega_check * split.sigma2).max_abs()
    print(f"{name}:")
    print(f"  sigma1 in [{split.sigma1.min():+.4f}, {split.sigma1.max():+.4f}]"
          f"   sigma2 in [{split.sigma2.min():+.4f}, {split.sigma2.max():+.4f}]")
    print(f"  |d mu_i - sigma_i omega_check| = {max(resid1, resid2):.3e}")
    print(f"  transverse class integral = {base_integral(split.omega_check):+.6f}")
    print(f"  pluriclosed_defect = {rep.pluriclosed_defect:.3e}"
          f"   lck_defect = {rep.lck_defect:.3e}")
    tol = FlowConfig.vaisman_tol
    print(f"  vaisman_defect = {rep.vaisman_defect:.3e}   Var(s) = {rep.s_var:.3e}")
    print(f"  Vaisman (vaisman_defect < vaisman_tol = {tol:.0e}): {rep.vaisman_defect < tol}")


def main():
    grid = BaseGrid(32)
    show("rigid seed (u = 1, lam = 1)", make_standard_vaisman(grid, 1.0))
    show("curvature-oscillation seed (eps = 0.1)", make_noncsc_vaisman(grid, 0.1))

    two_pi = 2.0 * np.pi
    bump = 0.2 * np.sin(two_pi * grid.xx) * np.sin(two_pi * grid.yy)
    rough = MetricState(grid, 1.0 + bump, 1.0 - 0.5 * bump,
                        0.1 * bump, grid.zeros())
    show("rough state (lam not constant)", rough)


if __name__ == "__main__":
    main()
