#!/usr/bin/env python3
"""The library's Bismut curvature against the values the geometry predicts.

The library evaluates rho = d alpha on the flow's 1-form alpha = J (theta -
(1/2) d log(u lam - p^2 - q^2)), and s = -d/dt log(u lam - p^2 - q^2).
For constant-coefficient states the Ricci form is also rho = s omega_check
with s = -lam / w^2, so the standard seed has rho = -e1^e2 and s = -1 (not
zero); on every Vaisman seed rho = s omega_check.  Both are compared digit by
digit.  The moving-frame and frame-algebra oracles that pin the library on
arbitrary states live in tests/oracles.py.
"""

import numpy as np

from ktflow.hermitian_geometry import (MetricState, bismut_ricci, bismut_torsion,
                                       metric_split)
from ktflow.invariant_forms import BaseGrid, basis_form
from ktflow.vaisman_toolkit import make_noncsc_vaisman


def main():
    grid = BaseGrid(32)

    m = MetricState.constant(grid, 1.0, 1.0)
    pkg = bismut_ricci(m)
    print("standard seed:")
    print(f"  |rho + e1^e2| = {(pkg.rho + basis_form(grid, (0, 1))).max_abs():.3e}")
    H = bismut_torsion(m)
    print(f"  |H + e1^e2^e3| = {(H + basis_form(grid, (0, 1, 2))).max_abs():.3e}")
    print(f"  s = {float(pkg.s[0, 0]):+.15f}   (closed form: -lam/w^2 = -1)")

    print("constant states, library vs closed form s = -lam/w^2:")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(6):
        u0, lam0 = np.exp(0.4 * rng.normal(size=2))
        r = 0.7 * np.sqrt(u0 * lam0) * rng.random()
        ang = 2.0 * np.pi * rng.random()
        p0, q0 = r * np.cos(ang), r * np.sin(ang)
        w = u0 - (p0 * p0 + q0 * q0) / lam0
        pkg = bismut_ricci(MetricState.constant(grid, u0, lam0, p0, q0))
        worst = max(worst, float(np.max(np.abs(pkg.s + lam0 / (w * w)))))
    print(f"  max |s + lam/w^2| over 6 random constant states = {worst:.3e}")

    print("transverse proportionality rho = s omega_check on Vaisman seeds:")
    for eps, mode in ((0.0, (1, 1)), (0.1, (1, 1)), (0.2, (2, 1))):
        seed = make_noncsc_vaisman(grid, eps, mode)
        split = metric_split(seed)
        pkg = bismut_ricci(seed)
        resid = (pkg.rho - split.omega_check * pkg.s).max_abs()
        print(f"  eps = {eps:.1f}, mode = {mode}: |rho - s omega_check| = {resid:.3e}"
              f"   Var(s) = {float(np.var(pkg.s)):.3e}")


if __name__ == "__main__":
    main()
