"""Defect functionals and seed constructors for the Vaisman dichotomies.

The characterization used throughout: an invariant metric state is

  * pluriclosed   iff  lam is spatially constant,
  * LCK on top    iff  additionally sigma_1, sigma_2 are constant,
  * Vaisman       iff  lam, sigma_1 and sigma_2 are all constant,

and within the Vaisman states, constancy of the curvature scalar s separates
the rigid seeds (flow keeps the Vaisman property) from the ones that leave.
The defect report quantifies each predicate; seeds for both regimes are
constructed exactly (the non-constant-s family has sigma_1 = -1 and
sigma_2 = 0 by a spectral Hodge solve, not approximately).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .hermitian_geometry import (
    MetricState,
    bismut_ricci,
    metric_split,
    norm_squared_1form,
)
from .invariant_forms import apply_J, base_integral, exterior_d, wedge


@dataclass(frozen=True)
class DefectReport:
    """Nonnegative defect functionals of one metric state."""

    pluriclosed_defect: float    # max |d H|
    lck_defect: float            # max |d theta|
    vaisman_defect: float        # Var(lam) + Var(sigma1) + Var(sigma2)
    potential_residual: float    # max | |theta|^2 omega - theta^J theta + d J theta |
    s_variance: float            # Var(s): the constant-curvature defect
    is_vaisman: bool


def _variance(field):
    return float(np.var(field))


def report_from_parts(m, split, pkg, tol=1e-8):
    """Assemble a DefectReport from precomputed split and curvature data."""
    pluriclosed = exterior_d(pkg.H).max_abs()
    lck = exterior_d(split.theta).max_abs()
    vaisman = _variance(split.lam) + _variance(split.sigma1) + _variance(split.sigma2)
    theta = split.theta
    potential = (m.omega() * norm_squared_1form(m, theta)
                 - wedge(theta, apply_J(theta))
                 + exterior_d(apply_J(theta))).max_abs()
    return DefectReport(
        pluriclosed_defect=float(pluriclosed),
        lck_defect=float(lck),
        vaisman_defect=float(vaisman),
        potential_residual=float(potential),
        s_variance=_variance(pkg.s),
        is_vaisman=bool(vaisman < tol),
    )


def assess(m, tol=1e-8):
    """Full defect report of a metric state."""
    split = metric_split(m)
    pkg = bismut_ricci(m, split)
    return report_from_parts(m, split, pkg, tol)


def make_standard_vaisman(grid, scale=1.0):
    """Homogeneous seed u = scale, lam = 1: constant splitting data.

    sigma_1 = -1/scale, sigma_2 = 0, theta = -e4 rescaled, and the curvature
    scalar is the constant -1/scale^2, so the seed is Vaisman with constant
    scalar curvature.
    """
    if not scale > 0:
        raise PositivityError(f"scale must be positive, got {scale}")
    return MetricState.constant(grid, scale, 1.0)


def make_noncsc_vaisman(grid, eps, mode=(1, 1)):
    """Vaisman seed with non-constant curvature scalar.

    Prescribes the transverse area coefficient w = 1 + eps sin(2 pi kx x)
    sin(2 pi ky y) and lam = 1, then solves for the connection shift
    mu_1 = e3 + a e1 + b e2 so that

        d(mu_1) = -w e1^e2   (sigma_1 = -1 exactly),
        d(mu_2) = 0          (sigma_2 = 0 exactly).

    The two constraints form a curl/divergence system for (a, b); with
    a = -dpsi/dy, b = dpsi/dx both reduce to the Poisson equation
    lap(psi) = -eps sin sin, whose right-hand side has zero mean by
    construction (asserted anyway).  The remaining coefficient is then
    forced: u = w + a^2 + b^2, which keeps u lam - p^2 - q^2 = w exactly,
    so positivity needs |eps| < 1.  The stricter |eps| < 1/2 bound leaves
    a uniform margin of 1/2.

    For eps = 0 every correction vanishes identically and the output equals
    make_standard_vaisman(grid, 1.0) bit for bit.
    """
    if not abs(eps) < 0.5:
        raise PositivityError(f"|eps| must be < 1/2, got {eps}")
    kx, ky = (int(k) for k in mode)
    if kx < 1 or ky < 1:
        raise ValueError(f"mode integers must be >= 1, got {mode}")
    two_pi = 2.0 * np.pi
    oscillation = np.sin(two_pi * kx * grid.xx) * np.sin(two_pi * ky * grid.yy)
    w = 1.0 + eps * oscillation
    rhs = -eps * oscillation                     # = 1 - w
    mean = abs(float(np.mean(rhs)))
    if mean > 1e-13:
        raise ValueError(f"shift system incompatible: mean {mean:.3e} != 0")
    psi = grid.poisson(rhs)
    a = -grid.derivative(psi, "y")
    b = grid.derivative(psi, "x")
    lam = grid.constant(1.0)
    # mu_1 components (a, b) against e1, e2 translate to q = lam a, p = lam b
    q = a
    p = b
    u = w + a * a + b * b
    return MetricState(grid, u, lam, p, q)


def basic_class_nontriviality(split):
    """Base integral of the transverse form; nonzero certifies a non-exact class.

    A basic exact 2-form integrates to zero over the torus base, so a
    positive value here separates the transverse class from zero.
    """
    return base_integral(split.omega_check)
