"""Defect functionals and seed constructors for the Vaisman dichotomies.

The characterization used throughout: an invariant metric state is

  * pluriclosed   iff  lam is spatially constant,
  * LCK on top    iff  additionally sigma_1, sigma_2 are constant,
  * Vaisman       iff  lam, sigma_1 and sigma_2 are all constant,

and within the Vaisman states, constancy of the curvature scalar s separates
the rigid seeds (flow keeps the Vaisman property) from the ones that leave.
The defect report measures each predicate, and FlowConfig's thresholds
decide; seeds for both regimes are constructed exactly (the non-constant-s
family has sigma_1 = -1 and sigma_2 = 0 by a spectral Hodge solve).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridError, PositivityError
from .hermitian_geometry import MetricState, inner_1forms
from .invariant_forms import DX, DY, apply_J, exterior_d, mean, mean_and_variance, wedge


@dataclass(frozen=True)
class DefectReport:
    """Nonnegative defect functionals of one metric state, each named as its trace column."""

    pluriclosed_defect: float    # max |d H| = max |lam_xx + lam_yy|
    lck_defect: float            # max |d theta|
    lambda_var: float            # Var(lam)
    sigma1_var: float            # Var(sigma1)
    sigma2_var: float            # Var(sigma2)
    s_var: float                 # Var(s): the constant-curvature defect
    lambda_mean: float           # the means beside the variances
    sigma1_mean: float
    sigma2_mean: float
    s_mean: float

    @property
    def vaisman_defect(self):
        """Var(lam) + Var(sigma1) + Var(sigma2), summed in that order."""
        return self.lambda_var + self.sigma1_var + self.sigma2_var


def assess(m):
    """Defect report of a metric state, from its cached split, Lee form and scalar.

    It takes no threshold: FlowConfig's decide.  d H = -(lam_xx + lam_yy)
    e1^e2^e3^e4 for the torsion H of any state, so the pluriclosed defect is
    m.lam_data.laplacian_max and lam's (mean, variance) m.lam_data.moments,
    which the states of a flow share; s is the flow's s = -d/dt log D, m.s,
    and sigma1, sigma2 and s go through mean_and_variance; max |d theta| is
    exterior_d(m.theta).max_abs(), 4/5 transform fields.  One state only: its
    variances would pool a stack, which raises GridError.
    """
    m.grid.require_single(m.lam, "assess")
    lam = m.lam_data
    means, variances = zip(lam.moments, *map(mean_and_variance,
                                             (m.split.sigma1, m.split.sigma2, m.s)))
    return DefectReport(lam.laplacian_max, exterior_d(m.theta).max_abs(), *variances, *means)


def potential_residual(m):
    """Residual max | |theta|^2 omega - theta ^ J theta + d J theta | of the potential identity."""
    theta = m.theta
    jtheta = apply_J(theta)
    return (m.omega() * inner_1forms(m, theta, theta)
            - wedge(theta, jtheta) + exterior_d(jtheta)).max_abs()


# the seed's shift (a, b) = (-psi_y, psi_x) of the psi with lap psi = rhs
_SHIFT_TERMS = (((0, -1.0, DY + ("inv_lap",)),), ((0, 1.0, DX + ("inv_lap",)),))


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
    construction (asserted anyway), and (a, b) come from one transform
    pair of it with the symbols -ik_y inv_lap and ik_x inv_lap.  The
    remaining coefficient is then forced: u = w + a^2 + b^2, which keeps
    u lam - p^2 - q^2 = w exactly, so positivity needs |eps| < 1.  The
    stricter |eps| < 1/2 bound leaves a uniform margin of 1/2.  The mode
    is two integers >= 1 (a float or bool entry is rejected, not
    truncated), and the grid must resolve it: 2 max(kx, ky) < n.

    For eps = 0 every correction vanishes and the output equals
    make_standard_vaisman(grid, 1.0), though q holds one -0.0 for a 0.0.
    """
    if not abs(eps) < 0.5:
        raise PositivityError(f"|eps| must be < 1/2, got {eps}")
    integral = (isinstance(k, numbers.Integral) and not isinstance(k, bool) for k in mode)
    if len(mode) != 2 or not all(integral) or min(mode) < 1:
        raise ValueError(f"mode must be two integers >= 1, got {mode!r}")
    kx, ky = map(int, mode)
    if not 2 * max(kx, ky) < grid.n:
        raise GridError(f"mode {(kx, ky)} needs 2 max(mode) < n = {grid.n}")
    two_pi = 2.0 * np.pi
    oscillation = np.sin(two_pi * kx * grid.xx) * np.sin(two_pi * ky * grid.yy)
    w = 1.0 + eps * oscillation
    rhs = -eps * oscillation                     # = 1 - w
    offset = abs(mean(rhs))
    if offset > 1e-13:
        raise ValueError(f"shift system incompatible: mean {offset:.3e} != 0")
    # mu_1 components (a, b) against e1, e2 translate to q = lam a, p = lam b
    q, p = grid.partial_sums(rhs[None], _SHIFT_TERMS)
    return MetricState(grid, w + q * q + p * p, grid.constant(1.0), p, q)

