"""Splitting data, Lee form and Bismut curvature of invariant metric states.

A metric state stores the four coefficient fields of the J-invariant 2-form

    omega = u e1^e2 + lam e3^e4 + p (e1^e3 + e2^e4) + q (e1^e4 - e2^e3) ,

positive exactly when u > 0, lam > 0 and u*lam - p^2 - q^2 > 0.  From it we
derive the vertical/transverse splitting

    omega = lam mu1^mu2 + omega_check ,

the connection 1-forms mu_i (dual pair of the vertical generators), the
curvature multipliers sigma_i with d(mu_i) = sigma_i omega_check, the Lee
form theta, and the Bismut curvature package.

Sign conventions, fixed once and verified by the test oracles:

  * g(X, Y) = -omega(JX, Y);
  * torsion 3-form H(X, Y, Z) = d(omega)(JX, JY, JZ), the unique sign for
    which the connection below is Hermitian (parallel g and J);
  * Bismut connection nabla^B = nabla^LC + (1/2) g^{-1} H;
  * Ricci form rho(X, Y) = (1/2) sum_a g(R^B(X, Y) J F_a, F_a) over an
    orthonormal frame, and scalar s = (1/2) sum_a rho(F_a, J F_a), so that
    rho = s * omega_check on states with constant lam, sigma_1, sigma_2.

These traces define the conventions and are what the moving-frame oracle in
the tests computes.  The library evaluates the same Ricci form in closed form,

    rho = -(1/2) d J d log(u lam - p^2 - q^2) + d(J theta) ,

the Bismut/Chern relation rho^B = rho^C - d(J theta) (Alexandrov-Ivanov
2001), whose Chern term is -(1/2) d J d log of the Pfaffian u lam - p^2 - q^2
of omega in these sign conventions; the scalar is s = 2 (rho ^ omega) /
(omega ^ omega).  The Chern term vanishes on constant states, and the oracle
converges to the closed form spectrally in the grid resolution.

With these choices the standard state (u = lam = 1, p = q = 0) has
rho = -e1^e2 and s = -1; it is a constant-curvature state but not a
Bismut-Ricci-flat one, and the flow in flow_engine expands its base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransverseError, LinearSolveError, PositivityError
from .invariant_forms import (
    InvariantForm,
    J_FRAME,
    MULTI_INDEX,
    V1,
    V2,
    apply_J,
    base_integral,
    coframe,
    contract,
    exterior_d,
    function_form,
    p11_projection,
    wedge,
)

DEGENERACY_TOL = 1e-12

# Increasing pairs indexing 2-form components, shared with invariant_forms.
_PAIRS = MULTI_INDEX[2]


@dataclass(frozen=True, eq=False)
class MetricState:
    """Coefficient fields (u, lam, p, q) of an invariant Hermitian 2-form."""

    grid: object
    u: np.ndarray
    lam: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("u", "lam", "p", "q"):
            values = np.broadcast_to(np.asarray(getattr(self, name), dtype=float),
                                     (self.grid.n, self.grid.n))
            values = self.grid.check_field(values, f"metric coefficient {name}")
            object.__setattr__(self, name, values.copy())

    @staticmethod
    def constant(grid, u, lam, p=0.0, q=0.0):
        return MetricState(grid, grid.constant(u), grid.constant(lam),
                           grid.constant(p), grid.constant(q))

    def omega(self):
        out = InvariantForm(self.grid, 2)
        out.coeffs[0] = self.u          # e1^e2
        out.coeffs[1] = self.p          # e1^e3
        out.coeffs[2] = self.q          # e1^e4
        out.coeffs[3] = -self.q         # e2^e3
        out.coeffs[4] = self.p          # e2^e4
        out.coeffs[5] = self.lam        # e3^e4
        return out

    def determinant_margin(self):
        return self.u * self.lam - self.p * self.p - self.q * self.q

    def positivity_margin(self):
        """Smallest of min(u), min(lam), min(u lam - p^2 - q^2)."""
        return float(min(self.u.min(), self.lam.min(), self.determinant_margin().min()))

    def require_positive(self):
        for name, values in (("u", self.u), ("lam", self.lam),
                             ("u*lam - p^2 - q^2", self.determinant_margin())):
            worst = values.min()
            if not worst > 0.0:
                bad = np.unravel_index(np.argmin(values), values.shape)
                raise PositivityError(
                    f"positivity violated: {name} = {worst:.6e} at grid point {bad}"
                )

    def max_difference(self, other):
        return float(max(np.max(np.abs(self.u - other.u)),
                         np.max(np.abs(self.lam - other.lam)),
                         np.max(np.abs(self.p - other.p)),
                         np.max(np.abs(self.q - other.q))))

    def copy(self):
        return MetricState(self.grid, self.u, self.lam, self.p, self.q)

    def omega_matrix(self):
        """Antisymmetric coefficients W_ij = omega(E_i, E_j), (n, n, 4, 4)."""
        n = self.grid.n
        coeffs = self.omega().coeffs
        om = np.zeros((n, n, 4, 4))
        for pos, (i, j) in enumerate(_PAIRS):
            om[..., i, j] = coeffs[pos]
            om[..., j, i] = -coeffs[pos]
        return om

    def metric_tensor(self):
        """g_ij = -omega(J E_i, E_j) as an (n, n, 4, 4) array."""
        return -np.einsum("ki,...kj->...ij", J_FRAME, self.omega_matrix())

    def metric_inverse(self):
        g = self.metric_tensor()
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:  # positivity should prevent this
            raise LinearSolveError(f"metric tensor not invertible: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MetricSplit:
    """Derived splitting data of a metric state."""

    grid: object
    lam: np.ndarray
    mu1: InvariantForm
    mu2: InvariantForm
    omega_check: InvariantForm
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta: InvariantForm
    w_check: np.ndarray


def _top_coefficient(four_form):
    return four_form.coeffs[0]


def metric_split(m):
    """Vertical/transverse splitting of a positive metric state.

    mu1 = -(1/lam) V2 . omega and mu2 = +(1/lam) V1 . omega satisfy
    mu_i(V_j) = delta_ij; omega_check = omega - lam mu1^mu2 is basic; the
    multipliers sigma_i are extracted as top-form coefficient ratios
    d(mu_i)^mu1^mu2 / omega_check^mu1^mu2, which is exact because the
    transverse slot is one complex dimension.
    """
    m.require_positive()
    omega = m.omega()
    inv_lam = 1.0 / m.lam
    mu1 = contract(V2, omega) * (-inv_lam)
    mu2 = contract(V1, omega) * inv_lam
    mu_pair = wedge(mu1, mu2)
    omega_check = omega - mu_pair * m.lam
    w_check = omega_check.coefficient(0, 1).copy()

    denom = _top_coefficient(wedge(omega_check, mu_pair))
    worst = float(np.min(np.abs(denom)))
    if worst < DEGENERACY_TOL:
        raise DegenerateTransverseError(
            f"transverse area coefficient {worst:.3e} below {DEGENERACY_TOL:.0e}"
        )
    sigma1 = _top_coefficient(wedge(exterior_d(mu1), mu_pair)) / denom
    sigma2 = _top_coefficient(wedge(exterior_d(mu2), mu_pair)) / denom
    theta = lee_form(m)
    return MetricSplit(m.grid, m.lam.copy(), mu1, mu2, omega_check,
                       sigma1, sigma2, theta, w_check)


def lee_form(m):
    """Lee form of a metric state, the unique theta with theta ^ omega = d(omega).

    Wedging with e^j turns the defining equation into sum_i theta_i M_ij = r_j
    with M_ij = (e^i ^ omega ^ e^j)_top and r_j = (d omega ^ e^j)_top.  M is
    the dual of the antisymmetric coefficient matrix W of omega, W M = -Pf(W)
    with Pf(W) = u lam - p^2 - q^2, so

        theta_i = sum_j W_ij r_j / (u lam - p^2 - q^2) .
    """
    m.require_positive()
    grid = m.grid
    d_omega = exterior_d(m.omega())
    r = np.stack([_top_coefficient(wedge(d_omega, coframe(grid, j)))
                  for j in range(4)], axis=-1)
    theta = np.einsum("...ij,...j->i...", m.omega_matrix(), r)
    return InvariantForm(grid, 1, theta / m.determinant_margin())


def bismut_torsion(m):
    """Torsion 3-form H(X, Y, Z) = d(omega)(JX, JY, JZ).

    Implemented as -apply_J(d omega): the degree-3 transport of apply_J
    carries an extra minus sign, see invariant_forms.apply_J.
    """
    return -1.0 * apply_J(exterior_d(m.omega()))


@dataclass(frozen=True, eq=False)
class CurvaturePackage:
    """Torsion and Bismut Ricci data of one metric state."""

    H: InvariantForm
    rho: InvariantForm
    rho11: InvariantForm
    s: np.ndarray


def bismut_ricci(m, split=None):
    """Bismut curvature package from the closed form of the Ricci form.

    rho = -(1/2) d J d log(u lam - p^2 - q^2) + d(J theta), the Bismut/Chern
    relation rho^B = rho^C - d(J theta) written in these conventions; the
    scalar is s = 2 (rho ^ omega) / (omega ^ omega) as top-form coefficients.
    """
    theta = lee_form(m) if split is None else split.theta
    log_det = function_form(m.grid, np.log(m.determinant_margin()))
    rho = (exterior_d(apply_J(exterior_d(log_det))) * -0.5
           + exterior_d(apply_J(theta)))
    omega = m.omega()
    s = (2.0 * _top_coefficient(wedge(rho, omega))
         / _top_coefficient(wedge(omega, omega)))
    return CurvaturePackage(H=bismut_torsion(m), rho=rho,
                            rho11=p11_projection(rho), s=s)


def characteristic_numbers(split):
    """Base integrals of the curvature 2-forms d(mu1), d(mu2)."""
    return (base_integral(exterior_d(split.mu1)),
            base_integral(exterior_d(split.mu2)))


def norm_squared_1form(m, alpha):
    """Pointwise squared norm of a 1-form in the metric of the state."""
    g_inv = m.metric_inverse()
    comps = np.moveaxis(alpha.coeffs, 0, -1)
    return np.einsum("...i,...ij,...j->...", comps, g_inv, comps)


def inner_1forms(m, alpha, beta):
    g_inv = m.metric_inverse()
    return np.einsum("...i,...ij,...j->...",
                     np.moveaxis(alpha.coeffs, 0, -1), g_inv,
                     np.moveaxis(beta.coeffs, 0, -1))
