"""Independent reference computations used to pin expected values.

Each oracle is deliberately built along a different code path than the
package, which computes the split, the Lee form, the inner product of
1-forms and the Bismut Ricci form rho = d alpha of the flow's 1-form
alpha = J (theta - (1/2) d log(u lam - p^2 - q^2)) in closed form from
(u, lam, p, q), and its random test fields by spectral synthesis:

* metric_tensor: the hand-written metric matrix g(E_i, E_j) on the grid;
  its pointwise inverse is the reference for inner_1forms.

* contraction_split: the splitting from the exterior calculus alone.
  mu_i by contracting omega with the vertical generators, omega_check by
  subtraction, and sigma_i as top-form ratios
  d(mu_i)^mu1^mu2 / omega_check^mu1^mu2.

* wedge_lee_form: the Lee form by wedging d omega = theta ^ omega with
  each coframe vector and solving the 4x4 system through its explicit
  inverse.

* direct_band_limited: the random fields of random_band_limited as a
  direct sum of cos/sin grid fields, one mode at a time, with the same
  rng.random() draws, each pair made a normal pair by Box-Muller in scalar
  math; the package makes all the pairs at once with numpy and synthesizes
  the same sum with one irfft2.

* rfft2_derivative, rfft2_d11, rfft2_shift and rfft2_band_limited: the
  spectral operations of BaseGrid, make_noncsc_vaisman's shift and
  random_band_limited through numpy's n-d wrappers np.fft.rfft2 / irfft2.
  The package calls the 1-D transforms those wrappers are built from, so
  the results are bitwise equal.

* two_pair_laplacian: lap of a field as the derivative of its derivative,
  two transform pairs; the package multiplies by the product symbols
  ik_x ik_x + ik_y ik_y in one pair.

* partials_exterior_d: the exterior derivative from both base partials of
  every coefficient, summed in physical space with a sign table built here;
  the package forward-transforms only the coefficients that have a partial,
  sums each output component in spectral space and inverts only the
  components that receive a derivative term.

* signed_apply and signed_wedge: the coframe tables of J, the
  contractions, d(e3) and the wedge product applied by multiplying each
  term by its sign, out[i] += sign * x and out[i] += sign * a * b; the
  package adds or subtracts the term as its sign says, which is bitwise
  the product for the signs +-1.0 that the tables hold.

* partials_metric_split, partials_lee_form and partials_flow_velocity: the
  split, the Lee form and the flow velocity from both base partials of
  every field they differentiate, combined on the grid (4, 6 and 8 inverse
  fields, the velocity's before d11); the package sums the curl and divergence of the shift, the Lee
  combinations A and B and the partials of log D in spectral space and
  inverts only those, and the velocity reads the state's cached lam
  partials.

* broadcast_partial_sums: BaseGrid.partial_sums with each symbol formed
  per call from the factors in the broadcast layout, ik_x (n, 1) and ik_y
  (1, n/2 + 1) (broadcast_factors); the package keeps one (n, n/2 + 1)
  array per symbol, so each product is a same-shape ufunc on the same
  values, and the two agree bitwise.

* expression_flow_velocity: flow_velocity with every intermediate a fresh
  array from a numpy expression: theta and alpha by np.stack, the partial
  sums by broadcast_partial_sums, d11 as rfft2_d11.  The package fills
  preallocated arrays in place with the same operands in the same order,
  so the two agree bitwise.

* fresh_state_rk4_step: one RK4 step whose stage states are each built by
  MetricState(...) and so validate and differentiate lam afresh; the package
  hands the start state's lam_data object, lam and its partials, to every
  stage state.

* form_algebra_record: the trace columns fiber_rhs_residual,
  fiber_fd_residual, mu_drift and lambda_rel_residual of a run from forms:
  mu1_dot and mu2_dot from their coefficients, the fiber part lam mu1^mu2
  and its velocity by wedge, the drift of mu1 and mu2 by form subtraction
  and the pairing g(mu1_dot, mu1) by inner_1forms.  The package evaluates their
  closed forms in the shift (a, b) = (q, p)/lam; the two agree bitwise.

* form_route_ricci: the Bismut curvature package by form algebra, rho =
  d J (theta - (1/2) d log D) from the 0-form log D, exterior_d, apply_J
  and form subtraction on the Lee form, and s = 2 (rho ^ omega) / (omega ^
  omega) from two wedges.  The package takes rho = d alpha on the flow's
  in-place alpha and s = -d/dt log D from the velocity; rho agrees bitwise
  and s to rounding.

* coefficient_velocity: the flow velocity as the (u, lam, p, q) coefficients
  of the J-invariant 2-form -p11_projection(rho) of a curvature package,
  with the residual of its (1,1) pairings; the package evaluates the
  velocity in closed form and never builds that 2-form on the flow path.

* per_state_battery: the identity battery state by state, each state its
  own MetricState, drawn and visited in draw order, with one hand-written
  running maximum per item; the package draws the same states and runs the
  table identities.IDENTITIES over them in stacks of four, each item a
  maximum over a stack.  The calculus hygiene items are the package's own
  table entries on the "grid" and "forms" contexts, so the two agree bitwise.

* left_invariant_curvature: for spatially constant states the whole
  geometry reduces to linear algebra on the 4-dimensional symmetry algebra
  with bracket [E0, E1] = E2.  Orthonormalization goes through a Cholesky
  factor, invariant-form exterior derivatives through the bracket formula
  (the package uses lookup tables plus spectral calculus).

* koszul_fd_lowered: the Koszul formula for the invariant frame evaluated
  with 6th-order centered finite differences of the hand-written metric
  matrix, valid for arbitrary states.

* moving_frame_curvature: the first-principles curvature of any state on
  the grid.  An orthonormal J-adapted frame, Levi-Civita by the Koszul
  formula from spectral derivatives of the frame, the torsion shift to the
  Bismut connection, the full frame curvature tensor, and the trace against
  J that defines the conventions:
    rho(X, Y) = (1/2) sum_a g(R^B(X, Y) J F_a, F_a) over an orthonormal
    frame, and s = (1/2) sum_a rho(F_a, J F_a).
  Its Levi-Civita part is checked against koszul_fd_lowered.
"""

import itertools
import math
import random

import numpy as np

from ktflow.flow_engine import step
from ktflow.hermitian_geometry import (_LEE_TERMS, CurvaturePackage, MetricState,
                                       bismut_torsion, flow_velocity, inner_1forms)
from ktflow.identities import IDENTITIES, BatteryItem, _calculus_contexts, _maxima
from ktflow.invariant_forms import (INDEX_POS, MULTI_INDEX, NCOMP, STRUCTURE_INDEX,
                                    STRUCTURE_PAIR, STRUCTURE_SIGN, V1, V2, BaseGrid,
                                    InvariantForm, _merge, _wedge_table, apply_J,
                                    base_integral, contract, coframe, exterior_d,
                                    p11_projection, random_band_limited, wedge)
from ktflow.vaisman_toolkit import (make_noncsc_vaisman, make_standard_vaisman,
                                    potential_residual)

# bracket [E_a, E_b] = C[a, b, c] E_c
STRUCTURE = np.zeros((4, 4, 4))
STRUCTURE[0, 1, 2] = 1.0
STRUCTURE[1, 0, 2] = -1.0

# J E_j = JMAT[i, j] E_i
JMAT = np.zeros((4, 4))
JMAT[1, 0] = 1.0
JMAT[0, 1] = -1.0
JMAT[3, 2] = 1.0
JMAT[2, 3] = -1.0


def metric_matrix(u, lam, p, q):
    """g(E_i, E_j) for the four-coefficient invariant metric.

    Takes numbers or fields; fields give a (4, 4, n, n) array.
    """
    zero = 0.0 * u
    return np.array([
        [u, zero, q, -p],
        [zero, u, p, q],
        [q, p, lam, zero],
        [-p, q, zero, lam],
    ])


def metric_tensor(m):
    """g(E_i, E_j) of a state as an (n, n, 4, 4) array."""
    return np.moveaxis(metric_matrix(m.u, m.lam, m.p, m.q), (0, 1), (2, 3))


def _top_coefficient(four_form):
    return four_form.coeffs[0]


def contraction_split(m):
    """Splitting data of a state by contraction, wedges and top-form ratios.

    mu1 = -(1/lam) V2 . omega and mu2 = +(1/lam) V1 . omega satisfy
    mu_i(V_j) = delta_ij; omega_check = omega - lam mu1^mu2 is basic; the
    multipliers sigma_i are the top-form coefficient ratios
    d(mu_i)^mu1^mu2 / omega_check^mu1^mu2, exact because the transverse
    slot is one complex dimension.  Returns a dict keyed like MetricSplit.
    """
    m.require_positive()
    omega = m.omega()
    inv_lam = 1.0 / m.lam
    mu1 = contract(V2, omega) * (-inv_lam)
    mu2 = contract(V1, omega) * inv_lam
    mu_pair = wedge(mu1, mu2)
    omega_check = omega - mu_pair * m.lam
    denom = _top_coefficient(wedge(omega_check, mu_pair))
    return {"mu1": mu1, "mu2": mu2, "omega_check": omega_check,
            "sigma1": _top_coefficient(wedge(exterior_d(mu1), mu_pair)) / denom,
            "sigma2": _top_coefficient(wedge(exterior_d(mu2), mu_pair)) / denom,
            "w_check": omega_check.coeffs[INDEX_POS[2][(0, 1)]].copy()}


def wedge_lee_form(m):
    """Lee form by solving theta ^ omega = d(omega) through the wedge map.

    Wedging with e^j turns the defining equation into sum_i theta_i M_ij = r_j
    with M_ij = (e^i ^ omega ^ e^j)_top and r_j = (d omega ^ e^j)_top.  M is
    the dual of the antisymmetric coefficient matrix W_ij = omega(E_i, E_j)
    = g(J E_i, E_j), W M = -Pf(W) with Pf(W) = u lam - p^2 - q^2, so

        theta_i = sum_j W_ij r_j / (u lam - p^2 - q^2) .
    """
    m.require_positive()
    d_omega = exterior_d(m.omega())
    r = np.stack([_top_coefficient(wedge(d_omega, coframe(m.grid, j)))
                  for j in range(4)])
    w = np.einsum("ki,kjxy->ijxy", JMAT, metric_matrix(m.u, m.lam, m.p, m.q))
    theta = np.einsum("ijxy,jxy->ixy", w, r)
    return InvariantForm(m.grid, 1, theta / _determinant(m))


def direct_band_limited(grid, rng, kmax=2):
    """random_band_limited by summing each mode's cos/sin field on the grid.

    Each mode's (c, s), and then the mean, come from two rng.random() calls
    by Box-Muller in scalar math, one pair at a time.
    """
    def normal_pair():
        radius = math.sqrt(-2.0 * math.log1p(-rng.random()))
        angle = 2.0 * math.pi * rng.random()
        return radius * math.cos(angle), radius * math.sin(angle)

    field = np.zeros((grid.n, grid.n))
    two_pi = 2.0 * np.pi
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            phase = two_pi * (kx * grid.xx + ky * grid.yy)
            c, s = normal_pair()
            field += c * np.cos(phase) + s * np.sin(phase)
    field += normal_pair()[0]
    return field / np.max(np.abs(field))


def rfft2_derivative(grid, values):
    """BaseGrid.derivative through np.fft.rfft2 / irfft2."""
    spec = np.fft.rfft2(values)
    ikx, iky = grid._factors["ik_x"], grid._factors["ik_y"]
    return np.fft.irfft2(np.stack((spec * ikx, spec * iky)), s=(grid.n, grid.n))


def rfft2_d11(grid, alpha):
    """BaseGrid.d11 through np.fft.rfft2 / irfft2."""
    a1, a2, a3, a4 = np.fft.rfft2(alpha)
    ikx, iky = grid._factors["ik_x"], grid._factors["ik_y"]
    spec = np.stack((ikx * a2 - iky * a1 - a3,
                     0.5 * (ikx * a3 + iky * a4),
                     0.5 * (ikx * a4 - iky * a3)))
    return np.fft.irfft2(spec, s=(grid.n, grid.n))


def rfft2_shift(grid, rhs):
    """The eps-seed's shift (-psi_y, psi_x), lap psi = rhs, through np.fft.rfft2 / irfft2."""
    spec = np.fft.rfft2(rhs)
    ikx, iky, inv_lap = (grid._factors[name] for name in ("ik_x", "ik_y", "inv_lap"))
    return np.fft.irfft2(np.stack((spec * (-iky * inv_lap), spec * (ikx * inv_lap))),
                         s=(grid.n, grid.n))


def two_pair_laplacian(grid, values):
    """lap of a field as derivative of derivative: two transform pairs, 2/4 fields."""
    (xx, _), (_, yy) = grid.derivative(grid.derivative(values))
    return xx + yy


def rfft2_band_limited(grid, rng, kmax=2):
    """random_band_limited with its half-spectrum synthesized by np.fft.irfft2."""
    n = grid.n
    kx, ky = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    keep = (kx > 0) | (ky > 0)
    kx, ky = kx[keep], ky[keep]
    uniform = np.array([rng.random() for _ in range(2 * kx.size + 2)]).reshape(-1, 2)
    radius = np.sqrt(-2.0 * np.log1p(-uniform[:, 0]))
    angle = 2.0 * math.pi * uniform[:, 1]
    c, s = radius * np.cos(angle), radius * np.sin(angle)
    coef = 0.5 * n * n * (c[:-1] - 1j * s[:-1])
    upper, lower = ky >= 0, ky <= 0
    spec = np.zeros((n, n // 2 + 1), dtype=complex)
    spec[np.concatenate((kx[upper], -kx[lower])),
         np.concatenate((ky[upper], -ky[lower]))] = np.concatenate(
             (coef[upper], coef[lower].conj()))
    field = np.fft.irfft2(spec, s=(n, n)) + c[-1]
    return field / np.max(np.abs(field))


def partials_exterior_d(alpha):
    """exterior_d from both partials of every coefficient, summed on the grid.

    d(f e^I) = f_x e1^e^I + f_y e2^e^I, plus f times e^I with each e3
    replaced in place by d(e3) = -e1^e2.
    """
    k = alpha.degree
    out = InvariantForm(alpha.grid, k + 1)
    partials = alpha.grid.derivative(alpha.coeffs)
    for i_in, idx in enumerate(MULTI_INDEX[k]):
        for axis in (0, 1):
            sign, merged = _merge((axis,), idx)
            if sign is not None:
                out.coeffs[INDEX_POS[k + 1][merged]] += sign * partials[axis][i_in]
        for pos, ci in enumerate(idx):
            if ci != STRUCTURE_INDEX:
                continue
            sign, merged = _merge(STRUCTURE_PAIR, idx[:pos] + idx[pos + 1:])
            if sign is not None:
                factor = ((-1.0) ** pos) * STRUCTURE_SIGN * sign
                out.coeffs[INDEX_POS[k + 1][merged]] += factor * alpha.coeffs[i_in]
    return out


def signed_apply(table, coeffs, out):
    """Add sign * coeffs[i_in] to out[i_out] for each (i_in, sign, i_out) of table."""
    for i_in, sign, i_out in table:
        out[i_out] += sign * coeffs[i_in]
    return out


def signed_wedge(alpha, beta):
    """wedge(alpha, beta) with each term sign * a * b added to its component."""
    p, q = alpha.degree, beta.degree
    shape = np.broadcast_shapes(alpha.coeffs.shape[1:], beta.coeffs.shape[1:])
    out = np.zeros((NCOMP[p + q],) + shape)
    for ia, ib, sign, i_out in _wedge_table(p, q):
        out[i_out] += sign * alpha.coeffs[ia] * beta.coeffs[ib]
    return InvariantForm._trusted(alpha.grid, p + q, out)


def _determinant(m):
    """u lam - p^2 - q^2 of a state, evaluated here."""
    return m.u * m.lam - m.p * m.p - m.q * m.q


def partials_metric_split(m):
    """(sigma1, sigma2) of metric_split from the four partials of the shift (a, b)."""
    inv_lam = 1.0 / m.lam
    a, b, w = m.q * inv_lam, m.p * inv_lam, _determinant(m) * inv_lam
    (a_x, b_x), (a_y, b_y) = m.grid.derivative(np.stack((a, b)))
    return (b_x - a_y - 1.0) / w, (a_x + b_y) / w


def _expression_lee_coefficients(m, lam_partials, A, B_plus_lam, D):
    """theta's coefficients from (lam_x, lam_y), A, B + lam and D, stacked."""
    u, lam, p, q = m.u, m.lam, m.p, m.q
    lam_x, lam_y = lam_partials
    B = B_plus_lam - lam
    theta = np.stack((u * lam_x - p * B + q * A,
                      u * lam_y + q * B + p * A,
                      q * lam_x + p * lam_y + lam * A,
                      q * lam_y - p * lam_x + lam * B))
    return theta / D


def _lee_inputs(partials):
    """(lam_x, lam_y), A and B + lam from the partials of (lam, p, q)."""
    (lam_x, p_x, q_x), (lam_y, p_y, q_y) = partials
    return (lam_x, lam_y), -(p_y + q_x), p_x - q_y


def partials_lee_form(m):
    """lee_form from the six partials of (lam, p, q), combined on the grid."""
    partials = m.grid.derivative(np.stack((m.lam, m.p, m.q)))
    theta = _expression_lee_coefficients(m, *_lee_inputs(partials), _determinant(m))
    return InvariantForm(m.grid, 1, theta)


def partials_flow_velocity(m):
    """flow_velocity from one derivative of (lam, p, q, log D), then d11."""
    D = _determinant(m)
    partials = m.grid.derivative(np.stack((m.lam, m.p, m.q, np.log(D))))
    t1, t2, t3, t4 = _expression_lee_coefficients(m, *_lee_inputs(partials[:, :3]), D)
    log_x, log_y = partials[:, 3]
    b1, b2 = t1 - 0.5 * log_x, t2 - 0.5 * log_y
    return -m.grid.d11(np.stack((-b2, b1, -t4, t3)))


def broadcast_factors(grid):
    """The grid's factors with ik_x as (n, 1) and ik_y as (1, n/2 + 1), views of its own."""
    factors = dict(grid._factors)
    factors["ik_x"], factors["ik_y"] = factors["ik_x"][:, :1], factors["ik_y"][:1]
    return factors


def broadcast_partial_sums(grid, values, terms):
    """BaseGrid.partial_sums with each symbol and product formed per call.

    The symbols are products of broadcast_factors, so every product with a
    partial broadcasts a column or a row over the half-spectrum.
    """
    spec = grid._forward(values)
    out = np.empty((len(terms),) + spec.shape[1:], dtype=complex)
    factors = broadcast_factors(grid)

    def symbol(factor, names):
        for name in names:
            factor = factor * factors[name]
        return factor

    for acc, ((j, factor, names), *rest) in zip(out, terms):
        np.multiply(spec[j], symbol(factor, names), out=acc)
        for j, factor, names in rest:
            acc += spec[j] * symbol(factor, names)
    return grid._inverse(out)


def expression_flow_velocity(m):
    """flow_velocity with every intermediate a fresh array, as numpy expressions.

    The same operands in the same order as the package, which fills
    preallocated arrays in place: D, the partial sums of (p, q, log D),
    theta by np.stack, alpha = J (theta - (1/2) d log D) by np.stack and
    d11 as rfft2_d11.  The results are bitwise equal.
    """
    D = _determinant(m)
    fields = np.stack((m.p, m.q, np.log(D)))
    A, B, log_x, log_y = broadcast_partial_sums(m.grid, fields, _LEE_TERMS)
    theta = _expression_lee_coefficients(m, m.grid.derivative(m.lam), A, B, D)
    t1, t2, t3, t4 = theta
    b1 = t1 - 0.5 * log_x
    b2 = t2 - 0.5 * log_y
    return -rfft2_d11(m.grid, np.stack((-b2, b1, -t4, t3)))


def fresh_state_rk4_step(m, dt):
    """flow_engine.step with each stage state built fresh by MetricState(...)."""
    def shifted(k, factor):
        return MetricState(m.grid, m.u + factor * k[0], m.lam,
                           m.p + factor * k[1], m.q + factor * k[2])

    k1 = flow_velocity(MetricState(m.grid, m.u, m.lam, m.p, m.q))
    k2 = flow_velocity(shifted(k1, 0.5 * dt))
    k3 = flow_velocity(shifted(k2, 0.5 * dt))
    k4 = flow_velocity(shifted(k3, dt))
    return shifted(k1 + 2.0 * (k2 + k3) + k4, dt / 6.0)


def form_algebra_record(m0, cfg):
    """Record monitors of run(m0, cfg) from form algebra, as column arrays.

    The states are stepped here on run's record schedule (steps are
    deterministic, so they are run's states).  At each, mu1 = (q/lam) e1 +
    (p/lam) e2 + e3 and mu2 = J mu1 move with (q', p')/lam, since lam' = 0.
    """
    steps = cfg.steps()
    records = [(0.0, m0)]
    m = m0
    for k in range(1, steps + 1):
        m = step(m, cfg.dt)
        if k % cfg.record_every == 0 or k == steps:
            records.append((k * cfg.dt, m))
    columns = {name: [] for name in ("fiber_rhs_residual", "fiber_fd_residual",
                                     "mu_drift", "lambda_rel_residual")}
    initial = m0.split
    prev_fiber = prev_t = None
    for t, m in records:
        split = m.split
        da, db = m.velocity[:0:-1] * m.lam_data.inv
        zero = np.zeros_like(da)
        mu1_dot = InvariantForm(m.grid, 1, np.stack((da, db, zero, zero)))
        mu2_dot = InvariantForm(m.grid, 1, np.stack((-db, da, zero, zero)))
        fiber_vel = (wedge(mu1_dot, split.mu2) + wedge(split.mu1, mu2_dot)) * m.lam
        fiber = wedge(split.mu1, split.mu2) * m.lam
        fd = 0.0 if prev_fiber is None else (fiber - prev_fiber).max_abs() / (t - prev_t)
        prev_fiber, prev_t = fiber, t
        columns["fiber_rhs_residual"].append(fiber_vel.max_abs())
        columns["fiber_fd_residual"].append(fd)
        columns["mu_drift"].append(max((split.mu1 - initial.mu1).max_abs(),
                                       (split.mu2 - initial.mu2).max_abs()))
        pairing = inner_1forms(m, mu1_dot, split.mu1)
        columns["lambda_rel_residual"].append(float(np.max(np.abs(pairing))))
    return {name: np.asarray(values) for name, values in columns.items()}


def form_route_ricci(m):
    """Bismut curvature package of a state by form algebra.

    rho = -(1/2) d J d log(u lam - p^2 - q^2) + d(J theta), evaluated as
    d J (theta - (1/2) d log(u lam - p^2 - q^2)); the scalar is
    s = 2 (rho ^ omega) / (omega ^ omega) as top-form coefficients.
    """
    theta = m.theta  # first: lee_form checks positivity before the log
    log_det = InvariantForm(m.grid, 0, np.log(m.D)[None])
    rho = exterior_d(apply_J(theta - 0.5 * exterior_d(log_det)))
    omega = m.omega()
    s = (2.0 * _top_coefficient(wedge(rho, omega))
         / _top_coefficient(wedge(omega, omega)))
    return CurvaturePackage(rho=rho, rho11=p11_projection(rho), s=s)


def coefficient_velocity(rhs):
    """Coefficient fields (du, dlam, dp, dq)/dt of a J-invariant 2-form.

    The (1,1) basis pins c(e1^e3) = c(e2^e4) and c(e1^e4) = -c(e2^e3); the
    residual of those pairings is returned alongside and must stay below
    1e-12 for a genuine flow velocity.
    """
    c = rhs.coeffs
    residual = max(float(np.max(np.abs(c[1] - c[4]))), float(np.max(np.abs(c[2] + c[3]))))
    vel = np.stack((c[0], c[5], 0.5 * (c[1] + c[4]), 0.5 * (c[2] - c[3])))
    return vel, residual


def _single_battery_states(grid, samples, seed):
    """(family, state) pairs of the identity battery, one state each, in draw order."""
    rng = random.Random(seed)
    for _ in range(samples):
        u = 1.0 + 0.3 * random_band_limited(grid, rng)
        lam = 1.0 + 0.3 * random_band_limited(grid, rng)
        p = 0.2 * random_band_limited(grid, rng)
        q = 0.2 * random_band_limited(grid, rng)
        yield "general", MetricState(grid, u, lam, p, q)
        yield "lam_const", MetricState(grid, u, 1.0 + 0.5 * rng.random(), p, q)
    for _ in range(max(4, samples // 8)):
        u0 = math.exp(0.5 * rng.gauss(0.0, 1.0))
        lam0 = math.exp(0.5 * rng.gauss(0.0, 1.0))
        r = 0.8 * math.sqrt(u0 * lam0) * rng.random()
        ang = 2.0 * math.pi * rng.random()
        yield "constant", MetricState.constant(grid, u0, lam0,
                                               r * math.cos(ang), r * math.sin(ang))
    for scale in (1.0, 2.0):
        yield "csc_seed", make_standard_vaisman(grid, scale)
    for mode in ((1, 1), (2, 1)):
        yield "noncsc_seed", make_noncsc_vaisman(grid, 0.1, mode)


def per_state_battery(n=32, samples=50, seed=2024):
    """identities.identity_battery with every state visited on its own."""
    grid = BaseGrid(n)
    calculus = [entry for entry in IDENTITIES if entry[2] in (("grid",), ("forms",))]
    items = _maxima(calculus, _calculus_contexts(grid, seed), n)
    contraction = ratio1 = ratio2 = reass = chars = lee_def = 0.0
    lee = norm = torsion = potential = ricci = velocity = 0.0
    for family, m in _single_battery_states(grid, samples, seed):
        sp = m.split
        theta = m.theta
        omega = m.omega()
        d_omega = exterior_d(omega)
        inv_lam = 1.0 / m.lam
        contraction = max(contraction,
                          (sp.mu1 + contract(V2, omega) * inv_lam).max_abs(),
                          (sp.mu2 - contract(V1, omega) * inv_lam).max_abs())
        dmu1, dmu2 = exterior_d(sp.mu1), exterior_d(sp.mu2)
        ratio1 = max(ratio1, (dmu1 - sp.omega_check * sp.sigma1).max_abs())
        ratio2 = max(ratio2, (dmu2 - sp.omega_check * sp.sigma2).max_abs())
        rebuilt = sp.omega_check + wedge(sp.mu1, sp.mu2) * m.lam
        reass = max(reass, (omega - rebuilt).max_abs())
        chars = max(chars, abs(base_integral(dmu1) + 1.0), abs(base_integral(dmu2)))
        lee_def = max(lee_def, (wedge(theta, omega) - d_omega).max_abs())
        if family == "general":
            d_torsion = exterior_d(-1.0 * apply_J(d_omega)).coeffs[0]
            torsion = max(torsion, float(np.max(np.abs(d_torsion + m.lam_data.laplacian))))
            continue
        formula = sp.mu2 * (m.lam * sp.sigma1) + sp.mu1 * (-m.lam * sp.sigma2)
        lee = max(lee, (theta - formula).max_abs())
        nsq = inner_1forms(m, theta, theta)
        norm = max(norm, float(np.max(np.abs(
            nsq - m.lam * (sp.sigma1 ** 2 + sp.sigma2 ** 2)))))
        if family in ("constant", "csc_seed"):
            potential = max(potential, potential_residual(m))
        if family in ("csc_seed", "noncsc_seed"):
            pkg = m.curvature
            ricci = max(ricci, (pkg.rho - sp.omega_check * pkg.s).max_abs())
            c12, c13, c14, c23, c24, c34 = pkg.rho11.coeffs
            du, dp, dq = m.velocity
            velocity = max(velocity, *(float(np.max(np.abs(r))) for r in (
                du + c12, dp + c13, dq + c14, c34, c13 - c24, c14 + c23)))
    for name, value, bound in (
            ("connection forms by contraction", contraction, 1e-12),
            ("first curvature ratio", ratio1, 1e-12),
            ("second curvature ratio", ratio2, 1e-12),
            ("state reassembly", reass, 1e-12),
            ("characteristic numbers", chars, 1e-12),
            ("lee form defining property", lee_def, 1e-12),
            ("lee form formula", lee, 1e-12),
            ("lee norm identity", norm, min(6e-14 * n, 1e-10)),
            ("torsion closure", torsion, 2e-14 * n),
            ("potential identity", potential, 1e-12),
            ("transverse ricci", ricci, 5e-16 * n * n),
            ("ricci (1,1) velocity", velocity, 1e-12)):
        items.append(BatteryItem(name, value, bound))
    return items


def homogeneous_scalar(u, lam, p, q):
    """Closed form of the Bismut scalar on constant states."""
    w = u - (p * p + q * q) / lam
    return -lam / (w * w)


def left_invariant_curvature(u, lam, p, q):
    """Bismut curvature data of a constant state by frame-algebra only.

    Returns a dict with the torsion 3-tensor H[i,j,k] = H(E_i,E_j,E_k),
    the Ricci form rho[i,j] = rho(E_i,E_j) and the scalar s.
    """
    G = metric_matrix(u, lam, p, q)
    L = np.linalg.cholesky(G)            # G = L L^T
    A = np.linalg.inv(L)                 # F_a = A[a,i] E_i is orthonormal
    # E_i = L[i,a] F_a

    # omega(E_i, E_j) = g(J E_i, E_j)
    omega = JMAT.T @ G
    # invariant 2-form: d omega(X,Y,Z) = -om([X,Y],Z) + om([X,Z],Y) - om([Y,Z],X)
    dom = (-np.einsum("abk,kc->abc", STRUCTURE, omega)
           + np.einsum("ack,kb->abc", STRUCTURE, omega)
           - np.einsum("bck,ka->abc", STRUCTURE, omega))
    # torsion H(X,Y,Z) = d omega(JX, JY, JZ)
    H = np.einsum("ia,jb,kc,ijk->abc", JMAT, JMAT, JMAT, dom)

    cF = np.einsum("ai,bj,ijk,kc->abc", A, A, STRUCTURE, L)
    HF = np.einsum("ai,bj,ck,ijk->abc", A, A, A, H)
    gamma = 0.5 * (cF - np.einsum("bca->abc", cF) + np.einsum("cab->abc", cF))
    gb = gamma + 0.5 * HF

    riem = (np.einsum("bce,ade->abcd", gb, gb)
            - np.einsum("ace,bde->abcd", gb, gb)
            - np.einsum("abe,ecd->abcd", cF, gb))

    # J in the orthonormal frame: J F_a = jF[b,a] F_b
    jF = np.einsum("ai,ki,kb->ba", A, JMAT, L)
    rho_F = 0.5 * np.einsum("abdc,dc->ab", riem, jF)
    s = 0.5 * np.einsum("ab,ba->", rho_F, jF)
    rho = np.einsum("ia,jb,ab->ij", L, L, rho_F)
    return {"H": H, "rho": rho, "s": float(s), "gamma_b_frame": gb}


# 6th-order centered first derivative, error O(h^6)
_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_OFFSETS = (-3, -2, -1, 0, 1, 2, 3)


def fd_derivative(field, axis, h):
    out = np.zeros_like(field)
    for w, k in zip(_STENCIL, _OFFSETS):
        if w != 0.0:
            out += w * np.roll(field, -k, axis=axis)
    return out / h


def koszul_fd_lowered(m):
    """g(nabla_{E_a} E_b, E_c) for any state, by finite differences.

    2 g(nabla_a b, c) = D_a g_bc + D_b g_ac - D_c g_ab
                      + g([a,b],c) - g([a,c],b) - g([b,c],a)
    with D_a nonzero only for the two base directions.
    """
    n = m.grid.n
    h = 1.0 / n
    G = metric_matrix(m.u, m.lam, m.p, m.q)

    D = np.zeros((4, 4, 4, n, n))      # D[a] = derivative of G along E_a
    for i in range(4):
        for j in range(4):
            D[0, i, j] = fd_derivative(G[i, j], 0, h)
            D[1, i, j] = fd_derivative(G[i, j], 1, h)

    bracket = (np.einsum("abk,kcxy->abcxy", STRUCTURE, G)
               - np.einsum("ack,kbxy->abcxy", STRUCTURE, G)
               - np.einsum("bck,kaxy->abcxy", STRUCTURE, G))
    deriv = (D
             + np.einsum("bacxy->abcxy", D)
             - np.einsum("cabxy->abcxy", D))
    return 0.5 * (deriv + bracket)


def orthonormal_frame(m):
    """J-adapted orthonormal frame rows over the coordinate frame (E1..E4).

    F1 = V1/sqrt(lam), F2 = V2/sqrt(lam); F3, F4 are the normalized
    horizontal lifts of the base directions, which for this model are
    already orthogonal to each other (the transverse metric is conformal
    to the flat one), so no extra orthogonalization step is needed.
    """
    n = m.grid.n
    a = m.q / m.lam                  # e1-component of mu1
    b = m.p / m.lam                  # e2-component of mu1
    inv_sqrt_lam = 1.0 / np.sqrt(m.lam)
    inv_sqrt_w = 1.0 / np.sqrt(m.u - (m.p * m.p + m.q * m.q) / m.lam)
    frame = np.zeros((4, 4, n, n))
    frame[0, 2] = inv_sqrt_lam
    frame[1, 3] = inv_sqrt_lam
    frame[2, 0] = inv_sqrt_w
    frame[2, 2] = -a * inv_sqrt_w
    frame[2, 3] = b * inv_sqrt_w
    frame[3, 1] = inv_sqrt_w
    frame[3, 2] = -b * inv_sqrt_w
    frame[3, 3] = -a * inv_sqrt_w
    return frame


def _antisymmetric_filling(form):
    """Full antisymmetric component array of a degree-3 form, (4,4,4,n,n)."""
    n = form.grid.n
    out = np.zeros((4, 4, 4, n, n))
    for pos, idx in enumerate(MULTI_INDEX[3]):
        values = form.coeffs[pos]
        for perm in itertools.permutations(range(3)):
            sign = 1.0
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            out[tuple(idx[k] for k in perm)] = sign * values
    return out


def moving_frame_curvature(m):
    """Bismut curvature of any state by first-principles moving-frame calculus.

    Pipeline: orthonormal J-adapted frame -> bracket structure functions
    (vertical part from the nilmanifold bracket, base part by spectral
    derivatives of the frame rows) -> Koszul formula for Levi-Civita ->
    torsion shift -> frame curvature -> Ricci trace against J -> scalar.
    Returns a dict with the frame rows (4, 4, n, n), the connection
    coefficients gamma_lc and gamma_b (4, 4, 4, n, n), the torsion H, the
    Ricci form rho, its (1,1) part rho11 and the scalar s.
    """
    frame = orthonormal_frame(m)
    grid = m.grid
    g_back = metric_matrix(m.u, m.lam, m.p, m.q)   # (4, 4, n, n)

    dx_frame, dy_frame = grid.derivative(frame)
    # D_a f = (F_a)^x dx f + (F_a)^y dy f: directional derivative along F_a
    def directional(dx_arr, dy_arr):
        return (np.einsum("axy,...xy->a...xy", frame[:, 0], dx_arr)
                + np.einsum("axy,...xy->a...xy", frame[:, 1], dy_arr))

    # brackets [F_a, F_b] over the coordinate frame: nilpotent part plus
    # derivative part (only the base components of F act as derivations)
    w = np.zeros((4, 4, 4, grid.n, grid.n))
    w[..., 2, :, :] += (np.einsum("axy,bxy->abxy", frame[:, 0], frame[:, 1])
                        - np.einsum("axy,bxy->abxy", frame[:, 1], frame[:, 0]))
    d_frame = directional(dx_frame, dy_frame)        # (a, b, j, x, y)
    w += d_frame - np.swapaxes(d_frame, 0, 1)

    # lowered structure functions c_{abc} = g([F_a, F_b], F_c)
    c_low = np.einsum("abjxy,jkxy,ckxy->abcxy", w, g_back, frame, optimize=True)

    # Koszul in an orthonormal frame: Gamma_{abc} = (c_abc - c_bca + c_cab)/2
    gamma_lc = 0.5 * (c_low
                      - np.transpose(c_low, (2, 0, 1, 3, 4))
                      + np.transpose(c_low, (1, 2, 0, 3, 4)))

    H = bismut_torsion(m)
    h_full = _antisymmetric_filling(H)
    h_frame = np.einsum("aixy,bjxy,ckxy,ijkxy->abcxy", frame, frame, frame, h_full,
                        optimize=True)
    gamma_b = gamma_lc + 0.5 * h_frame

    dx_gamma, dy_gamma = grid.derivative(gamma_b)
    d_gamma = directional(dx_gamma, dy_gamma)        # (a, b, c, d, x, y)

    riemann = (d_gamma - np.swapaxes(d_gamma, 0, 1)
               + np.einsum("bcexy,adexy->abcdxy", gamma_b, gamma_b, optimize=True)
               - np.einsum("acexy,bdexy->abcdxy", gamma_b, gamma_b, optimize=True)
               - np.einsum("abexy,ecdxy->abcdxy", c_low, gamma_b, optimize=True))

    # J in the orthonormal frame; J-adaptation makes this the constant block
    # map, but we compute it from the frame to keep the trace convention-free
    frame_inv = np.moveaxis(np.linalg.inv(np.moveaxis(frame, (0, 1), (2, 3))),
                            (2, 3), (0, 1))          # (i, b, x, y): E_i = sum_b inv[i,b] F_b
    j_frame = np.einsum("aixy,ki,kbxy->baxy", frame, JMAT, frame_inv, optimize=True)

    rho_frame = 0.5 * np.einsum("abdcxy,dcxy->abxy", riemann, j_frame, optimize=True)
    s = 0.5 * np.einsum("abxy,baxy->xy", rho_frame, j_frame, optimize=True)

    rho_coords = np.einsum("iaxy,jbxy,abxy->ijxy", frame_inv, frame_inv, rho_frame,
                           optimize=True)
    rho = InvariantForm(grid, 2)
    for pos, (i, j) in enumerate(MULTI_INDEX[2]):
        rho.coeffs[pos] = rho_coords[i, j]
    return {"frame": frame, "gamma_lc": gamma_lc, "gamma_b": gamma_b, "H": H,
            "rho": rho, "rho11": p11_projection(rho), "s": s}
