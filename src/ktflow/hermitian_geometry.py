"""Splitting data, Lee form and Bismut curvature of invariant metric states.

A metric state stores the four coefficient fields of the J-invariant 2-form

    omega = u e1^e2 + lam e3^e4 + p (e1^e3 + e2^e4) + q (e1^e4 - e2^e3) ,

positive exactly when u > 0, lam > 0 and D = u*lam - p^2 - q^2 > 0.  From it
we derive the vertical/transverse splitting

    omega = lam mu1^mu2 + omega_check ,

the connection 1-forms mu_i (dual pair of the vertical generators), the
curvature multipliers sigma_i with d(mu_i) = sigma_i omega_check, the Lee
form theta, and the Bismut curvature package (rho, rho^(1,1), s).

Each is a closed form in (u, lam, p, q) and their base partials.  With the
shift (a, b) = (q/lam, p/lam) and the transverse area w = D/lam:

  * mu1 = a e1 + b e2 + e3, mu2 = J mu1, omega_check = w e1^e2,
    sigma1 = (b_x - a_y - 1)/w and sigma2 = (a_x + b_y)/w;
  * theta = (u lam_x - p B + q A, u lam_y + q B + p A, q lam_x + p lam_y
    + lam A, q lam_y - p lam_x + lam B)/D with A = -(p_y + q_x) and
    B = p_x - q_y - lam;
  * <x, y> = [x(F1) y(F1) + x(F2) y(F2)]/w + (x3 y3 + x4 y4)/lam for 1-forms,
    with x(F1) = x1 - a x3 + b x4 and x(F2) = x2 - b x3 - a x4.

A state's fields are (*stack, n, n): one state is (n, n), and a stack of
states, say (2, n, n), goes through every function here as one, each slice
of a result bitwise the result of its state alone (the shape rule of
invariant_forms).  The flow, the defect report and the snapshot take one
state and raise GridError on a stack.  A state keeps (u, p, q) as the rows
of one read-only (3, *stack, n, n) array, m.upq, and lam in m.lam_data, a
LamData that owns a read-only lam and its minimum, 1/lam, partials,
Laplacian, (mean, variance) and max |lap lam|.
These and the state's own data are computed once, on first access: the
Pfaffian m.D = u lam - p^2 - q^2 and the minima of u and D, m.theta =
lee_form(m), m.split = metric_split(m), m.curvature = bismut_ricci(m),
m.velocity = flow_velocity(m) and m.s = scalar_curvature(m).  Each
transforms only the partial sums it reads (BaseGrid.partial_sums) and fills
preallocated arrays in place; the velocity's intermediates are rows of the
grid's real work array.  The velocity reads lam's partials and leaves its
theta as m.theta, and the curvature takes d of the velocity's alpha, leaves
-d11 of that alpha as m.velocity if the state has none, and reads m.s.  The
torsion 3-form is not part of the curvature package; bismut_torsion(m)
computes it on demand.  MetricState and m.with_fields scan their input
fields for NaN/Inf; the velocity and the Lee form, derived from a scanned
state, are not.

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

    rho = d alpha ,  alpha = J (theta - (1/2) d log(u lam - p^2 - q^2)) ,

the Bismut/Chern relation rho^B = rho^C - d(J theta) (Alexandrov-Ivanov
2001), whose Chern term is -(1/2) d J d log of the Pfaffian u lam - p^2 - q^2
of omega in these sign conventions.  alpha is the flow's own 1-form
(_flow_alpha), so bismut_ricci and flow_velocity share one route: rho is
exterior_d of it, the velocity is -d11 of it, and the scalar is the state's
s = -d/dt log D (scalar_curvature).  The Chern term vanishes on constant
states, and the oracle converges to the closed form spectrally in the grid
resolution.

With these choices the standard state (u = lam = 1, p = q = 0) has
rho = -e1^e2 and s = -1; it is a constant-curvature state but not a
Bismut-Ricci-flat one, and the flow in flow_engine expands its base.

The flow d omega/dt = -rho^(1,1) needs only part of this.  alpha's
coefficients depend on the base only, so rho has no e3^e4 term: lam is
frozen, the states of a flow share one lam_data (m.with_fields), and
flow_velocity returns (du, dp, dq)/dt with no 2-form built.  On every state
d H = -(lam_xx + lam_yy) e1^e2^e3^e4, so the flow's pluriclosed seeds have
lam = lam0 constant, and there it is three fields, w and f_i = sigma_i w.
With f1 = b_x - a_y - 1 and f2 = a_x + b_y, A = -lam0 f2 and B = lam0 f1,
so theta = lam0 (-b sigma1 - a sigma2, a sigma1 - b sigma2, -sigma2,
sigma1), and -d11 of alpha = (-b2, b1, -t4, t3), b = theta - (1/2) d log D,
is dp/dt = lam0 (sigma1_x + sigma2_y)/2, dq/dt = lam0 (sigma2_x - sigma1_y)/2
and du/dt = -(t1_x + t2_y) - t4 + (1/2) lap log w.  So (da, db) = (dq,
dp)/lam0 has mean 0, curl df1/dt = (1/2) lap sigma1 and divergence df2/dt =
(1/2) lap sigma2, and t1_x + t2_y = -lam0 (sigma1 (f1 + 1) + sigma2 f2 +
2 (a da + b db)) with w = u - lam0 (a^2 + b^2) gives

    dw/dt = lam0 (sigma1^2 + sigma2^2) w + (1/2) lap log w ,

2D Ricci flow of w (dx^2 + dy^2) at half speed plus a forcing.  Back from
(w, f1, f2): (a, b) = (a0 + phi_x - psi_y, b0 + phi_y + psi_x) for the mean
shift (a0, b0), lap psi = f1 + 1 and lap phi = f2 (inv_lap), and u = w +
lam0 (a^2 + b^2), p = lam0 b, q = lam0 a.  flow_engine steps these fields
and reads its trace off them.  D = lam0 w, so the scalar is

    s = -d/dt log D = -(dw/dt)/w = -lam0 (sigma1^2 + sigma2^2) - (1/2) (lap log w)/w ,

and with d e3 = -e1^e2 and sigma1 f2 - sigma2 f1 = 0 the Lee form's
derivative is

    d theta = lam0 [2 (a db - b da) e1^e2 - sigma2_x e1^e3 + sigma1_x e1^e4
                    - sigma2_y e2^e3 + sigma1_y e2^e4] ,

where 2 db = sigma1_x + sigma2_y and -2 da = sigma1_y - sigma2_x: the LCK
defect max |d theta| is lam0 times the gradient of the curvature
multipliers (on e1^e2 combined with the shift), and it vanishes exactly
when they are constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTransverseError, GridError, PositivityError
from .invariant_forms import (
    DX,
    DY,
    LAPLACIAN,
    InvariantForm,
    apply_J,
    exterior_d,
    largest,
    mean_and_variance,
    p11_projection,
    smallest,
)

DEGENERACY_TOL = 1e-12


def _read_only(values):
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class LamData:
    """A read-only lam and its data, each computed once, on first use."""

    grid: object
    lam: np.ndarray

    @cached_property
    def min(self):
        return smallest(self.lam)

    @cached_property
    def inv(self):
        return _read_only(1.0 / self.lam)

    @cached_property
    def partials(self):
        """(lam_x, lam_y) stacked (2, *stack, n, n), from one transform pair (1/2 fields)."""
        return _read_only(self.grid.derivative(self.lam))

    @cached_property
    def laplacian(self):
        """lam_xx + lam_yy, from one transform pair on lam (1/1 fields)."""
        return _read_only(self.grid.partial_sums(self.lam[None], LAPLACIAN)[0])

    @cached_property
    def moments(self):
        return mean_and_variance(self.lam)

    @cached_property
    def laplacian_max(self):
        return largest(np.abs(self.laplacian))


@dataclass(frozen=True, eq=False)
class MetricState:
    """Coefficient fields (u, lam, p, q) of an invariant Hermitian 2-form.

    The four fields broadcast to one shape (*stack, n, n); with leading
    axes the state is a stack of states, and its minima and positivity
    checks cover every state.  u, p and q are the rows of one read-only
    (3, *stack, n, n) array, m.upq, and lam, in m.lam_data, is read-only
    too, so the cached data describe the fields they came from.
    """

    grid: object
    u: np.ndarray
    lam: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        names = ("u", "lam", "p", "q")
        fields = [np.asarray(getattr(self, name), dtype=float) for name in names]
        try:
            shape = np.broadcast_shapes(*(f.shape for f in fields), (n, n))
        except ValueError:
            raise GridError(f"metric coefficients of shapes {[f.shape for f in fields]} "
                            f"do not broadcast to one shape (*stack, {n}, {n})") from None
        u, lam, p, q = (self.grid.check_field(np.broadcast_to(f, shape),
                                              f"metric coefficient {name}")
                        for f, name in zip(fields, names))
        lam_data = LamData(self.grid, _read_only(lam.copy()))
        self.__dict__.update(lam=lam_data.lam, lam_data=lam_data)
        self._set_stack(np.stack((u, p, q)))

    def _set_stack(self, upq):
        upq = _read_only(upq)
        self.__dict__.update(upq=upq, u=upq[0], p=upq[1], q=upq[2])

    def with_fields(self, upq):
        """State with the (u, p, q) stack upq on this state's lam_data object.

        upq is a fresh array of shape (3,) + lam's: its shape and values are
        checked once and it is kept, not copied.  Both states hold one
        LamData, so they share every lam datum.
        """
        if np.shape(upq) != (3,) + self.lam.shape:
            raise GridError(f"metric coefficients (u, p, q) have shape {np.shape(upq)},"
                            f" expected {(3,) + self.lam.shape}")
        upq = self.grid.check_field(upq, "metric coefficients (u, p, q)")
        out = object.__new__(MetricState)
        out.__dict__.update(grid=self.grid, lam=self.lam, lam_data=self.lam_data)
        out._set_stack(upq)
        return out

    @staticmethod
    def constant(grid, u, lam, p=0.0, q=0.0):
        return MetricState(grid, grid.constant(u), grid.constant(lam),
                           grid.constant(p), grid.constant(q))

    def omega(self):
        """u e1^e2 + p (e1^e3 + e2^e4) + q (e1^e4 - e2^e3) + lam e3^e4."""
        return InvariantForm._trusted(self.grid, 2, np.stack(
            (self.u, self.p, self.q, -self.q, self.p, self.lam)))

    @cached_property
    def D(self):
        """Pfaffian u lam - p^2 - q^2 of omega, read-only."""
        return _read_only(self.u * self.lam - self.p * self.p - self.q * self.q)

    @cached_property
    def u_min(self):
        return smallest(self.u)

    @cached_property
    def D_min(self):
        return smallest(self.D)

    def positivity_margin(self):
        """Smallest of min(u), min(lam), min(u lam - p^2 - q^2)."""
        return float(min(self.u_min, self.lam_data.min, self.D_min))

    def require_positive(self):
        for name, values, worst in (("u", self.u, self.u_min),
                                    ("lam", self.lam, self.lam_data.min),
                                    ("u*lam - p^2 - q^2", self.D, self.D_min)):
            if not worst > 0.0:
                bad = tuple(map(int, np.unravel_index(np.argmin(values), values.shape)))
                raise PositivityError(
                    f"positivity violated: {name} = {worst:.6e} at grid point {bad}"
                )

    def max_difference(self, other):
        return max(largest(np.abs(self.u - other.u)), largest(np.abs(self.lam - other.lam)),
                   largest(np.abs(self.p - other.p)), largest(np.abs(self.q - other.q)))

    @cached_property
    def theta(self):
        return lee_form(self)

    @cached_property
    def split(self):
        return metric_split(self)

    @cached_property
    def curvature(self):
        return bismut_ricci(self)

    @cached_property
    def velocity(self):
        return flow_velocity(self)

    @cached_property
    def s(self):
        return scalar_curvature(self)


@dataclass(frozen=True, eq=False)
class MetricSplit:
    """Splitting of a state, omega = lam mu1^mu2 + omega_check.

    omega_check = w_check e1^e2; lam and theta are the state's m.lam, m.theta.
    mu2 = J mu1 and the 6-row omega_check are built on first use, from
    mu1 and w_check: the flow's trace reads only mu1's shift, sigma1,
    sigma2 and w_check.  A split made by dataclasses.replace with another
    mu1 has the mu2 of that mu1.
    """

    mu1: InvariantForm
    sigma1: np.ndarray
    sigma2: np.ndarray
    w_check: np.ndarray

    @cached_property
    def mu2(self):
        return apply_J(self.mu1)

    @cached_property
    def omega_check(self):
        coeffs = np.zeros((6,) + self.w_check.shape)   # w e1^e2
        coeffs[0] = self.w_check
        return InvariantForm._trusted(self.mu1.grid, 2, coeffs)


def _shift_and_area(m):
    """Shift (a, b) = (q/lam, p/lam) of mu1, stacked (2, *stack, n, n), and area w = D/lam."""
    return m.upq[:0:-1] * m.lam_data.inv, m.D * m.lam_data.inv


# (field, factor, symbol) terms of BaseGrid.partial_sums: curl b_x - a_y and
# divergence a_x + b_y of the shift (a, b); A = -(p_y + q_x), B + lam =
# p_x - q_y and both partials of f, from the stacked fields (p, q, f)
_SPLIT_TERMS = (((1, 1.0, DX), (0, -1.0, DY)), ((0, 1.0, DX), (1, 1.0, DY)))
_LEE_TERMS = (((0, -1.0, DY), (1, -1.0, DX)), ((0, 1.0, DX), (1, -1.0, DY)),
              ((2, 1.0, DX),), ((2, 1.0, DY),))


def require_transverse_area(worst):
    """DegenerateTransverseError if worst, the least area w = D/lam, is below DEGENERACY_TOL."""
    if worst < DEGENERACY_TOL:
        raise DegenerateTransverseError(
            f"transverse area coefficient {worst:.3e} below {DEGENERACY_TOL:.0e}"
        )


def metric_split(m):
    """Vertical/transverse splitting of a positive metric state, in closed form.

    mu1 = -(1/lam) V2 . omega and mu2 = (1/lam) V1 . omega satisfy
    mu_i(V_j) = delta_ij, and omega - lam mu1^mu2 leaves w e1^e2.  As
    d(e3) = -e1^e2, each d(mu_i) is sigma_i w e1^e2: 2/2 transform fields.
    """
    m.require_positive()
    shift, w = _shift_and_area(m)
    require_transverse_area(smallest(w))
    curl, div = m.grid.partial_sums(shift, _SPLIT_TERMS)
    mu1 = np.zeros((4,) + w.shape)   # a e1 + b e2 + e3
    mu1[:2], mu1[2] = shift, 1.0
    return MetricSplit(mu1=InvariantForm._trusted(m.grid, 1, mu1),
                       sigma1=(curl - 1.0) / w, sigma2=div / w, w_check=w)


def _lee_coefficients(m, lam_partials, A, B, D, scratch):
    """theta's coefficients (4, *stack, n, n) from (lam_x, lam_y), A, B + lam and D.

    B arrives as B + lam and is overwritten with B; each coefficient is
    summed left to right in one row of the result, through the field scratch.
    """
    u, lam, p, q = m.u, m.lam, m.p, m.q
    lam_x, lam_y = lam_partials
    B -= lam
    theta = np.empty((4,) + A.shape)
    t1, t2, t3, t4 = theta
    np.multiply(u, lam_x, out=t1)   # u lam_x - p B + q A
    t1 -= np.multiply(p, B, out=scratch)
    t1 += np.multiply(q, A, out=scratch)
    np.multiply(u, lam_y, out=t2)   # u lam_y + q B + p A
    t2 += np.multiply(q, B, out=scratch)
    t2 += np.multiply(p, A, out=scratch)
    np.multiply(q, lam_x, out=t3)   # q lam_x + p lam_y + lam A
    t3 += np.multiply(p, lam_y, out=scratch)
    t3 += np.multiply(lam, A, out=scratch)
    np.multiply(q, lam_y, out=t4)   # q lam_y - p lam_x + lam B
    t4 -= np.multiply(p, lam_x, out=scratch)
    t4 += np.multiply(lam, B, out=scratch)
    theta /= D
    return theta


def lee_form(m):
    """Lee form of a state, the unique theta with theta ^ omega = d(omega).

    d omega = A e1^e2^e3 + B e1^e2^e4 + lam_x e1^e3^e4 + lam_y e2^e3^e4.
    Wedging with each e^j makes the defining equation a 4x4 linear system
    whose inverse is omega's own coefficient matrix over its Pfaffian D:
    3/4 forward/inverse fields, (p, q, lam) to (A, B, lam_x, lam_y).
    """
    m.require_positive()
    A, B, lam_x, lam_y = m.grid.partial_sums(np.stack((m.p, m.q, m.lam)), _LEE_TERMS)
    theta = _lee_coefficients(m, (lam_x, lam_y), A, B, m.D, np.empty_like(A))
    return InvariantForm._trusted(m.grid, 1, theta)


def bismut_torsion(m):
    """Torsion 3-form H(X, Y, Z) = d(omega)(JX, JY, JZ).

    Implemented as -apply_J(d omega): the degree-3 transport of apply_J
    carries an extra minus sign, see invariant_forms.apply_J.
    """
    return -1.0 * apply_J(exterior_d(m.omega()))


@dataclass(frozen=True, eq=False)
class CurvaturePackage:
    """Bismut Ricci data of one metric state."""

    rho: InvariantForm
    rho11: InvariantForm
    s: np.ndarray


def bismut_ricci(m):
    """Bismut curvature package: rho = d alpha on the flow's own alpha.

    alpha = J (theta - (1/2) d log(u lam - p^2 - q^2)) is the 1-form whose
    d11 is the flow's -velocity (_flow_alpha), so rho = d alpha is the
    Bismut/Chern relation rho^B = rho^C - d(J theta) in these conventions,
    and s is the state's m.s = -d/dt log D.  The one alpha gives both rho
    and, unless the state has one, m.velocity: 12/14 forward/inverse
    fields with lam's partials.
    """
    alpha = _flow_alpha(m)   # in the grid's real work array: both reads come first
    rho = exterior_d(InvariantForm._trusted(m.grid, 1, alpha))
    if "velocity" not in m.__dict__:
        m.__dict__["velocity"] = _velocity_from_alpha(m, alpha)
    return CurvaturePackage(rho=rho, rho11=p11_projection(rho), s=m.s)


def _flow_alpha(m):
    """alpha = J (theta - (1/2) d log D), leaving theta as m.theta.

    Returns the 1-form coefficients (-b2, b1, -t4, t3) of J b for
    b = theta - (1/2) d log D.  Only theta is allocated: everything else
    lives in 12 rows of the grid's real work array, (*stack, n, n) each,
    the stacked (p, q, log D), their four partial sums (A, B + lam,
    (log D)_x, (log D)_y), alpha and the Lee scratch row.  All but alpha's
    rows are free again on return, and alpha's once the caller has read
    it: flow_velocity takes d11 of it, bismut_ricci d and then d11.  It is
    a view that the grid's next _flow_alpha overwrites, so a caller reads
    it before it computes another velocity, and no result keeps it.
    """
    m.require_positive()  # first: positivity before the log
    work = m.grid._work(2, (12,) + m.D.shape)
    fields, sums, alpha, scratch = work[:3], work[3:7], work[7:11], work[11]
    fields[:2] = m.upq[1:]
    np.log(m.D, out=fields[2])
    A, B, log_x, log_y = m.grid.partial_sums(fields, _LEE_TERMS, sums)
    theta = _lee_coefficients(m, m.lam_data.partials, A, B, m.D, scratch)
    m.__dict__.setdefault("theta", InvariantForm._trusted(m.grid, 1, theta))
    t1, t2, t3, t4 = theta
    minus_b2, b1, minus_t4, _ = alpha
    np.multiply(0.5, log_y, out=minus_b2)   # b2 = t2 - (1/2) (log D)_y
    np.subtract(t2, minus_b2, out=minus_b2)
    np.negative(minus_b2, out=minus_b2)
    np.multiply(0.5, log_x, out=b1)         # b1 = t1 - (1/2) (log D)_x
    np.subtract(t1, b1, out=b1)
    np.negative(t4, out=minus_t4)
    alpha[3] = t3
    return alpha


def flow_velocity(m):
    """Velocity (du, dp, dq)/dt of d omega/dt = -rho^(1,1), stacked (3, *stack, n, n).

    A transform pair of (p, q, log D) and lam's partials give theta, left as
    m.theta (equal to lee_form(m) bitwise), and alpha = J (theta - (1/2)
    d log D); one more gives -rho^(1,1) = -(d alpha)^(1,1) (BaseGrid.d11),
    whose e3^e4 coefficient, lam's velocity, vanishes identically.  That is
    7/7 forward/inverse fields.  Everything between them lives in the
    grid's work arrays (_flow_alpha), so once the grid has served a state
    of this shape the call allocates theta and the velocity it returns,
    besides D and the lam data if no state on its lam_data has computed them.
    """
    return _velocity_from_alpha(m, _flow_alpha(m))


def _velocity_from_alpha(m, alpha):
    """-d11(alpha), lam's velocity left out: 4/3 forward/inverse fields."""
    velocity = m.grid.d11(alpha)
    return np.negative(velocity, out=velocity)


def scalar_curvature(m):
    """Bismut scalar s = -d/dt log D, from the state's velocity.

    In s = 2 (rho ^ omega) / (omega ^ omega) only rho^(1,1) = -d omega/dt
    pairs with omega, and omega ^ omega = 2 D e1^e2^e3^e4, so s = -D'/D with
    D' = lam u' - 2 p p' - 2 q q'.  bismut_ricci(m).s is this field.
    """
    du, dp, dq = m.velocity
    return -(m.lam * du - 2.0 * (m.p * dp + m.q * dq)) / m.D


def inner_1forms(m, alpha, beta):
    """Pointwise inner product of two 1-forms in the metric of the state.

    F1 = (E1 - a E3 + b E4)/sqrt(w), F2 = (E2 - b E3 - a E4)/sqrt(w),
    E3/sqrt(lam) and E4/sqrt(lam) are an orthonormal frame.
    """
    (a, b), w = _shift_and_area(m)
    x1, x2, x3, x4 = alpha.coeffs
    y1, y2, y3, y4 = beta.coeffs
    horizontal = ((x1 - a * x3 + b * x4) * (y1 - a * y3 + b * y4)
                  + (x2 - b * x3 - a * x4) * (y2 - b * y3 - a * y4))
    return horizontal / w + (x3 * y3 + x4 * y4) / m.lam
