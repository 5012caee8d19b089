"""Exterior calculus of torus-invariant forms on the Kodaira-Thurston coframe.

The manifold is modelled by a fixed global coframe (e1, e2, e3, e4) whose
only nonzero structure relation is

    d(e3) = -e1^e2 ,

together with the complex structure table

    J e1 = e2,  J e2 = -e1,  J e3 = e4,  J e4 = -e3 ,

and the vertical generators V1 (dual to e3) and V2 (dual to e4) spanning the
symmetry directions.  Invariant forms have one real coefficient field per
increasing multi-index, each field living on a periodic grid over the unit
square that discretizes the orbit space.  Base derivatives are spectral
(trigonometric interpolation), so the structural identities below hold to
machine precision on band-limited data.

Index conventions: coframe indices are 0-based internally (e1 -> 0, ...,
e4 -> 3); docstrings use the 1-based names.  Orientation is fixed by taking
e1^e2^e3^e4 as the positive volume form.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    DegreeError,
    GridError,
    NonBasicFormError,
    NonFiniteFieldError,
)

COFRAME_DIM = 4

# Version tag for every file the package emits; bump when any convention
# (coframe structure, J tables, curvature traces) changes incompatibly.
CONVENTIONS_VERSION = "ktflow-conventions-1"

# d(e3) = -e1^e2: the index that carries the structure term and its target pair.
STRUCTURE_INDEX = 2
STRUCTURE_PAIR = (0, 1)
STRUCTURE_SIGN = -1.0

# J on the coframe as an index map with signs: J e^i = J_SIGN[i] * e^(J_MAP[i]).
J_MAP = (1, 0, 3, 2)
J_SIGN = (1.0, -1.0, 1.0, -1.0)

# J on the dual frame: J E_j = sum_i J_FRAME[i, j] E_i.
J_FRAME = np.zeros((4, 4))
J_FRAME[1, 0] = 1.0
J_FRAME[0, 1] = -1.0
J_FRAME[3, 2] = 1.0
J_FRAME[2, 3] = -1.0

# Vertical generators: V1 pairs with e3, V2 with e4.
V1, V2 = 0, 1
VERTICAL_COFRAME_INDEX = (2, 3)

MULTI_INDEX = {k: tuple(itertools.combinations(range(COFRAME_DIM), k)) for k in range(5)}
INDEX_POS = {k: {idx: i for i, idx in enumerate(MULTI_INDEX[k])} for k in range(5)}
NCOMP = {k: len(MULTI_INDEX[k]) for k in range(5)}

BASIS_NAMES = {
    k: tuple("e" + "".join(str(i + 1) for i in idx) for idx in MULTI_INDEX[k])
    for k in range(1, 5)
}


def _sort_sign(indices):
    """Permutation sign and sorted tuple; None if an index repeats."""
    arr = list(indices)
    sign = 1.0
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i]:
            return None, ()
    return sign, tuple(arr)


def _merge(left, right):
    """Sign and multi-index of e^left ^ e^right, or (None, ()) on collision."""
    return _sort_sign(tuple(left) + tuple(right))


class BaseGrid:
    """Uniform periodic grid on the unit square orbit space.

    Resolution must be a power of two and at least 8 so that spectral
    derivatives have a clean Nyquist convention and transforms stay fast.
    """

    def __init__(self, n):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"grid resolution must be a power of two >= 8, got {n}")
        self.n = n
        self.h = 1.0 / n
        self.x = np.arange(n) * self.h
        self.y = np.arange(n) * self.h
        self.xx, self.yy = np.meshgrid(self.x, self.y, indexing="ij")
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.h)
        kd = k.copy()
        kd[n // 2] = 0.0  # Nyquist mode carries no usable odd-derivative information
        self._ik = (1j * kd[:, None], 1j * kd[None, :])
        k2 = k * k
        self._lap_symbol = -(k2[:, None] + k2[None, :])

    def __repr__(self):
        return f"BaseGrid(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, BaseGrid) and other.n == self.n

    def __hash__(self):
        return hash(("BaseGrid", self.n))

    def zeros(self, *lead):
        return np.zeros(lead + (self.n, self.n))

    def constant(self, value):
        return np.full((self.n, self.n), float(value))

    def check_field(self, values, what="field"):
        values = np.asarray(values, dtype=float)
        if values.shape[-2:] != (self.n, self.n):
            raise GridError(
                f"{what} has shape {values.shape}, expected trailing ({self.n}, {self.n})"
            )
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteFieldError(f"{what} is non-finite at grid index {tuple(bad)}")
        return values

    def derivative(self, values, axis):
        """Spectral partial derivative along the named base axis.

        Accepts stacked fields with trailing shape (n, n); differentiation is
        exact for modes strictly below n/2 per axis.
        """
        values = self.check_field(values, "derivative input")
        ax = {"x": 0, "y": 1, 0: 0, 1: 1}.get(axis)
        if ax is None:
            raise GridError(f"axis must be 'x' or 'y', got {axis!r}")
        spec = np.fft.fft2(values, axes=(-2, -1))
        spec *= self._ik[ax]
        return np.real(np.fft.ifft2(spec, axes=(-2, -1)))

    def poisson(self, rhs):
        """Solve lap(psi) = rhs for the zero-mean psi; rhs must have zero mean."""
        rhs = self.check_field(rhs, "Poisson right-hand side")
        mean = float(np.mean(rhs))
        if abs(mean) > 1e-12:
            raise GridError(f"Poisson right-hand side has nonzero mean {mean:.3e}")
        spec = np.fft.fft2(rhs)
        sym = self._lap_symbol.copy()
        sym[0, 0] = 1.0  # zero mode: quotient is irrelevant, coefficient zeroed below
        spec = spec / sym
        spec[0, 0] = 0.0
        return np.real(np.fft.ifft2(spec))

    def integral(self, values):
        """Integral over the unit square; trapezoid on a periodic grid = mean."""
        values = self.check_field(values, "integrand")
        return float(np.mean(values))


class InvariantForm:
    """Degree-k invariant form: coefficient fields over increasing multi-indices.

    Coefficients are stored as one array of shape (C(4, k), n, n), ordered
    lexicographically over the multi-indices of MULTI_INDEX[k].
    """

    __slots__ = ("grid", "degree", "coeffs")

    def __init__(self, grid, degree, coeffs=None):
        if degree not in MULTI_INDEX:
            raise DegreeError(f"form degree must be in 0..4, got {degree}")
        self.grid = grid
        self.degree = int(degree)
        shape = (NCOMP[self.degree], grid.n, grid.n)
        if coeffs is None:
            coeffs = np.zeros(shape)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != shape:
                raise GridError(
                    f"degree-{degree} coefficients must have shape {shape}, got {coeffs.shape}"
                )
            if not np.all(np.isfinite(coeffs)):
                bad = np.argwhere(~np.isfinite(coeffs))[0]
                raise NonFiniteFieldError(
                    f"form coefficient non-finite at (component, i, j) = {tuple(bad)}"
                )
        self.coeffs = coeffs

    def copy(self):
        return InvariantForm(self.grid, self.degree, self.coeffs.copy())

    def coefficient(self, *indices):
        """Coefficient field of the increasing multi-index (0-based)."""
        key = tuple(indices)
        if key not in INDEX_POS[self.degree]:
            raise DegreeError(f"{key} is not an increasing degree-{self.degree} multi-index")
        return self.coeffs[INDEX_POS[self.degree][key]]

    def max_abs(self):
        if self.coeffs.size == 0:
            return 0.0
        return float(np.max(np.abs(self.coeffs)))

    def _check_compatible(self, other):
        if not isinstance(other, InvariantForm):
            raise TypeError("expected an InvariantForm")
        if other.degree != self.degree:
            raise DegreeError(
                f"cannot combine degree {self.degree} with degree {other.degree}"
            )
        if other.grid != self.grid:
            raise GridError("forms live on different grids")

    def __add__(self, other):
        self._check_compatible(other)
        return InvariantForm(self.grid, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return InvariantForm(self.grid, self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return InvariantForm(self.grid, self.degree, -self.coeffs)

    def __mul__(self, factor):
        """Scale by a number or pointwise by a scalar field."""
        factor = np.asarray(factor, dtype=float)
        if factor.ndim == 0:
            return InvariantForm(self.grid, self.degree, self.coeffs * float(factor))
        factor = self.grid.check_field(factor, "scaling field")
        return InvariantForm(self.grid, self.degree, self.coeffs * factor[None])

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"InvariantForm(degree={self.degree}, n={self.grid.n}, "
            f"max_abs={self.max_abs():.3e})"
        )


def zero_form(grid, degree):
    return InvariantForm(grid, degree)

def function_form(grid, values):
    """Wrap a scalar field as a 0-form."""
    values = grid.check_field(np.broadcast_to(values, (grid.n, grid.n)), "0-form")
    return InvariantForm(grid, 0, values[None].copy())


def coframe(grid, index):
    """The constant 1-form e^(index+1), index 0-based."""
    if index not in range(COFRAME_DIM):
        raise DegreeError(f"coframe index must be 0..3, got {index}")
    out = InvariantForm(grid, 1)
    out.coeffs[index] = 1.0
    return out


def basis_form(grid, indices):
    """Unit form for the increasing multi-index, e.g. (0, 1) -> e1^e2."""
    indices = tuple(indices)
    degree = len(indices)
    if degree not in MULTI_INDEX or indices not in INDEX_POS[degree]:
        raise DegreeError(f"{indices} is not an increasing multi-index")
    out = InvariantForm(grid, degree)
    out.coeffs[INDEX_POS[degree][indices]] = 1.0
    return out


def form_from(grid, degree, terms):
    """Assemble a form from a {multi-index: field} mapping."""
    out = InvariantForm(grid, degree)
    for indices, values in terms.items():
        indices = tuple(indices)
        if indices not in INDEX_POS[degree]:
            raise DegreeError(f"{indices} is not an increasing degree-{degree} multi-index")
        out.coeffs[INDEX_POS[degree][indices]] += np.broadcast_to(values, (grid.n, grid.n))
    grid.check_field(out.coeffs, "assembled form")
    return out


_WEDGE_TABLE = {}
_D_DERIV_TABLE = {}
_D_STRUCT_TABLE = {}
_J_TABLE = {}
_CONTRACT_TABLE = {}


def _wedge_table(p, q):
    key = (p, q)
    if key not in _WEDGE_TABLE:
        entries = []
        for ia, left in enumerate(MULTI_INDEX[p]):
            for ib, right in enumerate(MULTI_INDEX[q]):
                sign, merged = _merge(left, right)
                if sign is not None:
                    entries.append((ia, ib, sign, INDEX_POS[p + q][merged]))
        _WEDGE_TABLE[key] = tuple(entries)
    return _WEDGE_TABLE[key]


def _d_tables(k):
    if k not in _D_DERIV_TABLE:
        deriv = []
        struct = []
        for i_in, idx in enumerate(MULTI_INDEX[k]):
            for axis in (0, 1):
                sign, merged = _merge((axis,), idx)
                if sign is not None:
                    deriv.append((i_in, axis, sign, INDEX_POS[k + 1][merged]))
            # structure part: replace e3 in place by d(e3) = -e1^e2
            for pos, ci in enumerate(idx):
                if ci != STRUCTURE_INDEX:
                    continue
                rest = idx[:pos] + idx[pos + 1:]
                sign, merged = _merge(STRUCTURE_PAIR, rest)
                if sign is not None:
                    factor = ((-1.0) ** pos) * STRUCTURE_SIGN * sign
                    struct.append((i_in, factor, INDEX_POS[k + 1][merged]))
        _D_DERIV_TABLE[k] = tuple(deriv)
        _D_STRUCT_TABLE[k] = tuple(struct)
    return _D_DERIV_TABLE[k], _D_STRUCT_TABLE[k]


def _j_table(k):
    if k not in _J_TABLE:
        entries = []
        for i_in, idx in enumerate(MULTI_INDEX[k]):
            sign = 1.0
            for ci in idx:
                sign *= J_SIGN[ci]
            perm_sign, sorted_idx = _sort_sign(tuple(J_MAP[ci] for ci in idx))
            entries.append((i_in, sign * perm_sign, INDEX_POS[k][sorted_idx]))
        _J_TABLE[k] = tuple(entries)
    return _J_TABLE[k]


def _contract_table(k, coframe_index):
    key = (k, coframe_index)
    if key not in _CONTRACT_TABLE:
        entries = []
        for i_in, idx in enumerate(MULTI_INDEX[k]):
            for pos, ci in enumerate(idx):
                if ci == coframe_index:
                    rest = idx[:pos] + idx[pos + 1:]
                    entries.append((i_in, (-1.0) ** pos, INDEX_POS[k - 1][rest]))
        _CONTRACT_TABLE[key] = tuple(entries)
    return _CONTRACT_TABLE[key]


def wedge(alpha, beta):
    """Graded-commutative wedge product with coframe sign bookkeeping."""
    if alpha.grid != beta.grid:
        raise GridError("wedge operands live on different grids")
    p, q = alpha.degree, beta.degree
    if p + q > 4:
        raise DegreeError(f"wedge degree overflow: {p} + {q} > 4")
    out = InvariantForm(alpha.grid, p + q)
    for ia, ib, sign, i_out in _wedge_table(p, q):
        out.coeffs[i_out] += sign * alpha.coeffs[ia] * beta.coeffs[ib]
    return out


def exterior_d(alpha):
    """Exterior derivative: spectral base part plus the d(e3) structure part."""
    k = alpha.degree
    if k >= 4:
        raise DegreeError("exterior derivative of a 4-form is not represented")
    deriv, struct = _d_tables(k)
    out = InvariantForm(alpha.grid, k + 1)
    dx = alpha.grid.derivative(alpha.coeffs, "x")
    dy = alpha.grid.derivative(alpha.coeffs, "y")
    partials = (dx, dy)
    for i_in, axis, sign, i_out in deriv:
        out.coeffs[i_out] += sign * partials[axis][i_in]
    for i_in, factor, i_out in struct:
        out.coeffs[i_out] += factor * alpha.coeffs[i_in]
    return out


def apply_J(alpha):
    """Index-wise action of J on a form.

    On 1-forms this realizes (J a)(X) = -a(JX); on 2-forms (J a)(X, Y) =
    a(JX, JY); on 3-forms (J a)(X, Y, Z) = -a(JX, JY, JZ); degree 0 and 4 are
    untouched.  One table covers all degrees because the sign conventions
    cancel against the coframe transport.
    """
    out = InvariantForm(alpha.grid, alpha.degree)
    for i_in, sign, i_out in _j_table(alpha.degree):
        out.coeffs[i_out] += sign * alpha.coeffs[i_in]
    return out


def p11_projection(beta):
    """J-invariant part (1/2)(beta + J beta) of a 2-form."""
    if beta.degree != 2:
        raise DegreeError(f"(1,1)-projection needs degree 2, got {beta.degree}")
    return 0.5 * (beta + apply_J(beta))


def contract(vertical, alpha):
    """Interior product with a vertical generator (V1 or V2)."""
    if vertical not in (V1, V2):
        raise DegreeError(f"vertical generator must be V1 (0) or V2 (1), got {vertical}")
    if alpha.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    out = InvariantForm(alpha.grid, alpha.degree - 1)
    for i_in, sign, i_out in _contract_table(alpha.degree, VERTICAL_COFRAME_INDEX[vertical]):
        out.coeffs[i_out] += sign * alpha.coeffs[i_in]
    return out


BASIC_TOL = 1e-12


def base_integral(beta):
    """Integral of a basic 2-form over the base square.

    The integrand is the e1^e2 coefficient; both vertical contractions must
    vanish below 1e-12 or the form is rejected as non-basic.
    """
    if beta.degree != 2:
        raise DegreeError(f"base integral needs degree 2, got {beta.degree}")
    worst = max(contract(V1, beta).max_abs(), contract(V2, beta).max_abs())
    if worst > BASIC_TOL:
        raise NonBasicFormError(
            f"form is not basic: max |vertical contraction| = {worst:.3e} > {BASIC_TOL:.0e}"
        )
    return beta.grid.integral(beta.coefficient(0, 1))


def random_band_limited(grid, rng, kmax=2, amplitude=1.0, zero_mean=False):
    """Random smooth field from modes up to kmax per axis, scaled to max-abs.

    Deterministic given the generator state; used by the identity batteries
    and the randomized tests.
    """
    field = np.zeros((grid.n, grid.n))
    two_pi = 2.0 * np.pi
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            phase = two_pi * (kx * grid.xx + ky * grid.yy)
            c, s = rng.normal(size=2)
            field += c * np.cos(phase) + s * np.sin(phase)
    if not zero_mean:
        field += rng.normal()
    peak = np.max(np.abs(field))
    if peak > 0:
        field *= amplitude / peak
    return field


def random_form(grid, rng, degree, kmax=2, amplitude=1.0):
    """Random band-limited invariant form of the given degree."""
    out = InvariantForm(grid, degree)
    for i in range(NCOMP[degree]):
        out.coeffs[i] = random_band_limited(grid, rng, kmax=kmax, amplitude=amplitude)
    return out
