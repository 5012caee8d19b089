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
machine precision on band-limited data.  Every spectral operation is one
BaseGrid.partial_sums over a table of (field, factor, symbol) terms: an
rfft2, sums of products with cached symbols (partials, the Laplacian, its
inverse), an irfft2, each transform called as its two 1-D transforms.  The
spectra live in two complex work arrays that the grid owns and reuses, so
a call allocates only the real fields it returns, and nothing when its
caller hands it an out array for them.  An exterior derivative
moves 1/2, 4/5, 5/4 and 2/1 forward/inverse fields for degrees 0 to 3:
only the coefficients and components with a base partial.

The coframe operations are tables over multi-index positions, built once
per key (functools.cache), every sign +-1.0 from _merge; J, the contractions
and the d(e3) part of d apply (i_in, sign, i_out) tables through _apply.
_apply and wedge apply each sign by adding or subtracting the term rather
than multiplying by it, which is bitwise the product: in IEEE arithmetic
a - b is a + (-b), and (-a) * b is -(a * b).

The scalar reductions of the package, here and in the modules above, call
numpy's ufuncs directly through largest, smallest, mean and
mean_and_variance, each bitwise the numpy function it names without
numpy's Python wrapper.

Shapes: a field is (*stack, n, n) and a degree-k form's coefficients are
(C(4, k), *stack, n, n), where the stack axes, if any, hold independent
states.  Only the input constructors spell out the (n, n) shape:
BaseGrid.constant builds one field, and BaseGrid.zeros and
random_band_limited take a leading shape (the latter draws its fields
one after another and synthesizes them with one transform).  Every
operation allocates from its operands' shapes, so a stack of states goes
through each call as one, and each slice of the result is bitwise the
result of its state alone.  max_abs is a maximum over the stack, and
BaseGrid.integral integrates each state.  Forms enter the calculus through
InvariantForm(grid, k, coeffs), basis_form (coframe is its degree-1 case)
and random_form.

Index conventions: coframe indices are 0-based internally (e1 -> 0, ...,
e4 -> 3); docstrings use the 1-based names.  Orientation is fixed by taking
e1^e2^e3^e4 as the positive volume form.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

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

# Vertical generators: V1 pairs with e3, V2 with e4.
V1, V2 = 0, 1
VERTICAL_COFRAME_INDEX = (2, 3)

MULTI_INDEX = {k: tuple(itertools.combinations(range(COFRAME_DIM), k)) for k in range(5)}
INDEX_POS = {k: {idx: i for i, idx in enumerate(MULTI_INDEX[k])} for k in range(5)}
NCOMP = {k: len(MULTI_INDEX[k]) for k in range(5)}

# Symbols of BaseGrid.partial_sums: tuples of names from the grid's factor
# table, multiplied together; () is the constant 1.
DX, DY = ("ik_x",), ("ik_y",)
_GRADIENT = (((0, 1.0, DX),), ((0, 1.0, DY),))
LAPLACIAN = (((0, 1.0, DX + DX), (0, 1.0, DY + DY)),)
_D11 = (((1, 1.0, DX), (0, -1.0, DY), (2, -1.0, ())),
        ((2, 0.5, DX), (3, 0.5, DY)),
        ((3, 0.5, DX), (2, -0.5, DY)))


def largest(values):
    """float(np.max(values)) bitwise: np.maximum.reduce without numpy's wrapper."""
    return float(np.maximum.reduce(values, axis=None))


def smallest(values):
    """float(np.min(values)) bitwise: np.minimum.reduce without numpy's wrapper."""
    return float(np.minimum.reduce(values, axis=None))


def mean(values):
    """float(np.mean(values)) bitwise: np.add.reduce over the size, without numpy's wrapper."""
    return float(np.add.reduce(values, axis=None) / values.size)


def mean_and_variance(values):
    """float(np.mean(values)), float(np.var(values)) bitwise: the mean, then the centred square."""
    average = mean(values)
    centred = np.subtract(values, average)
    return average, float(np.add.reduce(np.square(centred, out=centred), axis=None) / values.size)


class BaseGrid:
    """Uniform periodic grid on the unit square orbit space.

    Resolution must be a power of two and at least 8 so that spectral
    derivatives have a clean Nyquist convention and transforms stay fast.
    Every spectral operation is one partial_sums call: _forward (rfft2 of
    the trailing axes), same-shape products with symbols of the half
    spectrum's shape (kx over the n rows, ky >= 0 over n/2 + 1 columns),
    _inverse.  A symbol, kept once per (factor, names), multiplies named
    factors of one table built here, so their conventions are decided once.
    ik_x and ik_y are 0 on their axis's Nyquist mode, which carries no
    usable odd-derivative information (DX + DX drops it too); inv_lap is
    1 / -(kx^2 + ky^2) of the full wave numbers with a zero mode of 0, the
    zero-mean inverse Laplacian.

    Every transform pair runs in two complex work arrays that the grid
    owns: array 0 holds the spectrum of partial_sums' inputs, array 1 its
    sums plus one scratch row.  A third, real work array holds the
    intermediates of the flow's velocity (hermitian_geometry._flow_alpha),
    12 rows of (*stack, n, n) fields.  Each grows to the largest call the
    grid has served and never shrinks, so a grid retains 16 n (n/2 + 1)
    bytes (8.5 KiB at n = 32, 33 KiB at n = 64) per field of its largest
    forward transform and per row of its largest sums, and 8 n^2 bytes
    (8 and 32 KiB) per real row.  A flow keeps 4, 6 and 12 rows: 181 KiB
    at n = 32 and 714 KiB at n = 64.  A suite run, whose stacks hold up
    to four states, keeps 20, 24 and 24 rows: 566 KiB at n = 32 and
    2220 KiB at n = 64.  Each complex symbol takes 16 n (n/2 + 1) bytes as
    well: a rigid flow keeps 9, an eps-seed flow and a suite 11, 94 KiB
    at n = 32 and 363 KiB at n = 64.  Views are cached per shape, so a call
    whose shape has been seen allocates no work array.  The arrays make a
    grid unsafe to share between threads.
    """

    def __init__(self, n):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise GridError(f"grid resolution must be an integer, got {n!r}")
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"grid resolution must be a power of two >= 8, got {n}")
        self.n = n
        self.h = 1.0 / n
        axis = np.arange(n) * self.h
        self.xx, self.yy = np.meshgrid(axis, axis, indexing="ij")
        kx = 2.0 * np.pi * np.fft.fftfreq(n, d=self.h)[:, None]
        ky = 2.0 * np.pi * np.fft.rfftfreq(n, d=self.h)[None, :]
        lap = -(kx * kx + ky * ky)
        lap[0, 0] = 1.0
        inv_lap = 1.0 / lap
        inv_lap[0, 0] = 0.0
        kx[n // 2] = 0.0
        ky[0, -1] = 0.0  # the y Nyquist mode is the last rfft column
        ik_x, ik_y = np.zeros((2,) + lap.shape, dtype=complex)  # real parts +0.0
        ik_x.imag, ik_y.imag = kx, ky
        self._factors = {"ik_x": ik_x, "ik_y": ik_y, "inv_lap": inv_lap}
        self._symbol_arrays = {}
        self._symbol_tables = {}
        self._work_arrays = [np.empty(0, dtype=complex), np.empty(0, dtype=complex),
                             np.empty(0)]
        self._views = ({}, {}, {})

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
        if not np.logical_and.reduce(np.isfinite(values), axis=None):   # np.all, unwrapped
            bad = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
            raise NonFiniteFieldError(f"{what} is non-finite at grid index {bad}")
        return values

    def _work(self, which, shape):
        """View of work array 0 or 1 (complex) or 2 (real) of the given shape, cached per shape.

        An array grows to the largest size asked of it and never shrinks;
        growing it drops its cached views, so none keeps the old array alive.
        """
        views = self._views[which]
        view = views.get(shape)
        if view is None:
            size = math.prod(shape)
            if self._work_arrays[which].size < size:
                self._work_arrays[which] = np.empty(size, self._work_arrays[which].dtype)
                views.clear()
            view = views[shape] = self._work_arrays[which][:size].reshape(shape)
        return view

    def _forward(self, values):
        """rfft2 of the trailing axes, composed of its two 1-D calls as numpy does.

        Both passes write into work array 0, which keeps the largest
        spectrum the grid has transformed.  The spectrum returned is
        overwritten by the grid's next forward transform: a caller that
        keeps one copies it.
        """
        spec = self._work(0, values.shape[:-1] + (self.n // 2 + 1,))
        np.fft.rfft(values, out=spec)
        return np.fft.fft(spec, axis=-2, out=spec)

    def _inverse(self, spec, out=None):
        """irfft2 back to (n, n) fields, composed of its two 1-D calls as numpy does.

        Consumes spec, in partial_sums a view of work array 1: the axis -2
        pass writes into it.  The irfft writes the real fields into out, a
        float array of shape spec.shape[:-1] + (n,), or allocates them if
        out is None; they are bitwise the same either way.
        """
        return np.fft.irfft(np.fft.ifft(spec, axis=-2, out=spec), self.n, out=out)

    def _symbols(self, terms):
        """terms with each (factor, names) as factor times the named factors, cached."""
        table = self._symbol_tables.get(terms)
        if table is None:
            table = self._symbol_tables[terms] = tuple(tuple(
                (j, self._symbol(factor, names)) for j, factor, names in row) for row in terms)
        return table

    def _symbol(self, factor, names):
        """factor times the named factors, one array per (factor, names)."""
        if factor == 1.0 and len(names) == 1:   # zeros are +0.0: 1.0 * f is bitwise f
            return self._factors[names[0]]
        if (factor, names) not in self._symbol_arrays:
            self._symbol_arrays[factor, names] = math.prod(
                (self._factors[name] for name in names), start=factor)
        return self._symbol_arrays[factor, names]

    def partial_sums(self, values, terms, out=None):
        """Sums of spectral multiples of stacked fields, from one transform pair.

        Output i sums factor times symbol applied to values[field] over the
        (field, factor, symbol) in terms[i]; callers check their input.  The
        spectrum of the inputs is work array 0 and the sums, plus one
        scratch row, are work array 1 (see the class docstring for what the
        grid retains).  The real fields go into out, a float array of shape
        (len(terms), *values.shape[1:]) that must not overlap values, and
        out is returned; with out None they are allocated, and once a shape
        has been seen that is all the call allocates.  A result shares no
        memory with the complex work arrays, and no spectrum leaves the
        call: a caller that needs one copies it.  Not for use from two
        threads on one grid.
        """
        spec = self._forward(values)
        work = self._work(1, (len(terms) + 1,) + spec.shape[1:])
        sums, scratch = work[:-1], work[-1]
        for acc, ((j, symbol), *rest) in zip(sums, self._symbols(terms)):
            np.multiply(spec[j], symbol, out=acc)
            for j, symbol in rest:
                acc += np.multiply(spec[j], symbol, out=scratch)
        return self._inverse(sums, out)

    def derivative(self, values):
        """Both spectral base partials (d/dx, d/dy) from one real transform.

        Accepts stacked fields with trailing shape (n, n) and returns an
        array of shape (2,) + values.shape; differentiation is exact for
        modes strictly below n/2 per axis.
        """
        values = self.check_field(values, "derivative input")
        return self.partial_sums(values[None], _GRADIENT)

    def d11(self, alpha):
        """(1,1) part of d alpha for the coefficients (a1, a2, a3, a4) of a 1-form.

        It is c12 e1^e2 + c13 (e1^e3 + e2^e4) + c14 (e1^e4 - e2^e3) with no
        e3^e4 term; returns (c12, c13, c14) = (a2_x - a1_y - a3, (a3_x +
        a4_y)/2, (a4_x - a3_y)/2) from one transform pair.
        """
        return self.partial_sums(alpha, _D11)

    def integral(self, values):
        """Integral over the unit square of each state; trapezoid on a periodic grid = mean.

        One field gives a float, a (*stack, n, n) stack an array of shape stack.
        """
        values = self.check_field(values, "integrand")
        average = np.add.reduce(values, axis=(-2, -1)) / (self.n * self.n)   # np.mean, unwrapped
        return float(average) if average.ndim == 0 else average

    def require_single(self, values, what):
        """Raise GridError unless values are one (n, n) field, not a stack of states.

        For what pools over the grid or writes one state, where a stack
        would be pooled across its states without notice.
        """
        if np.ndim(values) != 2:
            raise GridError(f"{what} takes one state, got fields of shape {np.shape(values)}")


class InvariantForm:
    """Degree-k invariant form: coefficient fields over increasing multi-indices.

    Coefficients are stored as one array of shape (C(4, k), *stack, n, n),
    ordered lexicographically over the multi-indices of MULTI_INDEX[k]; the
    zero form InvariantForm(grid, k) is one state, (C(4, k), n, n).  The
    constructor checks the shape and scans for NaN/Inf; forms computed from
    checked data (arithmetic, the Lee form) are built by _trusted, unchecked.
    """

    __slots__ = ("grid", "degree", "coeffs")

    def __init__(self, grid, degree, coeffs=None):
        if degree not in MULTI_INDEX:
            raise DegreeError(f"form degree must be in 0..4, got {degree}")
        self.grid = grid
        self.degree = int(degree)
        ncomp = NCOMP[self.degree]
        if coeffs is None:
            coeffs = grid.zeros(ncomp)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.ndim < 3 or coeffs.shape[0] != ncomp:
                raise GridError(f"degree-{degree} coefficients must have shape "
                                f"({ncomp}, *stack, n, n), got {coeffs.shape}")
            grid.check_field(coeffs, "form coefficient")
        self.coeffs = coeffs

    @classmethod
    def _trusted(cls, grid, degree, coeffs):
        """Form on coefficients computed from checked data: no shape check, no scan."""
        out = object.__new__(cls)
        out.grid, out.degree, out.coeffs = grid, degree, coeffs
        return out

    def max_abs(self):
        """Largest |coefficient| over every component, point and state."""
        if self.coeffs.size == 0:
            return 0.0
        return largest(np.abs(self.coeffs))

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
        return InvariantForm._trusted(self.grid, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return InvariantForm._trusted(self.grid, self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return InvariantForm._trusted(self.grid, self.degree, -self.coeffs)

    def __mul__(self, factor):
        """Scale by a number or pointwise by a scalar field."""
        factor = np.asarray(factor, dtype=float)
        if factor.ndim == 0:
            return InvariantForm._trusted(self.grid, self.degree, self.coeffs * float(factor))
        factor = self.grid.check_field(factor, "scaling field")
        return InvariantForm._trusted(self.grid, self.degree, self.coeffs * factor[None])

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"InvariantForm(degree={self.degree}, n={self.grid.n}, "
            f"max_abs={self.max_abs():.3e})"
        )


def coframe(grid, index):
    """The constant 1-form e^(index+1), index 0-based."""
    return basis_form(grid, (index,))


def basis_form(grid, indices):
    """Unit form for the increasing multi-index, e.g. (0, 1) -> e1^e2."""
    indices = tuple(indices)
    degree = len(indices)
    if degree not in MULTI_INDEX or indices not in INDEX_POS[degree]:
        raise DegreeError(f"{indices} is not an increasing multi-index")
    out = InvariantForm(grid, degree)
    out.coeffs[INDEX_POS[degree][indices]] = 1.0
    return out


def _merge(left, right):
    """Sign and sorted multi-index of e^left ^ e^right, or (None, ()) on collision.

    The sign is (-1) to the number of inversions of left + right.
    """
    merged = tuple(left) + tuple(right)
    if len(set(merged)) < len(merged):
        return None, ()
    inversions = sum(a > b for a, b in itertools.combinations(merged, 2))
    return (-1.0) ** inversions, tuple(sorted(merged))


@functools.cache
def _wedge_table(p, q):
    """(ia, ib, sign, i_out): e^left ^ e^right = sign e^merged, collisions dropped."""
    products = ((ia, ib, *_merge(left, right)) for ia, left in enumerate(MULTI_INDEX[p])
                for ib, right in enumerate(MULTI_INDEX[q]))
    return tuple((ia, ib, sign, INDEX_POS[p + q][merged])
                 for ia, ib, sign, merged in products if sign is not None)


@functools.cache
def _contract_table(k, ci):
    """(i_in, sign, i_out) of the contraction with e^ci's dual, from e^ci ^ e^out = sign e^in."""
    return tuple((i_idx, sign, i_rest)
                 for i_ci, i_rest, sign, i_idx in _wedge_table(1, k - 1) if i_ci == ci)


@functools.cache
def _d_tables(k):
    """(first, spectral, struct) tables of d on degree-k forms.

    spectral[i_out] holds the partial_sums terms (j, sign, DX or DY), sign
    times a base partial of coefficient first + j.  The coefficients with a
    partial (no e1^e2) are a lexicographic tail and the components they
    reach a head.
    struct holds (i_in, sign, i_out) of the d(e3) part, d(e3) ^ the e3
    contraction; every i_out lies in that head.
    """
    spectral = [[] for _ in MULTI_INDEX[k + 1]]
    for i_in, idx in enumerate(MULTI_INDEX[k]):
        for axis, partial in enumerate((DX, DY)):
            sign, merged = _merge((axis,), idx)
            if sign is not None:
                spectral[INDEX_POS[k + 1][merged]].append((i_in, sign, partial))
    struct = []
    for i_in, s, i_rest in _contract_table(k, STRUCTURE_INDEX) if k else ():
        sign, merged = _merge(STRUCTURE_PAIR, MULTI_INDEX[k - 1][i_rest])
        if sign is not None:
            struct.append((i_in, s * STRUCTURE_SIGN * sign, INDEX_POS[k + 1][merged]))
    while not spectral[-1]:
        spectral.pop()
    first = min(i_in for terms in spectral for i_in, _, _ in terms)
    spectral = tuple(tuple((i - first, sign, partial) for i, sign, partial in terms)
                     for terms in spectral)
    return first, spectral, tuple(struct)


@functools.cache
def _j_table(k):
    """(i_in, sign, i_out): J e^idx = sign e^image, as J e^i = J_SIGN[i] e^(J_MAP[i])."""
    entries = []
    for i_in, idx in enumerate(MULTI_INDEX[k]):
        sign, image = _merge((J_MAP[ci] for ci in idx), ())
        entries.append((i_in, sign * math.prod(J_SIGN[ci] for ci in idx), INDEX_POS[k][image]))
    return tuple(entries)


def _zeros(grid, degree, shape):
    """Zero degree-k form on fields of shape (*stack, n, n)."""
    return InvariantForm._trusted(grid, degree, np.zeros((NCOMP[degree],) + shape))


def _apply(table, coeffs, out):
    """Add sign * coeffs[i_in] to out[i_out] in table order, by += or -=; returns out."""
    for i_in, sign, i_out in table:
        if sign > 0:
            out[i_out] += coeffs[i_in]
        else:
            out[i_out] -= coeffs[i_in]
    return out


def wedge(alpha, beta):
    """Graded-commutative wedge product with coframe sign bookkeeping."""
    if alpha.grid != beta.grid:
        raise GridError("wedge operands live on different grids")
    p, q = alpha.degree, beta.degree
    if p + q > 4:
        raise DegreeError(f"wedge degree overflow: {p} + {q} > 4")
    out = _zeros(alpha.grid, p + q,
                 np.broadcast_shapes(alpha.coeffs.shape[1:], beta.coeffs.shape[1:]))
    for ia, ib, sign, i_out in _wedge_table(p, q):
        if sign > 0:
            out.coeffs[i_out] += alpha.coeffs[ia] * beta.coeffs[ib]
        else:
            out.coeffs[i_out] -= alpha.coeffs[ia] * beta.coeffs[ib]
    return out


def exterior_d(alpha):
    """Exterior derivative: spectral base part plus the d(e3) structure part.

    The components with a base partial are a head of d alpha's
    coefficients: they are summed per output component in spectral space,
    between one forward transform of the coefficients that have a partial
    and one inverse transform of the components that receive one, into
    the result's head; then the d(e3) structure part is added there (see
    _d_tables).  Every later component of d alpha is zero.
    """
    if alpha.degree >= 4:
        raise DegreeError("exterior derivative of a 4-form is not represented")
    out = _zeros(alpha.grid, alpha.degree + 1, alpha.coeffs.shape[1:])
    first, spectral, struct = _d_tables(alpha.degree)
    head = alpha.grid.partial_sums(alpha.coeffs[first:], spectral, out.coeffs[:len(spectral)])
    _apply(struct, alpha.coeffs, head)
    return out


def apply_J(alpha):
    """Index-wise action of J on a form.

    On 1-forms this realizes (J a)(X) = -a(JX); on 2-forms (J a)(X, Y) =
    a(JX, JY); on 3-forms (J a)(X, Y, Z) = -a(JX, JY, JZ); degree 0 and 4 are
    untouched.  One table covers all degrees because the sign conventions
    cancel against the coframe transport.
    """
    out = _zeros(alpha.grid, alpha.degree, alpha.coeffs.shape[1:])
    _apply(_j_table(alpha.degree), alpha.coeffs, out.coeffs)
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
    table = _contract_table(alpha.degree, VERTICAL_COFRAME_INDEX[vertical])
    out = _zeros(alpha.grid, alpha.degree - 1, alpha.coeffs.shape[1:])
    _apply(table, alpha.coeffs, out.coeffs)
    return out


BASIC_TOL = 1e-12


def base_integral(beta):
    """Integral of a basic 2-form over the base square, per state.

    The integrand is the e1^e2 coefficient.  The two vertical contractions
    read the other five coefficients, e13, e14, e23, e24 and e34, which
    must vanish below 1e-12 or the form is rejected as non-basic; a
    non-finite one is rejected too.
    """
    if beta.degree != 2:
        raise DegreeError(f"base integral needs degree 2, got {beta.degree}")
    worst = largest(np.abs(beta.coeffs[1:]))
    if not worst <= BASIC_TOL:
        raise NonBasicFormError(
            f"form is not basic: max |vertical contraction| = {worst:.3e} > {BASIC_TOL:.0e}"
        )
    return beta.grid.integral(beta.coeffs[0])


@functools.cache
def _band_table(kmax):
    """Scatter indices (rows, cols) and draw masks (ky >= 0, ky <= 0) for kmax.

    Negative rows wrap, so one table serves every n.
    """
    kx, ky = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    keep = (kx > 0) | (ky > 0)
    kx, ky = kx[keep], ky[keep]
    upper, lower = ky >= 0, ky <= 0
    return (np.concatenate((kx[upper], -kx[lower])),
            np.concatenate((ky[upper], -ky[lower])), upper, lower)


def random_band_limited(grid, rng, kmax=2, lead=()):
    """Random smooth fields (*lead, n, n), lead a tuple, of modes up to kmax per axis.

    A field is sum c cos(phase) + s sin(phase), phase = 2 pi (kx x + ky y),
    over kx = 0..kmax, ky = -kmax..kmax without the pairs kx = 0, ky <= 0,
    plus a normal mean, scaled to max-abs 1.  Each mode in that loop order,
    and then the mean, takes a pair of uniforms (u1, u2) from rng.random()
    and turns it by Box-Muller into (c, s) = r (cos, sin)(2 pi u2),
    r = sqrt(-2 log(1 - u1)); the mean is the pair's c.  So rng needs one
    method, random(), which random.Random and numpy Generators both have,
    and a field takes 2 (m + 1) draws for its m modes (26 at kmax = 2), the
    fields one after another in C order of lead.  One irfft2 sums them all,
    of half-spectra holding n^2/2 (c - i s) at (kx, ky) for ky >= 0 and its
    conjugate at (-kx, -ky) for ky <= 0 (both halves of the ky = 0 column),
    so each field is bitwise the one-field call's on its draws.
    Deterministic given the generator state; used by the identity battery
    and the randomized tests.
    """
    n = grid.n
    if isinstance(kmax, bool) or not isinstance(kmax, numbers.Integral):
        raise GridError(f"kmax must be an integer, got {kmax!r}")
    if not 0 <= 2 * kmax < n:
        raise GridError(f"kmax = {kmax} needs 0 <= 2 kmax < n = {n}")
    rows, cols, upper, lower = _band_table(int(kmax))
    draws = (2 * upper.size + 2) * math.prod(lead)
    uniform = np.array([rng.random() for _ in range(draws)]).reshape(lead + (-1,))
    radius = np.sqrt(-2.0 * np.log1p(-uniform[..., 0::2]))
    angle = 2.0 * math.pi * uniform[..., 1::2]
    c, s = radius * np.cos(angle), radius * np.sin(angle)
    coef = 0.5 * n * n * (c[..., :-1] - 1j * s[..., :-1])
    spec = np.zeros(lead + (n, n // 2 + 1), dtype=complex)
    spec[..., rows, cols] = np.concatenate((coef[..., upper], coef[..., lower].conj()), axis=-1)
    fields = grid._inverse(spec)
    fields += c[..., -1:, None]
    peak = np.maximum.reduce(np.abs(fields), axis=(-2, -1), keepdims=True)   # np.max, unwrapped
    return np.divide(fields, peak, out=fields, where=peak > 0)


def random_form(grid, rng, degree, kmax=2):
    """Random band-limited invariant form of the given degree.

    Its coefficients are one random_band_limited call with lead (C(4, k),),
    drawn in coefficient order, so rng needs only random() as there.
    """
    if degree not in MULTI_INDEX:
        raise DegreeError(f"form degree must be in 0..4, got {degree}")
    return InvariantForm._trusted(grid, int(degree),
                                  random_band_limited(grid, rng, kmax, (NCOMP[degree],)))
