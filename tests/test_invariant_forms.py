import math
import random
import tracemalloc
import types

import numpy as np
import pytest

from ktflow import hermitian_geometry, invariant_forms, vaisman_toolkit
from ktflow.errors import (DegreeError, GridError, NonBasicFormError,
                           NonFiniteFieldError)
from ktflow.hermitian_geometry import _LEE_TERMS
from ktflow.invariant_forms import (INDEX_POS, LAPLACIAN, NCOMP, BaseGrid, InvariantForm,
                                    V1, V2, apply_J, base_integral, basis_form, coframe,
                                    contract, exterior_d, p11_projection,
                                    random_band_limited, random_form, wedge)

from oracles import (broadcast_factors, broadcast_partial_sums, direct_band_limited,
                     partials_exterior_d, rfft2_band_limited, rfft2_d11, rfft2_derivative,
                     rfft2_shift, signed_apply, signed_wedge)


def test_grid_rejects_bad_sizes():
    for n in (0, 1, 4, 6, 7, 12, 33):
        with pytest.raises(GridError):
            BaseGrid(n)
    assert BaseGrid(8).n == 8
    assert BaseGrid(256).h == 1.0 / 256
    assert BaseGrid(np.int64(16)).n == 16


@pytest.mark.parametrize("n", (32.7, 32.0, True), ids=("fraction", "integral-float", "bool"))
def test_grid_rejects_non_integers(n):
    # int(n) used to build BaseGrid(32.7) as n = 32 and read True as n = 1
    with pytest.raises(GridError, match="must be an integer"):
        BaseGrid(n)


def test_grid_mesh_layout(grid8):
    # indexing="ij": first axis is x, second is y
    assert grid8.xx[3, 0] == pytest.approx(3.0 / 8)
    assert grid8.yy[0, 3] == pytest.approx(3.0 / 8)
    assert grid8.integral(np.ones((8, 8))) == pytest.approx(1.0)


def test_spectral_derivative_exact_on_band_limited(grid32):
    x, y = grid32.xx, grid32.yy
    f = np.sin(2 * np.pi * x) * np.cos(6 * np.pi * y) + np.cos(4 * np.pi * (x + y))
    fx = (2 * np.pi * np.cos(2 * np.pi * x) * np.cos(6 * np.pi * y)
          - 4 * np.pi * np.sin(4 * np.pi * (x + y)))
    fy = (-6 * np.pi * np.sin(2 * np.pi * x) * np.sin(6 * np.pi * y)
          - 4 * np.pi * np.sin(4 * np.pi * (x + y)))
    g = np.sin(30 * np.pi * y)          # highest resolved y mode, n/2 - 1
    gy = 30 * np.pi * np.cos(30 * np.pi * y)
    stack = np.stack((f, -2.0 * f, g))
    out = grid32.derivative(stack)
    assert out.shape == (2, 3, 32, 32)
    expected = np.stack((np.stack((fx, -2.0 * fx, np.zeros_like(g))),
                         np.stack((fy, -2.0 * fy, gy))))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_spectral_derivative_kills_nyquist(grid8):
    # the unpaired n/2 mode has no consistent odd derivative; it must map to 0
    # on x (a full-transform row) and on y (the last real-transform column)
    for f in (np.cos(np.pi * 8 * grid8.xx), np.cos(np.pi * 8 * grid8.yy)):
        assert np.max(np.abs(grid8.derivative(f))) < 1e-12


def test_derivative_rejects_nonfinite(grid8):
    f = np.ones((8, 8))
    f[2, 5] = np.inf
    with pytest.raises(NonFiniteFieldError):
        grid8.derivative(f)


def test_poisson_inverts_laplacian(grid32, rng):
    # the Laplacian table of the inverse-Laplacian table returns rhs, and the
    # inverse Laplacian's zero mode is 0
    rhs = random_band_limited(grid32, rng, kmax=3)
    rhs -= np.mean(rhs)
    sol = grid32.partial_sums(rhs[None], (((0, 1.0, ("inv_lap",)),),))
    lap = grid32.partial_sums(sol, LAPLACIAN)[0]
    assert np.max(np.abs(lap - rhs)) < 1e-11
    assert abs(np.mean(sol)) < 1e-13


def test_form_coefficient_layout(grid8):
    alpha = 2.0 * basis_form(grid8, (0, 1)) - basis_form(grid8, (2, 3))
    # coefficients follow the increasing multi-indices in lexicographic order
    assert list(INDEX_POS[2].items()) == [((0, 1), 0), ((0, 2), 1), ((0, 3), 2),
                                          ((1, 2), 3), ((1, 3), 4), ((2, 3), 5)]
    assert np.all(alpha.coeffs[INDEX_POS[2][(0, 1)]] == 2.0)
    assert np.all(alpha.coeffs[INDEX_POS[2][(2, 3)]] == -1.0)
    assert alpha.max_abs() == 2.0


def test_form_arithmetic_and_field_scaling(grid8):
    a = basis_form(grid8, (0, 2))
    b = basis_form(grid8, (1, 3))
    s = a + b - a
    assert (s - b).max_abs() == 0.0
    field = 1.0 + grid8.xx
    scaled = a * field
    assert np.all(scaled.coeffs[INDEX_POS[2][(0, 2)]] == field)
    assert (2.0 * a - a * 2.0).max_abs() == 0.0
    with pytest.raises(DegreeError):
        a + coframe(grid8, 0)


def test_wedge_matches_hand_values(grid8):
    e = [coframe(grid8, i) for i in range(4)]
    w = wedge(e[0], e[1])
    assert np.all(w.coeffs[INDEX_POS[2][(0, 1)]] == 1.0)
    assert (wedge(e[1], e[0]) + w).max_abs() == 0.0
    top = wedge(wedge(e[0], e[1]), wedge(e[2], e[3]))
    assert np.all(top.coeffs[INDEX_POS[4][(0, 1, 2, 3)]] == 1.0)
    # e2^e1^e3 = -e1^e2^e3
    m = wedge(e[1], wedge(e[0], e[2]))
    assert np.all(m.coeffs[INDEX_POS[3][(0, 1, 2)]] == -1.0)


def test_wedge_graded_commutativity(grid16, rng):
    for _ in range(10):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 4 - p))
        a = random_form(grid16, rng, p)
        b = random_form(grid16, rng, q)
        flip = (-1.0) ** (p * q)
        assert (wedge(a, b) - wedge(b, a) * flip).max_abs() < 1e-13


def test_wedge_associativity(grid16, rng):
    for _ in range(6):
        a = random_form(grid16, rng, 1)
        b = random_form(grid16, rng, 1)
        c = random_form(grid16, rng, int(rng.integers(0, 3)))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).max_abs() < 1e-12


def test_wedge_degree_overflow(grid8):
    with pytest.raises(DegreeError):
        wedge(basis_form(grid8, (0, 1, 2)), basis_form(grid8, (0, 1)))


def test_wedge_grid_mismatch(grid8, grid16):
    with pytest.raises(GridError):
        wedge(coframe(grid8, 0), coframe(grid16, 1))


def test_structure_equation(grid8):
    # the only nonclosed coframe element: d(e3) = -e1^e2
    d3 = exterior_d(coframe(grid8, 2))
    assert (d3 + basis_form(grid8, (0, 1))).max_abs() == 0.0
    for i in (0, 1, 3):
        assert exterior_d(coframe(grid8, i)).max_abs() == 0.0


def test_exterior_d_on_functions(grid32):
    f = np.sin(2 * np.pi * grid32.xx)
    df = exterior_d(InvariantForm(grid32, 0, f[None]))
    dx, dy, d3, d4 = (df.coeffs[INDEX_POS[1][(i,)]] for i in range(4))
    assert np.max(np.abs(dx - 2 * np.pi * np.cos(2 * np.pi * grid32.xx))) < 1e-12
    assert np.max(np.abs(dy)) < 1e-13
    assert d3.max() == 0.0 and d4.max() == 0.0


def test_exterior_d_nilpotent(grid16, rng):
    for _ in range(10):
        k = int(rng.integers(0, 3))
        alpha = random_form(grid16, rng, k)
        assert exterior_d(exterior_d(alpha)).max_abs() < 1e-10


def test_exterior_d_leibniz(grid16, rng):
    for _ in range(10):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3 - p))
        a = random_form(grid16, rng, p)
        b = random_form(grid16, rng, q)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)) * ((-1.0) ** p)
        assert (lhs - rhs).max_abs() < 1e-10


def test_exterior_d_structure_in_higher_degree(grid8):
    # d(f e3) picks up -f e1^e2 on constant f
    alpha = basis_form(grid8, (2,)) * 3.0
    d = exterior_d(alpha)
    assert np.all(d.coeffs[INDEX_POS[2][(0, 1)]] == -3.0)
    # d(e3^e4) = -e1^e2^e4
    d34 = exterior_d(basis_form(grid8, (2, 3)))
    assert (d34 + basis_form(grid8, (0, 1, 3))).max_abs() == 0.0
    # d(e1^e3) = +e1^e1^e2 = 0
    assert exterior_d(basis_form(grid8, (0, 2))).max_abs() == 0.0
    # d(e2^e3) = e2^e1^e2 = 0 but d(e1^e4) = 0 too
    assert exterior_d(basis_form(grid8, (1, 2))).max_abs() == 0.0


@pytest.mark.parametrize("degree", (0, 1, 2, 3))
@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_exterior_d_matches_partials_oracle(n, degree):
    grid = BaseGrid(n)
    for seed in range(5):
        alpha = random_form(grid, np.random.default_rng(seed), degree)
        expected = partials_exterior_d(alpha)
        assert (exterior_d(alpha) - expected).max_abs() <= 1e-13 * expected.max_abs()


@pytest.mark.parametrize("degree, fields", ((0, [1, 2]), (1, [4, 5]), (2, [5, 4]), (3, [2, 1])))
def test_exterior_d_transforms_only_used_fields(grid16, rng, transform_fields, degree, fields):
    # forward: the coefficients without e1^e2; inverse: the components that
    # are not made of e3 and e4 alone
    alpha = random_form(grid16, rng, degree)
    transform_fields[:] = [0, 0]
    exterior_d(alpha)
    assert transform_fields == fields


def test_exterior_d_top_degree_rejected(grid8):
    with pytest.raises(DegreeError):
        exterior_d(basis_form(grid8, (0, 1, 2, 3)))


def test_apply_J_coframe_table(grid8):
    e = [coframe(grid8, i) for i in range(4)]
    assert (apply_J(e[0]) - e[1]).max_abs() == 0.0
    assert (apply_J(e[1]) + e[0]).max_abs() == 0.0
    assert (apply_J(e[2]) - e[3]).max_abs() == 0.0
    assert (apply_J(e[3]) + e[2]).max_abs() == 0.0


def test_apply_J_two_forms(grid8):
    pairs = {(0, 1): [((0, 1), 1.0)],
             (2, 3): [((2, 3), 1.0)],
             (0, 2): [((1, 3), 1.0)],
             (0, 3): [((1, 2), -1.0)]}
    for src, targets in pairs.items():
        image = apply_J(basis_form(grid8, src))
        expect = InvariantForm(grid8, 2)
        for idx, sign in targets:
            expect = expect + basis_form(grid8, idx) * sign
        assert (image - expect).max_abs() == 0.0


def test_apply_J_squares(grid16, rng):
    for _ in range(8):
        k = int(rng.integers(0, 5))
        alpha = random_form(grid16, rng, k)
        sign = -1.0 if k in (1, 3) else 1.0
        assert (apply_J(apply_J(alpha)) - alpha * sign).max_abs() == 0.0


def test_p11_projection_properties(grid16, rng):
    for _ in range(6):
        beta = random_form(grid16, rng, 2)
        proj = p11_projection(beta)
        assert (p11_projection(proj) - proj).max_abs() < 1e-14
        assert (apply_J(proj) - proj).max_abs() < 1e-14
    with pytest.raises(DegreeError):
        p11_projection(coframe(grid16, 0))
    # the invariant pairs stay, the anti-invariant combinations die
    keep = basis_form(grid16, (0, 2)) + basis_form(grid16, (1, 3))
    kill = basis_form(grid16, (0, 2)) - basis_form(grid16, (1, 3))
    assert (p11_projection(keep) - keep).max_abs() == 0.0
    assert p11_projection(kill).max_abs() == 0.0


def test_contract_table(grid8):
    e3, e4 = coframe(grid8, 2), coframe(grid8, 3)
    assert np.all(contract(V1, e3).coeffs[INDEX_POS[0][()]] == 1.0)
    assert contract(V1, e4).max_abs() == 0.0
    assert np.all(contract(V2, e4).coeffs[INDEX_POS[0][()]] == 1.0)
    assert contract(V1, coframe(grid8, 0)).max_abs() == 0.0
    # V1 into e3^e4 leaves e4; V2 into e3^e4 leaves -e3
    inner = contract(V1, basis_form(grid8, (2, 3)))
    assert (inner - e4).max_abs() == 0.0
    inner = contract(V2, basis_form(grid8, (2, 3)))
    assert (inner + e3).max_abs() == 0.0
    with pytest.raises(DegreeError):
        contract(V1, InvariantForm(grid8, 0))
    with pytest.raises(DegreeError):
        contract(2, e3)


def test_contract_antiderivation(grid16, rng):
    # i_V (a^b) = (i_V a)^b + (-1)^deg a a^(i_V b)
    for _ in range(6):
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 4 - p + 1))
        a = random_form(grid16, rng, p)
        b = random_form(grid16, rng, q)
        for v in (V1, V2):
            lhs = contract(v, wedge(a, b))
            rhs = (wedge(contract(v, a), b)
                   + wedge(a, contract(v, b)) * ((-1.0) ** p))
            assert (lhs - rhs).max_abs() < 1e-12


def test_base_integral(grid32):
    assert base_integral(basis_form(grid32, (0, 1))) == pytest.approx(1.0)
    f = 2.0 + np.sin(2 * np.pi * grid32.xx)
    assert base_integral(basis_form(grid32, (0, 1)) * f) == pytest.approx(2.0)
    with pytest.raises(NonBasicFormError):
        base_integral(basis_form(grid32, (0, 1)) + basis_form(grid32, (0, 2)) * 1e-6)
    with pytest.raises(DegreeError):
        base_integral(coframe(grid32, 0))


@pytest.mark.parametrize("indices", ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
def test_base_integral_rejects_each_vertical_component(grid8, indices):
    # the five components the two vertical contractions read; 1e-12 passes
    e12 = basis_form(grid8, (0, 1))
    assert base_integral(e12 + basis_form(grid8, indices) * 1e-12) == 1.0
    with pytest.raises(NonBasicFormError, match="2.000e-12 > 1e-12"):
        base_integral(e12 + basis_form(grid8, indices) * 2e-12)


def test_base_integral_rejects_a_nan_vertical_component(grid8):
    # inf - inf is nan, and the test worst > 1e-12 is False for nan
    with np.errstate(over="ignore", invalid="ignore"):
        v = basis_form(grid8, (0, 2)) * 1e300 * 1e300
        beta = (v - v) + basis_form(grid8, (0, 1))
    with pytest.raises(NonBasicFormError, match="nan"):
        base_integral(beta)


def test_integrals_are_per_state(grid16, rng):
    # a stack integrates each state to the float it gives alone
    fields = rng.normal(size=(2, 3, 16, 16))
    single = grid16.integral(fields[1, 2])
    assert type(single) is float
    stacked = grid16.integral(fields)
    assert stacked.shape == (2, 3)
    assert all(stacked[i, j] == grid16.integral(fields[i, j]) for i in range(2) for j in range(3))
    forms = InvariantForm(grid16, 2, np.concatenate((fields[:1], np.zeros((5, 3, 16, 16)))))
    assert base_integral(forms).tolist() == stacked[0].tolist()


# the generators random fields are drawn from: numpy's, in the tests and
# demos, and random.Random, in the identity battery
GENERATORS = (np.random.default_rng, random.Random)


def test_random_band_limited_determinism(grid16):
    for generator in GENERATORS:
        a = random_band_limited(grid16, generator(12))
        b = random_band_limited(grid16, generator(12))
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) == pytest.approx(1.0)


def test_random_fields_draw_only_random():
    # the draw contract: rng needs one method, random(); a field of m modes
    # takes 2 (m + 1) draws, 26 at kmax = 2 (12 modes and the mean's pair)
    # and 10 at kmax = 1, and a form one field per coefficient in order
    grid = BaseGrid(16)
    for kmax, draws in ((1, 10), (2, 26)):
        only_random = types.SimpleNamespace(random=random.Random(3).random)
        full = random.Random(3)
        assert np.array_equal(random_band_limited(grid, only_random, kmax=kmax),
                              random_band_limited(grid, full, kmax=kmax))
        counted = random.Random(3)
        for _ in range(draws):
            counted.random()
        assert full.random() == counted.random() == only_random.random()
    for degree in range(5):
        only_random = types.SimpleNamespace(random=random.Random(3).random)
        full = random.Random(3)
        a = random_form(grid, only_random, degree)
        assert np.array_equal(a.coeffs, random_form(grid, full, degree).coeffs)
        assert a.coeffs.shape == (math.comb(4, degree), 16, 16)
        assert only_random.random() == full.random()


@pytest.mark.parametrize("numpy_generator", (False, True))
@pytest.mark.parametrize("kmax", (1, 2, 3))
@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_random_band_limited_matches_direct_sum(n, kmax, numpy_generator):
    # same draws, same field to rounding, and the generator ends in the same
    # state (its next draw is equal), from numpy's generator or random.Random
    grid = BaseGrid(n)
    generator = GENERATORS[0] if numpy_generator else GENERATORS[1]
    for seed in range(20):
        rng_a, rng_b = generator(seed), generator(seed)
        a = random_band_limited(grid, rng_a, kmax=kmax)
        b = direct_band_limited(grid, rng_b, kmax=kmax)
        assert np.max(np.abs(a - b)) < 1e-13
        assert rng_a.random() == rng_b.random()


def test_random_band_limited_rejects_unresolved_modes(grid8):
    with pytest.raises(GridError, match="kmax"):
        random_band_limited(grid8, np.random.default_rng(0), kmax=4)


@pytest.mark.parametrize("kmax", (1.5, 2.0, True, "2"))
def test_random_band_limited_rejects_a_kmax_that_is_not_an_integer(grid16, kmax):
    # 1.5 and 2.0 failed inside numpy's indexing, and True ran as kmax = 1
    with pytest.raises(GridError, match="kmax must be an integer"):
        random_band_limited(grid16, random.Random(0), kmax=kmax)


@pytest.mark.parametrize("numpy_generator", (False, True))
@pytest.mark.parametrize("n", (8, 32))
def test_random_band_limited_lead_is_one_field_call_after_another(n, numpy_generator):
    # fields of shape (*lead, n, n) from one synthesis transform are bitwise
    # the one-field calls on the same generator, in C order of lead, and the
    # generator's next draw agrees afterwards
    grid = BaseGrid(n)
    generator = GENERATORS[0] if numpy_generator else GENERATORS[1]
    for lead, kmax in (((1,), 1), ((4,), 2), ((2, 3), 3), ((6,), 1)):
        for seed in range(5):
            rng_a, rng_b = generator(seed), generator(seed)
            fields = random_band_limited(grid, rng_a, kmax, lead)
            assert fields.shape == lead + (n, n)
            for field in fields.reshape(-1, n, n):
                assert field.tobytes() == random_band_limited(grid, rng_b, kmax).tobytes()
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_spectral_operations_equal_nd_wrapper_forms(n):
    # the 1-D transform pairs are how numpy composes rfft2 / irfft2, so the
    # results are bitwise equal
    grid = BaseGrid(n)
    rng = np.random.default_rng(n)
    values = rng.normal(size=(3, n, n))
    assert np.array_equal(grid.derivative(values), rfft2_derivative(grid, values))
    assert np.array_equal(grid.derivative(values[0]), rfft2_derivative(grid, values[0]))
    alpha = rng.normal(size=(4, n, n))
    assert np.array_equal(grid.d11(alpha), rfft2_d11(grid, alpha))
    rhs = values[1] - np.mean(values[1])
    assert np.array_equal(grid.partial_sums(rhs[None], vaisman_toolkit._SHIFT_TERMS),
                          rfft2_shift(grid, rhs))
    for kmax in (0, 1, 3, n // 2 - 1):
        for generator in GENERATORS:
            a = random_band_limited(grid, generator(kmax), kmax=kmax)
            b = rfft2_band_limited(grid, generator(kmax), kmax=kmax)
            assert np.array_equal(a, b)


# every term table of the package: the gradient, the Laplacian, d11, the
# split, the Lee form, the eps-seed's shift and d on each degree
TERM_TABLES = (invariant_forms._GRADIENT, LAPLACIAN, invariant_forms._D11,
               hermitian_geometry._SPLIT_TERMS, _LEE_TERMS, vaisman_toolkit._SHIFT_TERMS,
               *(invariant_forms._d_tables(k)[1] for k in range(4)))


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_symbols_are_half_spectrum_arrays_one_per_factor_and_names(n):
    # each symbol is a scalar or a C-contiguous (n, n/2 + 1) array, one per
    # distinct (factor, names), with 1.0 times one factor that factor; its
    # values are the product of the broadcast factors, bitwise
    grid = BaseGrid(n)
    half = (n, n // 2 + 1)
    factors = broadcast_factors(grid)
    symbols = {}
    for terms in TERM_TABLES:
        for row, symbol_row in zip(terms, grid._symbols(terms), strict=True):
            for (j, factor, names), (j_symbol, symbol) in zip(row, symbol_row, strict=True):
                assert j_symbol == j
                assert symbols.setdefault((factor, names), symbol) is symbol
                expected = math.prod((factors[name] for name in names), start=factor)
                assert np.broadcast_to(expected, np.shape(symbol)).tobytes() == \
                    np.asarray(symbol).tobytes()
    for value in (*grid._factors.values(), *symbols.values()):
        assert np.isscalar(value) or (value.shape == half and value.flags.c_contiguous)
    arrays = [value for value in symbols.values() if not np.isscalar(value)]
    assert len({id(value) for value in arrays}) == len(arrays)
    assert all(symbols[1.0, (name,)] is grid._factors[name] for name in ("ik_x", "ik_y"))
    assert len(grid._symbol_arrays) == len(symbols) - 2


@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_partial_sums_equal_the_broadcast_products_bitwise(n):
    # stacked inputs through every table, against symbols of (n, 1) and
    # (1, n/2 + 1) factors broadcast in each product
    grid = BaseGrid(n)
    rng = np.random.default_rng(n)
    for terms in TERM_TABLES:
        rows = 1 + max(j for row in terms for j, _, _ in row)
        values = rng.normal(size=(rows, 2, n, n))
        assert grid.partial_sums(values, terms).tobytes() == \
            broadcast_partial_sums(grid, values, terms).tobytes()


def test_mean_and_variance_are_numpys_bitwise(rng):
    # random, constant and signed-zero fields, one state and a stack
    for n in (8, 16, 32, 64):
        for values in (rng.normal(size=(n, n)), 1e3 * rng.normal(size=(3, n, n)) + 7.0,
                       np.full((n, n), 0.1), np.full((n, n), -0.0),
                       np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)):
            mean, variance = invariant_forms.mean_and_variance(values)
            assert mean.hex() == float(np.mean(values)).hex()
            assert variance.hex() == float(np.var(values)).hex()


def test_reduction_helpers_are_numpys_bitwise(rng):
    # largest, smallest and mean against the numpy functions they replace,
    # on random, signed-zero and NaN fields, one state and a stack, and the
    # grid's integral against np.mean over the grid axes
    for n in (8, 16, 32, 64):
        nan = rng.normal(size=(2, n, n))
        nan[1, 3, n - 1] = np.nan
        grid = BaseGrid(n)
        for values in (rng.normal(size=(n, n)), 1e3 * rng.normal(size=(3, n, n)) + 7.0,
                       np.where(rng.random((n, n)) < 0.5, -0.0, 0.0), nan):
            for helper, numpy_function in ((invariant_forms.largest, np.max),
                                           (invariant_forms.smallest, np.min),
                                           (invariant_forms.mean, np.mean)):
                assert helper(values).hex() == float(numpy_function(values)).hex()
            if not np.isnan(values).any():   # the integral scans its input
                assert np.asarray(grid.integral(values)).tobytes() == \
                    np.mean(values, axis=(-2, -1)).tobytes()


# _apply and wedge add or subtract each table term as its sign says; the
# oracles multiply the sign in, which is bitwise the same only for signs
# that are exactly +-1.0

def _table_signs():
    """(table, sign) of every entry of the wedge, J, contraction and d(e3) tables."""
    for p in range(5):
        for q in range(5 - p):
            for _, _, sign, _ in invariant_forms._wedge_table(p, q):
                yield f"wedge {p, q}", sign
    for k in range(5):
        for _, sign, _ in invariant_forms._j_table(k):
            yield f"J {k}", sign
    for k in range(1, 5):
        for ci in range(4):
            for _, sign, _ in invariant_forms._contract_table(k, ci):
                yield f"contract {k, ci}", sign
    for k in range(4):
        for _, sign, _ in invariant_forms._d_tables(k)[2]:
            yield f"d(e3) {k}", sign


def test_every_table_sign_is_exactly_plus_or_minus_one():
    signs = list(_table_signs())
    assert {table.split()[0] for table, _ in signs} == {"wedge", "J", "contract", "d(e3)"}
    bad = [(table, sign) for table, sign in signs
           if not (isinstance(sign, float) and sign in (1.0, -1.0))]
    assert not bad, bad


def _test_coefficients(rng, degree, lead, kind, n):
    values = rng.normal(size=(NCOMP[degree],) + lead + (n, n))
    if kind == "signed zeros":
        values = np.where(abs(values) > 1.5, values, np.copysign(0.0, values))
    elif kind == "nan":
        values.flat[rng.integers(values.size)] = np.nan
    return values


@pytest.mark.parametrize("kind", ["random", "signed zeros", "nan"])
def test_signed_tables_equal_the_multiplying_reference_bytewise(monkeypatch, grid8, kind):
    # every degree, stacked (2, n, n) forms and, for wedge, a stack against
    # one state; the NaN is one entry of each form
    rng = np.random.default_rng(len(kind))

    def form(degree, lead):
        coeffs = _test_coefficients(rng, degree, lead, kind, grid8.n)
        return InvariantForm._trusted(grid8, degree, coeffs)

    def reference(op, *args):
        with monkeypatch.context() as patch:
            patch.setattr(invariant_forms, "_apply", signed_apply)
            return op(*args)

    def same(x, y):
        return x.degree == y.degree and x.coeffs.shape == y.coeffs.shape and \
            x.coeffs.tobytes() == y.coeffs.tobytes()

    for p in range(5):
        a = form(p, (2,))
        for q in range(5 - p):
            for b in (form(q, (2,)), form(q, ())):
                assert same(wedge(a, b), signed_wedge(a, b)), (p, q, b.coeffs.shape)
        assert same(apply_J(a), reference(apply_J, a)), p
        for vertical in (V1, V2) if p else ():
            assert same(contract(vertical, a), reference(contract, vertical, a)), (p, vertical)
        if p < 4:
            assert same(exterior_d(a), reference(exterior_d, a)), p


# partial_sums runs in two complex work arrays owned by the grid: the
# spectrum of its inputs and the sums it inverts.  They grow to the largest
# call and are reused, so what a call returns must never live in them.

def _in_work_arrays(grid, result):
    return any(np.shares_memory(result, work) for work in grid._work_arrays)


def test_partial_sums_results_share_no_memory_with_the_work_arrays(grid16, rng):
    first = grid16.partial_sums(rng.normal(size=(3, 16, 16)), _LEE_TERMS)
    kept = first.copy()
    assert not _in_work_arrays(grid16, first)
    later = (grid16.d11(rng.normal(size=(4, 3, 16, 16))),  # a larger stack
             grid16.derivative(rng.normal(size=(16, 16))),  # a smaller one
             grid16.partial_sums(rng.normal(size=(1, 2, 16, 16)), LAPLACIAN),
             grid16.partial_sums(rng.normal(size=(3, 16, 16)), _LEE_TERMS))
    assert np.array_equal(first, kept)
    assert not any(_in_work_arrays(grid16, result) for result in later)


def test_partial_sums_after_a_bigger_stack_equals_a_fresh_grid(rng):
    used = BaseGrid(16)
    used.d11(rng.normal(size=(4, 5, 16, 16)))
    values = rng.normal(size=(3, 2, 16, 16))
    for terms in (_LEE_TERMS, LAPLACIAN, vaisman_toolkit._SHIFT_TERMS):
        assert np.array_equal(used.partial_sums(values, terms),
                              BaseGrid(16).partial_sums(values, terms))


def test_partial_sums_into_out_returns_out_bitwise(rng):
    # out may be rows of a larger array, as the flow's real work array is
    grid = BaseGrid(32)
    values = rng.normal(size=(3, 2, 32, 32))
    for terms in (_LEE_TERMS, LAPLACIAN, vaisman_toolkit._SHIFT_TERMS):
        expected = grid.partial_sums(values, terms)
        buf = np.full((len(terms) + 2, 2, 32, 32), np.nan)
        out = buf[1:-1]
        assert grid.partial_sums(values, terms, out) is out
        assert out.tobytes() == expected.tobytes()
        assert np.isnan(buf[0]).all() and np.isnan(buf[-1]).all()


def test_repeated_partial_sums_allocates_only_its_result():
    # once a shape has been seen, the spectra live in the work arrays and a
    # call allocates the real fields it returns and nothing of note besides
    n = 64
    grid = BaseGrid(n)
    values = np.random.default_rng(n).normal(size=(3, n, n))
    grid.partial_sums(values, _LEE_TERMS)
    tracemalloc.start()
    try:
        result = grid.partial_sums(values, _LEE_TERMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.nbytes + 4096, (peak, result.nbytes)
