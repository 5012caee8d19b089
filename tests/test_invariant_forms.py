import numpy as np
import pytest

from ktflow.errors import (DegreeError, GridError, NonBasicFormError,
                           NonFiniteFieldError)
from ktflow.invariant_forms import (BaseGrid, InvariantForm, V1, V2, apply_J,
                                    base_integral, basis_form, coframe,
                                    contract, exterior_d, form_from,
                                    function_form, p11_projection,
                                    random_band_limited, random_form, wedge,
                                    zero_form)


def test_grid_rejects_bad_sizes():
    for n in (0, 1, 4, 6, 7, 12, 33):
        with pytest.raises(GridError):
            BaseGrid(n)
    assert BaseGrid(8).n == 8
    assert BaseGrid(256).h == 1.0 / 256


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
    assert np.max(np.abs(grid32.derivative(f, "x") - fx)) < 1e-12
    assert np.max(np.abs(grid32.derivative(f, "y") - fy)) < 1e-12


def test_spectral_derivative_kills_nyquist(grid8):
    # the unpaired n/2 mode has no consistent odd derivative; it must map to 0
    f = np.cos(np.pi * 8 * grid8.xx)
    assert np.max(np.abs(grid8.derivative(f, "x"))) < 1e-12


def test_derivative_rejects_nonfinite(grid8):
    f = np.ones((8, 8))
    f[2, 5] = np.inf
    with pytest.raises(NonFiniteFieldError):
        grid8.derivative(f, "x")


def test_poisson_inverts_laplacian(grid32, rng):
    rhs = random_band_limited(grid32, rng, kmax=3, zero_mean=True)
    sol = grid32.poisson(rhs)
    lap = (grid32.derivative(grid32.derivative(sol, "x"), "x")
           + grid32.derivative(grid32.derivative(sol, "y"), "y"))
    assert np.max(np.abs(lap - rhs)) < 1e-11
    assert abs(np.mean(sol)) < 1e-13


def test_poisson_rejects_nonzero_mean(grid32):
    with pytest.raises(GridError):
        grid32.poisson(np.ones((32, 32)))


def test_form_coefficient_layout(grid8):
    alpha = form_from(grid8, 2, {(0, 1): 2.0, (2, 3): -1.0})
    assert np.all(alpha.coefficient(0, 1) == 2.0)
    assert np.all(alpha.coefficient(2, 3) == -1.0)
    # only increasing multi-indices name coefficients
    with pytest.raises(DegreeError):
        alpha.coefficient(1, 0)
    assert alpha.max_abs() == 2.0


def test_form_arithmetic_and_field_scaling(grid8):
    a = basis_form(grid8, (0, 2))
    b = basis_form(grid8, (1, 3))
    s = a + b - a
    assert (s - b).max_abs() == 0.0
    field = 1.0 + grid8.xx
    scaled = a * field
    assert np.all(scaled.coefficient(0, 2) == field)
    assert (2.0 * a - a * 2.0).max_abs() == 0.0
    with pytest.raises(DegreeError):
        a + coframe(grid8, 0)


def test_wedge_matches_hand_values(grid8):
    e = [coframe(grid8, i) for i in range(4)]
    w = wedge(e[0], e[1])
    assert np.all(w.coefficient(0, 1) == 1.0)
    assert (wedge(e[1], e[0]) + w).max_abs() == 0.0
    top = wedge(wedge(e[0], e[1]), wedge(e[2], e[3]))
    assert np.all(top.coefficient(0, 1, 2, 3) == 1.0)
    # e2^e1^e3 = -e1^e2^e3
    m = wedge(e[1], wedge(e[0], e[2]))
    assert np.all(m.coefficient(0, 1, 2) == -1.0)


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
    df = exterior_d(function_form(grid32, f))
    assert np.max(np.abs(df.coefficient(0) - 2 * np.pi * np.cos(2 * np.pi * grid32.xx))) < 1e-12
    assert np.max(np.abs(df.coefficient(1))) < 1e-13
    assert df.coefficient(2).max() == 0.0 and df.coefficient(3).max() == 0.0


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
    assert np.all(d.coefficient(0, 1) == -3.0)
    # d(e3^e4) = -e1^e2^e4
    d34 = exterior_d(basis_form(grid8, (2, 3)))
    assert (d34 + basis_form(grid8, (0, 1, 3))).max_abs() == 0.0
    # d(e1^e3) = +e1^e1^e2 = 0
    assert exterior_d(basis_form(grid8, (0, 2))).max_abs() == 0.0
    # d(e2^e3) = e2^e1^e2 = 0 but d(e1^e4) = 0 too
    assert exterior_d(basis_form(grid8, (1, 2))).max_abs() == 0.0


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
        expect = zero_form(grid8, 2)
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
    assert np.all(contract(V1, e3).coefficient() == 1.0)
    assert contract(V1, e4).max_abs() == 0.0
    assert np.all(contract(V2, e4).coefficient() == 1.0)
    assert contract(V1, coframe(grid8, 0)).max_abs() == 0.0
    # V1 into e3^e4 leaves e4; V2 into e3^e4 leaves -e3
    inner = contract(V1, basis_form(grid8, (2, 3)))
    assert (inner - e4).max_abs() == 0.0
    inner = contract(V2, basis_form(grid8, (2, 3)))
    assert (inner + e3).max_abs() == 0.0
    with pytest.raises(DegreeError):
        contract(V1, zero_form(grid8, 0))
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


def test_form_from_rejects_nonfinite(grid8):
    bad = np.ones((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteFieldError):
        form_from(grid8, 1, {(0,): bad})


def test_random_band_limited_determinism(grid16):
    a = random_band_limited(grid16, np.random.default_rng(12))
    b = random_band_limited(grid16, np.random.default_rng(12))
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) == pytest.approx(1.0)
    c = random_band_limited(grid16, np.random.default_rng(12), zero_mean=True)
    assert abs(np.mean(c)) < 1e-13
