from dataclasses import fields, replace

import numpy as np
import pytest

from ktflow.errors import (DegenerateTransverseError, NonFiniteFieldError,
                           PositivityError)
from ktflow.hermitian_geometry import (MetricSplit, MetricState, bismut_ricci,
                                       bismut_torsion, characteristic_numbers,
                                       flow_velocity, inner_1forms, lee_form,
                                       metric_split)
from ktflow.invariant_forms import (INDEX_POS, MULTI_INDEX, BaseGrid, InvariantForm,
                                    apply_J, base_integral, basis_form, coframe,
                                    exterior_d, random_band_limited, random_form, wedge)

from oracles import (JMAT, contraction_split, expression_flow_velocity, homogeneous_scalar,
                     koszul_fd_lowered, left_invariant_curvature,
                     metric_matrix, metric_tensor, moving_frame_curvature,
                     partials_flow_velocity, partials_lee_form,
                     partials_metric_split, two_pair_laplacian, wedge_lee_form)

RHO_COMPONENT_ORDER = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def random_state(grid, rng, rough=True, lam_const=False):
    u = 1.0 + 0.3 * random_band_limited(grid, rng)
    if lam_const:
        lam = np.full((grid.n, grid.n), 1.0 + 0.5 * rng.random())
    else:
        lam = 1.0 + 0.3 * random_band_limited(grid, rng)
    amp = 0.2 if rough else 0.0
    p = amp * random_band_limited(grid, rng)
    q = amp * random_band_limited(grid, rng)
    return MetricState(grid, u, lam, p, q)


def rho_matrix_at(pkg, ix, iy):
    out = np.zeros((4, 4))
    for pos, (i, j) in enumerate(RHO_COMPONENT_ORDER):
        out[i, j] = pkg.rho.coeffs[pos][ix, iy]
        out[j, i] = -out[i, j]
    return out


def test_state_positivity_enforcement(grid8):
    xx = grid8.xx
    m = MetricState(grid8, 1.0 + 0.0 * xx, np.full((8, 8), 2.0), 0.0 * xx, 0.0 * xx)
    m.require_positive()
    bad_u = MetricState(grid8, xx - 0.5, np.ones((8, 8)), 0.0 * xx, 0.0 * xx)
    with pytest.raises(PositivityError):
        bad_u.require_positive()
    # u, lam fine but the determinant fails where p is large
    bad_det = MetricState(grid8, np.ones((8, 8)), np.ones((8, 8)), 2.0 * xx, 0.0 * xx)
    with pytest.raises(PositivityError):
        bad_det.require_positive()
    assert bad_det.positivity_margin() < 0.0


def test_state_broadcast_and_nan_rejection(grid8):
    m = MetricState.constant(grid8, 2.0, 3.0, 0.5, -0.25)
    assert m.u.shape == (8, 8) and np.all(m.lam == 3.0)
    with pytest.raises(ValueError):   # read-only: the cached geometry stays valid
        m.u[0, 0] = 1.0
    bad = np.ones((8, 8))
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteFieldError):
        MetricState(grid8, bad, np.ones((8, 8)), 0 * bad, 0 * bad)


def test_omega_coefficients(grid8):
    m = MetricState.constant(grid8, 2.0, 3.0, 0.5, -0.25)
    om = m.omega()
    assert np.all(om.coeffs[INDEX_POS[2][(0, 1)]] == 2.0)
    assert np.all(om.coeffs[INDEX_POS[2][(2, 3)]] == 3.0)
    assert np.all(om.coeffs[INDEX_POS[2][(0, 2)]] == 0.5)
    assert np.all(om.coeffs[INDEX_POS[2][(1, 3)]] == 0.5)
    assert np.all(om.coeffs[INDEX_POS[2][(0, 3)]] == -0.25)
    assert np.all(om.coeffs[INDEX_POS[2][(1, 2)]] == 0.25)
    assert (apply_J(om) - om).max_abs() == 0.0


def test_metric_tensor_matches_hand_matrix(grid8, rng):
    # the hand matrix is g(E_i, E_j) = -omega(J E_i, E_j) of the state's omega,
    # and inner_1forms on the coframe is its inverse
    for _ in range(5):
        u0, lam0 = np.exp(0.4 * rng.normal(size=2))
        r = 0.7 * np.sqrt(u0 * lam0) * rng.random()
        ang = 2 * np.pi * rng.random()
        p0, q0 = r * np.cos(ang), r * np.sin(ang)
        m = MetricState.constant(grid8, u0, lam0, p0, q0)
        g = metric_tensor(m)[0, 0]
        assert np.max(np.abs(g - metric_matrix(u0, lam0, p0, q0))) < 1e-14
        om = np.zeros((4, 4))
        for pos, (i, j) in enumerate(MULTI_INDEX[2]):
            om[i, j] = m.omega().coeffs[pos][0, 0]
            om[j, i] = -om[i, j]
        assert np.max(np.abs(g + JMAT.T @ om)) < 1e-14
        gi = np.array([[inner_1forms(m, coframe(grid8, i), coframe(grid8, j))[0, 0]
                        for j in range(4)] for i in range(4)])
        assert np.max(np.abs(g @ gi - np.eye(4))) < 1e-13


def test_split_of_standard_state(grid8):
    m = MetricState.constant(grid8, 1.0, 1.0)
    sp = metric_split(m)
    assert (sp.mu1 - coframe(grid8, 2)).max_abs() == 0.0
    assert (sp.mu2 - coframe(grid8, 3)).max_abs() == 0.0
    assert (sp.omega_check - basis_form(grid8, (0, 1))).max_abs() == 0.0
    assert np.all(sp.sigma1 == -1.0)
    assert np.all(sp.sigma2 == 0.0)
    assert np.all(sp.w_check == 1.0)


def test_split_shear_components(grid8):
    m = MetricState.constant(grid8, 2.0, 4.0, 0.6, -0.8)
    sp = metric_split(m)
    # mu1 = (q/lam) e1 + (p/lam) e2 + e3, mu2 its J image with e4
    assert np.all(sp.mu1.coeffs[INDEX_POS[1][(0,)]] == -0.2)
    assert np.all(sp.mu1.coeffs[INDEX_POS[1][(1,)]] == 0.15)
    assert np.all(sp.mu1.coeffs[INDEX_POS[1][(2,)]] == 1.0)
    assert np.all(sp.mu2.coeffs[INDEX_POS[1][(0,)]] == -0.15)
    assert np.all(sp.mu2.coeffs[INDEX_POS[1][(1,)]] == -0.2)
    assert np.all(sp.mu2.coeffs[INDEX_POS[1][(3,)]] == 1.0)
    assert (apply_J(sp.mu1) - sp.mu2).max_abs() < 1e-15
    assert np.all(np.abs(sp.w_check - (2.0 - 1.0 / 4.0)) < 1e-15)


def test_split_identities_random(grid32, rng):
    for _ in range(12):
        m = random_state(grid32, rng)
        sp = metric_split(m)
        assert exterior_d(sp.omega_check).max_abs() < 1e-12
        assert (exterior_d(sp.mu1) - sp.omega_check * sp.sigma1).max_abs() < 1e-12
        assert (exterior_d(sp.mu2) - sp.omega_check * sp.sigma2).max_abs() < 1e-12
        rebuilt = sp.omega_check + wedge(sp.mu1, sp.mu2) * m.lam
        assert (m.omega() - rebuilt).max_abs() < 1e-13
        for mu in (sp.mu1, sp.mu2):
            dmu = exterior_d(mu)
            assert (apply_J(dmu) - dmu).max_abs() < 1e-12


def test_split_builds_mu2_and_omega_check_on_first_use(grid16, rng):
    # mu2 = J mu1 and omega_check = w_check e1^e2, once each; a split that
    # replace() gives another mu1 has that mu1's mu2
    sp = metric_split(random_state(grid16, rng))
    assert "mu2" not in vars(sp) and "omega_check" not in vars(sp)
    assert np.array_equal(sp.mu2.coeffs, apply_J(sp.mu1).coeffs)
    expected = np.zeros((6, 16, 16))
    expected[0] = sp.w_check
    assert np.array_equal(sp.omega_check.coeffs, expected)
    assert sp.mu2 is sp.mu2 and sp.omega_check is sp.omega_check
    swapped = replace(sp, mu1=InvariantForm(grid16, 1, sp.mu1.coeffs[[1, 0, 2, 3]]))
    assert np.array_equal(swapped.mu2.coeffs, apply_J(swapped.mu1).coeffs)


def test_split_rejects_degenerate_transverse(grid8):
    ones = np.ones((8, 8))
    thin = MetricState(grid8, ones, ones, np.sqrt(1.0 - 1e-13) * ones, 0.0 * ones)
    with pytest.raises(DegenerateTransverseError):
        metric_split(thin)


def test_lee_form_defining_property(grid32, rng):
    # on a surface every 3-form is theta^omega for a unique 1-form
    for _ in range(8):
        m = random_state(grid32, rng)
        theta = lee_form(m)
        om = m.omega()
        assert (exterior_d(om) - wedge(theta, om)).max_abs() < 1e-11


def test_lee_form_standard_value(grid8):
    theta = lee_form(MetricState.constant(grid8, 1.0, 1.0))
    assert (theta + coframe(grid8, 3)).max_abs() < 1e-14


def test_lee_formula_on_pluriclosed_states(grid32, rng):
    for _ in range(8):
        m = random_state(grid32, rng, lam_const=True)
        sp = metric_split(m)
        formula = sp.mu2 * (m.lam * sp.sigma1) + sp.mu1 * (-m.lam * sp.sigma2)
        assert (m.theta - formula).max_abs() < 1e-12


def test_lee_formula_with_varying_lam_converges_spectrally(rng):
    # on every state theta = lam (sigma1 mu2 - sigma2 mu1) + d log lam; log lam
    # is not band-limited, so on a varying-lam state the gap is a spectral
    # tail that must collapse with n
    seed = rng.integers(1 << 30)      # the same state at every n
    gaps = []
    for n in (16, 32, 64):
        grid = BaseGrid(n)
        m = random_state(grid, np.random.default_rng(seed))
        sp = m.split
        d_log_lam = exterior_d(InvariantForm(grid, 0, np.log(m.lam)[None]))
        formula = sp.mu2 * (m.lam * sp.sigma1) - sp.mu1 * (m.lam * sp.sigma2)
        gaps.append((m.theta - formula - d_log_lam).max_abs())
    assert gaps[0] / gaps[1] > 100.0
    assert gaps[1] / gaps[2] > 100.0
    assert gaps[2] < 1e-12


def test_closed_forms_match_oracles(rng):
    # lam varies: the closed forms against the wedge solve of the Lee form,
    # the contraction split and the inverse of the hand metric matrix
    for n in (16, 32, 64):
        grid = BaseGrid(n)
        for _ in range(3):
            m = random_state(grid, rng)
            assert (lee_form(m) - wedge_lee_form(m)).max_abs() < 1e-13
            sp, ref = metric_split(m), contraction_split(m)
            # every field and the two forms built on first use
            names = [field.name for field in fields(MetricSplit)] + ["mu2", "omega_check"]
            assert sorted(names) == sorted(ref)
            for name in names:
                gap = getattr(sp, name) - ref[name]
                if isinstance(gap, InvariantForm):
                    gap = gap.coeffs
                assert np.max(np.abs(gap)) < 1e-13, name
            alpha, beta = random_form(grid, rng, 1), random_form(grid, rng, 1)
            g_inv = np.linalg.inv(metric_tensor(m))
            expected = np.einsum("ixy,xyij,jxy->xy", alpha.coeffs, g_inv, beta.coeffs)
            assert np.max(np.abs(inner_1forms(m, alpha, beta) - expected)) < 1e-13


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_spectral_sums_match_partials_oracles(n):
    # sigma_i, theta and the velocity from spectral sums against the same
    # closed forms from every partial of the fields they differentiate
    grid = BaseGrid(n)
    for seed in range(5):
        m = random_state(grid, np.random.default_rng(seed))
        split = metric_split(m)
        for got, ref in zip((split.sigma1, split.sigma2), partials_metric_split(m)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref = partials_lee_form(m)
        assert (lee_form(m) - ref).max_abs() <= 1e-13 * ref.max_abs()
        ref = partials_flow_velocity(m)
        assert np.max(np.abs(flow_velocity(m) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", (16, 32, 64, 128))
def test_lam_laplacian_matches_two_pair_oracle(n):
    # one pair with the symbol ik_x ik_x + ik_y ik_y against the derivative
    # of the derivative, to rounding
    grid = BaseGrid(n)
    for seed in range(5):
        m = random_state(grid, np.random.default_rng(seed))
        ref = two_pair_laplacian(grid, m.lam)
        assert np.max(np.abs(m.lam_data.laplacian - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_velocity_equals_expression_oracle_bitwise(n):
    # the in-place assembly of theta, alpha, the partial sums and d11 against
    # the same operations as numpy expressions on fresh arrays
    grid = BaseGrid(n)
    for seed in range(5):
        m = random_state(grid, np.random.default_rng(seed))
        assert np.array_equal(flow_velocity(m), expression_flow_velocity(m))


def test_state_arrays_are_read_only(grid16, rng):
    # the (u, p, q) stack, D and the lam data, on a state and on one that
    # with_fields builds on it, which holds the same lam_data object
    m = random_state(grid16, rng)
    m.velocity, m.split, m.lam_data.laplacian
    moved = m.with_fields(m.upq + 1e-3 * m.velocity)
    assert not {"D", "u_min", "velocity", "split"} & set(vars(moved))
    assert moved.lam_data is m.lam_data and moved.lam is m.lam is m.lam_data.lam
    for state in (m, moved):
        assert state.upq.shape == (3, 16, 16)
        assert all(np.shares_memory(row, state.upq) for row in (state.u, state.p, state.q))
        for owner, names in ((state, ("upq", "u", "p", "q", "lam", "D")),
                             (state.lam_data, ("inv", "partials", "laplacian"))):
            for name in names:
                values = getattr(owner, name)
                assert not values.flags.writeable, name
                with pytest.raises(ValueError):
                    values[..., 0, 0] = 0.0


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_velocity_leaves_the_lee_form_bitwise(n):
    # the theta the velocity forms on the way is the state's m.theta
    grid = BaseGrid(n)
    for seed in range(5):
        m = random_state(grid, np.random.default_rng(seed))
        m.velocity
        assert "theta" in vars(m)
        assert np.array_equal(m.theta.coeffs, lee_form(m).coeffs)


@pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
def test_curvature_leaves_the_velocity_bitwise(n):
    # the curvature's alpha gives m.velocity, equal to flow_velocity on a
    # fresh state, and a velocity the state already has is kept
    grid = BaseGrid(n)
    for seed in range(5):
        m = random_state(grid, np.random.default_rng(seed))
        m.curvature
        assert "velocity" in vars(m)
        fresh = MetricState(grid, m.u, m.lam, m.p, m.q)
        assert np.array_equal(m.velocity, flow_velocity(fresh))
        velocity = fresh.velocity
        fresh.curvature
        assert fresh.velocity is velocity


def test_torsion_standard_and_closure(grid32, rng):
    H = bismut_torsion(MetricState.constant(grid32, 1.0, 1.0))
    assert (H + basis_form(grid32, (0, 1, 2))).max_abs() == 0.0
    # pluriclosed (lambda constant) states have closed torsion
    for _ in range(6):
        m = random_state(grid32, rng, lam_const=True)
        assert exterior_d(bismut_torsion(m)).max_abs() < 1e-11
    # a nonconstant lambda breaks it
    m = random_state(grid32, rng, lam_const=False)
    assert exterior_d(bismut_torsion(m)).max_abs() > 1e-4


def test_orthonormal_frame_properties(grid32, rng):
    for _ in range(6):
        m = random_state(grid32, rng)
        frame = moving_frame_curvature(m)["frame"]
        g = metric_tensor(m)
        gram = np.einsum("aixy,xyij,bjxy->abxy", frame, g, frame)
        assert np.max(np.abs(gram - np.eye(4)[:, :, None, None])) < 1e-12
        # J-adapted: J F0 = F1 and J F2 = F3
        jf0 = np.einsum("ki,ixy->kxy", JMAT, frame[0])
        jf2 = np.einsum("ki,ixy->kxy", JMAT, frame[2])
        assert np.max(np.abs(jf0 - frame[1])) < 1e-12
        assert np.max(np.abs(jf2 - frame[3])) < 1e-12


def test_bismut_ricci_standard_values(grid16):
    pkg = bismut_ricci(MetricState.constant(grid16, 1.0, 1.0))
    # rho = -e1^e2 and s = -1: curvature concentrates on the base
    assert (pkg.rho + basis_form(grid16, (0, 1))).max_abs() < 1e-13
    assert np.max(np.abs(pkg.s + 1.0)) < 1e-13
    assert (pkg.rho11 - pkg.rho).max_abs() < 1e-13
    H = bismut_torsion(MetricState.constant(grid16, 1.0, 1.0))
    assert (H + basis_form(grid16, (0, 1, 2))).max_abs() < 1e-14


def test_bismut_ricci_against_left_invariant_oracle(grid16, rng):
    for _ in range(8):
        u0, lam0 = np.exp(0.4 * rng.normal(size=2))
        r = 0.7 * np.sqrt(u0 * lam0) * rng.random()
        ang = 2 * np.pi * rng.random()
        p0, q0 = r * np.cos(ang), r * np.sin(ang)
        m = MetricState.constant(grid16, u0, lam0, p0, q0)
        pkg = bismut_ricci(m)
        o = left_invariant_curvature(u0, lam0, p0, q0)
        assert np.max(np.abs(rho_matrix_at(pkg, 3, 5) - o["rho"])) < 1e-9
        assert np.max(np.abs(pkg.s - o["s"])) < 1e-9
        assert abs(o["s"] - homogeneous_scalar(u0, lam0, p0, q0)) < 1e-11


def test_bismut_scalar_closed_form(grid16, rng):
    for _ in range(6):
        u0, lam0 = np.exp(0.3 * rng.normal(size=2))
        m = MetricState.constant(grid16, u0, lam0, 0.2 * rng.random(), -0.2 * rng.random())
        pkg = bismut_ricci(m)
        w = u0 - (float(m.p[0, 0]) ** 2 + float(m.q[0, 0]) ** 2) / lam0
        assert np.max(np.abs(pkg.s + lam0 / w ** 2)) < 1e-11


def _lc_state(grid):
    c1 = np.cos(2 * np.pi * grid.xx) * np.sin(2 * np.pi * grid.yy)
    c2 = np.sin(2 * np.pi * (grid.xx + grid.yy))
    return MetricState(grid, 1.0 + 0.25 * c1, 1.0 + 0.25 * c2, 0.1 * c2, 0.1 * c1)


def _rough_state(grid):
    c1 = np.cos(2 * np.pi * grid.xx) * np.sin(2 * np.pi * grid.yy)
    c2 = np.sin(2 * np.pi * (grid.xx + grid.yy))
    return MetricState(grid, 1.0 + 0.25 * c1, 1.0 + 0.25 * c2, 0.125 * c2,
                       0.125 * c1 * c2)


def test_levi_civita_against_fd_oracle():
    grid = BaseGrid(64)
    m = _lc_state(grid)
    pkg = moving_frame_curvature(m)
    K_fd = koszul_fd_lowered(m)
    frame = pkg["frame"]
    arr = np.moveaxis(frame, (0, 1), (-2, -1))
    B = np.moveaxis(np.linalg.inv(arr), (-2, -1), (0, 1))
    dB = np.zeros((4,) + B.shape)
    dB[:2] = grid.derivative(B)
    FaB = np.einsum("amxy,mjbxy->ajbxy", frame, dB)
    K_grid = (np.einsum("iaxy,ajbxy,kbxy->ijkxy", B, FaB, B)
              + np.einsum("iaxy,jbxy,abcxy,kcxy->ijkxy", B, B, pkg["gamma_lc"], B))
    assert np.max(np.abs(K_fd - K_grid)) < 1e-6


def _j_commutation_defect(pkg):
    jf = np.zeros((4, 4))
    jf[1, 0] = 1.0
    jf[0, 1] = -1.0
    jf[3, 2] = 1.0
    jf[2, 3] = -1.0
    gb = pkg["gamma_b"]
    left = np.einsum("kb,akcxy->abcxy", jf, gb)
    right = np.einsum("abkxy,ck->abcxy", gb, jf)
    return float(np.max(np.abs(left - right)))


def test_connection_j_commutation_and_closed_ricci_converge_spectrally():
    # both are exact identities of the continuum geometry; on rough rational
    # states the residual is set by the spectral tail and must collapse with n
    defects = []
    for n in (16, 32, 64):
        pkg = moving_frame_curvature(_rough_state(BaseGrid(n)))
        defects.append((_j_commutation_defect(pkg),
                        exterior_d(pkg["rho"]).max_abs()))
    for i in (0, 1):
        assert defects[0][i] / defects[1][i] > 100.0
        assert defects[1][i] / defects[2][i] > 100.0
    assert defects[2][0] < 1e-9
    assert defects[2][1] < 1e-8


def test_closed_form_matches_moving_frame_oracle_spectrally():
    # the closed form and the frame pipeline agree in the continuum; on the
    # two non-constant states above the gap is the spectral tail of the
    # pipeline's rank-4 stacks and must collapse with n
    for make in (_lc_state, _rough_state):
        gaps = []
        for n in (16, 32, 64):
            m = make(BaseGrid(n))
            pkg = bismut_ricci(m)
            o = moving_frame_curvature(m)
            gaps.append(((pkg.rho - o["rho"]).max_abs(),
                         (pkg.rho11 - o["rho11"]).max_abs(),
                         float(np.max(np.abs(pkg.s - o["s"])))))
        for i in range(3):
            assert gaps[0][i] / gaps[1][i] > 100.0
            assert gaps[1][i] / gaps[2][i] > 100.0
            assert gaps[2][i] < 1e-9


def test_ricci_closed_on_transverse_states(grid32):
    from ktflow.vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman
    for m in (make_standard_vaisman(grid32, 1.5),
              make_noncsc_vaisman(grid32, 0.1, (1, 1))):
        pkg = bismut_ricci(m)
        assert exterior_d(pkg.rho).max_abs() < 1e-12


def test_characteristic_numbers_universal(grid32, rng):
    # (-1, 0) for every state: the integrals see only the structure constant
    for _ in range(6):
        sp = metric_split(random_state(grid32, rng))
        c1, c2 = characteristic_numbers(sp)
        assert abs(c1 + 1.0) < 1e-12
        assert abs(c2) < 1e-12


def test_characteristic_numbers_match_base_integrals(rng):
    # the transform-free means against the integrals of d(mu_i) themselves
    for n in (16, 32, 64):
        for _ in range(3):
            sp = metric_split(random_state(BaseGrid(n), rng))
            numbers = characteristic_numbers(sp)
            for mu, number in zip((sp.mu1, sp.mu2), numbers):
                assert abs(base_integral(exterior_d(mu)) - number) < 1e-14


def test_connection_form_norms(grid32, rng):
    for _ in range(6):
        m = random_state(grid32, rng)
        sp = metric_split(m)
        inv_lam = 1.0 / m.lam
        assert np.max(np.abs(inner_1forms(m, sp.mu1, sp.mu1) - inv_lam)) < 1e-12
        assert np.max(np.abs(inner_1forms(m, sp.mu2, sp.mu2) - inv_lam)) < 1e-12
        assert np.max(np.abs(inner_1forms(m, sp.mu1, sp.mu2))) < 1e-12
