"""Seed constructors and defect functionals."""

import numpy as np
import pytest

from ktflow.errors import GridError, PositivityError
from ktflow.flow_engine import FlowConfig
from ktflow.hermitian_geometry import MetricState, metric_split
from ktflow.invariant_forms import BaseGrid, base_integral
from ktflow.vaisman_toolkit import (assess, make_noncsc_vaisman, make_standard_vaisman,
                                    potential_residual)

from oracles import two_pair_laplacian


def test_standard_seed_fields(grid32):
    m = make_standard_vaisman(grid32, 2.5)
    assert np.all(m.u == 2.5)
    assert np.all(m.lam == 1.0)
    assert np.all(m.p == 0.0)
    assert np.all(m.q == 0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(PositivityError):
            make_standard_vaisman(grid32, bad)


def test_standard_seed_is_rigid_vaisman(grid32):
    for scale in (1.0, 0.5, 3.0):
        m = make_standard_vaisman(grid32, scale)
        rep = assess(m)
        assert rep.vaisman_defect < FlowConfig.vaisman_tol
        assert rep.pluriclosed_defect < 1e-13
        assert rep.lck_defect < 1e-13
        assert rep.vaisman_defect < 1e-26
        assert rep.s_var < 1e-26
        assert potential_residual(m) < 1e-12


def test_noncsc_seed_exact_splitting(grid32):
    m = make_noncsc_vaisman(grid32, 0.1)
    split = metric_split(m)
    # the Hodge solve is spectral and the data band limited: sigma_1 = -1
    # and sigma_2 = 0 to rounding, lam untouched
    assert np.max(np.abs(split.sigma1 + 1.0)) < 1e-12
    assert np.max(np.abs(split.sigma2)) < 1e-12
    assert np.var(m.lam) == 0.0
    # prescribed transverse area: u lam - p^2 - q^2 = 1 + eps sin sin
    two_pi = 2.0 * np.pi
    w = 1.0 + 0.1 * np.sin(two_pi * grid32.xx) * np.sin(two_pi * grid32.yy)
    assert np.max(np.abs(split.w_check - w)) < 1e-13


def test_noncsc_seed_is_nonrigid_vaisman(grid32):
    rep = assess(make_noncsc_vaisman(grid32, 0.1))
    assert rep.vaisman_defect < FlowConfig.vaisman_tol
    assert rep.vaisman_defect < 1e-14
    assert rep.pluriclosed_defect < 1e-10
    assert rep.lck_defect < 1e-10
    # the whole point of the seed: the curvature scalar is not constant
    assert rep.s_var > 1e-6


def test_noncsc_seed_s_variance_scales_with_eps(grid32):
    # quadratic leading order in eps
    v1 = assess(make_noncsc_vaisman(grid32, 0.05)).s_var
    v2 = assess(make_noncsc_vaisman(grid32, 0.1)).s_var
    assert 3.0 < v2 / v1 < 5.5


def test_noncsc_seed_modes_and_bounds(grid32):
    for mode in ((2, 1), (1, 3), (2, 2)):
        rep = assess(make_noncsc_vaisman(grid32, 0.1, mode=mode))
        assert rep.vaisman_defect < FlowConfig.vaisman_tol
        assert rep.s_var > 1e-7
    with pytest.raises(ValueError):
        make_noncsc_vaisman(grid32, 0.1, mode=(0, 1))
    with pytest.raises(ValueError):
        make_noncsc_vaisman(grid32, 0.1, mode=(1, -2))
    # the grid must resolve the mode: at n = 8, (4, 1) sits on the Nyquist
    # row and (5, 1) aliases to (3, 1)
    grid8 = BaseGrid(8)
    make_noncsc_vaisman(grid8, 0.1, mode=(3, 1))
    for mode in ((4, 1), (5, 1), (1, 4)):
        with pytest.raises(GridError, match="2 max"):
            make_noncsc_vaisman(grid8, 0.1, mode=mode)
    for bad in (0.5, -0.5, 0.9):
        with pytest.raises(PositivityError):
            make_noncsc_vaisman(grid32, bad)


@pytest.mark.parametrize("mode", ((1.5, 1), (True, 1), (1, 1.0), (1,), (1, 1, 1)),
                         ids=("fraction", "bool", "integral-float", "one", "three"))
def test_noncsc_seed_rejects_a_mode_that_is_not_two_integers(grid16, mode):
    # int(k) built (1.5, 1), (True, 1) and (1, 1.0) as the (1, 1) seed
    with pytest.raises(ValueError, match="mode must be two integers"):
        make_noncsc_vaisman(grid16, 0.1, mode)


def test_noncsc_eps_zero_matches_standard_bitwise(grid16):
    a = make_noncsc_vaisman(grid16, 0.0)
    b = make_standard_vaisman(grid16, 1.0)
    assert a.max_difference(b) == 0.0


def test_defects_respond_to_each_breakage(grid32):
    two_pi = 2.0 * np.pi
    bump = 0.2 * np.sin(two_pi * grid32.xx) * np.sin(two_pi * grid32.yy)
    # rough lam: not even pluriclosed
    rough_lam = MetricState(grid32, grid32.constant(1.0), 1.0 + bump,
                            grid32.zeros(), grid32.zeros())
    rep = assess(rough_lam)
    assert rep.pluriclosed_defect > 1e-3
    assert rep.vaisman_defect >= FlowConfig.vaisman_tol
    # rough u with constant lam: pluriclosed but sigma_1 = -1/u varies
    rough_u = MetricState(grid32, 1.0 + bump, grid32.constant(1.0),
                          grid32.zeros(), grid32.zeros())
    rep = assess(rough_u)
    assert rep.pluriclosed_defect < 1e-10
    assert rep.lck_defect > 1e-4
    assert rep.vaisman_defect > 1e-4
    assert rep.vaisman_defect >= FlowConfig.vaisman_tol


def test_report_carries_the_three_variances_of_the_vaisman_defect(grid32):
    # the trace's lambda_var, sigma1_var and sigma2_var columns are these
    # fields, and vaisman_defect is their sum in that order, bitwise
    two_pi = 2.0 * np.pi
    bump = 0.2 * np.sin(two_pi * grid32.xx) * np.sin(two_pi * grid32.yy)
    m = MetricState(grid32, 1.0 + bump, 1.0 - 0.5 * bump, 0.1 * bump, grid32.zeros())
    rep = assess(m)
    split = metric_split(m)
    variances = (rep.lambda_var, rep.sigma1_var, rep.sigma2_var)
    assert variances == (np.var(m.lam), np.var(split.sigma1), np.var(split.sigma2))
    assert all(v > 1e-6 for v in variances)
    assert rep.vaisman_defect == variances[0] + variances[1] + variances[2]


def test_basic_class_nontriviality(grid32):
    for scale in (1.0, 2.0, 0.5):
        split = metric_split(make_standard_vaisman(grid32, scale))
        assert abs(base_integral(split.omega_check) - scale) < 1e-13
    split = metric_split(make_noncsc_vaisman(grid32, 0.3))
    # the oscillation integrates away: the class does not move with eps
    assert abs(base_integral(split.omega_check) - 1.0) < 1e-13


@pytest.mark.parametrize("n", (8, 32))
@pytest.mark.parametrize("axis", (0, 1))
def test_pluriclosed_defect_drops_the_nyquist_mode(n, axis):
    # cos(pi n x) has no usable derivative on the grid; the Laplacian's
    # symbol ik_x ik_x + ik_y ik_y zeroes it, as the two-pair route does
    grid = BaseGrid(n)
    lam = 1.0 + 0.1 * np.cos(np.pi * n * (grid.xx, grid.yy)[axis])
    m = MetricState(grid, 1.0, lam, 0.0, 0.0)
    assert assess(m).pluriclosed_defect == 0.0
    assert np.max(np.abs(two_pair_laplacian(grid, lam))) == 0.0
