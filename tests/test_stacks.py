"""Stacks of states: each slice of a stacked result is bitwise the result of
its state alone, and what pools over the grid or writes one state refuses a
stack."""

import numpy as np
import pytest

from ktflow.cli_runner import emit_snapshot
from ktflow.errors import GridError
from ktflow.flow_engine import FlowConfig, run
from ktflow.hermitian_geometry import (_LEE_TERMS, MetricState, bismut_ricci,
                                       flow_velocity, inner_1forms, lee_form, metric_split)
from ktflow.invariant_forms import (V1, V2, BaseGrid, InvariantForm, apply_J,
                                    contract, exterior_d, p11_projection,
                                    random_band_limited, random_form, wedge)
from ktflow.vaisman_toolkit import assess, potential_residual

STACK = 3
GRID = BaseGrid(16)


def _draws():
    """(u, lam, p, q) of STACK random states, (4, STACK, n, n), and the
    coefficients of STACK random forms of each degree, (C(4, k), STACK, n, n)."""
    rng = np.random.default_rng(16)
    fields = np.stack([np.stack((1.0 + 0.3 * random_band_limited(GRID, rng),
                                 1.0 + 0.3 * random_band_limited(GRID, rng),
                                 0.2 * random_band_limited(GRID, rng),
                                 0.2 * random_band_limited(GRID, rng)))
                       for _ in range(STACK)], axis=1)
    forms = {k: np.stack([random_form(GRID, rng, k).coeffs for _ in range(STACK)], axis=1)
             for k in range(5)}
    return fields, forms


FIELDS, FORMS = _draws()


def _inputs(index):
    """A fresh state and a form of each degree: state index alone, or the stack for None."""
    take = slice(None) if index is None else index
    forms = {k: InvariantForm(GRID, k, coeffs[:, take]) for k, coeffs in FORMS.items()}
    return MetricState(GRID, *FIELDS[:, take]), forms


def _split_arrays(sp):
    return sp.mu1.coeffs, sp.mu2.coeffs, sp.omega_check.coeffs, sp.sigma1, sp.sigma2, sp.w_check


# each returns arrays whose stack axis is third from last, or a float that
# is a maximum over the stack
CASES = {
    "partial_sums": lambda m, f: (m.grid.partial_sums(np.stack((m.p, m.q, m.lam)), _LEE_TERMS),),
    "derivative": lambda m, f: (m.grid.derivative(m.upq),),
    "lam_laplacian": lambda m, f: (m.lam_data.laplacian,),
    "exterior_d": lambda m, f: tuple(exterior_d(f[k]).coeffs for k in range(4)),
    "wedge": lambda m, f: tuple(wedge(f[p], f[q]).coeffs
                                for p in range(5) for q in range(5 - p)),
    "apply_J": lambda m, f: tuple(apply_J(f[k]).coeffs for k in range(5)),
    "contract": lambda m, f: tuple(contract(v, f[k]).coeffs
                                   for v in (V1, V2) for k in range(1, 5)),
    "p11_projection": lambda m, f: (p11_projection(f[2]).coeffs,),
    "metric_split": lambda m, f: _split_arrays(metric_split(m)),
    "lee_form": lambda m, f: (lee_form(m).coeffs,),
    "flow_velocity": lambda m, f: (flow_velocity(m),),
    "bismut_ricci": lambda m, f: ((pkg := bismut_ricci(m)).rho.coeffs,
                                  pkg.rho11.coeffs, pkg.s, m.velocity),
    "inner_1forms": lambda m, f: (inner_1forms(m, f[1], m.theta),),
    "potential_residual": lambda m, f: (potential_residual(m),),
}


@pytest.mark.parametrize("case", CASES)
def test_stacked_states_equal_single_states_bitwise(case):
    stacked = CASES[case](*_inputs(None))
    singles = [CASES[case](*_inputs(i)) for i in range(STACK)]
    for k, out in enumerate(stacked):
        if np.ndim(out) == 0:
            assert out == max(single[k] for single in singles), (case, k)
            continue
        assert out.shape[-3] == STACK, (case, k)
        for i, single in enumerate(singles):
            part = out[..., i, :, :]
            assert part.shape == single[k].shape, (case, k, i)
            assert part.tobytes() == single[k].tobytes(), (case, k, i)


def _stack_of_two():
    return MetricState(BaseGrid(8), np.ones((2, 1, 1)), 1.0, 0.0, 0.0)


POOLING = {
    "run": lambda m, path: run(m, FlowConfig(dt=1e-5, t_end=3e-5, record_every=1)),
    "assess": lambda m, path: assess(m),
    "emit_snapshot": lambda m, path: emit_snapshot(m, str(path)),
}


@pytest.mark.parametrize("consumer", POOLING)
def test_consumers_of_one_state_refuse_a_stack(consumer, tmp_path):
    # each would pool the two states into one verdict, report or file
    m = _stack_of_two()
    assert m.lam.shape == (2, 8, 8)
    with pytest.raises(GridError, match=rf"{consumer} takes one state, "
                                        r"got fields of shape \(2, 8, 8\)"):
        POOLING[consumer](m, tmp_path / "state.json")
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("fields, shapes", (
    ((np.ones((2, 8, 8)), np.ones((3, 8, 8)), 0.0, 0.0), r"\(2, 8, 8\), \(3, 8, 8\)"),
    ((np.ones((16, 16)), 1.0, 0.0, 0.0), r"\(16, 16\), \(\)"),
), ids=("stacks-of-2-and-3", "wrong-resolution"))
def test_metric_state_rejects_fields_that_do_not_broadcast(fields, shapes):
    # numpy's broadcast raised ValueError here
    with pytest.raises(GridError, match=shapes + r".* do not broadcast to one shape "
                                                 r"\(\*stack, 8, 8\)"):
        MetricState(BaseGrid(8), *fields)
