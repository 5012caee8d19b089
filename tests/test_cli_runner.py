"""Config grammar, identity battery, emission formats, exit codes."""

import argparse
import collections
import io
import itertools
import json
import math
import pathlib
import random
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import ktflow.cli_runner as cli_runner
import ktflow.flow_engine as flow_engine
import ktflow.hermitian_geometry as hermitian_geometry
import ktflow.identities as identities
import ktflow.invariant_forms as invariant_forms
from ktflow.cli_runner import (ExperimentConfig, emit_csv, emit_snapshot,
                               load_snapshot, main, parse_config,
                               run_experiment, serialize_config)
from ktflow.errors import ConfigError, PositivityError
from ktflow.flow_engine import FlowConfig, run
from ktflow.hermitian_geometry import MetricState
from ktflow.identities import identity_battery
from ktflow.invariant_forms import CONVENTIONS_VERSION, BaseGrid, InvariantForm
from ktflow.vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman

from oracles import _single_battery_states, broadcast_factors, per_state_battery

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.preset == "identity_suite" and cfg.n == 32


def test_parse_config_comments_and_values():
    text = """
    # a comment line
    preset = noncsc_vaisman
    epsilon = 0.2      # trailing comment
    mode = 2, 1
    n = 64
    """
    cfg = parse_config(text)
    assert cfg.preset == "noncsc_vaisman"
    assert cfg.epsilon == 0.2
    assert cfg.mode == (2, 1)
    assert cfg.n == 64


def test_serialize_parse_round_trip():
    cfg = ExperimentConfig(preset="custom", n=16, u0=1.25, lam0=0.75,
                           p0=0.125, q0=-0.25, dt=2e-5, t_end=1e-3,
                           seed=7, out_dir="somewhere")
    assert parse_config(serialize_config(cfg)) == cfg
    cfg = ExperimentConfig(out_dir="runs/n32 eps=0.1")
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("out_dir", ("/tmp/run#1", "/tmp/a\nn = 64", " x ", "", 5, b"x",
                                     "/tmp/a\0b"),
                         ids=("hash", "newline", "whitespace", "empty", "int", "bytes", "nul"))
def test_out_dir_that_a_config_cannot_hold_is_rejected(out_dir, capsys):
    # each would parse back as another directory or fail to parse:
    # "/tmp/run", a duplicate key 'n', "x" and an empty value; the int and
    # the bytes reach only the Python API, as the command line passes a str;
    # a NUL byte passed before and failed os.makedirs with a ValueError
    with pytest.raises(ConfigError, match="out_dir must be one nonempty line"):
        ExperimentConfig(out_dir=out_dir)
    if isinstance(out_dir, str):
        assert main(["suite", "--out-dir", out_dir]) == 2
        assert "out_dir must be one nonempty line" in capsys.readouterr().err


def test_experiment_flow_defaults_match_flow_config():
    # ExperimentConfig takes its seven flow defaults from FlowConfig's, so the
    # two stay equal unless a default is written out again in ExperimentConfig
    assert ExperimentConfig().flow_config() == FlowConfig()


def test_parse_config_line_numbered_errors():
    with pytest.raises(ConfigError, match="line 2: unknown key 'nn'"):
        parse_config("n = 16\nnn = 32\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
        parse_config("n = 16\n\nn = 32\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="line 1: empty value"):
        parse_config("n = \n")
    with pytest.raises(ConfigError, match="line 1: bad value for 'mode'"):
        parse_config("mode = 1\n")
    with pytest.raises(ConfigError, match="line 2: bad value for 'n'"):
        parse_config("# c\nn = eight\n")


def test_config_named_constraints():
    with pytest.raises(ConfigError, match="power of two >= 8, got 7"):
        ExperimentConfig(n=7)
    with pytest.raises(ConfigError, match="power of two >= 8, got 4"):
        ExperimentConfig(n=4)
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentConfig(epsilon=0.7)
    with pytest.raises(ConfigError, match="mode entries"):
        ExperimentConfig(mode=(0, 1))
    with pytest.raises(ConfigError, match="not resolved"):
        ExperimentConfig(n=8, mode=(1, 4))
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig(preset="mystery")
    with pytest.raises(ConfigError, match="u0"):
        ExperimentConfig(preset="custom", u0=-1.0)
    with pytest.raises(ConfigError, match="p0"):
        ExperimentConfig(preset="custom", u0=1.0, lam0=1.0, p0=1.5)
    with pytest.raises(ConfigError, match="degenerate transverse area"):
        # margin 1e-13 > 0, but the transverse area is below DEGENERACY_TOL
        ExperimentConfig(preset="custom", u0=1.0, lam0=1.0, p0=0.99999999999995)
    with pytest.raises(ConfigError, match="cfl_safety"):
        ExperimentConfig(cfl_safety=0.9)
    with pytest.raises(ConfigError, match="samples"):
        ExperimentConfig(samples=0)
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="tol"):
            ExperimentConfig(tol=tol)
    with pytest.raises(ConfigError, match="vaisman_tol"):
        ExperimentConfig(vaisman_tol=0.0)


@pytest.mark.parametrize("key, value", (
    ("n", 32.0), ("n", True), ("record_every", 2.5), ("samples", 2.5), ("seed", 1.5),
    ("mode", (1.5, 1)),
), ids=("n-float", "n-bool", "record_every", "samples", "seed", "mode"))
def test_config_rejects_non_integers(key, value):
    # a non-integral mode used to run as its truncation, and n = 32.0 raised
    # a bare TypeError from n & (n - 1)
    with pytest.raises(ConfigError, match=rf"{key}\b.*integer"):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.type == "float"])
def test_config_rejects_non_finite_or_non_real_floats(key):
    # each used to be accepted (u0 = nan, scale = inf, dt = True, ...), and
    # then the echoed config did not parse back; preset = stationary_csc
    # with scale = inf ran into a bare NonFiniteFieldError
    for value in (math.nan, math.inf, -math.inf, True, "0.1", 0.1j, None):
        with pytest.raises(ConfigError, match=rf"^{key} must be a finite real number"):
            ExperimentConfig(**{key: value})


def test_config_with_real_numbers_parses_back():
    # numpy's float64 repr is "np.float64(0.5)", which parse_config cannot read;
    # t_end is a whole number of the float32 steps, as a config's must be
    dt = np.float32(1e-4)
    cfg = ExperimentConfig(preset="custom", u0=2, lam0=np.float64(0.5), scale=3,
                           dt=dt, t_end=dt * 1024)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("mode", ((1,), (1, 1, 1), (), [1, 1]),
                         ids=("one", "three", "empty", "list"))
def test_config_rejects_a_mode_that_is_not_a_pair(mode):
    # (1,) raised IndexError while run_experiment echoed the config,
    # (1, 1, 1) a ValueError in the seed, and [1, 1] left the frozen config
    # unhashable
    with pytest.raises(ConfigError, match="mode must be a tuple of two integers"):
        ExperimentConfig(mode=mode)


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # random.Random seeds with |seed|, so -5 would draw the states of 5
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -5"):
        ExperimentConfig(seed=-5)
    cfgfile = tmp_path / "neg.cfg"
    cfgfile.write_text(f"seed = -5\nn = 8\nsamples = 1\nout_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "identity_battery.json").exists()


def test_identity_battery_all_green():
    items = identity_battery(n=32, samples=6, seed=5)
    names = [item.name for item in items]
    assert len(names) == len(set(names))
    assert len(items) >= 15
    for item in items:
        assert item.ok, f"{item.name}: {item.value:.3e} vs {item.bound:.2g}"
        d = item.as_dict()
        assert set(d) == {"name", "max_residual", "bound", "ok"}


def test_identity_battery_passes_on_twenty_seeds():
    for seed in range(20):
        items = identity_battery(n=16, samples=4, seed=seed)
        failed = [(item.name, item.value) for item in items if not item.ok]
        assert not failed, (seed, failed)


def test_identity_suite_passes_at_n8(tmp_path):
    # n = 8 is the smallest grid the config accepts; products of two kmax = 2
    # forms would reach mode 4, its Nyquist mode, and "leibniz rule" read 7-11
    for seed in range(20):
        items = identity_battery(n=8, samples=4, seed=seed)
        failed = [(item.name, item.value) for item in items if not item.ok]
        assert not failed, (seed, failed)
    cfg = ExperimentConfig(n=8, samples=4, out_dir=str(tmp_path))
    assert run_experiment(cfg, stream=io.StringIO()) == 0


def test_identity_battery_transform_budget(transform_fields, transform_calls):
    # n x n fields through BaseGrid._forward / _inverse.  exterior_d of
    # degree 0..3 moves 1/2, 4/5, 5/4, 2/1; derivative of s fields s/2s;
    # random_band_limited 0/1 per field drawn.
    #   hygiene: exactness 1/2 + structure equation 4/5 + a random pair
    #     for each of the 9 degree pairs (p, q), p <= 2 and p + q <= 3
    #     (d a once, shared by nilpotency and the Leibniz rule, d d a,
    #     d(a^b), d b: 118/122; the fields of the drawn coefficients:
    #     28 + 31 = 59)                                            = 123/188
    #   state draws: 8 random fields, 2 noncsc seeds (the shift
    #     (-psi_y, psi_x) 1/2)                                     =   2/12
    #   every state: split 2/2 (curl and divergence of the shift)
    #     + theta 3/4 (lam_x, lam_y, A, B) + d mu1 4/5 + d mu2 4/5
    #     + d omega 5/4                                            =  18/20
    #   general      2 x (18/20 + d H 2/1 + lam's Laplacian 1/1)   =  42/44
    #   lam_const    2 x 18/20                                     =  36/40
    #   constant     4 x (18/20 + potential d J theta 4/5)         =  88/100
    #   curvature: lam partials 1/2 + alpha from (p, q, log D) 3/4
    #     + rho = d alpha 4/5 + the velocity d11 of the same alpha 4/3
    #                                                              =  12/14
    #   csc_seed     2 x (18/20 + potential 4/5 + curvature 12/14) =  68/78
    #   noncsc_seed  2 x (18/20 + curvature 12/14)                 =  60/68
    # (445/561 when each pair took d a twice, once for nilpotency and once
    # for the Leibniz rule, hygiene 149/219 and 144/153 a pair set;
    # 453/557 when "ricci closedness" took d rho 5/4 on each seed state;
    # 487/594 with numpy's draws, when the curvature built alpha a second
    # time for s and d H ran on the lam-constant families; 447/550 when the
    # curvature took d J (theta - (1/2) d log D) by form algebra, 5/7, and s
    # from two wedges; 449/552 when each seed solved for psi 1/1 and then
    # differentiated it 1/2, 449/600 when the split and theta
    # inverse-transformed both partials of every field they differentiate,
    # 502/1063 when exterior_d did too; 433/541 when the forms drew 8
    # pairs of random degrees from random.Random(seed + 1), with hygiene
    # 137/199 on (2, 0), (1, 2), (0, 2), (1, 1), (0, 1), (0, 1), (0, 3),
    # (2, 0))
    # Calls: hygiene 2/2 on the grid and 4/4 a form pair, 36/36, plus one
    # inverse a drawn form, 18, = 38/56.  The 12 states go through the state
    # items in 5 stacks of up to four (general 2, lam_const 2, constant 4,
    # csc 2 and noncsc 2), 39/41 with their draws, one inverse a sample, so
    # 7 states share another's calls, which saves 49 calls each way: 5 a state
    # (split, theta, d mu1, d mu2, d omega) 7 x 5 = 35, 2 a general state
    # 1 x 2, 1 a potential (3 constant, 1 csc) 4 x 1 and 4 a curvature
    # (1 csc, 1 noncsc) 2 x 4.  (135/161 state by state; 86/153 when each
    # drawn coefficient and field was an inverse of its own, 41 + 6 more;
    # 81/143 with the 8 pairs of random degrees, hygiene 42/96; 86/106 when
    # each pair took d a twice, hygiene 47/65.)
    items = identity_battery(n=16, samples=2, seed=5)
    assert all(item.ok for item in items)
    assert transform_fields == [419, 530]
    assert transform_calls == [77, 97]


def test_adjacent_battery_seeds_draw_from_disjoint_streams(monkeypatch):
    # the seeds the battery hands random.Random at seed s and at s + 1 share
    # none; the forms drew from random.Random(s + 1), which is where the
    # states of seed s + 1 come from
    handed = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            handed.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(identities.random, "Random", Recording)

    def seeds(seed):
        handed.clear()
        identity_battery(n=8, samples=1, seed=seed)
        return set(handed)

    for seed in (0, 5, 2024):
        this, after = seeds(seed), seeds(seed + 1)
        assert this and after and not this & after, (this, after)


def test_identity_battery_memory_peak():
    # tracemalloc peak of one battery after a warm-up call, by states per
    # stack: 1.72, 2.09, 2.74, 3.48 and 4.88 MiB at 2, 3, 4, 5 and 8 (1.65,
    # 2.10, 2.75, 3.34 and 4.65 when each field was a transform of its own);
    # a larger stack has to show that its memory is worth its time
    identity_battery(32, 50, 21)
    tracemalloc.start()
    try:
        identity_battery(32, 50, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20, peak / 2**20


def test_readme_transform_call_counts(transform_calls):
    # "At n = N with S samples and seed K it makes A/B forward/inverse
    # transform calls instead of C/D": A/B the battery's counted calls, C/D
    # those of the state-by-state oracle
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"At n = (\d+) with (\d+) samples and seed (\d+) it makes (\d+)/(\d+)"
                      r" forward/inverse transform calls instead of (\d+)/(\d+)", text)
    assert found, "README.md states no transform call counts"
    n, samples, seed, *claimed = map(int, found.groups())
    identity_battery(n, samples, seed)
    counted = list(transform_calls)
    transform_calls[:] = [0, 0]
    per_state_battery(n, samples, seed)
    assert claimed == counted + transform_calls


def _family_states(states):
    """Each family's states as the bytes of their (u, lam, p, q), a stack's in order."""
    found = collections.defaultdict(list)
    for family, m in states:
        fields = np.stack((m.u, m.lam, m.p, m.q)).reshape(4, -1, m.grid.n ** 2)
        found[family] += [fields[:, i].tobytes() for i in range(fields.shape[1])]
    return found


def _battery_bytes(cfg, path):
    # identity_battery.json as run_experiment writes it, less its wall_time
    assert run_experiment(cfg, stream=io.StringIO()) == 0
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if '"wall_time"' not in line)


@pytest.mark.parametrize("n, samples, seeds", (
    (8, 4, range(20)), (16, 3, (5,)), (16, 5, (5,)), (16, 6, (5,)), (16, 7, (5,)),
    (32, 50, (21,)),
), ids=("n8-seeds0-19", "n16-odd-count", "n16-samples5", "n16-samples6", "n16-samples7",
        "n32"))
def test_identity_battery_matches_per_state_oracle(monkeypatch, tmp_path, n, samples, seeds):
    # the stacks of four give every item and the verdict bytes of the states
    # one by one; 3 samples make "general" and "lam_const" one stack of
    # three, 5, 6 and 7 samples end them on a stack of 1, 2 and 3 after one
    # of four, and n = 32 ends "constant" (6 states) on 4 + 2; each stack's
    # states are bitwise the oracle's, slice by slice
    for seed in seeds:
        grid = BaseGrid(n)
        assert (_family_states(identities._battery_states(grid, samples, seed))
                == _family_states(_single_battery_states(grid, samples, seed))), seed
        stacked = identity_battery(n, samples, seed)
        single = per_state_battery(n, samples, seed)
        assert ([(i.name, i.value, i.bound) for i in stacked]
                == [(i.name, i.value, i.bound) for i in single]), seed
        cfg = ExperimentConfig(n=n, samples=samples, seed=seed, out_dir=str(tmp_path))
        path = tmp_path / "identity_battery.json"
        written = _battery_bytes(cfg, path)
        with monkeypatch.context() as patch:
            patch.setattr(identities, "identity_battery", per_state_battery)
            assert written == _battery_bytes(cfg, path), seed


def _swapped_shift(monkeypatch):
    # a split whose mu1 carries the shift (b, a) in place of (a, b), on a
    # state or a stack of states
    true_split = hermitian_geometry.metric_split

    def wrong_shift(m):
        sp = true_split(m)
        return replace(sp, mu1=InvariantForm(m.grid, 1, sp.mu1.coeffs[[1, 0, 2, 3]]))

    monkeypatch.setattr(hermitian_geometry, "metric_split", wrong_shift)


def _patch_d1(monkeypatch, tables):
    # exterior_d on 1-forms reads tables; every other degree keeps its own
    true_tables = invariant_forms._d_tables
    monkeypatch.setattr(invariant_forms, "_d_tables",
                        lambda k: tables if k == 1 else true_tables(k))


def _flipped_d_sign(monkeypatch):
    # d on 1-forms gives the e1^e2 component +a1_y + a2_x, not -a1_y + a2_x
    first, spectral, struct = invariant_forms._d_tables(1)
    (j, sign, symbol), *rest = spectral[0]
    spectral = (((j, -sign, symbol), *rest),) + spectral[1:]
    _patch_d1(monkeypatch, (first, spectral, struct))


def _dropped_structure_term(monkeypatch):
    # d on 1-forms loses the d(e3) = -e1^e2 term
    first, spectral, _ = invariant_forms._d_tables(1)
    _patch_d1(monkeypatch, (first, spectral, ()))


def _flipped_curl_sign(monkeypatch):
    # the split's curl reads b_x + a_y, not b_x - a_y
    (b_x, (j, sign, symbol)), div = hermitian_geometry._SPLIT_TERMS
    monkeypatch.setattr(hermitian_geometry, "_SPLIT_TERMS", ((b_x, (j, -sign, symbol)), div))


def _flipped_div_sign(monkeypatch):
    # the split's divergence reads -a_x + b_y, not a_x + b_y
    curl, ((j, sign, symbol), b_y) = hermitian_geometry._SPLIT_TERMS
    monkeypatch.setattr(hermitian_geometry, "_SPLIT_TERMS", (curl, ((j, -sign, symbol), b_y)))


def _flipped_lee_b_sign(monkeypatch):
    # the Lee pass reads B + lam = p_x + q_y, not p_x - q_y
    A, (p_x, (j, sign, symbol)), *rest = hermitian_geometry._LEE_TERMS
    monkeypatch.setattr(hermitian_geometry, "_LEE_TERMS", (A, (p_x, (j, -sign, symbol)), *rest))


def _flipped_lee_a_sign(monkeypatch):
    # the Lee pass reads A = p_y + q_x, not -(p_y + q_x)
    A, *rest = hermitian_geometry._LEE_TERMS
    flipped = tuple((j, -sign, symbol) for j, sign, symbol in A)
    monkeypatch.setattr(hermitian_geometry, "_LEE_TERMS", (flipped, *rest))


def _flipped_d11_sign(monkeypatch):
    # the flow's d11 reads c12 = -a2_x - a1_y - a3, not a2_x - a1_y - a3
    ((j, sign, symbol), *c12), *rest = invariant_forms._D11
    monkeypatch.setattr(invariant_forms, "_D11", (((j, -sign, symbol), *c12), *rest))


def _flipped_laplacian_sign(monkeypatch):
    # lam's Laplacian, the flow's pluriclosed defect, reads lam_xx - lam_yy
    (xx, (j, sign, symbol)), = hermitian_geometry.LAPLACIAN
    monkeypatch.setattr(hermitian_geometry, "LAPLACIAN", ((xx, (j, -sign, symbol)),))


def _flipped_gradient_sign(monkeypatch):
    # BaseGrid.derivative returns -f_x in place of f_x
    ((j, sign, symbol),), dy = invariant_forms._GRADIENT
    monkeypatch.setattr(invariant_forms, "_GRADIENT", (((j, -sign, symbol),), dy))


def _flipped_j_sign(monkeypatch):
    # J on 1-forms takes e1 to -e2, so J J e1 = e1
    true_table = invariant_forms._j_table
    (i_in, sign, i_out), *rest = true_table(1)
    table = ((i_in, -sign, i_out), *rest)
    monkeypatch.setattr(invariant_forms, "_j_table", lambda k: table if k == 1 else true_table(k))


def _patch_wedge(monkeypatch, key, table):
    # wedge of degrees key reads table; the contraction tables, which the
    # d tables read too, stay as cached from the true wedge tables
    for k in range(1, 5):
        for ci in range(4):
            invariant_forms._contract_table(k, ci)
    true_table = invariant_forms._wedge_table
    monkeypatch.setattr(invariant_forms, "_wedge_table",
                        lambda p, q: table if (p, q) == key else true_table(p, q))


def _flipped_wedge_sign(monkeypatch):
    # e1 ^ e2^e3 = -e1^e2^e3, while its partner e2^e3 ^ e1 in the (2, 1)
    # table keeps its sign
    (ia, ib, sign, i_out), *rest = invariant_forms._wedge_table(1, 2)
    _patch_wedge(monkeypatch, (1, 2), ((ia, ib, -sign, i_out), *rest))


def _flipped_wedge_pair(monkeypatch):
    # e3 ^ e4 = -e3^e4 and e4 ^ e3 = e3^e4: one sign flipped with its
    # partner, so wedge stays graded-symmetric but d is no derivation of it
    e34 = invariant_forms.INDEX_POS[2][(2, 3)]
    table = tuple((ia, ib, -sign if i_out == e34 else sign, i_out)
                  for ia, ib, sign, i_out in invariant_forms._wedge_table(1, 1))
    _patch_wedge(monkeypatch, (1, 1), table)


def _flipped_structure_sign(monkeypatch):
    # d on 1-forms takes d(e3) = +e1^e2, so d mu1 integrates to +1
    first, spectral, struct = invariant_forms._d_tables(1)
    _patch_d1(monkeypatch, (first, spectral, tuple((i, -sign, o) for i, sign, o in struct)))


ITEM_MUTATIONS = (
    pytest.param(_swapped_shift, "connection forms by contraction", id="swapped-shift"),
    pytest.param(_flipped_d_sign, "exterior nilpotency", id="flipped-d-sign"),
    pytest.param(_dropped_structure_term, "structure equation", id="dropped-structure-term"),
    pytest.param(_flipped_curl_sign, "first curvature ratio", id="flipped-curl-sign"),
    pytest.param(_flipped_lee_a_sign, "lee form defining property", id="flipped-lee-a-sign"),
    pytest.param(_flipped_div_sign, "second curvature ratio", id="flipped-div-sign"),
    pytest.param(_flipped_lee_b_sign, "lee form formula", id="flipped-lee-b-sign"),
    pytest.param(_flipped_d11_sign, "transverse ricci", id="flipped-d11-sign"),
    pytest.param(_flipped_d11_sign, "ricci (1,1) velocity", id="flipped-d11-sign-velocity"),
    pytest.param(_flipped_laplacian_sign, "torsion closure", id="flipped-laplacian-sign"),
    pytest.param(_flipped_gradient_sign, "spectral derivative exactness",
                 id="flipped-gradient-sign"),
    pytest.param(_flipped_wedge_pair, "leibniz rule", id="flipped-wedge-pair"),
    pytest.param(_flipped_j_sign, "complex structure squares", id="flipped-j-sign"),
    pytest.param(_flipped_wedge_sign, "wedge graded symmetry", id="flipped-wedge-sign"),
    pytest.param(_flipped_wedge_pair, "state reassembly", id="flipped-wedge-pair-reassembly"),
    pytest.param(_flipped_structure_sign, "characteristic numbers",
                 id="flipped-structure-sign"),
    pytest.param(_flipped_lee_b_sign, "lee norm identity", id="flipped-lee-b-sign-norm"),
    pytest.param(_flipped_j_sign, "potential identity", id="flipped-j-sign-potential"),
)

# battery items with no mutation in ITEM_MUTATIONS, each with the reason
# none exists; every item has one today
WAIVERS = {}


@pytest.mark.parametrize("mutate, name", ITEM_MUTATIONS)
def test_identity_battery_item_can_fail(monkeypatch, mutate, name):
    # each mutation leaves the battery able to finish, and the named item
    # fails by far (it reads 0.506, 161, 1, 4.74, 5.28, 4.33, 4.46, 17.4,
    # 17.4 and 70.6; the d11 sign reaches "transverse ricci" through s =
    # -d/dt log D and "ricci (1,1) velocity" through m.velocity, and the
    # Laplacian's sign "torsion closure" through m.lam_data.laplacian).  The
    # table signs of the other eight read 12.6, 19.7, 2, 1.53, 3.73, 2,
    # 16.9 and 0.825: the wedge pair reaches "state reassembly" through
    # lam mu1^mu2, the Lee pass's B sign "lee norm identity" through theta,
    # and J's sign "potential identity" through d J theta.  d's sign on
    # 1-forms shows in "exterior nilpotency" only through d d of a 0-form,
    # and the wedge pair's e3^e4 in "leibniz rule" only where a 1-form
    # meets a 1-form with an e3 or e4 part, so the form pairs cover every
    # pair of degrees (identities._FORM_DEGREES) rather than drawing them
    mutate(monkeypatch)
    items = {item.name: item for item in identity_battery(n=16, samples=2, seed=5)}
    item = items[name]
    assert not item.ok and item.value > 1e-3, item.value


def test_every_battery_item_has_a_mutation_or_a_waiver():
    names = [name for name, _, _, _ in identities.IDENTITIES]
    assert len(names) == len(set(names)) == 18
    mutated = {case.values[1] for case in ITEM_MUTATIONS}
    assert mutated <= set(names), mutated - set(names)
    assert not mutated & set(WAIVERS), mutated & set(WAIVERS)
    assert all(isinstance(reason, str) and reason.strip() for reason in WAIVERS.values())
    assert [name for name in names if name not in mutated and name not in WAIVERS] == []


def _nan_inner_product(monkeypatch):
    monkeypatch.setattr(identities, "inner_1forms",
                        lambda m, alpha, beta: np.full_like(m.lam, np.nan))


def _nan_second_contraction(monkeypatch):
    # the second part of the item's two-part residual, mu2 - (1/lam) V1 . omega
    contract = identities.contract
    monkeypatch.setattr(identities, "contract", lambda vertical, alpha: (
        contract(vertical, alpha) * (np.nan if vertical == identities.V1 else 1.0)))


def _nan_second_integral(monkeypatch):
    # every second call is the integral of d mu2, the second part of the residual
    base_integral, calls = identities.base_integral, itertools.count()
    monkeypatch.setattr(identities, "base_integral", lambda beta: (
        base_integral(beta) * (np.nan if next(calls) % 2 else 1.0)))


def _nan_rho11_c34(monkeypatch):
    # c34 is the fourth of the six peaks of the residual
    p11_projection = hermitian_geometry.p11_projection

    def projection(beta):
        coeffs = p11_projection(beta).coeffs.copy()
        coeffs[5] = np.nan
        return InvariantForm._trusted(beta.grid, 2, coeffs)
    monkeypatch.setattr(hermitian_geometry, "p11_projection", projection)


@pytest.mark.parametrize("mutate, name", (
    pytest.param(_nan_inner_product, "lee norm identity", id="running-maximum"),
    pytest.param(_nan_second_contraction, "connection forms by contraction",
                 id="connection-forms"),
    pytest.param(_nan_second_integral, "characteristic numbers", id="characteristic-numbers"),
    pytest.param(_nan_rho11_c34, "ricci (1,1) velocity", id="ricci-velocity"),
))
def test_identity_battery_nan_residual_fails(monkeypatch, mutate, name):
    # the builtin max keeps its first argument against a later nan, so a nan
    # residual was dropped and the item passed ("lee norm identity" read 0.0)
    mutate(monkeypatch)
    items = {item.name: item for item in identity_battery(n=16, samples=3, seed=5)}
    assert np.isnan(items[name].value) and not items[name].ok


@pytest.mark.parametrize("n", (8, 256))
def test_transverse_ricci_bound_can_fail(n):
    # the residual grows as n^2 (rho and s are second derivatives), and the
    # bound 5e-16 n^2 keeps a 10x margin over it from n = 8 to 256, where
    # the fixed 1e-8 was 1e7 times the residual at n = 8
    item = {item.name: item for item in identity_battery(n=n, samples=2, seed=5)}[
        "transverse ricci"]
    assert item.bound == 5e-16 * n * n
    assert 10 * item.value < item.bound < 1000 * item.value, (item.value, item.bound)


@pytest.mark.parametrize("n", (8, 256))
def test_lee_norm_identity_bound_can_fail(n):
    # the residual grows about as n (theta and sigma are first derivatives),
    # and the bound 6e-14 n keeps a 10x margin over the worst of seeds 0-99
    # from n = 8 to 256, where the fixed 1e-10 was 3500 times it at n = 8
    item = {item.name: item for item in identity_battery(n=n, samples=2, seed=5)}[
        "lee norm identity"]
    assert item.bound == 6e-14 * n
    assert 10 * item.value < item.bound < 1000 * item.value, (item.value, item.bound)


@pytest.mark.parametrize("n", (8, 512))
def test_derivative_exactness_bound_can_fail(monkeypatch, n):
    # the item's one residual (a fixed input) reads 3.6e-15 at n = 8 and
    # 1.66e-12 at n = 512, where the fixed 1e-12 failed it on working code;
    # the bound keeps 1e-12 up to n = 256.  Computed from the item's own
    # residual, as a whole battery at n = 512 takes 7 s and 780 MiB
    (bound, residual), = [(bound, residual) for name, bound, _, residual
                          in identities.IDENTITIES if name == "spectral derivative exactness"]
    assert [bound(k) for k in (8, 16, 32, 64, 128, 256)] == [1e-12] * 6
    assert bound(n) == max(1e-12, 3.9e-15 * n)
    grid = BaseGrid(n)
    assert residual(grid) < bound(n)
    _flipped_gradient_sign(monkeypatch)
    assert residual(grid) > bound(n)


def _short_trace(n=16):
    grid = BaseGrid(n)
    m = make_noncsc_vaisman(grid, 0.1)
    return run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=1))


def _frozen_flow(monkeypatch):
    # every velocity, of a stage or a record, reads zero: the state never
    # moves, and each record's s = -d/dt log D reads zero
    monkeypatch.setattr(hermitian_geometry, "flow_velocity", lambda m: np.zeros_like(m.upq))


def _bumped_flow(monkeypatch):
    # every velocity's du gains sin(2 pi x), so u, and with it sigma1,
    # varies in space, and each record's s follows the bumped velocity
    true_velocity = hermitian_geometry.flow_velocity
    monkeypatch.setattr(hermitian_geometry, "flow_velocity", lambda m: true_velocity(m)
                        + np.stack((np.sin(2.0 * np.pi * m.grid.xx), m.grid.zeros(),
                                    m.grid.zeros())))


def _unweighted_characteristic_numbers(monkeypatch):
    # the trace's characteristic numbers drop the area w_check: mean(sigma_i)
    # moves with u, where mean(sigma_i w_check) does not
    monkeypatch.setattr(flow_engine, "characteristic_numbers", lambda split: (
        float(np.mean(split.sigma1)), float(np.mean(split.sigma2))))


FLOW_RUNS = {
    "stationary_csc": "preset = stationary_csc\nn = 16\ndt = 1e-4\nt_end = 1e-3\n",
    "noncsc_vaisman": ("preset = noncsc_vaisman\nn = 32\nepsilon = 0.1\nmode = 2,1\n"
                       "dt = 1e-4\nt_end = 2e-3\n"),
}

FLOW_MUTATIONS = (
    pytest.param(_bumped_flow, "stationary_csc", "stays vaisman", id="bumped-flow"),
    pytest.param(_frozen_flow, "noncsc_vaisman", "leaves vaisman", id="frozen-flow"),
    pytest.param(_frozen_flow, "noncsc_vaisman", "exit time recorded", id="frozen-flow-exit"),
    pytest.param(_unweighted_characteristic_numbers, "stationary_csc",
                 "characteristic numbers conserved", id="unweighted-characteristic-numbers"),
)

# flow assertions with no mutation in FLOW_MUTATIONS, each with the reason
# none exists
FLOW_WAIVERS = {
    "pluriclosed preserved": "lam is frozen by construction and every preset seed has a "
                             "constant lam, whose max |lap lam| reads exactly 0.0; every "
                             "symbol of a Laplacian table vanishes on the zero mode, so no "
                             "table mutation moves it either (ROADMAP item 4)",
}


@pytest.mark.parametrize("mutate, preset, name", FLOW_MUTATIONS)
def test_flow_assertion_can_fail(tmp_path, monkeypatch, mutate, preset, name):
    # each mutation leaves the run able to finish, and the named check fails;
    # the frozen flow passed "leaves vaisman" while the check read the seed's
    # Var(s) ("PASS  leaves vaisman: max defect 1.154e-32")
    mutate(monkeypatch)
    stream = io.StringIO()
    assert run_experiment(parse_config(FLOW_RUNS[preset] + f"out_dir = {tmp_path}\n"),
                          stream) == 1
    assert re.search(rf"^FAIL  {name}: ", stream.getvalue(), re.M), stream.getvalue()
    verdict = json.loads((tmp_path / f"{preset}_verdict.json").read_text())
    assert {a["name"]: a["ok"] for a in verdict["assertions"]}[name] is False


def test_every_flow_assertion_has_a_mutation_or_a_waiver():
    monitors = {"stays_vaisman": True, "max_vaisman_defect": 0.0, "exit_time": None,
                "max_pluriclosed_defect": 0.0, "char_drift_rate": 0.0}
    names = {name for preset in cli_runner.PRESETS if preset != "identity_suite"
             for name, _, _ in cli_runner._flow_assertions(ExperimentConfig(preset=preset),
                                                           monitors)}
    assert len(names) == 5
    mutated = {case.values[2] for case in FLOW_MUTATIONS}
    assert mutated <= names, mutated - names
    assert not mutated & set(FLOW_WAIVERS), mutated & set(FLOW_WAIVERS)
    assert all(isinstance(reason, str) and reason.strip() for reason in FLOW_WAIVERS.values())
    assert [name for name in sorted(names) if name not in mutated | set(FLOW_WAIVERS)] == []


def test_csv_round_trip_bit_exact(tmp_path):
    tr = _short_trace()
    path = tmp_path / "trace.csv"
    emit_csv(tr, str(path))
    cols = np.genfromtxt(path, delimiter=",", names=True)
    assert cols.dtype.names == flow_engine.TRACE_COLUMNS
    for name, col in tr.columns.items():
        assert np.array_equal(cols[name], col), name


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = BaseGrid(16)
    m = make_noncsc_vaisman(grid, 0.3, mode=(2, 2))
    path = tmp_path / "state.json"
    emit_snapshot(m, str(path))
    back = load_snapshot(str(path), grid)
    assert m.max_difference(back) == 0.0
    # grid reconstructed from the payload when not supplied
    again = load_snapshot(str(path))
    assert again.grid.n == 16 and m.max_difference(again) == 0.0


def test_snapshot_bytes_match_streaming_encoder(tmp_path):
    # the one-shot C encoder writes what json.dump's streaming Python encoder
    # writes, down to signed zeros, subnormals and the largest float
    grid = BaseGrid(8)
    rng = np.random.default_rng(7)
    awkward = rng.normal(size=(8, 8)) * 10.0 ** rng.integers(-300, 300, size=(8, 8))
    awkward.flat[:5] = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16)
    m = MetricState(grid, awkward, 1.0 / 3.0, rng.random((8, 8)), -awkward)
    path = tmp_path / "state.json"
    emit_snapshot(m, str(path))
    streamed = io.StringIO()
    json.dump({"format": "ktflow-state", "conventions": CONVENTIONS_VERSION,
               "n": 8, "u": m.u.tolist(), "lam": m.lam.tolist(),
               "p": m.p.tolist(), "q": m.q.tolist()}, streamed)
    streamed.write("\n")
    assert path.read_text() == streamed.getvalue()


def _signed_zeros():
    signed = np.where(np.arange(64).reshape(8, 8) % 3 == 0, -0.0, 0.0)
    return MetricState(BaseGrid(8), 2.0, 1.0, signed, -signed)


def _all_distinct():
    fields = 0.5 + np.random.default_rng(3).random((4, 16, 16))
    assert np.unique(fields).size == fields.size
    return MetricState(BaseGrid(16), *fields)


SNAPSHOT_CASES = {
    "signed-zeros": _signed_zeros,
    "constant": lambda: MetricState.constant(BaseGrid(16), 1.7, 0.9, 0.3, -0.2),
    "rigid": lambda: run(make_standard_vaisman(BaseGrid(16), 1.37),
                         FlowConfig(dt=2e-5, t_end=6e-5, record_every=1)).final_state,
    "noncsc": lambda: make_noncsc_vaisman(BaseGrid(64), 0.1, (2, 1)),
    "all-distinct": _all_distinct,
}


@pytest.mark.parametrize("case", SNAPSHOT_CASES)
def test_snapshot_bytes_match_json_dumps(tmp_path, case):
    # each distinct value is formatted once, keyed by its bits, so a field
    # holding 0.0 and -0.0 keeps both; every case reloads bit for bit
    m = SNAPSHOT_CASES[case]()
    path = tmp_path / "state.json"
    emit_snapshot(m, str(path))
    expected = json.dumps({"format": "ktflow-state", "conventions": CONVENTIONS_VERSION,
                           "n": m.grid.n, "u": m.u.tolist(), "lam": m.lam.tolist(),
                           "p": m.p.tolist(), "q": m.q.tolist()})
    assert path.read_text() == expected + "\n"
    back = load_snapshot(str(path))
    for key in ("u", "lam", "p", "q"):
        assert np.array_equal(getattr(back, key).view(np.int64),
                              getattr(m, key).view(np.int64)), key


def test_snapshot_guards(tmp_path):
    grid = BaseGrid(16)
    path = tmp_path / "state.json"
    emit_snapshot(make_standard_vaisman(grid), str(path))
    payload = json.loads(path.read_text())

    other = tmp_path / "notformat.json"
    other.write_text(json.dumps({**payload, "format": "something"}))
    with pytest.raises(ConfigError, match="not a state snapshot"):
        load_snapshot(str(other))

    other.write_text(json.dumps({**payload, "conventions": "ktflow-conventions-0"}))
    with pytest.raises(ConfigError, match="conventions"):
        load_snapshot(str(other))

    with pytest.raises(ConfigError, match="resolution"):
        load_snapshot(str(path), BaseGrid(32))


def _snapshot_payload(tmp_path):
    path = tmp_path / "state.json"
    emit_snapshot(make_standard_vaisman(BaseGrid(8)), str(path))
    return json.loads(path.read_text())


@pytest.mark.parametrize("corrupt, match", [
    (lambda p: json.dumps({**p, "u": p["u"][0]}), "field 'u' has shape"),
    (lambda p: json.dumps({**p, "lam": p["lam"][:3]}), "field 'lam' has shape"),
    (lambda p: json.dumps({**p, "p": [[1.0, 2.0], [3.0]]}), "field 'p' is missing"),
    (lambda p: json.dumps({k: v for k, v in p.items() if k != "q"}), "field 'q' is missing"),
    (lambda p: json.dumps(p)[:-5], "not valid JSON"),
    (lambda p: json.dumps({k: v for k, v in p.items() if k != "n"}), "integer resolution"),
    # fields of the file's n, so that n itself is what fails
    (lambda p: json.dumps({**p, "n": 12, **dict.fromkeys("u lam p q".split(), [[1.0] * 12] * 12)}),
     "power of two"),
    # the fields are checked before a grid of n is built: numpy cannot allocate one
    (lambda p: json.dumps({**p, "n": 2**62, **dict.fromkeys("u lam p q".split(), [[1.0]])}),
     r"field 'u' has shape \(1, 1\), expected \(4611686018427387904, 4611686018427387904\)"),
    (lambda p: json.dumps([p]), "not a state snapshot"),
    (lambda p: json.dumps({**p, "u": [row if i != 2 else row[:3] + [float("nan")] + row[4:]
                                      for i, row in enumerate(p["u"])]}),
     r"coefficient u is non-finite at grid index \(2, 3\)"),
    (lambda p: json.dumps({**p, "n": True}), "integer resolution n, got True"),
    (lambda p: json.dumps({**p, "u": [[True] + p["u"][0][1:]] + p["u"][1:]}),
     r"coefficient u is not a JSON number at grid index \(0, 0\), got True"),
    (lambda p: json.dumps({**p, "u": [["1.5"] + p["u"][0][1:]] + p["u"][1:]}),
     r"coefficient u is not a JSON number at grid index \(0, 0\), got '1.5'"),
    (lambda p: json.dumps({**p, "u": [[10**400] + p["u"][0][1:]] + p["u"][1:]}),
     "field 'u' is missing or not a numeric array: OverflowError"),
], ids=["1d-u", "short-lam", "ragged-p", "missing-q", "bad-json", "missing-n",
        "bad-n", "unallocatable-n", "top-level-list", "nan-u", "boolean-n", "boolean-u",
        "string-u", "huge-u"])
def test_snapshot_rejects_malformed_file(tmp_path, corrupt, match):
    path = tmp_path / "bad.json"
    path.write_text(corrupt(_snapshot_payload(tmp_path)))
    with pytest.raises(ConfigError, match=match) as exc:
        load_snapshot(str(path))
    assert str(path) in str(exc.value)


def test_run_experiment_identity_suite(tmp_path, capsys):
    cfg = ExperimentConfig(samples=4, out_dir=str(tmp_path))
    code = run_experiment(cfg)
    out = capsys.readouterr().out
    assert code == 0
    assert "identities pass" in out
    verdict = json.loads((tmp_path / "identity_battery.json").read_text())
    assert verdict["ok"] and verdict["preset"] == "identity_suite"


def test_main_exit_codes(tmp_path, capsys):
    # 2: unreadable config, unknown key, bad value
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", str(bad)]) == 2
    bad.write_text("n = 7\n")
    assert main(["run", str(bad)]) == 2
    # 2, not a traceback: a Latin-1 comment is no UTF-8, and an out_dir
    # with a NUL byte failed os.makedirs with a ValueError
    bad.write_bytes(b"# Gr\xf6\xdfe\nsamples = 4\n")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config")
    bad.write_text("samples = 4\nout_dir = a\0b\n")
    assert main(["run", str(bad)]) == 2
    assert "out_dir must be one nonempty line" in capsys.readouterr().err

    # 3: time step above the parabolic bound aborts before stepping
    cfl = tmp_path / "cfl.cfg"
    cfl.write_text("preset = stationary_csc\nn = 16\ndt = 0.01\nt_end = 0.04\n"
                   f"record_every = 1\nout_dir = {tmp_path / 'cflout'}\n")
    assert main(["run", str(cfl)]) == 3
    verdict = json.loads((tmp_path / "cflout" / "stationary_csc_verdict.json").read_text())
    assert verdict["aborted"] and not verdict["ok"]

    # 1: inflated tolerances make the leaves-vaisman assertion fail honestly
    soft = tmp_path / "soft.cfg"
    soft.write_text("preset = noncsc_vaisman\nn = 16\ndt = 1e-4\nt_end = 1e-3\n"
                    "record_every = 1\nvaisman_tol = 1.0\nvariance_tol = 10.0\n"
                    f"out_dir = {tmp_path / 'softout'}\n")
    assert main(["run", str(soft)]) == 1
    verdict = json.loads((tmp_path / "softout" / "noncsc_vaisman_verdict.json").read_text())
    assert not verdict["ok"]
    failed = [a["name"] for a in verdict["assertions"] if not a["ok"]]
    assert "leaves vaisman" in failed


def test_main_rejects_fractional_step_count(tmp_path, capsys):
    # 2: t_end = 3.4 dt ran 3 steps and exited 0 while the time-grid check
    # was absolute (1e-9 * steps)
    cfgfile = tmp_path / "fraction.cfg"
    cfgfile.write_text("preset = stationary_csc\nn = 8\ndt = 1e-10\nt_end = 3.4e-10\n"
                       f"record_every = 1\nout_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert "not an integer number of steps" in capsys.readouterr().err
    assert not list(tmp_path.glob("stationary_csc_*"))


def test_noncsc_flow_on_broadcast_factors_is_byte_identical(tmp_path, monkeypatch):
    # the grid's ik_x and ik_y patched back to (n, 1) and (1, n/2 + 1), so
    # every symbol broadcasts in its products: trace and snapshot unchanged
    def outputs(out_dir):
        cfg = ExperimentConfig(preset="noncsc_vaisman", n=16, epsilon=0.15, mode=(1, 2),
                               t_end=4e-3, out_dir=str(out_dir))
        assert run_experiment(cfg, io.StringIO()) == 0
        return [(out_dir / f"noncsc_vaisman_{name}").read_bytes()
                for name in ("trace.csv", "final_state.json")]

    expected = outputs(tmp_path / "half_spectrum")
    true_init = BaseGrid.__init__

    def broadcast_init(grid, n):
        true_init(grid, n)
        grid._factors = broadcast_factors(grid)

    monkeypatch.setattr(BaseGrid, "__init__", broadcast_init)
    assert BaseGrid(16)._symbols(invariant_forms._D11)[1][0][1].shape == (16, 1)
    assert outputs(tmp_path / "broadcast") == expected


def test_flow_too_short_for_three_records_is_refused_at_parse(tmp_path, capsys):
    # 2 steps with a record every 2 give 2 records: the config was accepted,
    # and `ktflow run` echoed it and made out_dir before the flow refused it
    out_dir = tmp_path / "out"
    text = (f"preset = stationary_csc\nn = 16\ndt = 1e-4\nt_end = 2e-4\nrecord_every = 2\n"
            f"out_dir = {out_dir}\n")
    with pytest.raises(ConfigError, match="run too short: 2 trace records, fewer than 3"):
        parse_config(text)
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text(text)
    assert main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run too short" in captured.err
    assert not out_dir.exists()
    assert FlowConfig(dt=1e-4, t_end=3e-4, record_every=2).records() == 3


@pytest.mark.parametrize("n", (2**62, 8192))   # 8192 is twice MAX_N
def test_grid_above_max_n_is_refused_at_parse(tmp_path, capsys, n):
    # n = 2**62 parsed, and `ktflow run` ended in numpy's "array is too big"
    # from BaseGrid(n), a traceback; no grid of either size is built here
    out_dir = tmp_path / "out"
    text = f"preset = noncsc_vaisman\nn = {n}\nout_dir = {out_dir}\n"
    with pytest.raises(ConfigError, match=f"n = {n} is above MAX_N = 4096"):
        parse_config(text)
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(text)
    assert main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is above MAX_N" in captured.err
    assert not out_dir.exists()


def test_degenerate_standard_seed_is_refused_at_parse(tmp_path, capsys):
    # scale is the standard seed's transverse area: 1e-13 exited 3, a
    # numerical abort at t = 0 with an aborted verdict, where the same area
    # through the custom preset is a config error
    out_dir = tmp_path / "out"
    text = f"preset = stationary_csc\nn = 8\nscale = 1e-13\nout_dir = {out_dir}\n"
    cfgfile = tmp_path / "thin.cfg"
    cfgfile.write_text(text)
    assert main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= DEGENERACY_TOL = 1e-12, got 1e-13" in captured.err
    assert not out_dir.exists()
    assert parse_config(text.replace("1e-13", "1e-12")).scale == 1e-12


@pytest.mark.parametrize("preset", ("identity_suite", "stationary_csc", "noncsc_vaisman"))
def test_config_rejects_a_runaway_step_count(preset):
    # 1e19 steps passed every check, so `ktflow run` started a flow that
    # could not finish; the config is refused before any step
    message = "t_end = 0.1 at dt = 1e-20 is 10000000000000002048 steps, more than MAX_STEPS"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"preset = {preset}\ndt = 1e-20\nt_end = 0.1\n")
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(preset=preset, dt=1e-20, t_end=0.1)


@pytest.mark.parametrize("dt, t_end", ((5e-324, 1.0), (1e-300, 1e10)))
def test_main_rejects_overflowing_step_count(tmp_path, capsys, dt, t_end):
    # 2: t_end / dt overflows to inf, whose round raised a bare OverflowError
    # (exit 1, a traceback)
    cfgfile = tmp_path / "overflow.cfg"
    cfgfile.write_text(f"preset = stationary_csc\nn = 8\ndt = {dt!r}\nt_end = {t_end!r}\n"
                       f"out_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert f"t_end / dt overflows: t_end = {t_end}, dt = {dt}" in capsys.readouterr().err
    assert not list(tmp_path.glob("stationary_csc_*"))


def test_positivity_error_names_plain_grid_point(tmp_path, monkeypatch):
    # numpy 2 printed np.unravel_index's entries as np.int64(i)
    with pytest.raises(PositivityError, match=r"at grid point \(0, 0\)$"):
        MetricState.constant(BaseGrid(8), 1, 1, 2).require_positive()

    # 3: a kick at (3, 5) takes u negative in the first stage state, and the
    # rejected step's verdict names the point
    true_velocity = hermitian_geometry.flow_velocity

    def kicked(m):
        vel = np.array(true_velocity(m))
        vel[0, 3, 5] -= 1e6
        return vel

    monkeypatch.setattr(hermitian_geometry, "flow_velocity", kicked)
    cfgfile = tmp_path / "kicked.cfg"
    cfgfile.write_text("preset = custom\nn = 8\ndt = 1e-4\nt_end = 5e-4\n"
                       f"record_every = 1\nout_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 3
    verdict = json.loads((tmp_path / "custom_verdict.json").read_text())
    assert verdict["aborted"] and verdict["t"] == 0.0
    assert verdict["reason"].startswith("step dt=1.000e-04 rejected, positivity lost")
    assert verdict["reason"].endswith("positivity violated: u = -4.899995e+01 at grid point (3, 5)")


@pytest.mark.parametrize("mode", ("4,1", "5,1"))
def test_main_rejects_unresolved_mode(tmp_path, capsys, mode):
    # 2: at n = 8, mode (4, 1) sits on the Nyquist row, where the seed's sine
    # reads 0, and (5, 1) aliases to (3, 1); neither is the requested seed
    cfgfile = tmp_path / "mode.cfg"
    cfgfile.write_text(f"preset = noncsc_vaisman\nn = 8\nmode = {mode}\n"
                       f"out_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert "not resolved: needs 2 max(mode) < n = 8" in capsys.readouterr().err
    assert not list(tmp_path.glob("noncsc_vaisman_*"))


def test_main_degenerate_transverse_area(tmp_path, monkeypatch, capsys):
    # 2: a custom seed whose transverse area is below DEGENERACY_TOL
    degenerate = ("preset = custom\nn = 8\np0 = 0.99999999999995\nu0 = 1\nlam0 = 1\n"
                  "dt = 1e-4\nt_end = 5e-4\nrecord_every = 1\n")
    cfgfile = tmp_path / "degenerate.cfg"
    cfgfile.write_text(degenerate + f"out_dir = {tmp_path / 'out2'}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert "degenerate transverse area" in capsys.readouterr().err

    # 3: a degenerate split at a record is a numerical abort, not a traceback
    monkeypatch.setattr(cli_runner, "_seed_state", lambda cfg, grid: MetricState.constant(
        grid, 1.0, 1.0, 0.99999999999995))
    cfgfile.write_text(degenerate.replace("p0 = 0.99999999999995", "p0 = 0.5")
                       + f"out_dir = {tmp_path / 'out3'}\n")
    assert main(["run", str(cfgfile)]) == 3
    verdict = json.loads((tmp_path / "out3" / "custom_verdict.json").read_text())
    assert verdict["aborted"] and not verdict["ok"] and verdict["t"] == 0.0
    assert "transverse area" in verdict["reason"]


@pytest.mark.parametrize("text, message", (
    ("preset = stationary_csc\nscale = inf\n", "line 2: bad value for 'scale': 'inf' is not a finite"),
    ("preset = custom\nu0 = inf\n", "line 2: bad value for 'u0': 'inf' is not a finite"),
    ("preset = stationary_csc\nt_end = inf\n", "line 2: bad value for 't_end': 'inf' is not a finite"),
    # u0 lam0 overflows, and 1/lam0 overflows in the transverse area
    ("preset = custom\nu0 = 1e200\nlam0 = 1e200\n", "margin inf"),
    ("preset = custom\nlam0 = 1e-310\n", "transverse area u0 - (p0^2 + q0^2)/lam0 = inf"),
))
def test_main_nonfinite_config_values_are_config_errors(tmp_path, capsys, text, message):
    # 2, not a traceback: each passed ExperimentConfig before and then raised
    # NonFiniteFieldError or OverflowError in the seed, the split or the step count
    cfgfile = tmp_path / "nonfinite.cfg"
    cfgfile.write_text(text + f"n = 8\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_unwritable_verdict_is_a_config_error(tmp_path, capsys):
    # a directory where a verdict file should go: exit 2, not a traceback
    configs = {
        "identity_battery.json": "preset = identity_suite\nsamples = 4\n",
        "stationary_csc_verdict.json": "preset = stationary_csc\nn = 16\n"
                                       "dt = 1e-4\nt_end = 3e-4\nrecord_every = 1\n",
        "custom_verdict.json": "preset = custom\nn = 16\ndt = 0.01\n"
                               "t_end = 0.04\nrecord_every = 1\n",   # aborts
    }
    for name, text in configs.items():
        outdir = tmp_path / name.split(".")[0]
        (outdir / name).mkdir(parents=True)
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(text + f"out_dir = {outdir}\n")
        assert main(["run", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write verdict") and name in err


def test_main_run_healthy_flow_and_overrides(tmp_path):
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("preset = noncsc_vaisman\nn = 16\ndt = 1e-4\nt_end = 1e-3\n"
                       f"record_every = 1\nout_dir = {tmp_path / 'ignored'}\n")
    outdir = tmp_path / "actual"
    assert main(["run", str(cfgfile), "--out-dir", str(outdir)]) == 0
    for suffix in ("_trace.csv", "_verdict.json", "_final_state.json"):
        assert (outdir / f"noncsc_vaisman{suffix}").exists()
    assert not (tmp_path / "ignored").exists()
    verdict = json.loads((outdir / "noncsc_vaisman_verdict.json").read_text())
    assert verdict["ok"]
    assert verdict["monitors"]["exit_time"] is not None


@pytest.mark.parametrize("command", ("run", "suite"))
@pytest.mark.parametrize("flag", (("--tol", "1e-3"), ("--strict",), ("--no-strict",)),
                         ids=("tol", "strict", "no-strict"))
def test_settings_other_than_out_dir_are_usage_errors(tmp_path, capsys, command, flag):
    # tol and the unknown-key rule live in the config file alone; argparse
    # exits 2 before anything runs, where `suite --tol 5 --no-strict` exited 0
    cfgfile = tmp_path / "suite.cfg"
    cfgfile.write_text(f"samples = 4\nout_dir = {tmp_path}\n")
    args = [command, str(cfgfile)] if command == "run" else [command]
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--out-dir", str(tmp_path), *flag])
    assert exit_.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def _defined_options():
    """The options the run and suite subcommands define, less -h/--help."""
    parser = cli_runner._build_parser()
    subcommands, = (action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {option for sub in subcommands.values() for action in sub._actions
            for option in action.option_strings if option not in ("-h", "--help")}


def test_readme_flags_name_the_parser_options():
    # README's "Flags:" paragraph, up to its blank line, names each option
    # that _build_parser defines and no other
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("\nFlags: "):].split("\n\n", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == _defined_options()


def _docstring_key_table():
    """{key: default text} from the cli_runner docstring's table of keys and defaults.

    A row starts with k key names and then their k defaults (k is 4 on the
    u0 lam0 p0 q0 row); preset's "default" is the first of its choices.
    """
    doc = cli_runner.__doc__
    table = doc[doc.index("Recognized keys and defaults:\n"):].split("\n\n", 2)[1]
    names = {f.name for f in fields(ExperimentConfig)}
    found = {}
    for line in table.splitlines():
        words = line.split()
        k = next(i for i, word in enumerate(words) if word not in names)
        assert k > 0, line
        for key, text in zip(words[:k], words[k:2 * k]):
            assert key not in found, key
            found[key] = text
    return found


def test_docstring_key_table_matches_the_config_defaults():
    # the config grammar's reference lists every ExperimentConfig key once,
    # with its default as parse_config reads it, and preset's choices
    table = _docstring_key_table()
    defaults = ExperimentConfig()
    assert list(table) == [f.name for f in fields(ExperimentConfig)]
    assert len(table) == 20
    for key, text in table.items():
        assert cli_runner._CASTERS[key](text) == getattr(defaults, key), key
    row, = (line for line in cli_runner.__doc__.splitlines() if line.split()[:1] == ["preset"])
    assert row.split()[1::2] == list(cli_runner.PRESETS)


def test_repeated_runs_emit_identical_bytes(tmp_path):
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        cfgfile = tmp_path / f"{sub}.cfg"
        cfgfile.write_text("preset = noncsc_vaisman\nn = 16\ndt = 1e-4\n"
                           f"t_end = 5e-4\nrecord_every = 1\nout_dir = {outdir}\n")
        assert main(["run", str(cfgfile)]) == 0
        outs.append(outdir)
    for name in ("noncsc_vaisman_trace.csv", "noncsc_vaisman_final_state.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
