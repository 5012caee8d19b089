"""Config grammar, identity battery, emission formats, exit codes."""

import json
import os

import numpy as np
import pytest

from ktflow.cli_runner import (ExperimentConfig, emit_csv, emit_snapshot,
                               identity_battery, load_snapshot,
                               load_trace_csv, main, parse_config,
                               run_experiment, serialize_config,
                               _apply_thread_env)
from ktflow.errors import ConfigError
from ktflow.flow_engine import FlowConfig, run
from ktflow.invariant_forms import BaseGrid
from ktflow.vaisman_toolkit import make_noncsc_vaisman, make_standard_vaisman


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


def test_parse_config_non_strict_warns(capsys):
    cfg = parse_config("nn = 32\nn = 16\n", strict=False)
    assert cfg.n == 16
    assert "ignoring unknown key 'nn'" in capsys.readouterr().err


def test_config_named_constraints():
    with pytest.raises(ConfigError, match="power of two >= 8, got 7"):
        ExperimentConfig(n=7)
    with pytest.raises(ConfigError, match="power of two >= 8, got 4"):
        ExperimentConfig(n=4)
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentConfig(epsilon=0.7)
    with pytest.raises(ConfigError, match="mode entries"):
        ExperimentConfig(mode=(0, 1))
    with pytest.raises(ConfigError, match="unknown preset"):
        ExperimentConfig(preset="mystery")
    with pytest.raises(ConfigError, match="u0"):
        ExperimentConfig(preset="custom", u0=-1.0)
    with pytest.raises(ConfigError, match="p0"):
        ExperimentConfig(preset="custom", u0=1.0, lam0=1.0, p0=1.5)
    with pytest.raises(ConfigError, match="cfl_safety"):
        ExperimentConfig(cfl_safety=0.9)
    with pytest.raises(ConfigError, match="samples"):
        ExperimentConfig(samples=0)
    with pytest.raises(ConfigError, match="vaisman_tol"):
        ExperimentConfig(vaisman_tol=0.0)


def test_identity_battery_all_green():
    items = identity_battery(n=32, samples=6, seed=5)
    names = [item.name for item in items]
    assert len(names) == len(set(names))
    assert len(items) >= 15
    for item in items:
        assert item.ok, f"{item.name}: {item.value:.3e} vs {item.bound:.0e}"
        d = item.as_dict()
        assert set(d) == {"name", "max_residual", "bound", "ok"}


def _short_trace(n=16):
    grid = BaseGrid(n)
    m = make_noncsc_vaisman(grid, 0.1)
    return run(m, FlowConfig(dt=1e-4, t_end=5e-4, record_every=1))


def test_csv_round_trip_bit_exact(tmp_path):
    tr = _short_trace()
    path = tmp_path / "trace.csv"
    emit_csv(tr, str(path))
    cols = load_trace_csv(str(path))
    for name, col in tr.columns.items():
        assert np.array_equal(cols[name], col), name


def test_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="unexpected trace columns"):
        load_trace_csv(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_trace_csv(str(tmp_path / "absent.csv"))


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


def test_run_experiment_identity_suite(tmp_path, capsys):
    cfg = ExperimentConfig(samples=4, out_dir=str(tmp_path))
    code = run_experiment(cfg)
    out = capsys.readouterr().out
    assert code == 0
    assert "identities pass" in out
    verdict = json.loads((tmp_path / "identity_battery.json").read_text())
    assert verdict["ok"] and verdict["preset"] == "identity_suite"


def test_main_exit_codes(tmp_path):
    # 2: unreadable config, unknown key, bad value
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", str(bad)]) == 2
    bad.write_text("n = 7\n")
    assert main(["run", str(bad)]) == 2

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


def test_main_strict_flag(tmp_path, capsys):
    cfgfile = tmp_path / "loose.cfg"
    cfgfile.write_text(f"mystery = 1\nsamples = 4\nout_dir = {tmp_path}\n")
    assert main(["run", str(cfgfile)]) == 2
    assert main(["run", str(cfgfile), "--no-strict"]) == 0
    assert "ignoring unknown key" in capsys.readouterr().err


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


def test_thread_env(monkeypatch):
    monkeypatch.setenv("KTFLOW_THREADS", "3")
    _apply_thread_env()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        assert os.environ[var] == "3"
    monkeypatch.setenv("KTFLOW_THREADS", "zero")
    with pytest.raises(ConfigError):
        _apply_thread_env()
    monkeypatch.setenv("KTFLOW_THREADS", "0")
    assert main(["suite"]) == 2
