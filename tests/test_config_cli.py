"""Config loading and the command-line contract (exit codes, reports, CSV)."""

import copy
import csv
import json
import math
import os
import time

import pytest

from conftest import config_path, load_json
from hsgt import expr as ex
from hsgt.cli import main
from hsgt.config import GRID_POINTS_MAX, SAMPLES_MAX, ConfigError, build_config, load_config
from hsgt.kfun import KFun


@pytest.fixture()
def small_e1(tmp_path):
    """The main config with a lighter sampler, for quick CLI runs."""
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = 1500
    path = tmp_path / "e1_small.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_load_main_config():
    cfg = load_config(config_path("e1.json"))
    assert cfg.network.n == 2
    assert cfg.network.state_dim == 2
    assert cfg.gain_matrix is not None and cfg.gain_matrix.n == 2
    assert len(cfg.candidates) == 2
    assert cfg.sampler.n_samples == 10000


def test_integer_fields_take_integral_floats():
    cfg = load_json("e1.json")
    cfg["analysis"]["grid"] = {"points": 16.0}
    cfg["analysis"]["sampler"]["n_samples"] = 300.0
    cfg["analysis"]["simulation"]["max_jumps"] = 5.0
    built = build_config(cfg)
    assert built.sg_options.grid_points == 16 and type(built.sg_options.grid_points) is int
    assert built.sampler.n_samples == 300 and built.simulation.max_jumps == 5


@pytest.mark.parametrize("points", [10 ** 15, 1e300, GRID_POINTS_MAX + 1])
def test_grid_points_above_the_cap_exit_2(tmp_path, capsys, points):
    cfg = load_json("e1_decoupled.json")
    cfg["analysis"]["grid"]["points"] = points
    assert main(["check-gains", "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: analysis.grid.points: need at most")


@pytest.mark.parametrize("points", [16, GRID_POINTS_MAX])
def test_grid_points_at_the_bounds_load(points):
    cfg = load_json("e1_decoupled.json")
    cfg["analysis"]["grid"]["points"] = points
    assert build_config(cfg).sg_options.grid_points == points


@pytest.mark.parametrize("n_samples", [10 ** 15, 1e300, SAMPLES_MAX + 1])
def test_n_samples_above_the_cap_exit_2(tmp_path, capsys, n_samples):
    """``verify`` would draw such a set in 65,536-row blocks until memory ran out."""
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = n_samples
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--which", "subsystem"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: analysis.sampler.n_samples: need at most 10000000 samples")


def test_n_samples_at_the_cap_loads():
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = SAMPLES_MAX
    assert build_config(cfg).sampler.n_samples == SAMPLES_MAX


@pytest.mark.parametrize("command, path, value, message", [
    (["check-gains"], "analysis.grid.points", 1e300, "need at most 1000000 points"),
    (["check-gains"], "analysis.grid.points", -1e300, "need at least 16 points"),
    (["verify", "--which", "subsystem"], "analysis.sampler.n_samples", 1e300,
     "need at most 10000000 samples"),
    (["verify", "--which", "subsystem"], "analysis.sampler.n_samples", -1e300,
     "need at least 1 sample"),
    (["simulate"], "analysis.simulation.max_jumps", -1e300, "need a jump budget >= 0"),
    (["check-gains"], "analysis.seed", -1e300, "must be at least 0"),
])
def test_range_errors_echo_the_value_as_written(tmp_path, capsys, command, path, value,
                                                message):
    """Not the integer it converts to, which for 1e300 has 301 digits."""
    cfg = load_json("e1.json")
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section.setdefault(name, {})
    section[key] = value
    assert main([*command, "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}, got {value!r}\n" and len(err) < 80


def test_repeated_expressions_are_built_once_per_load(monkeypatch):
    built = []
    from_expr = KFun.from_expr
    monkeypatch.setattr(KFun, "from_expr", staticmethod(lambda e: built.append(e) or from_expr(e)))
    raw = load_json("e1.json")
    cfg = build_config(raw)
    # "0.5*s" (gains, alpha, lambda, external gains) and "s" (psi1, psi2): 14 uses
    assert sorted(map(ex.render, built)) == ["0.5*s", "s"]
    first, second = cfg.candidates
    assert first.psi1 is first.psi2 is second.psi1 and first.alpha is cfg.gain_matrix.entries[0][1]
    built.clear()
    build_config(raw)  # a new load builds its own functions
    assert len(built) == 2
    # the class floor is checked at every use: the second use here needs class-Kinf
    subs = raw["lyapunov"]["subsystems"]
    subs[0]["alpha"] = subs[1]["psi1"] = "s/(1 + s)"
    built.clear()
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert str(err.value) == "lyapunov.subsystems[1].psi1: classified class-K; must be class-Kinf"
    assert list(map(ex.render, built)).count("s/(1.0 + s)") == 1


def test_integer_fields_reject_fractions():
    cfg = load_json("e1_traj_iss.json")
    cfg["analysis"]["trajectories"]["max_jumps"] = 2.5
    with pytest.raises(ConfigError, match=r"analysis\.trajectories\.max_jumps"):
        build_config(cfg)


def test_malformed_expression_carries_offset(tmp_path):
    cfg = load_json("e1.json")
    cfg["gains"]["internal"][0][1] = "0.5*s +"
    with pytest.raises(ConfigError) as err:
        build_config(cfg)
    assert "offset" in str(err.value)


def test_missing_key_reports_path(tmp_path):
    cfg = load_json("e1.json")
    del cfg["network"]["subsystems"][0]["flow"]
    with pytest.raises(ConfigError) as err:
        build_config(cfg)
    assert "network.subsystems[0]" in str(err.value)


def test_dimension_mismatch_rejected():
    cfg = load_json("e1.json")
    cfg["analysis"]["simulation"]["x0"] = [1.0]
    with pytest.raises(ConfigError):
        build_config(cfg)


def test_candidates_inherit_external_gains_at_load():
    cfg = load_json("e1.json")
    del cfg["lyapunov"]["subsystems"][0]["external_gain"]
    cfg["lyapunov"]["subsystems"][1]["external_gain"] = "0.25*s"
    cands = build_config(cfg).candidates
    assert cands[0].gamma_external(2.0) == pytest.approx(1.0)
    assert cands[1].gamma_external(2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("command", ["check-gains", "build-lyapunov", "verify", "simulate"])
def test_malformed_external_gains_rejected_by_every_command(tmp_path, capsys, command):
    cfg = load_json("e1.json")
    cfg["gains"]["external"] = ["0.5*s"]
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "gains.external" in capsys.readouterr().err


@pytest.mark.parametrize("name,path,command,edit", [
    ("e1.json", "network.subsystems[0].dim", "check-gains",
     lambda c: c["network"]["subsystems"][0].update(dim="abc")),
    ("e1.json", "gains.internal[0][1]", "check-gains",
     lambda c: c["gains"]["internal"][0].__setitem__(1, "log(s+1)")),
    ("e1.json", "analysis.simulation.step", "simulate",
     lambda c: c["analysis"]["simulation"].update(step=0)),
    ("e1_traj_iss.json", "analysis.trajectories.step", "check-traj",
     lambda c: c["analysis"]["trajectories"].update(step=0)),
    ("e1.json", "analysis.simulation.x0", "simulate",
     lambda c: c["analysis"]["simulation"].update(x0=[float("nan"), 0.0])),
    ("e1.json", "analysis.priority", "simulate",
     lambda c: c["analysis"].update(priority="bogus")),
    ("e1.json", "lyapunov.subsystems[0].psi1", "verify",
     lambda c: c["lyapunov"]["subsystems"][0].update(psi1="log(s+1)")),
    ("e1.json", "analysis.anchor", "build-lyapunov",
     lambda c: c["analysis"].update(anchor=[float("nan"), 1.0])),
    ("e1.json", "analysis.sampler.box_radius", "verify",
     lambda c: c["analysis"]["sampler"].update(box_radius=-1)),
    ("e1.json", "analysis.sampler.u_box[0]", "verify",
     lambda c: c["analysis"]["sampler"].update(u_box=[[0]])),
    ("e1.json", "analysis.simulation.horizon", "simulate",
     lambda c: c["analysis"]["simulation"].update(horizon="abc")),
    ("e1_decoupled.json", "analysis.grid.points", "check-gains",
     lambda c: c["analysis"]["grid"].update(points=3)),
    ("e1_decoupled.json", "analysis.grid", "verify",
     lambda c: c["analysis"]["grid"].update(lo=10, hi=1)),
    ("e1_decoupled.json", "analysis.sampler.n_samples", "verify",
     lambda c: c["analysis"]["sampler"].update(n_samples=0)),
    ("e1_decoupled.json", "analysis.sampler", "verify",
     lambda c: c["analysis"]["sampler"].update(boundary_fraction=2.0)),
    ("e1_decoupled.json", "analysis.sampler", "verify",
     lambda c: c["analysis"]["sampler"].update(boundary_fraction=0.5, tie_fraction=0.5)),
    ("e1_decoupled.json", "analysis.grid.points", "check-gains",
     lambda c: c["analysis"]["grid"].update(points=16.9)),
    ("e1_decoupled.json", "analysis.sampler.n_samples", "verify",
     lambda c: c["analysis"]["sampler"].update(n_samples=1.5)),
    ("e1_decoupled.json", "analysis.simulation.horizon", "simulate",
     lambda c: c["analysis"]["simulation"].update(horizon=float("inf"))),
    ("e1_decoupled.json", "analysis.simulation.horizon", "simulate",
     lambda c: c["analysis"]["simulation"].update(horizon=float("nan"))),
    ("e1_decoupled.json", "analysis.simulation.max_jumps", "simulate",
     lambda c: c["analysis"]["simulation"].update(max_jumps=-3)),
    ("e1_traj_iss.json", "analysis.trajectories.horizon", "check-traj",
     lambda c: c["analysis"]["trajectories"].update(horizon=float("inf"))),
    ("e1_traj_iss.json", "analysis.trajectories: need a positive horizon", "check-traj",
     lambda c: c["analysis"]["trajectories"].update(horizon=0, max_jumps=0)),
    ("e1_traj_iss.json", "analysis.trajectories.zero_input.horizon", "check-traj",
     lambda c: c["analysis"]["trajectories"].update(zero_input={
         "delta_grid": [0.5], "eps_grid": [1.0], "horizon": float("nan")})),
    ("e1_traj_iss.json", "analysis.trajectories.zero_input: need a positive horizon",
     "check-traj", lambda c: c["analysis"]["trajectories"].update(zero_input={
         "delta_grid": [0.5], "eps_grid": [1.0], "horizon": 0, "max_jumps": 0})),
    ("e1_decoupled.json", "analysis.simulation.input.value", "simulate",
     lambda c: c["analysis"]["simulation"]["input"].update(value=["a"])),
    ("e1_decoupled.json", "analysis.simulation.input.value", "simulate",
     lambda c: c["analysis"]["simulation"]["input"].update(value=1.0)),
    ("e1_decoupled.json", "analysis.simulation.input.times", "simulate",
     lambda c: c["analysis"]["simulation"].update(input={
         "type": "piecewise", "times": ["a"], "values": [[0.0]]})),
    ("e1_decoupled.json", "analysis.simulation.input.values[1]", "simulate",
     lambda c: c["analysis"]["simulation"].update(input={
         "type": "piecewise", "times": [0.0, 1.0], "values": [[0.0], []]})),
    ("e1_decoupled.json", "analysis.simulation.input.values[0]", "simulate",
     lambda c: c["analysis"]["simulation"].update(input={
         "type": "piecewise", "times": [0.0], "values": [[0.0, 1.0]]})),
    ("e1_decoupled.json", "analysis.simulation.input.times", "simulate",
     lambda c: c["analysis"]["simulation"].update(input={
         "type": "piecewise", "times": [1.0, 0.0], "values": [[0.0], [1.0]]})),
    ("e1_decoupled.json", "network.subsystems[0]", "check-gains",
     lambda c: c["network"]["subsystems"].__setitem__(0, 3)),
    ("e1_decoupled.json", "analysis", "check-gains",
     lambda c: c.update(analysis=[])),
], ids=["dim", "gain-not-kinf", "step", "traj-step", "x0-nan", "priority", "psi1-not-kinf",
        "anchor-nan", "box-radius", "u-box-pair", "horizon", "grid-points", "grid-order",
        "n-samples", "boundary-fraction", "fraction-sum", "grid-points-fraction",
        "n-samples-fraction", "horizon-inf", "horizon-nan", "max-jumps-negative",
        "traj-horizon-inf", "traj-zero-budget", "zero-input-horizon-nan",
        "zero-input-zero-budget", "constant-not-number",
        "constant-not-list", "piecewise-time-not-number", "piecewise-ragged",
        "piecewise-row-width", "piecewise-unsorted", "subsystem-not-object",
        "analysis-not-object"])
def test_malformed_config_exits_2_with_path(tmp_path, capsys, name, path, command, edit):
    cfg = load_json(name)
    edit(cfg)
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("edit,commands,code,message", [
    (lambda c: c["network"]["subsystems"][0].update(jump=["log(x_1-5)"]),
     [["simulate"]], 0, "termination=numerical_failure"),
    (lambda c: c["lyapunov"]["subsystems"][0].update(v="log(x_1)"),
     [["verify", "--which", w] for w in ("subsystem", "composite", "wform")], 1,
     "analysis failed: math domain error in log(x_1)"),
    (lambda c: c["network"]["subsystems"][0].update(flow_guard="log(x_1) - 1"),
     [["verify", "--which", w] for w in ("subsystem", "composite", "wform")], 1,
     "analysis failed: math domain error in log(x_1) - 1.0"),
    (lambda c: c["network"]["subsystems"][0].update(flow=["log(x_1-5)"]),
     [["verify", "--which", w] for w in ("subsystem", "composite", "wform")], 1,
     "analysis failed: math domain error in log(x_1 - 5.0)"),
    (lambda c: c["analysis"]["simulation"].update(
        input={"type": "expr", "exprs": ["log(t - 0.5)"]}),
     [["simulate"]], 0, "termination=numerical_failure, rows=1"),
    (lambda c: c["analysis"]["simulation"].update(
        input={"type": "expr", "exprs": ["log(0.0005 - t)"]}),
     [["simulate"]], 0, "termination=numerical_failure, rows=3"),
], ids=["jump-map", "candidate", "flow-guard", "flow-map", "input-at-start", "input-later"])
def test_expression_domain_errors_end_without_traceback(tmp_path, capsys, edit, commands,
                                                        code, message):
    cfg = load_json("e1_decoupled.json")
    cfg["analysis"]["sampler"]["n_samples"] = 300
    edit(cfg)
    path = write_cfg(tmp_path, cfg)
    for command in commands:
        assert main(command + ["--config", path]) == code
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_check_gains_pass_and_fail(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["check-gains", "--config", config_path("e1.json"), "--out", out]) == 0
    report = json.load(open(out))
    assert report["small_gain"]["holds"] is True
    assert main(["check-gains", "--config", config_path("e1_unstable.json"),
                 "--out", out]) == 1
    report = json.load(open(out))
    assert report["small_gain"]["holds"] is False
    assert "witness_cycle" in report["small_gain"] or "witness_vector" in report["small_gain"]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check-gains", "--config", str(bad)]) == 2
    cfg = load_json("e1.json")
    cfg["gains"]["internal"][0][1] = "0.5*s +"
    assert main(["check-gains", "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "offset" in err


def test_build_lyapunov_writes_certificate(tmp_path, small_e1):
    path, _ = small_e1
    out = str(tmp_path / "cert.json")
    assert main(["build-lyapunov", "--config", path, "--out", out]) == 0
    cert = json.load(open(out))["certificate"]
    assert cert["gamma"]["samples"]["1.0"] == pytest.approx(0.5)
    assert cert["lambda"]["samples"]["1.0"] == pytest.approx(0.5)
    for sigma in cert["sigma"]["sigma"]:
        assert sigma["samples"]["2.0"] == pytest.approx(2.0)
        assert sigma.get("equals_identity_on_samples")


def test_build_lyapunov_missing_candidates(tmp_path):
    cfg = load_json("e1.json")
    del cfg["lyapunov"]
    assert main(["build-lyapunov", "--config", write_cfg(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("command, message", [
    (["build-lyapunov"], "config has no gains section"),
    (["verify", "--which", "composite"], "config has no lyapunov section"),
    (["verify", "--which", "wform"], "config has no lyapunov section")])
def test_config_missing_gains_and_lyapunov_names_the_first_missing_section(tmp_path, capsys,
                                                                          command, message):
    """build-lyapunov looks for gains first, verify for the candidates first."""
    cfg = load_json("e1.json")
    del cfg["gains"], cfg["lyapunov"]
    assert main([*command, "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_build_lyapunov_small_gain_failure(tmp_path):
    assert main(["build-lyapunov", "--config", config_path("e1_unstable.json"),
                 "--out", str(tmp_path / "r.json")]) == 1


def test_verify_composite_passes(tmp_path, small_e1, capsys):
    path, _ = small_e1
    out = str(tmp_path / "v.json")
    assert main(["verify", "--config", path, "--which", "composite", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "composite-flow" in printed and "PASS" in printed
    reports = json.load(open(out))["reports"]
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_subsystem_detects_broken_coupling(tmp_path):
    cfg = load_json("e1_unstable.json")
    cfg["analysis"]["sampler"]["n_samples"] = 1500
    path = write_cfg(tmp_path, cfg)
    assert main(["verify", "--config", path, "--which", "subsystem"]) == 1


def test_verify_subsystem_without_inputs(tmp_path, capsys):
    cfg = load_json("e1.json")
    cfg["network"]["input_dim"] = 0
    for i, sub in enumerate(cfg["network"]["subsystems"]):
        sub["flow"] = [f"-x_{i + 1} + 0.25*x_{2 - i}"]
    del cfg["analysis"]["sampler"]["u_box"]
    del cfg["analysis"]["simulation"]["input"]
    cfg["analysis"]["sampler"]["n_samples"] = 300
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--which", "subsystem"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 2


def test_sampler_shortfall_is_noted_in_the_report(tmp_path):
    cfg = load_json("e1_decoupled.json")
    for sub in cfg["network"]["subsystems"]:
        sub["flow_guard"] = "max(abs(x_1), abs(x_2)) - 0.05"
    cfg["analysis"]["sampler"].update(n_samples=300, boundary_fraction=0.04, tie_fraction=0.0)
    out = str(tmp_path / "v.json")
    main(["verify", "--config", write_cfg(tmp_path, cfg), "--which", "composite", "--out", out])
    flow, jump = json.load(open(out))["reports"]
    short = [n for n in flow["notes"] if n.startswith("flow samples: ")]
    assert len(short) == 1 and short[0].endswith(" of 300 drawn; strata came up short")
    assert 0 < flow["samples_tested"] < 300
    assert "notes" not in jump and jump["samples_tested"] == 300


def test_verify_refuses_differing_jump_sets(tmp_path):
    cfg = load_json("frozen.json")
    cfg["gains"] = {"internal": [[None, None], [None, None]]}
    cfg["lyapunov"] = {"subsystems": [
        {"v": "abs(x_1)", "psi1": "s", "psi2": "s", "alpha": "0.5*s", "lambda": "0.5*s"},
        {"v": "abs(x_2)", "psi1": "s", "psi2": "s", "alpha": "0.5*s", "lambda": "0.5*s"},
    ]}
    cfg["analysis"]["sampler"] = {"n_samples": 500, "box_radius": 2.0}
    path = write_cfg(tmp_path, cfg)
    assert main(["verify", "--config", path, "--which", "composite"]) == 1


def test_simulate_csv_value(tmp_path):
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--config", config_path("e1_decoupled.json"),
                 "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    last = rows[-1]
    assert float(last["t"]) == pytest.approx(1.0)
    assert int(last["k"]) == 2
    assert abs(float(last["x_1"]) - 0.5 * math.exp(-1.0)) <= 1e-6


def test_simulate_zero_budget_header_only(tmp_path):
    cfg = load_json("e1_decoupled.json")
    cfg["analysis"]["simulation"]["horizon"] = 0.0
    cfg["analysis"]["simulation"]["max_jumps"] = 0
    out = str(tmp_path / "empty.csv")
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t,k,x_1")


def test_simulate_zero_budget_writes_the_trajectory_header(tmp_path, capsys):
    """Without a budget, stdout and the --out file hold the header row that a
    trajectory CSV starts with, ending in \\r\\n as its other rows do."""
    cfg = load_json("e1_decoupled.json")
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
    header = capsys.readouterr().out.split("\r\n")[0] + "\r\n"
    cfg["analysis"]["simulation"].update(horizon=0.0, max_jumps=0)
    path, out = write_cfg(tmp_path, cfg, "empty.json"), tmp_path / "empty.csv"
    assert main(["simulate", "--config", path]) == 0
    assert capsys.readouterr().out == header
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert out.read_bytes() == header.encode()


def test_simulate_frozen_rows(tmp_path):
    out = str(tmp_path / "frozen.csv")
    assert main(["simulate", "--config", config_path("frozen.json"), "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 9
    for row in rows:
        assert float(row["x_1"]) == pytest.approx(1.0)
        assert float(row["x_2"]) == pytest.approx(5.0)
        assert row["phase"] == "jump"


def test_check_traj_frozen_fails():
    assert main(["check-traj", "--config", config_path("frozen.json")]) == 1


def test_check_traj_empty_batch(tmp_path):
    cfg = load_json("frozen.json")
    cfg["analysis"]["trajectories"]["input_levels"] = []
    assert main(["check-traj", "--config", write_cfg(tmp_path, cfg)]) == 2


def test_reports_are_deterministic(tmp_path, small_e1):
    path, _ = small_e1
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["verify", "--config", path, "--which", "composite", "--out", out1]) == 0
    assert main(["verify", "--config", path, "--which", "composite", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_seed_override_changes_report(tmp_path, small_e1):
    path, _ = small_e1
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["check-gains", "--config", path, "--out", out1, "--seed", "7"]) == 0
    report = json.load(open(out1))
    assert report["seed"] == 7
    assert main(["check-gains", "--config", path, "--out", out2, "--seed", "7"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("name, command, path, edit", [
    ("e1.json", "verify", "analysis.seed", lambda c: c["analysis"].update(seed=-1)),
    ("e1.json", "verify", "analysis.sampler.seed",
     lambda c: c["analysis"]["sampler"].update(seed=-1)),
    ("e1_traj_ag.json", "check-traj", "analysis.trajectories.initial_conditions.seed",
     lambda c: c["analysis"]["trajectories"]["initial_conditions"].update(seed=-1)),
], ids=["analysis", "sampler", "initial-conditions"])
def test_negative_config_seed_exits_2_with_one_error_line(tmp_path, capsys, name, command,
                                                          path, edit):
    cfg = load_json(name)
    edit(cfg)
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: must be at least 0, got -1"]


_SIGMAS = "analysis.trajectories.sigmas: need a list of 2 entries"
_ICS = "analysis.trajectories.initial_conditions"
_TAIL = "analysis.trajectories.tail_fraction"


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.update(sigmas=5), _SIGMAS),
    (lambda t: t.update(sigmas={"s": 1, "2*s": 2}), _SIGMAS),
    (lambda t: t.update(sigmas=["s"]), _SIGMAS),
    (lambda t: t["initial_conditions"].update(count=0), f"{_ICS}.count: must be at least 1, got 0"),
    (lambda t: t["initial_conditions"].update(count=-3),
     f"{_ICS}.count: must be at least 1, got -3"),
    (lambda t: t["initial_conditions"].update(count=2.5),
     f"{_ICS}.count: expected an integer, got 2.5"),
    (lambda t: t["initial_conditions"].update(radius=float("nan")),
     f"{_ICS}.radius: need a positive finite radius, got nan"),
    (lambda t: t["initial_conditions"].update(radius=-2.0),
     f"{_ICS}.radius: need a positive finite radius, got -2.0"),
    (lambda t: t["initial_conditions"].update(radius=0.0),
     f"{_ICS}.radius: need a positive finite radius, got 0.0"),
    (lambda t: t["initial_conditions"].update(radius=float("inf")),
     f"{_ICS}.radius: need a positive finite radius, got inf"),
    (lambda t: t.update(tail_fraction=-1), f"{_TAIL}: need a finite number in [0, 1], got -1.0"),
    (lambda t: t.update(tail_fraction=float("nan")),
     f"{_TAIL}: need a finite number in [0, 1], got nan"),
    (lambda t: t.update(tail_fraction=2), f"{_TAIL}: need a finite number in [0, 1], got 2.0"),
], ids=["sigmas-number", "sigmas-object", "sigmas-short", "count-zero", "count-negative",
        "count-fraction", "radius-nan", "radius-negative", "radius-zero", "radius-inf",
        "tail-fraction-negative", "tail-fraction-nan", "tail-fraction-above-1"])
def test_malformed_trajectory_config_exits_2_with_one_error_line(tmp_path, capsys, edit,
                                                                 message):
    cfg = load_json("e1_traj_pregs.json")
    edit(cfg["analysis"]["trajectories"])
    assert main(["check-traj", "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("name, command, section", [
    ("e1.json", "simulate", "simulation"), ("e1_traj_pregs.json", "check-traj", "trajectories")])
def test_record_every_below_1_exits_2_with_its_path(tmp_path, capsys, name, command, section,
                                                    value):
    cfg = load_json(name)
    cfg["analysis"][section]["record_every"] = value
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: analysis.{section}.record_every: must be at least 1, got {value}"]


@pytest.mark.parametrize("value, shown", [(1e999, "inf"), (float("nan"), "nan"),
                                          (-1e-9, "-1e-09")], ids=["inf", "nan", "negative"])
@pytest.mark.parametrize("key", ["flow", "jump_rel", "jump_abs", "sandwich_rel"])
def test_tolerances_outside_their_range_exit_2_with_one_error_line(tmp_path, capsys, key,
                                                                   value, shown):
    # an infinite slack passes every condition it loosens, and a NaN jump_rel read as 0
    cfg = load_json("e1.json")
    cfg["analysis"].setdefault("tolerances", {})[key] = value
    path = write_cfg(tmp_path, cfg)
    assert main(["verify", "--which", "subsystem", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: analysis.tolerances.{key}: need a finite number >= 0, got {shown}"]


@pytest.mark.parametrize("command", ["check-gains", "build-lyapunov", "verify", "simulate",
                                     "check-traj"])
def test_negative_seed_flag_exits_2_with_one_error_line(capsys, command):
    assert main([command, "--config", config_path("e1.json"), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --seed: must be at least 0, got -1"]


def test_seed_zero_is_accepted(tmp_path):
    cfg = load_json("e1.json")
    cfg["analysis"]["seed"] = 0
    cfg["analysis"]["sampler"]["seed"] = 0
    assert build_config(cfg).sampler.seed == 0
    out = str(tmp_path / "r.json")
    assert main(["check-gains", "--config", config_path("e1.json"), "--seed", "0",
                 "--out", out]) == 0
    assert json.load(open(out))["seed"] == 0


# ---------------------------------------------------------------------------
# long and deep inputs: one error line or the usual result, never a traceback

LONG_TERMS = 5000


def _long_sum(term: str, total: float) -> str:
    """``total*term`` as a sum of LONG_TERMS equal terms: a tree LONG_TERMS deep."""
    return " + ".join([f"{total / LONG_TERMS!r}*{term}"] * LONG_TERMS)


def _padded(text: str, var: str) -> str:
    """``text`` plus a LONG_TERMS-term sum of zeros: as long, cheaper to sample."""
    return f"{text} + ({_long_sum(var, 0.0)})"


_FLOW_GUARD = _padded("max(abs(x_1), abs(x_2)) - 1", "x_1")
_JUMP_GUARD = _padded("1 - max(abs(x_1), abs(x_2))", "x_2")


def _light(name: str) -> dict:
    """``configs/name`` with small samplers, horizons and batches."""
    cfg = load_json(name)
    analysis = cfg["analysis"]
    analysis["sampler"]["n_samples"] = 100
    analysis["simulation"]["horizon"] = 0.1
    traj = analysis.get("trajectories")
    if traj is not None:
        traj.update(horizon=2.0, input_levels=[0.0, 1.0])
        if isinstance(traj["initial_conditions"], dict):
            traj["initial_conditions"]["count"] = 2
    return cfg


def _subsystems(cfg):
    return cfg["network"]["subsystems"]


def _lyapunov(key: str, total: float):
    return lambda c: c["lyapunov"]["subsystems"][0].update({key: _long_sum("s", total)})


def _trajectories(key: str, value):
    return lambda c: c["analysis"]["trajectories"].update({key: value})


_SIMULATE, _SUBSYSTEM, _COMPOSITE = ["simulate"], ["verify", "--which", "subsystem"], \
    ["verify", "--which", "composite"]
_LONG_FIELDS = {
    "flow": ("e1.json", lambda c: _subsystems(c)[0].update(
        flow=["0.25*x_2 - (" + _long_sum("x_1", 1.0) + ")"]), [_SIMULATE, _SUBSYSTEM]),
    "jump": ("e1.json", lambda c: _subsystems(c)[0].update(jump=[_long_sum("x_1", 0.5)]),
             [_SIMULATE, _SUBSYSTEM]),
    "flow_guard": ("e1.json", lambda c: _subsystems(c)[1].update(flow_guard=_FLOW_GUARD),
                   [_SIMULATE, _SUBSYSTEM]),
    "jump_guard": ("e1.json", lambda c: _subsystems(c)[1].update(jump_guard=_JUMP_GUARD),
                   [_SIMULATE, _SUBSYSTEM]),
    "gains.internal": ("e1.json", lambda c: c["gains"]["internal"][0].__setitem__(
        1, _long_sum("s", 0.5)), [["check-gains"], ["build-lyapunov"]]),
    "gains.external": ("e1.json", lambda c: c["gains"]["external"].__setitem__(
        0, _long_sum("s", 0.5)), [["check-gains"], ["build-lyapunov"]]),
    "v": ("e1.json", lambda c: c["lyapunov"]["subsystems"][0].update(
        v=_padded("abs(x_1)", "x_1")), [["build-lyapunov"], _SUBSYSTEM, _COMPOSITE]),
    **{key: ("e1.json", _lyapunov(key, total), [["build-lyapunov"], _SUBSYSTEM, _COMPOSITE])
       for key, total in (("psi1", 0.5), ("psi2", 2.0), ("alpha", 0.5), ("lambda", 0.5),
                          ("external_gain", 0.5))},
    "beta.expr": ("e1_traj_iss.json", _trajectories(
        "beta", {"expr": "exp(0 - 0.4*t)*(" + _long_sum("r", 1.0) + ")"}), [["check-traj"]]),
    "sigmas": ("e1_traj_pregs.json", _trajectories(
        "sigmas", [_long_sum("s", 1.0), "s"]), [["check-traj"]]),
    "composite_sigma": ("e1_traj_pregs.json", _trajectories(
        "composite_sigma", _long_sum("s", 1.0)), [["check-traj"]]),
    "composite_gamma": ("e1_traj_pregs.json", _trajectories(
        "composite_gamma", _long_sum("s", 0.5)), [["check-traj"]]),
    "input.exprs": ("e1.json", lambda c: c["analysis"]["simulation"].update(
        input={"type": "expr", "exprs": [_long_sum("t", 0.0)]}), [_SIMULATE]),
}


@pytest.mark.parametrize("field, command", [
    (field, command) for field, (_name, _edit, commands) in _LONG_FIELDS.items()
    for command in commands], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_a_5000_term_sum_runs_in_every_field(tmp_path, capsys, field, command):
    """Each walk over a tree is a loop, so a long sum runs as a short one does:
    every case here passes, as the light config without it does."""
    name, edit, _commands = _LONG_FIELDS[field]
    cfg = _light(name)
    edit(cfg)
    out = str(tmp_path / ("out.csv" if command[0] == "simulate" else "out.json"))
    assert main(command + ["--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_a_5000_term_guard_shared_by_every_subsystem_simulates_in_seconds(tmp_path):
    """The run kernel computes a guard that every subsystem repeats once; numbering
    the repeated subtrees is linear in the tree, so this takes seconds, not the
    minutes of a memo that keys each subtree by its own walk."""
    cfg = _light("e1.json")
    for sub in _subsystems(cfg):
        sub.update(flow_guard=_FLOW_GUARD, jump_guard=_JUMP_GUARD)
    path = write_cfg(tmp_path, cfg)
    start = time.perf_counter()
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("depth", [100, 101])
def test_parentheses_nested_past_the_bound_exit_2_with_the_offset(tmp_path, capsys, depth):
    cfg = _light("e1.json")
    _subsystems(cfg)[0]["flow"] = ["(" * depth + "0 - x_1" + ")" * depth]
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    if depth <= ex.NESTING_MAX:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err.splitlines() == [
            f"error: network.subsystems[0].flow[0]: parentheses nested deeper than "
            f"{ex.NESTING_MAX} levels (offset {depth})"]


def test_deeply_nested_json_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check-gains", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: invalid JSON in {path}: ")
