"""Tests of the benchmark itself: generators, oracles and metric catalogue.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

# Every metric the benchmark's definition names, with its unit.
NAMED = {
    "setup_s": "s", "wall_s": "s", "check_gains_s": "s", "build_lyapunov_s": "s",
    "verify_subsystem_s": "s", "verify_composite_s": "s", "verify_wform_s": "s",
    "check_traj_s": "s", "simulate_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "config.build.self_s": "s", "expr.compiled_evals": "count",
    "expr.directional_bounds.calls": "count", "expr.directional_bounds.self_s": "s",
    "expr.evaluate.calls": "count", "kfun.calls": "count", "kfun.invert.calls": "count",
    "kfun.invert.self_s": "s", "kfun.classify.calls": "count", "kfun.classify.self_s": "s",
    "gains.small_gain_check.self_s": "s", "gains.simple_gain_cycles.calls": "count",
    "gains.cycles_examined": "count", "gains.gamma_max_apply.calls": "count",
    "gains.build_omega_path.self_s": "s", "sampling.sample_set.calls": "count",
    "sampling.sample_set.self_s": "s", "sampling.points_requested": "count",
    "sampling.points": "count", "sampling.shortfall": "count", "sampling.guard_evals": "count",
    "sampling.accept_ratio": "ratio", "lyapunov.verify_subsystem.self_s": "s",
    "lyapunov.verify_composite_flow.self_s": "s", "lyapunov.verify_composite_jump.self_s": "s",
    "lyapunov.samples_tested": "count", "lyapunov.samples_checked": "count",
    "lyapunov.premise_ratio": "ratio", "lyapunov.build_composite.self_s": "s",
    "equiv.to_w_form.self_s": "s", "equiv.to_v_form.self_s": "s",
    "hybrid.simulate.calls": "count", "hybrid.simulate.self_s": "s", "hybrid.jumps": "count",
    "hybrid.samples_recorded": "count", "hybrid.guard_evals": "count",
    "hybrid.flow_evals": "count", "hybrid.guard_per_flow_eval": "ratio",
    "hybrid.write_csv.self_s": "s", "trajectories.check.self_s": "s",
    "trajectories.fit_empirical_gain.self_s": "s", "trajectories.zero_input.self_s": "s",
    "trajectories.results": "count", "cli.self_s": "s", "trace.overhead_s": "s",
}


def _tree(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(tmp_path, workload):
    a, b, c = (str(tmp_path / d) for d in "abc")
    workloads.generate(workload, 7, a, ROOT)
    workloads.generate(workload, 7, b, ROOT)
    workloads.generate(workload, 8, c, ROOT)
    assert _tree(a) == _tree(b)
    assert _tree(a)["plan.json"] != _tree(c)["plan.json"]


def _shipped_bounds(name):
    with open(os.path.join(ROOT, "configs", name), "r", encoding="utf-8") as fh:
        rows = json.load(fh)["gains"]["internal"]
    entries = [[oracles.parse_gain(e) for e in row] for row in rows]
    bounds = [[workloads.slope_bounds(e) for e in row] for row in entries]
    return [[b[0] for b in row] for row in bounds], [[b[1] for b in row] for row in bounds]


def test_gains_oracle_on_shipped_configs():
    lo, hi = _shipped_bounds("e1.json")
    assert oracles.classify_network(lo, hi) == "holds"
    assert oracles.max_cycle_product(hi) == pytest.approx(0.25, abs=1e-15)
    assert oracles.two_cycle_floor(lo) == pytest.approx(0.25, abs=1e-15)
    lo, hi = _shipped_bounds("e1_unstable.json")
    assert oracles.classify_network(lo, hi) == "violated"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", workloads.DENSE_SIZES)
def test_dense_draws_meet_their_class(seed, n):
    for violated in (False, True):
        entries, pair = workloads.draw_dense(seed, n, violated)
        bounds = [[workloads.slope_bounds(e) for e in row] for row in entries]
        lo = [[b[0] for b in row] for row in bounds]
        hi = [[b[1] for b in row] for row in bounds]
        assert oracles.classify_network(lo, hi) == ("violated" if violated else "holds")
        assert (pair is not None) == violated
        text = workloads.dense_config(entries, seed)["gains"]["internal"]
        assert [[oracles.parse_gain(t) for t in row] for row in text] == entries


def test_gain_shapes_bound_by_slopes():
    for entry in (("lin", 0.4), ("sat", 0.3, 0.2)):
        lo, hi = workloads.slope_bounds(entry)
        for s in (1e-6, 0.3, 1.0, 7.0, 1e6):
            assert lo * s <= oracles.gain_value(entry, s) <= hi * s * (1 + 1e-12)


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _src in metrics.PER_LAYER]


def test_every_named_metric_has_its_unit():
    units = metrics.units()
    assert {k: units.get(k) for k in NAMED} == NAMED


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_reports_every_metric_with_units():
    proc = _run(ROOT, "--workload", "traj-sim", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(metrics.END_TO_END)
    detail = json.loads(next(l for l in lines if l.startswith("# detail "))[len("# detail "):])
    assert {k: v["unit"] for k, v in detail.items()} == {
        **dict(metrics.END_TO_END), "wall_median_s": "s", "wall_min_s": "s", "check_traj_s": "s",
        "simulate_s": "s", "failed_frac": "ratio"}

    proc = _run(ROOT, "--workload", "traj-sim", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _src in metrics.PER_LAYER}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["hybrid.simulate.calls"] > 1 and values["hybrid.jumps"] > 100
    assert values["trajectories.results"] > 0 and values["hybrid.write_csv.self_s"] > 0
    assert values["sampling.sample_set.calls"] == 0 and values["gains.cycles_examined"] == 0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(str(tmp_path), "--workload", "certify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
