"""Metric catalogue of the hsgt benchmark: names, units and how each is derived.

``END_TO_END`` are the metrics ``BENCHMARK.json`` bounds; every workload
reports them from an untraced run.  ``COMMAND`` are the per-command times a
workload reports for the commands it runs.  ``PER_LAYER`` come from the
traced run only.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

END_TO_END = [
    ("wall_s", "s"),          # time to produce every verdict of one pass, mean over passes
    ("setup_s", "s"),         # fresh process: import hsgt and load the workload's configs
    ("peak_rss_mb", "MB"),    # peak RSS of the workload process
]

# Invocation command -> per-command metric (its invocations' median times, summed).
COMMAND = {
    "check-gains": "check_gains_s",
    "build-lyapunov": "build_lyapunov_s",
    "verify-subsystem": "verify_subsystem_s",
    "verify-composite": "verify_composite_s",
    "verify-wform": "verify_wform_s",
    "check-traj": "check_traj_s",
    "simulate": "simulate_s",
}

# Per-layer metrics: (name, unit, source).  A source is ("span", span, field),
# ("count", counter) or ("ratio", numerator counter, denominator counter).
PER_LAYER: List[Tuple[str, str, tuple]] = [
    ("config.build.self_s", "s", ("span", "config.build", "self_s")),
    ("expr.compiled_evals", "count", ("count", "expr.compiled_evals")),
    ("expr.directional_bounds.calls", "count", ("span", "expr.directional_bounds", "calls")),
    ("expr.directional_bounds.self_s", "s", ("span", "expr.directional_bounds", "self_s")),
    ("expr.evaluate.calls", "count", ("count", "expr.evaluate.calls")),
    ("kfun.calls", "count", ("count", "kfun.calls")),
    ("kfun.invert.calls", "count", ("span", "kfun.invert", "calls")),
    ("kfun.invert.self_s", "s", ("span", "kfun.invert", "self_s")),
    ("kfun.classify.calls", "count", ("span", "kfun.classify", "calls")),
    ("kfun.classify.self_s", "s", ("span", "kfun.classify", "self_s")),
    ("gains.small_gain_check.self_s", "s", ("span", "gains.small_gain_check", "self_s")),
    ("gains.simple_gain_cycles.calls", "count", ("span", "gains.simple_gain_cycles", "calls")),
    ("gains.cycles_examined", "count", ("count", "gains.cycles_examined")),
    ("gains.gamma_max_apply.calls", "count", ("count", "gains.gamma_max_apply.calls")),
    ("gains.build_omega_path.self_s", "s", ("span", "gains.build_omega_path", "self_s")),
    ("sampling.sample_set.calls", "count", ("span", "sampling.sample_set", "calls")),
    ("sampling.sample_set.self_s", "s", ("span", "sampling.sample_set", "self_s")),
    ("sampling.points_requested", "count", ("count", "sampling.points_requested")),
    ("sampling.points", "count", ("count", "sampling.points")),
    ("sampling.shortfall", "count", ("count", "sampling.shortfall")),
    ("sampling.guard_evals", "count", ("count", "sampling.guard_evals")),
    ("sampling.accept_ratio", "ratio", ("ratio", "sampling.points", "sampling.guard_evals")),
    ("lyapunov.verify_subsystem.self_s", "s", ("span", "lyapunov.verify_subsystem", "self_s")),
    ("lyapunov.verify_composite_flow.self_s", "s",
     ("span", "lyapunov.verify_composite_flow", "self_s")),
    ("lyapunov.verify_composite_jump.self_s", "s",
     ("span", "lyapunov.verify_composite_jump", "self_s")),
    ("lyapunov.samples_tested", "count", ("count", "lyapunov.samples_tested")),
    ("lyapunov.samples_checked", "count", ("count", "lyapunov.samples_checked")),
    ("lyapunov.premise_ratio", "ratio",
     ("ratio", "lyapunov.samples_checked", "lyapunov.samples_tested")),
    ("lyapunov.build_composite.self_s", "s", ("span", "lyapunov.build_composite", "self_s")),
    ("equiv.to_w_form.self_s", "s", ("span", "equiv.to_w_form", "self_s")),
    ("equiv.to_v_form.self_s", "s", ("span", "equiv.to_v_form", "self_s")),
    ("hybrid.simulate.calls", "count", ("span", "hybrid.simulate", "calls")),
    ("hybrid.simulate.self_s", "s", ("span", "hybrid.simulate", "self_s")),
    ("hybrid.jumps", "count", ("count", "hybrid.jumps")),
    ("hybrid.sim_time", "time", ("count", "hybrid.sim_time")),
    ("hybrid.jumps_per_time", "1/time", ("ratio", "hybrid.jumps", "hybrid.sim_time")),
    ("hybrid.samples_recorded", "count", ("count", "hybrid.samples_recorded")),
    ("hybrid.guard_evals", "count", ("count", "hybrid.guard_evals")),
    ("hybrid.flow_evals", "count", ("count", "hybrid.flow_evals")),
    ("hybrid.guard_per_flow_eval", "ratio", ("ratio", "hybrid.guard_evals", "hybrid.flow_evals")),
    ("hybrid.write_csv.self_s", "s", ("span", "hybrid.write_csv", "self_s")),
    ("trajectories.check.self_s", "s", ("span", "trajectories.check", "self_s")),
    ("trajectories.fit_empirical_gain.self_s", "s",
     ("span", "trajectories.fit_empirical_gain", "self_s")),
    ("trajectories.zero_input.self_s", "s", ("span", "trajectories.zero_input", "self_s")),
    ("trajectories.results", "count", ("count", "trajectories.results")),
    ("cli.self_s", "s", ("span", "cli", "self_s")),
    ("trace.wall_s", "s", None),       # traced pass
    ("trace.overhead_s", "s", None),   # traced wall_s minus untraced wall_s
]

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "config": {"moves": ["setup_s"], "on": ["all, most on gains-dense"]},
    "expr": {"moves": ["verify_*_s", "check_traj_s", "simulate_s"],
             "on": ["certify", "traj-sim"]},
    "kfun": {"moves": ["build_lyapunov_s", "setup_s", "verify_wform_s"],
             "on": ["gains-dense", "certify"]},
    "gains": {"moves": ["check_gains_s", "build_lyapunov_s"], "on": ["gains-dense"]},
    "sampling": {"moves": ["verify_*_s"], "on": ["certify"]},
    "lyapunov": {"moves": ["verify_subsystem_s", "verify_composite_s", "build_lyapunov_s"],
                 "on": ["certify", "gains-dense"]},
    "equiv": {"moves": ["verify_wform_s"], "on": ["certify"]},
    "hybrid": {"moves": ["check_traj_s", "simulate_s"], "on": ["traj-sim"]},
    "trajectories": {"moves": ["check_traj_s"], "on": ["traj-sim"]},
    "cli": {"moves": ["wall_s"], "on": ["all"]},
}


def per_layer(times: Dict[str, dict], counts: Dict[str, float],
              traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, _unit, source in PER_LAYER:
        if source is None:
            continue
        if source[0] == "span":
            out[name] = times.get(source[1], {}).get(source[2], 0)
        elif source[0] == "count":
            out[name] = counts.get(source[1], 0)
        else:
            den = counts.get(source[2], 0)
            out[name] = counts.get(source[1], 0) / den if den else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def median_invocations(passes: List[dict]) -> List[Tuple[str, float]]:
    """Each invocation of the plan with its median time over the passes."""
    return [(rec["command"], statistics.median(p["invocations"][i]["seconds"] for p in passes))
            for i, rec in enumerate(passes[0]["invocations"])]


def command_times(passes: List[dict]) -> Dict[str, float]:
    """Per command metric, the sum of its invocations' median times."""
    out: Dict[str, float] = {}
    for command, seconds in median_invocations(passes):
        name = COMMAND[command]
        out[name] = out.get(name, 0.0) + seconds
    return out


def units() -> Dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: "s" for name in COMMAND.values()})
    out["wall_median_s"] = "s"
    out["wall_min_s"] = "s"
    out["failed_frac"] = "ratio"
    out.update({name: unit for name, unit, _src in PER_LAYER})
    return out
