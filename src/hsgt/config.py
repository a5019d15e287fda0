"""JSON project configuration: network, gains, candidates, analysis settings.

Expressions live in strings and are parsed against the variable names implied
by the declared dimensions (``x_1..x_N``, ``u_1..u_M``, gains in ``s``).
Validation errors carry a config path and, for expressions, the parse offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .gains import GainMatrix, SmallGainOptions
from .hybrid import InputSignal, NetworkSpec, SimOptions, SubsystemSpec, compose_network
from .kfun import Classification, KFun, at_least, pointwise_max
from .lyapunov import SubsystemLyapunov, VerifyTolerances
from .sampling import SamplerSpec
from .trajectories import (AGEstimate, Beta, ISSEstimate, PreGSEstimate,
                           TrajectoryGains, initial_condition_grid)


class ConfigError(Exception):
    pass


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    return d[key]


def _as_int(value, path: str, minimum: int) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        _fail(path, f"expected an integer, got {value!r}")
    if out < minimum:
        _fail(path, f"must be at least {minimum}, got {out}")
    return out


def _finite_vector(values, size: int, path: str) -> np.ndarray:
    try:
        out = np.asarray([float(v) for v in values])
    except (TypeError, ValueError):
        _fail(path, "expected a list of numbers")
    if out.shape != (size,) or not np.all(np.isfinite(out)):
        _fail(path, f"need {size} finite components")
    return out


def _parse_expr(text, allowed, path: str) -> ex.Expr:
    if not isinstance(text, str):
        _fail(path, f"expected an expression string, got {type(text).__name__}")
    try:
        return ex.parse(text, allowed)
    except ex.ParseError as err:
        _fail(path, str(err))


def _parse_kfun(text, path: str) -> KFun:
    if text is None or text == "0":
        return KFun.zero()
    return KFun.from_expr(_parse_expr(text, ("s",), path))


def _parse_gain_entry(entry, path: str) -> KFun:
    if entry is None or entry == "0":
        return KFun.zero()
    if isinstance(entry, dict):
        flow = _parse_kfun(_get(entry, "flow", path), f"{path}.flow")
        jump = _parse_kfun(_get(entry, "jump", path), f"{path}.jump")
        return pointwise_max([flow, jump])
    return _parse_kfun(entry, path)


def _gain_list(entries, n: int, path: str) -> List[KFun]:
    if entries is None:
        return [KFun.zero()] * n
    if not isinstance(entries, list) or len(entries) != n:
        _fail(path, f"need one entry per subsystem ({n})")
    return [_parse_gain_entry(e, f"{path}[{i}]") for i, e in enumerate(entries)]


def _gain_rows(rows, n: int, path: str) -> List[List[KFun]]:
    if rows is None:
        return [[KFun.zero()] * n for _ in range(n)]
    if not isinstance(rows, list) or len(rows) != n:
        _fail(path, f"need an {n} x {n} matrix of entries")
    return [_gain_list(row, n, f"{path}[{i}]") for i, row in enumerate(rows)]


@dataclass
class SimulationSection:
    x0: np.ndarray
    input_signal: InputSignal
    horizon: float
    max_jumps: int
    options: SimOptions


@dataclass
class TrajectorySection:
    kind: str
    estimate: object
    initial_conditions: List[np.ndarray]
    input_levels: List[float]
    horizon: float
    max_jumps: int
    options: SimOptions
    tail_fraction: float
    gain_fit_levels: Optional[List[float]] = None
    zero_input: Optional[dict] = None


@dataclass
class ProjectConfig:
    path: str
    raw: dict
    network: NetworkSpec
    gain_matrix: Optional[GainMatrix]
    candidates: Optional[List[SubsystemLyapunov]]
    anchor: Optional[np.ndarray]
    seed: int
    priority: str
    sg_options: SmallGainOptions
    sampler: SamplerSpec
    tolerances: VerifyTolerances
    simulation: Optional[SimulationSection]
    trajectories: Optional[TrajectorySection]

    def apply_seed(self, seed: int):
        self.seed = seed
        self.sampler.seed = seed
        self.sg_options.seed = seed


def load_config(path: str) -> ProjectConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return build_config(raw, path)


def build_config(raw: dict, path: str = "<dict>") -> ProjectConfig:
    net = _build_network(_get(raw, "network", "config"))
    n = net.n

    analysis = raw.get("analysis", {})
    seed = int(analysis.get("seed", 0))
    priority = analysis.get("priority", "jump")
    if priority not in ("jump", "flow"):
        _fail("analysis.priority", f"expected 'jump' or 'flow', got {priority!r}")
    anchor = analysis.get("anchor")
    if anchor is not None:
        anchor = np.asarray([float(v) for v in anchor])
        if anchor.shape != (n,) or np.any(anchor <= 0):
            _fail("analysis.anchor", f"need {n} positive entries")

    grid_cfg = analysis.get("grid", {})
    sg_options = SmallGainOptions(
        grid_lo=float(grid_cfg.get("lo", 1e-8)),
        grid_hi=float(grid_cfg.get("hi", 1e8)),
        grid_points=int(grid_cfg.get("points", 128)),
        seed=seed)

    sampler_cfg = analysis.get("sampler", {})
    u_box = sampler_cfg.get("u_box")
    if u_box is not None:
        u_box = [(float(lo), float(hi)) for lo, hi in u_box]
        if len(u_box) != net.input_dim:
            _fail("analysis.sampler.u_box", f"need {net.input_dim} component ranges")
    sampler = SamplerSpec(
        n_samples=int(sampler_cfg.get("n_samples", 10000)),
        box_radius=float(sampler_cfg.get("box_radius", 1.0)),
        u_box=u_box,
        boundary_fraction=float(sampler_cfg.get("boundary_fraction", 0.2)),
        tie_fraction=float(sampler_cfg.get("tie_fraction", 0.2)),
        seed=int(sampler_cfg.get("seed", seed)))

    tol_cfg = analysis.get("tolerances", {})
    tolerances = VerifyTolerances(
        flow=float(tol_cfg.get("flow", 1e-7)),
        jump_rel=float(tol_cfg.get("jump_rel", 1e-9)),
        jump_abs=float(tol_cfg.get("jump_abs", 1e-12)),
        sandwich_rel=float(tol_cfg.get("sandwich_rel", 1e-9)))

    gain_matrix = None
    if "gains" in raw:
        gain_matrix = _build_gain_matrix(raw["gains"], n)
    externals = _gain_list(raw.get("gains", {}).get("external"), n, "gains.external")

    candidates = None
    if "lyapunov" in raw:
        candidates = _build_candidates(raw["lyapunov"], net, gain_matrix, externals)

    simulation = None
    if "simulation" in analysis:
        simulation = _build_simulation(analysis["simulation"], net, priority)

    trajectories = None
    if "trajectories" in analysis:
        trajectories = _build_trajectories(analysis["trajectories"], net, priority, seed)

    return ProjectConfig(path=path, raw=raw, network=net, gain_matrix=gain_matrix,
                         candidates=candidates, anchor=anchor, seed=seed,
                         priority=priority, sg_options=sg_options, sampler=sampler,
                         tolerances=tolerances, simulation=simulation,
                         trajectories=trajectories)


def _build_network(cfg: dict) -> NetworkSpec:
    input_dim = _as_int(_get(cfg, "input_dim", "network"), "network.input_dim", 0)
    subs_cfg = _get(cfg, "subsystems", "network")
    if not isinstance(subs_cfg, list) or not subs_cfg:
        _fail("network.subsystems", "need a nonempty list of subsystems")
    dims = [_as_int(_get(s, "dim", f"network.subsystems[{i}]"),
                    f"network.subsystems[{i}].dim", 1) for i, s in enumerate(subs_cfg)]
    state_dim = sum(dims)
    allowed = tuple(f"x_{i + 1}" for i in range(state_dim)) + \
        tuple(f"u_{m + 1}" for m in range(input_dim))
    specs = []
    for i, s in enumerate(subs_cfg):
        base = f"network.subsystems[{i}]"
        dim = dims[i]
        flow_cfg = _get(s, "flow", base)
        jump_cfg = _get(s, "jump", base)
        if len(flow_cfg) != dim or len(jump_cfg) != dim:
            _fail(base, f"flow and jump maps must each have {dim} components")
        flow = [_parse_expr(t, allowed, f"{base}.flow[{j}]") for j, t in enumerate(flow_cfg)]
        jump = [_parse_expr(t, allowed, f"{base}.jump[{j}]") for j, t in enumerate(jump_cfg)]
        c_guard = _parse_expr(_get(s, "flow_guard", base, required=False, default="-1"),
                              allowed, f"{base}.flow_guard")
        d_guard_cfg = _get(s, "jump_guard", base, required=False)
        if d_guard_cfg is None:
            d_guard = ex.Const(1.0)  # empty jump set
        else:
            d_guard = _parse_expr(d_guard_cfg, allowed, f"{base}.jump_guard")
        specs.append(SubsystemSpec(dim=dim, flow=flow, jump=jump, c_guard=c_guard,
                                   d_guard=d_guard, name=s.get("name", f"sub{i + 1}")))
    return compose_network(specs, input_dim)


def _build_gain_matrix(cfg: dict, n: int) -> GainMatrix:
    rows = _gain_rows(_get(cfg, "internal", "gains"), n, "gains.internal")
    for i, row in enumerate(rows):
        for j, g in enumerate(row):
            if g.is_zero:
                continue
            if i == j:
                _fail(f"gains.internal[{i}][{j}]", "diagonal entries must be zero")
            if not at_least(g.classification, Classification.CLASS_K_INF):
                _fail(f"gains.internal[{i}][{j}]",
                      f"classified {g.classification.value}; nonzero gains must be class-Kinf")
    return GainMatrix.from_rows(rows)


def _build_candidates(cfg: dict, net: NetworkSpec, gm: Optional[GainMatrix],
                      externals: Sequence[KFun]) -> List[SubsystemLyapunov]:
    """Candidates per subsystem; one without its own external gain takes gains.external[i]."""
    subs = _get(cfg, "subsystems", "lyapunov")
    if len(subs) != net.n:
        _fail("lyapunov.subsystems", f"need one candidate per subsystem ({net.n})")
    out = []
    for i, s in enumerate(subs):
        base = f"lyapunov.subsystems[{i}]"
        sub_vars = net.state_vars()[net.slices[i]]
        v = _parse_expr(_get(s, "v", base), sub_vars, f"{base}.v")
        psi1 = _parse_kfun(_get(s, "psi1", base), f"{base}.psi1")
        psi2 = _parse_kfun(_get(s, "psi2", base), f"{base}.psi2")
        alpha = _parse_kfun(_get(s, "alpha", base), f"{base}.alpha")
        lam = _parse_kfun(_get(s, "lambda", base), f"{base}.lambda")
        internal = {}
        if "internal_gains" in s:
            row = _gain_list(s["internal_gains"], net.n, f"{base}.internal_gains")
            internal = {j: g for j, g in enumerate(row) if not g.is_zero}
        elif gm is not None:
            for j in range(net.n):
                if j != i and not gm.entries[i][j].is_zero:
                    internal[j] = gm.entries[i][j]
        external = _parse_gain_entry(s.get("external_gain"), f"{base}.external_gain")
        if external.is_zero:
            external = externals[i]
        out.append(SubsystemLyapunov(v=v, psi1=psi1, psi2=psi2, alpha=alpha, lam=lam,
                                     gamma_internal=internal, gamma_external=external))
    return out


def _build_input(cfg, net: NetworkSpec, path: str) -> InputSignal:
    if cfg is None:
        return InputSignal.zero(net.input_dim)
    kind = _get(cfg, "type", path)
    if kind == "constant":
        values = _get(cfg, "value", path)
        if len(values) != net.input_dim:
            _fail(path, f"constant input needs {net.input_dim} components")
        return InputSignal.constant([float(v) for v in values])
    if kind == "expr":
        texts = _get(cfg, "exprs", path)
        if len(texts) != net.input_dim:
            _fail(path, f"expression input needs {net.input_dim} components")
        exprs = [_parse_expr(t, ("t", "k"), f"{path}.exprs[{j}]")
                 for j, t in enumerate(texts)]
        return InputSignal.from_exprs(exprs)
    if kind == "piecewise":
        times = [float(v) for v in _get(cfg, "times", path)]
        values = [[float(v) for v in row] for row in _get(cfg, "values", path)]
        return InputSignal.piecewise(times, values)
    _fail(path, f"unknown input type '{kind}'")


def _sim_options(cfg: dict, priority: str, base: str) -> SimOptions:
    try:
        step = float(cfg.get("step", 1e-3))
    except (TypeError, ValueError):
        _fail(f"{base}.step", f"expected a number, got {cfg.get('step')!r}")
    if not (math.isfinite(step) and step > 0.0):
        _fail(f"{base}.step", f"need a positive finite step, got {step!r}")
    return SimOptions(step=step, priority=priority,
                      record_every=int(cfg.get("record_every", 1)))


def _build_simulation(cfg: dict, net: NetworkSpec, priority: str) -> SimulationSection:
    base = "analysis.simulation"
    x0 = _finite_vector(_get(cfg, "x0", base), net.state_dim, f"{base}.x0")
    u = _build_input(cfg.get("input"), net, f"{base}.input")
    opts = _sim_options(cfg, priority, base)
    return SimulationSection(x0=x0, input_signal=u,
                             horizon=float(_get(cfg, "horizon", base)),
                             max_jumps=int(_get(cfg, "max_jumps", base)),
                             options=opts)


def _build_trajectories(cfg: dict, net: NetworkSpec, priority: str,
                        seed: int) -> TrajectorySection:
    base = "analysis.trajectories"
    kind = _get(cfg, "kind", base)
    gains = TrajectoryGains(
        _gain_rows(cfg.get("internal_gains"), net.n, f"{base}.internal_gains"),
        _gain_list(cfg.get("external_gains"), net.n, f"{base}.external_gains"))
    if kind == "iss":
        beta_cfg = _get(cfg, "beta", base)
        if "expr" in beta_cfg:
            beta = Beta.from_expr(_parse_expr(beta_cfg["expr"], ("r", "t", "k"),
                                              f"{base}.beta.expr"))
        else:
            beta = Beta.exponential(float(_get(beta_cfg, "scale", f"{base}.beta")),
                                    float(_get(beta_cfg, "rate", f"{base}.beta")))
        beta.validate()
        estimate = ISSEstimate(betas=[beta] * net.n, gains=gains)
    elif kind == "pre-gs":
        sigmas_cfg = _get(cfg, "sigmas", base)
        if len(sigmas_cfg) != net.n:
            _fail(f"{base}.sigmas", f"need {net.n} entries")
        sigmas = [_parse_kfun(t, f"{base}.sigmas[{i}]") for i, t in enumerate(sigmas_cfg)]
        comp_sigma = _parse_kfun(cfg["composite_sigma"], f"{base}.composite_sigma") \
            if "composite_sigma" in cfg else None
        comp_gamma = _parse_kfun(cfg["composite_gamma"], f"{base}.composite_gamma") \
            if "composite_gamma" in cfg else None
        estimate = PreGSEstimate(sigmas=sigmas, gains=gains,
                                 composite_sigma=comp_sigma, composite_gamma=comp_gamma)
    elif kind == "ag":
        comp_gamma = _parse_kfun(cfg["composite_gamma"], f"{base}.composite_gamma") \
            if "composite_gamma" in cfg else None
        estimate = AGEstimate(gains=gains, composite_gamma=comp_gamma,
                              tail_fraction=float(cfg.get("tail_fraction", 0.2)))
    else:
        _fail(f"{base}.kind", f"unknown estimate kind '{kind}' (iss | pre-gs | ag)")

    ic_cfg = _get(cfg, "initial_conditions", base)
    if isinstance(ic_cfg, dict):
        ics = initial_condition_grid(int(_get(ic_cfg, "count", f"{base}.initial_conditions")),
                                     float(_get(ic_cfg, "radius", f"{base}.initial_conditions")),
                                     net.state_dim, seed=int(ic_cfg.get("seed", seed)))
    else:
        ics = [_finite_vector(row, net.state_dim, f"{base}.initial_conditions[{i}]")
               for i, row in enumerate(ic_cfg)]
    levels = [float(v) for v in cfg.get("input_levels", [0.0])]
    opts = _sim_options(cfg, priority, base)
    gain_fit = cfg.get("gain_fit")
    zero_input = cfg.get("zero_input")
    return TrajectorySection(kind=kind, estimate=estimate, initial_conditions=ics,
                             input_levels=levels,
                             horizon=float(_get(cfg, "horizon", base)),
                             max_jumps=int(_get(cfg, "max_jumps", base)),
                             options=opts,
                             tail_fraction=float(cfg.get("tail_fraction", 0.2)),
                             gain_fit_levels=[float(v) for v in gain_fit["levels"]]
                             if gain_fit else None,
                             zero_input=zero_input)
