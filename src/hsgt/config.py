"""JSON project configuration: network, gains, candidates, analysis settings.

Expressions live in strings and are parsed against the variable names implied
by the declared dimensions (``x_1..x_N``, ``u_1..u_M``, gains in ``s``).
Validation errors carry a config path and, for expressions, the parse offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

# Most points of the small-gain grid: each grid is one array of that many floats.
GRID_POINTS_MAX = 1_000_000
# Most samples of one sample set: each set is drawn in blocks of rows, and the
# tie stratum's row draws need fewer than 2**32 inside rows.
SAMPLES_MAX = 10_000_000


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


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _integer(value, path: str) -> int:
    """``value`` as an int; a float must be integral (16.0 reads as 16, 16.9 fails)."""
    if isinstance(value, float) and not value.is_integer():
        _fail(path, f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        _fail(path, f"expected an integer, got {value!r}")


def _as_int(value, path: str, minimum: int) -> int:
    out = _integer(value, path)
    if out < minimum:
        _fail(path, f"must be at least {minimum}, got {value!r}")
    return out


def _seed(cfg: dict, path: str, default: int) -> int:
    """``cfg["seed"]``, an integer of at least 0 (numpy's generators take no other)."""
    return _as_int(cfg.get("seed", default), f"{path}.seed", 0)


def _number(cfg: dict, key: str, path: str, default=None) -> float:
    """``cfg[key]`` as a float; required when ``default`` is None."""
    value = _get(cfg, key, path, required=default is None, default=default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")


def _bounded(cfg: dict, key: str, path: str, default: float, top: float = math.inf) -> float:
    """``cfg[key]``, a finite number in [0, top]."""
    value = _number(cfg, key, path, default)
    if not (math.isfinite(value) and 0.0 <= value <= top):
        bound = ">= 0" if top == math.inf else f"in [0, {top:g}]"
        _fail(f"{path}.{key}", f"need a finite number {bound}, got {value!r}")
    return value


def _finite_vector(values, size: Optional[int], path: str) -> np.ndarray:
    """Finite numbers, exactly ``size`` of them unless ``size`` is None."""
    try:
        out = np.asarray([float(v) for v in values])
    except (TypeError, ValueError):
        _fail(path, "expected a list of numbers")
    if (size is not None and out.shape != (size,)) or not np.all(np.isfinite(out)):
        _fail(path, "need finite numbers" if size is None else f"need {size} finite components")
    return out


def _budget(cfg: dict, base: str, horizon=None, max_jumps=None,
            nonzero: bool = False) -> Tuple[float, int]:
    """A finite horizon >= 0 and a jump budget >= 0; required unless defaulted.

    With ``nonzero``, at least one of the two must be positive.
    """
    horizon = _number(cfg, "horizon", base, horizon)
    if not (math.isfinite(horizon) and horizon >= 0.0):
        _fail(f"{base}.horizon", f"need a finite horizon >= 0, got {horizon!r}")
    written = _get(cfg, "max_jumps", base, required=max_jumps is None, default=max_jumps)
    max_jumps = _integer(written, f"{base}.max_jumps")
    if max_jumps < 0:
        _fail(f"{base}.max_jumps", f"need a jump budget >= 0, got {written!r}")
    if nonzero and horizon == 0.0 and max_jumps == 0:
        _fail(base, "need a positive horizon or a positive jump budget")
    return horizon, max_jumps


def _u_box(entries, input_dim: int, path: str) -> Optional[List[Tuple[float, float]]]:
    """Input sampling ranges: one finite ``[lo, hi]`` pair with lo <= hi per input."""
    if entries is None:
        return None
    if not isinstance(entries, list) or len(entries) != input_dim:
        _fail(path, f"need {input_dim} component ranges")
    out = []
    for j, pair in enumerate(entries):
        try:
            lo, hi = (float(v) for v in pair)
        except (TypeError, ValueError):
            _fail(f"{path}[{j}]", f"expected a [lo, hi] pair of numbers, got {pair!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            _fail(f"{path}[{j}]", f"need finite lo <= hi, got {pair!r}")
        out.append((lo, hi))
    return out


def _parse_expr(text, allowed, path: str) -> ex.Expr:
    if not isinstance(text, str):
        _fail(path, f"expected an expression string, got {type(text).__name__}")
    try:
        return ex.parse(text, allowed)
    except ex.ParseError as err:
        _fail(path, str(err))


def _parse_kfun(text, path: str, built: dict) -> KFun:
    """``text`` as a comparison function.  ``built`` maps the ``tree_key`` of each
    expression already built while loading this config to its function, so that
    a repeated expression is built once; class checks stay with each use."""
    if text is None or text == "0":
        return KFun.zero()
    tree = _parse_expr(text, ("s",), path)
    key = ex.tree_key(tree)
    f = built.get(key)
    if f is None:
        f = built[key] = KFun.from_expr(tree)
    return f


def _classed_kfun(cfg: dict, key: str, base: str, floor: Classification, built: dict) -> KFun:
    """``cfg[key]`` as a comparison function of at least class ``floor``."""
    f = _parse_kfun(_get(cfg, key, base), f"{base}.{key}", built)
    if not at_least(f.classification, floor):
        _fail(f"{base}.{key}", f"classified {f.classification.value}; must be {floor.value}")
    return f


def _parse_gain_entry(entry, path: str, built: dict) -> KFun:
    if entry is None or entry == "0":
        return KFun.zero()
    if isinstance(entry, dict):
        flow = _parse_kfun(_get(entry, "flow", path), f"{path}.flow", built)
        jump = _parse_kfun(_get(entry, "jump", path), f"{path}.jump", built)
        return pointwise_max([flow, jump])
    return _parse_kfun(entry, path, built)


def _gain_list(entries, n: int, path: str, built: dict) -> List[KFun]:
    if entries is None:
        return [KFun.zero()] * n
    if not isinstance(entries, list) or len(entries) != n:
        _fail(path, f"need one entry per subsystem ({n})")
    return [_parse_gain_entry(e, f"{path}[{i}]", built) for i, e in enumerate(entries)]


def _gain_rows(rows, n: int, path: str, built: dict) -> List[List[KFun]]:
    if rows is None:
        return [[KFun.zero()] * n for _ in range(n)]
    if not isinstance(rows, list) or len(rows) != n:
        _fail(path, f"need an {n} x {n} matrix of entries")
    return [_gain_list(row, n, f"{path}[{i}]", built) for i, row in enumerate(rows)]


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
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return build_config(raw)


def build_config(raw: dict) -> ProjectConfig:
    net = _build_network(_object(_get(_object(raw, "config"), "network", "config"), "network"))
    n = net.n

    analysis = _object(raw.get("analysis", {}), "analysis")
    seed = _seed(analysis, "analysis", 0)
    priority = analysis.get("priority", "jump")
    if priority not in ("jump", "flow"):
        _fail("analysis.priority", f"expected 'jump' or 'flow', got {priority!r}")
    anchor = analysis.get("anchor")
    if anchor is not None:
        anchor = _finite_vector(anchor, n, "analysis.anchor")
        if np.any(anchor <= 0):
            _fail("analysis.anchor", f"need {n} positive entries")

    grid_cfg = _object(analysis.get("grid", {}), "analysis.grid")
    points = grid_cfg.get("points", 128)  # as written, for the range errors
    sg_options = SmallGainOptions(
        grid_lo=_number(grid_cfg, "lo", "analysis.grid", 1e-8),
        grid_hi=_number(grid_cfg, "hi", "analysis.grid", 1e8),
        grid_points=_integer(points, "analysis.grid.points"),
        seed=seed)
    if sg_options.grid_points < 16:
        _fail("analysis.grid.points", f"need at least 16 points, got {points!r}")
    if sg_options.grid_points > GRID_POINTS_MAX:
        _fail("analysis.grid.points", f"need at most {GRID_POINTS_MAX} points, got {points!r}")
    if not (math.isfinite(sg_options.grid_hi) and 0.0 < sg_options.grid_lo < sg_options.grid_hi):
        _fail("analysis.grid", "need finite 0 < lo < hi, got "
              f"lo={sg_options.grid_lo!r}, hi={sg_options.grid_hi!r}")

    base = "analysis.sampler"
    sampler_cfg = _object(analysis.get("sampler", {}), base)
    n_samples = sampler_cfg.get("n_samples", 10000)  # as written, for the range errors
    sampler = SamplerSpec(
        n_samples=_integer(n_samples, f"{base}.n_samples"),
        box_radius=_number(sampler_cfg, "box_radius", base, 1.0),
        u_box=_u_box(sampler_cfg.get("u_box"), net.input_dim, f"{base}.u_box"),
        boundary_fraction=_number(sampler_cfg, "boundary_fraction", base, 0.2),
        tie_fraction=_number(sampler_cfg, "tie_fraction", base, 0.2),
        seed=_seed(sampler_cfg, base, seed))
    if not (math.isfinite(sampler.box_radius) and sampler.box_radius > 0.0):
        _fail(f"{base}.box_radius", f"need a positive finite radius, got {sampler.box_radius!r}")
    if sampler.n_samples < 1:
        _fail(f"{base}.n_samples", f"need at least 1 sample, got {n_samples!r}")
    if sampler.n_samples > SAMPLES_MAX:
        _fail(f"{base}.n_samples", f"need at most {SAMPLES_MAX} samples, got {n_samples!r}")
    for key in ("boundary_fraction", "tie_fraction"):
        if not getattr(sampler, key) >= 0.0:
            _fail(f"{base}.{key}", f"need a fraction >= 0, got {getattr(sampler, key)!r}")
    if not sampler.boundary_fraction + sampler.tie_fraction < 1.0:
        # the uniform draws seed the boundary and tie points, so they keep a share
        _fail(base, "need boundary_fraction + tie_fraction < 1, got "
              f"{sampler.boundary_fraction!r} + {sampler.tie_fraction!r}")

    tol_cfg = _object(analysis.get("tolerances", {}), "analysis.tolerances")
    tolerances = VerifyTolerances(
        **{key: _bounded(tol_cfg, key, "analysis.tolerances", getattr(VerifyTolerances, key))
           for key in ("flow", "jump_rel", "jump_abs", "sandwich_rel")})

    built: dict = {}  # one function per distinct expression of this config
    gain_matrix = None
    gains_cfg = _object(raw.get("gains", {}), "gains")
    if "gains" in raw:
        gain_matrix = _build_gain_matrix(gains_cfg, n, built)
    externals = _gain_list(gains_cfg.get("external"), n, "gains.external", built)

    candidates = None
    if "lyapunov" in raw:
        candidates = _build_candidates(raw["lyapunov"], net, gain_matrix, externals, built)

    simulation = None
    if "simulation" in analysis:
        simulation = _build_simulation(analysis["simulation"], net, priority)

    trajectories = None
    if "trajectories" in analysis:
        trajectories = _build_trajectories(analysis["trajectories"], net, priority, seed, built)

    return ProjectConfig(network=net, gain_matrix=gain_matrix, candidates=candidates,
                         anchor=anchor, seed=seed, priority=priority, sg_options=sg_options,
                         sampler=sampler, tolerances=tolerances, simulation=simulation,
                         trajectories=trajectories)


def _build_network(cfg: dict) -> NetworkSpec:
    input_dim = _as_int(_get(cfg, "input_dim", "network"), "network.input_dim", 0)
    subs_cfg = _get(cfg, "subsystems", "network")
    if not isinstance(subs_cfg, list) or not subs_cfg:
        _fail("network.subsystems", "need a nonempty list of subsystems")
    subs_cfg = [_object(s, f"network.subsystems[{i}]") for i, s in enumerate(subs_cfg)]
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
        if not all(isinstance(c, list) and len(c) == dim for c in (flow_cfg, jump_cfg)):
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


def _build_gain_matrix(cfg: dict, n: int, built: dict) -> GainMatrix:
    rows = _gain_rows(_get(cfg, "internal", "gains"), n, "gains.internal", built)
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
                      externals: Sequence[KFun], built: dict) -> List[SubsystemLyapunov]:
    """Candidates per subsystem; one without its own external gain takes gains.external[i]."""
    subs = _get(_object(cfg, "lyapunov"), "subsystems", "lyapunov")
    if not isinstance(subs, list) or len(subs) != net.n:
        _fail("lyapunov.subsystems", f"need one candidate per subsystem ({net.n})")
    out = []
    for i, s in enumerate(subs):
        base = f"lyapunov.subsystems[{i}]"
        _object(s, base)
        sub_vars = net.state_vars()[net.slices[i]]
        v = _parse_expr(_get(s, "v", base), sub_vars, f"{base}.v")
        psi1, psi2, alpha, lam = (_classed_kfun(s, key, base, floor, built) for key, floor in (
            ("psi1", Classification.CLASS_K_INF), ("psi2", Classification.CLASS_K_INF),
            ("alpha", Classification.POSITIVE_DEFINITE),
            ("lambda", Classification.POSITIVE_DEFINITE)))
        internal = {}
        if "internal_gains" in s:
            row = _gain_list(s["internal_gains"], net.n, f"{base}.internal_gains", built)
            internal = {j: g for j, g in enumerate(row) if not g.is_zero}
        elif gm is not None:
            for j in range(net.n):
                if j != i and not gm.entries[i][j].is_zero:
                    internal[j] = gm.entries[i][j]
        external = _parse_gain_entry(s.get("external_gain"), f"{base}.external_gain", built)
        if external.is_zero:
            external = externals[i]
        out.append(SubsystemLyapunov(v=v, psi1=psi1, psi2=psi2, alpha=alpha, lam=lam,
                                     gamma_internal=internal, gamma_external=external))
    return out


def _build_input(cfg, net: NetworkSpec, path: str) -> InputSignal:
    if cfg is None:
        return InputSignal.zero(net.input_dim)
    kind = _get(_object(cfg, path), "type", path)
    m = net.input_dim
    if kind == "constant":
        return InputSignal.constant(_finite_vector(_get(cfg, "value", path), m, f"{path}.value"))
    if kind == "expr":
        texts = _get(cfg, "exprs", path)
        if not isinstance(texts, list) or len(texts) != m:
            _fail(path, f"expression input needs {net.input_dim} components")
        exprs = [_parse_expr(t, ("t", "k"), f"{path}.exprs[{j}]")
                 for j, t in enumerate(texts)]
        return InputSignal.from_exprs(exprs)
    if kind == "piecewise":
        times = _finite_vector(_get(cfg, "times", path), None, f"{path}.times")
        if len(times) == 0 or np.any(np.diff(times) <= 0.0):
            _fail(f"{path}.times", "need nonempty, strictly increasing times")
        rows = _get(cfg, "values", path)
        if not isinstance(rows, list) or len(rows) != len(times):
            _fail(f"{path}.values", f"need one row per time ({len(times)})")
        return InputSignal.piecewise(times, [_finite_vector(row, m, f"{path}.values[{i}]")
                                             for i, row in enumerate(rows)])
    _fail(path, f"unknown input type '{kind}'")


def _sim_options(cfg: dict, priority: str, base: str) -> SimOptions:
    step = _number(cfg, "step", base, 1e-3)
    if not (math.isfinite(step) and step > 0.0):
        _fail(f"{base}.step", f"need a positive finite step, got {step!r}")
    record_every = _as_int(cfg.get("record_every", 1), f"{base}.record_every", 1)
    return SimOptions(step=step, priority=priority, record_every=record_every)


def _build_simulation(cfg: dict, net: NetworkSpec, priority: str) -> SimulationSection:
    base = "analysis.simulation"
    x0 = _finite_vector(_get(_object(cfg, base), "x0", base), net.state_dim, f"{base}.x0")
    u = _build_input(cfg.get("input"), net, f"{base}.input")
    opts = _sim_options(cfg, priority, base)
    horizon, max_jumps = _budget(cfg, base)
    return SimulationSection(x0=x0, input_signal=u, horizon=horizon, max_jumps=max_jumps,
                             options=opts)


def _build_trajectories(cfg: dict, net: NetworkSpec, priority: str, seed: int,
                        built: dict) -> TrajectorySection:
    base = "analysis.trajectories"
    kind = _get(_object(cfg, base), "kind", base)
    tail_fraction = _bounded(cfg, "tail_fraction", base, 0.2, 1.0)
    gains = TrajectoryGains(
        _gain_rows(cfg.get("internal_gains"), net.n, f"{base}.internal_gains", built),
        _gain_list(cfg.get("external_gains"), net.n, f"{base}.external_gains", built))
    if kind == "iss":
        beta_cfg = _object(_get(cfg, "beta", base), f"{base}.beta")
        if "expr" in beta_cfg:
            beta = Beta.from_expr(_parse_expr(beta_cfg["expr"], ("r", "t", "k"),
                                              f"{base}.beta.expr"))
        else:
            beta = Beta.exponential(_number(beta_cfg, "scale", f"{base}.beta"),
                                    _number(beta_cfg, "rate", f"{base}.beta"))
        beta.validate()
        estimate = ISSEstimate(betas=[beta] * net.n, gains=gains)
    elif kind == "pre-gs":
        sigmas_cfg = _get(cfg, "sigmas", base)
        if not isinstance(sigmas_cfg, list) or len(sigmas_cfg) != net.n:
            _fail(f"{base}.sigmas", f"need a list of {net.n} entries")
        sigmas = [_parse_kfun(t, f"{base}.sigmas[{i}]", built) for i, t in enumerate(sigmas_cfg)]
        comp_sigma = _parse_kfun(cfg["composite_sigma"], f"{base}.composite_sigma", built) \
            if "composite_sigma" in cfg else None
        comp_gamma = _parse_kfun(cfg["composite_gamma"], f"{base}.composite_gamma", built) \
            if "composite_gamma" in cfg else None
        estimate = PreGSEstimate(sigmas=sigmas, gains=gains,
                                 composite_sigma=comp_sigma, composite_gamma=comp_gamma)
    elif kind == "ag":
        comp_gamma = _parse_kfun(cfg["composite_gamma"], f"{base}.composite_gamma", built) \
            if "composite_gamma" in cfg else None
        estimate = AGEstimate(gains=gains, composite_gamma=comp_gamma,
                              tail_fraction=tail_fraction)
    else:
        _fail(f"{base}.kind", f"unknown estimate kind '{kind}' (iss | pre-gs | ag)")

    ic_cfg = _get(cfg, "initial_conditions", base)
    if isinstance(ic_cfg, dict):
        ic_base = f"{base}.initial_conditions"
        count = _as_int(_get(ic_cfg, "count", ic_base), f"{ic_base}.count", 1)
        radius = _number(ic_cfg, "radius", ic_base)
        if not (math.isfinite(radius) and radius > 0.0):
            _fail(f"{ic_base}.radius", f"need a positive finite radius, got {radius!r}")
        ics = initial_condition_grid(count, radius, net.state_dim,
                                     seed=_seed(ic_cfg, ic_base, seed))
    elif not isinstance(ic_cfg, list):
        _fail(f"{base}.initial_conditions", "expected an object or a list of states")
    else:
        ics = [_finite_vector(row, net.state_dim, f"{base}.initial_conditions[{i}]")
               for i, row in enumerate(ic_cfg)]
    levels = _finite_vector(cfg.get("input_levels", [0.0]), None, f"{base}.input_levels")
    horizon, max_jumps = _budget(cfg, base, nonzero=True)
    gain_fit, gain_fit_levels = cfg.get("gain_fit"), None
    if gain_fit:
        _object(gain_fit, f"{base}.gain_fit")
        gain_fit_levels = _finite_vector(_get(gain_fit, "levels", f"{base}.gain_fit"), None,
                                         f"{base}.gain_fit.levels").tolist() or None
    zero_input = cfg.get("zero_input")
    if zero_input:
        zbase = f"{base}.zero_input"
        _object(zero_input, zbase)
        z_horizon, z_max_jumps = _budget(zero_input, zbase, horizon, max_jumps, nonzero=True)
        zero_input = {
            "delta_grid": _finite_vector(_get(zero_input, "delta_grid", zbase), None,
                                         f"{zbase}.delta_grid").tolist(),
            "eps_grid": _finite_vector(_get(zero_input, "eps_grid", zbase), None,
                                       f"{zbase}.eps_grid").tolist(),
            "horizon": z_horizon, "max_jumps": z_max_jumps}
    return TrajectorySection(kind=kind, estimate=estimate, initial_conditions=ics,
                             input_levels=levels.tolist(), horizon=horizon,
                             max_jumps=max_jumps, options=_sim_options(cfg, priority, base),
                             tail_fraction=tail_fraction,
                             gain_fit_levels=gain_fit_levels, zero_input=zero_input)
