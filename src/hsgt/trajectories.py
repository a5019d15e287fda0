"""Empirical checks of trajectory-level stability estimates on simulated runs.

Respects the hybrid-time ordering (s, l) <= (t, k) iff s + l <= t + k for all
windowed supremum norms.  Asymptotic statements are approximated by the
maximum over a trailing fraction of the domain; the approximation quality is
part of the reported metadata, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .hybrid import HybridError, InputSignal, NetworkSpec, SimOptions, SolutionPair, simulate
from .kfun import KFun


class TrajectoryError(Exception):
    pass


# ---------------------------------------------------------------------------
# decaying-bound candidates and gain bundles


class Beta:
    """Candidate decaying bound in the initial condition and hybrid time."""

    def __init__(self, fn: Callable[[float, float, float], float], description: str,
                 exponential: Optional[Tuple[float, float]] = None):
        self.fn = fn
        self.description = description
        self._exponential = exponential

    def __call__(self, r: float, t: float, k: float) -> float:
        return self.fn(r, t, k)

    def on_arrays(self, r: float, t: np.ndarray, k: np.ndarray) -> np.ndarray:
        if self._exponential is not None:
            scale, rate = self._exponential
            return scale * r * np.exp(-rate * (t + k))
        return np.array([self.fn(r, float(tt), float(kk)) for tt, kk in zip(t, k)])

    @staticmethod
    def exponential(scale: float, rate: float) -> "Beta":
        if scale < 1.0 or rate <= 0.0:
            raise TrajectoryError("exponential bound needs scale >= 1 and a positive rate")
        return Beta(lambda r, t, k: scale * r * math.exp(-rate * (t + k)),
                    f"{scale!r}*r*exp(-{rate!r}*(t+k))", exponential=(scale, rate))

    @staticmethod
    def from_expr(expression: ex.Expr) -> "Beta":
        compiled = ex.compile_expr(expression, ("r", "t", "k"))
        return Beta(lambda r, t, k: compiled((r, t, k)), ex.render(expression))

    def validate(self):
        """Sampled sanity: increasing and zero-at-zero in r, nonincreasing in t, k."""
        for t, k in ((0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 2.0)):
            if abs(self(0.0, t, k)) > 1e-9:
                raise TrajectoryError("bound must vanish at r = 0")
            prev = 0.0
            for r in np.geomspace(1e-4, 1e4, 17):
                v = self(float(r), t, k)
                if v <= prev:
                    raise TrajectoryError("bound must strictly increase in r")
                prev = v
        for grid, pick in ((np.linspace(0.0, 20.0, 9), lambda s: (s, 0.0)),
                           (np.arange(0.0, 9.0), lambda s: (0.0, s))):
            prev = math.inf
            for s in grid:
                t, k = pick(float(s))
                v = self(1.0, t, k)
                if v > prev * (1.0 + 1e-12):
                    raise TrajectoryError("bound must be nonincreasing in each time argument")
                prev = v


@dataclass
class TrajectoryGains:
    """Per-subsystem gain bundle for trajectory estimates."""

    internal: List[List[KFun]]  # internal[i][j], diagonal entries zero
    external: List[KFun]

    @staticmethod
    def uniform(n: int, internal: KFun, external: KFun) -> "TrajectoryGains":
        rows = [[KFun.zero() if i == j else internal for j in range(n)] for i in range(n)]
        return TrajectoryGains(rows, [external] * n)


@dataclass
class ISSEstimate:
    betas: List[Beta]
    gains: TrajectoryGains


@dataclass
class PreGSEstimate:
    sigmas: List[KFun]
    gains: TrajectoryGains
    composite_sigma: Optional[KFun] = None
    composite_gamma: Optional[KFun] = None


@dataclass
class AGEstimate:
    gains: TrajectoryGains
    composite_gamma: Optional[KFun] = None
    tail_fraction: float = 0.2


# ---------------------------------------------------------------------------
# flattened view with windowed norms


class WindowedNorms:
    """Prefix supremum norms of a solution pair under the hybrid-time ordering.

    Samples are reordered by t + k; element p of a prefix array is the norm
    over all samples ordered at or before p, so a sample's windowed norm is
    the prefix value at the last index sharing its t + k.
    """

    def __init__(self, sol: SolutionPair, net: NetworkSpec):
        t = np.concatenate(sol.x.times)
        k = np.repeat([float(k) for _lo, _hi, k in sol.domain.intervals],
                      [len(ts) for ts in sol.x.times])
        sums = t + k
        order = np.argsort(sums, kind="stable")
        self.sums = sums[order]
        self.t = t[order]
        self.k = k[order]
        self.x = np.concatenate(sol.x.values)[order]
        self.u_arr = np.concatenate(sol.u.values)[order]
        self.sub_mag = [np.max(np.abs(self.x[:, sl]), axis=1) for sl in net.slices]
        self.full_mag = np.max(np.abs(self.x), axis=1)
        self.sub_prefix = [np.maximum.accumulate(m) for m in self.sub_mag]
        self.full_prefix = np.maximum.accumulate(self.full_mag)
        if self.u_arr.shape[1]:
            self.u_prefix = np.maximum.accumulate(np.max(np.abs(self.u_arr), axis=1))
        else:
            self.u_prefix = np.zeros(len(self.x))
        self.window_idx = np.searchsorted(self.sums, self.sums + 1e-12, side="right") - 1

    def sub_windowed(self, i: int) -> np.ndarray:
        return self.sub_prefix[i][self.window_idx]

    def u_windowed(self) -> np.ndarray:
        return self.u_prefix[self.window_idx]

    def sub_inf(self, i: int) -> float:
        return float(self.sub_prefix[i][-1])

    def full_inf(self) -> float:
        return float(self.full_prefix[-1])

    def u_inf(self) -> float:
        return float(self.u_prefix[-1])


# ---------------------------------------------------------------------------
# results


@dataclass
class TrajectoryResult:
    label: str
    passed: bool
    worst_excess: float = -math.inf  # lhs - rhs, positive means violated
    worst_point: Optional[dict] = None
    violations: int = 0
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"label": self.label, "passed": self.passed,
               "violations": self.violations}
        if math.isfinite(self.worst_excess):
            out["worst_excess"] = self.worst_excess
        if self.worst_point is not None:
            out["worst_point"] = self.worst_point
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class BatchResult:
    results: List[TrajectoryResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "results": [r.to_json() for r in self.results],
                "metadata": self.metadata}


# Slack of every trajectory comparison, absolute and relative to the bound.
SLACK = 1e-9


def _pointwise_result(label: str, lhs: np.ndarray, rhs: np.ndarray,
                      norms: WindowedNorms, tag: dict) -> TrajectoryResult:
    excess = lhs - rhs
    bad = excess > np.maximum(SLACK, SLACK * np.abs(rhs))
    violations = int(np.count_nonzero(bad))
    p = int(np.argmax(excess))
    point = {"t": float(norms.t[p]), "k": int(norms.k[p])}
    point.update(tag)
    return TrajectoryResult(label=label, passed=violations == 0,
                            worst_excess=float(excess[p]), worst_point=point,
                            violations=violations)


# ---------------------------------------------------------------------------
# checks


def _subsystem_results(label: str, sol: SolutionPair, net: NetworkSpec, norms: WindowedNorms,
                       gains: TrajectoryGains,
                       base: Callable[[int, float], np.ndarray]) -> List[TrajectoryResult]:
    """One pointwise result per subsystem i: its state norm against ``base(i, r)``,
    with r the norm of its initial state, taken by ``np.maximum`` with each
    nonzero internal gain at that neighbour's windowed norm, in column order,
    then with the external gain at the windowed input norm."""
    x00 = sol.x.values[0][0]
    results = []
    for i, sl in enumerate(net.slices):
        rhs = base(i, float(np.max(np.abs(x00[sl]))))
        for j in range(net.n):
            if j != i and not gains.internal[i][j].is_zero:
                rhs = np.maximum(rhs, gains.internal[i][j].array(norms.sub_windowed(j)))
        if not gains.external[i].is_zero:
            rhs = np.maximum(rhs, gains.external[i].array(norms.u_windowed()))
        results.append(_pointwise_result(f"{label}-sub{i + 1}", norms.sub_mag[i], rhs, norms,
                                         {"subsystem": i + 1}))
    return results


def check_iss(sol: SolutionPair, estimate: ISSEstimate, net: NetworkSpec,
              label: str = "iss") -> BatchResult:
    """Pointwise decaying-bound-or-gain estimate at every stored sample."""
    if len(estimate.betas) != net.n:
        raise TrajectoryError(f"need one decaying bound per subsystem ({net.n})")
    norms = WindowedNorms(sol, net)
    return BatchResult(results=_subsystem_results(
        label, sol, net, norms, estimate.gains,
        lambda i, r: estimate.betas[i].on_arrays(r, norms.t, norms.k)))


def check_pre_gs(sol: SolutionPair, estimate: PreGSEstimate, net: NetworkSpec,
                 label: str = "pre-gs") -> BatchResult:
    """Uniform-bound estimate, per subsystem and (when supplied) composed."""
    if len(estimate.sigmas) != net.n:
        raise TrajectoryError(f"need one initial-state bound per subsystem ({net.n})")
    norms = WindowedNorms(sol, net)
    results = _subsystem_results(label, sol, net, norms, estimate.gains,
                                 lambda i, r: np.full(len(norms.t), estimate.sigmas[i](r)))
    if estimate.composite_sigma is not None:
        lhs = norms.full_mag
        x00 = sol.x.values[0][0]
        rhs = np.full(len(lhs), estimate.composite_sigma(float(np.max(np.abs(x00)))))
        if estimate.composite_gamma is not None and not estimate.composite_gamma.is_zero:
            rhs = np.maximum(rhs, estimate.composite_gamma.array(norms.u_windowed()))
        results.append(_pointwise_result(f"{label}-composed", lhs, rhs, norms, {}))
    return BatchResult(results=results)


def _tail_mask(norms: WindowedNorms, tail_fraction: float) -> Tuple[np.ndarray, float, float]:
    top = float(norms.sums[-1])
    threshold = (1.0 - tail_fraction) * top
    mask = norms.sums >= threshold - 1e-12
    if not np.any(mask):
        raise TrajectoryError("tail window empty")
    return mask, threshold, top


def check_ag(sol: SolutionPair, estimate: AGEstimate, net: NetworkSpec,
             label: str = "ag") -> BatchResult:
    """Tail-maximum surrogate for the asymptotic-gain estimate.

    Requires a run that exhausted its time or jump budget; boundedness is
    only confirmed up to the horizon and is recorded in the metadata.
    """
    if not sol.complete:
        raise TrajectoryError(
            f"asymptotic check needs a budget-complete run, got '{sol.termination}'")
    norms = WindowedNorms(sol, net)
    mask, threshold, top = _tail_mask(norms, estimate.tail_fraction)
    results = []
    for i in range(net.n):
        lhs = float(np.max(norms.sub_mag[i][mask]))
        rhs = 0.0
        for j in range(net.n):
            if j != i and not estimate.gains.internal[i][j].is_zero:
                rhs = max(rhs, estimate.gains.internal[i][j](norms.sub_inf(j)))
        if not estimate.gains.external[i].is_zero:
            rhs = max(rhs, estimate.gains.external[i](norms.u_inf()))
        passed = lhs <= rhs + max(SLACK, SLACK * abs(rhs))
        results.append(TrajectoryResult(
            label=f"{label}-sub{i + 1}", passed=passed, worst_excess=lhs - rhs,
            worst_point={"subsystem": i + 1, "tail_max": lhs},
            violations=0 if passed else 1))
    if estimate.composite_gamma is not None:
        lhs = float(np.max(norms.full_mag[mask]))
        rhs = estimate.composite_gamma(norms.u_inf()) \
            if not estimate.composite_gamma.is_zero else 0.0
        passed = lhs <= rhs + max(SLACK, SLACK * abs(rhs))
        results.append(TrajectoryResult(
            label=f"{label}-composed", passed=passed, worst_excess=lhs - rhs,
            worst_point={"tail_max": lhs}, violations=0 if passed else 1))
    batch = BatchResult(results=results)
    batch.metadata = {"tail_threshold": threshold, "domain_top": top,
                      "bounded_up_to_horizon": norms.full_inf()}
    return batch


# What a run that cannot be carried out raises; anything else is a bug and propagates.
_RUN_ERRORS = (HybridError, ex.EvalDomainError, TrajectoryError)


def check_zero_input_prestability(net: NetworkSpec, delta_grid: Sequence[float],
                                  eps_grid: Sequence[float], horizon: float,
                                  max_jumps: int, opts: Optional[SimOptions] = None,
                                  seed: int = 0) -> BatchResult:
    """Search an admissible initial-state radius for each excursion bound.

    Simulates zero-input runs from 8 scaled sphere directions and tabulates,
    for each bound, the largest grid radius whose runs never exceed it.
    """
    deltas = sorted(float(d) for d in delta_grid)
    epss = sorted(float(e) for e in eps_grid)
    if not deltas or not epss:
        raise TrajectoryError("radius and bound grids must be nonempty")
    rng = np.random.default_rng(seed)
    from .sampling import sphere_directions
    dirs = sphere_directions(net.state_dim, 8, rng)
    u = InputSignal.zero(net.input_dim)
    sups = {}
    for delta in deltas:
        worst_sup = 0.0
        for d in dirs:
            try:
                sol = simulate(net, d * delta, u, horizon, max_jumps, opts)
            except _RUN_ERRORS:  # outside the flow and jump sets: no admissible run
                worst_sup = math.inf
                break
            # NaN rows occur only in numerical failures, whose sup is inf below
            worst_sup = max(worst_sup, float(np.max(np.abs(np.concatenate(sol.x.values)))))
            if sol.termination == "numerical_failure":
                worst_sup = math.inf
        sups[delta] = worst_sup
    results = []
    table = []
    for eps in epss:
        admissible = [d for d in deltas if sups[d] <= eps * (1.0 + 1e-9)]
        chosen = max(admissible) if admissible else None
        table.append({"bound": eps, "radius": chosen})
        results.append(TrajectoryResult(
            label=f"bound {eps!r}", passed=chosen is not None,
            worst_excess=(min(sups.values()) - eps) if chosen is None else -math.inf,
            worst_point=None if chosen is not None else {"smallest_sup": min(sups.values())}))
    batch = BatchResult(results=results)
    batch.metadata = {"table": table, "sups": {repr(k): v for k, v in sups.items()}}
    return batch


def fit_empirical_gain(net: NetworkSpec, input_levels: Sequence[float], horizon: float,
                       max_jumps: int, tail_fraction: float = 0.2,
                       opts: Optional[SimOptions] = None) -> List[Tuple[float, Optional[float]]]:
    """Tail response from the origin per constant input level, monotonized by running max."""
    levels = [float(v) for v in input_levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise TrajectoryError("input levels must strictly increase")
    start = np.zeros(net.state_dim)
    table: List[Tuple[float, Optional[float]]] = []
    running = 0.0
    for level in levels:
        u = InputSignal.constant([level] * net.input_dim)
        try:
            sol = simulate(net, start, u, horizon, max_jumps, opts)
            norms = WindowedNorms(sol, net)
            mask, _thr, _top = _tail_mask(norms, tail_fraction)
        except _RUN_ERRORS:
            table.append((level, None))
            continue
        value = float(np.max(norms.full_mag[mask]))
        running = max(running, value)
        table.append((level, running))
    return table


# ---------------------------------------------------------------------------
# batch driver


def run_estimate_batch(net: NetworkSpec, estimate, initial_conditions: Sequence[np.ndarray],
                       inputs: Sequence[InputSignal], horizon: float, max_jumps: int,
                       opts: Optional[SimOptions] = None) -> BatchResult:
    """Simulate every initial condition with every input and fold the checks."""
    if not list(initial_conditions) or not list(inputs):
        raise TrajectoryError("empty batch: need initial conditions and inputs")
    combined = BatchResult()
    for ic_idx, x0 in enumerate(initial_conditions):
        for in_idx, u in enumerate(inputs):
            sol = simulate(net, x0, u, horizon, max_jumps, opts)
            label = f"ic{ic_idx}-in{in_idx}"
            if isinstance(estimate, ISSEstimate):
                part = check_iss(sol, estimate, net, label=label)
            elif isinstance(estimate, PreGSEstimate):
                part = check_pre_gs(sol, estimate, net, label=label)
            elif isinstance(estimate, AGEstimate):
                part = check_ag(sol, estimate, net, label=label)
            else:
                raise TrajectoryError(f"unknown estimate type {type(estimate)!r}")
            combined.results.extend(part.results)
            for key, value in part.metadata.items():
                combined.metadata[f"{label}/{key}"] = value
    return combined


def initial_condition_grid(count: int, radius: float, dim: int, seed: int = 0) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    from .sampling import sphere_directions
    dirs = sphere_directions(dim, count, rng)
    scales = np.linspace(radius / count, radius, len(dirs))
    return [d * s for d, s in zip(dirs, scales)]
