"""The scalar hybrid helpers that the generated kernels, the flat recorder and the
row writer replaced, kept as test oracles.

``rk4`` and ``mode`` are the former per-expression RK4 step and point
classification of ``hsgt.hybrid.simulate``: they call the network's compiled
flow and guard closures one at a time on joined lists of plain floats.
``step_kernel`` and ``bisect_event`` are the generated RK4-step kernel (on the
former one-temporary-per-node emitter of ``reference_expr``) and the event
bisection that the run kernel replaced, and ``flow`` is the flow phase
of the former loop on them, with the former recorder rule.
``Recorder`` is the former per-interval recorder of ``simulate``, and
``check_signal`` the former per-interval check of a ``HybridSignal``.
``write_trajectory_csv`` is the former two-pass CSV writer.  ``iter_samples``,
``value_at`` and ``sup_norm`` read a ``HybridSignal`` sample by sample, by
interpolation and by windowed maximum.  ``flow_raw`` is the stacked flow map
at one point, on plain floats.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Callable, List, Tuple

import numpy as np

import reference_expr
from hsgt import expr as ex
from hsgt.hybrid import FLOW, JUMP, OUTSIDE_C, TIME_TOL, DomainError, HybridSignal, \
    HybridTimeDomain, InputSignal, NetworkSpec, SimulationError, SolutionPair, _unpack


def check_signal(domain: HybridTimeDomain, times, values):
    """The former check of ``HybridSignal``, one interval at a time."""
    if len(times) != len(domain.intervals) or len(values) != len(times):
        raise DomainError("one sample block per domain interval is required")
    for (lo, hi, _k), ts, vs in zip(domain.intervals, times, values):
        if len(ts) != len(vs) or len(ts) == 0:
            raise DomainError("each interval needs matching nonempty samples")
        if np.any(np.diff(ts) <= 0.0):
            raise DomainError("sample times must strictly increase inside an interval")
        if ts[0] < lo - 1e-12 or ts[-1] > hi + 1e-12:
            raise DomainError("samples outside their interval")


def iter_samples(signal: HybridSignal):
    """Yield (t, k, value_row, is_jump_point) over all stored samples."""
    last = len(signal.domain.intervals) - 1
    for idx, ((_lo, _hi, k), ts, vs) in enumerate(
            zip(signal.domain.intervals, signal.times, signal.values)):
        for j in range(len(ts)):
            jump_point = idx < last and j == len(ts) - 1
            yield float(ts[j]), k, vs[j], jump_point


class Recorder:
    def __init__(self):
        self.interval_times: List[List[float]] = []
        self.interval_x: List[list] = []
        self.interval_u: List[list] = []
        self.bounds: List[Tuple[float, float, int]] = []

    def open_interval(self, t: float, k: int):
        self.interval_times.append([])
        self.interval_x.append([])
        self.interval_u.append([])
        self.bounds.append((t, t, k))

    def record(self, t: float, x: list, u: list):
        ts = self.interval_times[-1]
        if ts and t <= ts[-1]:
            if t - ts[-1] > -1e-15:
                return  # duplicate point at the same time inside an interval
            raise SimulationError("non-monotone time inside an interval")
        ts.append(t)
        self.interval_x[-1].append(list(x))
        self.interval_u[-1].append(list(u))
        lo, _hi, k = self.bounds[-1]
        self.bounds[-1] = (lo, t, k)

    def finalize(self, termination: str, complete: bool, jumps: int) -> SolutionPair:
        domain = HybridTimeDomain(tuple(self.bounds))
        times = [np.array(ts) for ts in self.interval_times]
        xsig = HybridSignal(domain, times, [np.array(v) for v in self.interval_x])
        usig = HybridSignal(domain, [t.copy() for t in times],
                            [np.array(v) for v in self.interval_u])
        return SolutionPair(x=xsig, u=usig, termination=termination,
                            complete=complete, jumps_applied=jumps)


def step_kernel(net: NetworkSpec) -> Callable:
    """``step(x, values, t, k, h)``: one RK4 step of length ``h`` from state ``x``
    at ``(t, k)`` under the input ``values(t, k)``, in straight-line code."""
    n, m = net.state_dim, net.input_dim
    flows = [e for s in net.subsystems for e in s.flow]
    body = _unpack([f"x1_{i}" for i in range(n)], "x")
    for us in ("u1", "u2", "u3"):
        body += _unpack([f"{us}_{r}" for r in range(m)], us)
    body.append("half = 0.5 * h")
    consts, slopes = {}, []
    stages = (("u1", ""), ("u2", "half"), ("u2", "half"), ("u3", "h"))  # inputs, state offset
    for stage, (us, scale) in enumerate(stages, 1):
        if scale:
            body += [f"vx{stage}_{i} = vx1_{i} + {scale} * v{ki}"
                     for i, ki in enumerate(slopes[-1])]
        ids = dict(zip(net.var_order, [f"x{stage}_{i}" for i in range(n)]
                       + [f"{us}_{r}" for r in range(m)]))
        slopes.append([reference_expr.emit_lines(e, "value", body, consts, var_ids=ids,
                                                 tag=f"{stage}_{i}_")
                       for i, e in enumerate(flows)])
    body.append("w = h / 6.0")
    body.append("return [" + ", ".join(f"vx1_{i} + w * (v{a} + 2.0 * v{b} + 2.0 * v{c} + v{d})"
                                       for i, (a, b, c, d) in enumerate(zip(*slopes))) + "]")
    head = ["if h == 0.0:", "    return list(x)", "u1 = values(t, k)",
            "u2 = values(t + 0.5 * h, k)", "u3 = values(t + h, k)"]
    return ex.compile_lines("x, values, t, k, h", head + ex.translated(body), consts,
                            "the RK4 step")


def bisect_event(step, mode_of, x, values, t, k, h_step, jump_priority, end) -> tuple:
    """Bisect the step from ``(t, x)`` whose ``end`` (state, input, mode) does
    not flow; returns the step fraction, state, input and mode of the event."""
    lo, hi = 0.0, 1.0
    x_hi, u_hi, mode_hi = end
    while (hi - lo) * h_step > TIME_TOL:
        mid = 0.5 * (lo + hi)
        x_mid = step(x, values, t, k, mid * h_step)
        u_mid = values(t + mid * h_step, k)
        mode = mode_of(x_mid, u_mid, jump_priority)
        if mode == FLOW:
            lo = mid
        else:
            hi, x_hi, u_hi, mode_hi = mid, x_mid, u_mid, mode
    return hi, x_hi, u_hi, mode_hi


def flow(net: NetworkSpec, step: Callable, x: list, u_now: list, t: float, k: int, h: float,
         horizon: float, every: int, values: Callable, jump_priority: bool,
         ts: list, xs: list, us: list) -> tuple:
    """The flow phase of the former loop from a point that flows, on ``step`` and
    ``bisect_event``, recording into flat lists as the run kernel does; returns
    what the run kernel returns."""
    def mode_of(x, u, priority):
        return mode(net, x + u, priority)

    def record(t, x, u):
        if t <= ts[-1]:
            if t - ts[-1] > -1e-15:
                return
            raise SimulationError("non-monotone time inside an interval")
        ts.append(t)
        xs.extend(x)
        us.extend(u)

    steps_since_record = 0
    while True:
        if t >= horizon - 1e-15:
            return "horizon", t, None, None
        h_step = min(h, horizon - t)
        x_end = step(x, values, t, k, h_step)
        if not all(map(math.isfinite, x_end)):
            return "numerical_failure", t, None, None
        u_end = values(t + h_step, k)
        end_mode = mode_of(x_end, u_end, jump_priority)
        if end_mode != FLOW:
            theta, x, u_now, end_mode = bisect_event(step, mode_of, x, values, t, k, h_step,
                                                     jump_priority, (x_end, u_end, end_mode))
            t = t + theta * h_step
            record(t, x, u_now)
            return end_mode, t, x, u_now
        x, u_now = x_end, u_end
        t = t + h_step
        steps_since_record += 1
        if steps_since_record >= every or t >= horizon - 1e-15:
            record(t, x, u_now)
            steps_since_record = 0


def flow_raw(net: NetworkSpec, vals: list) -> list:
    """Stacked flow map at ``vals``, the state then the input as plain floats."""
    return [fn(vals) for fn in net._flow_fns]


def rk4(net: NetworkSpec, x: list, u: InputSignal, t: float, k: int, h: float) -> list:
    if h == 0.0:
        return list(x)
    fns = net._flow_fns
    u1 = u.values(t, k)
    u2 = u.values(t + 0.5 * h, k)
    u3 = u.values(t + h, k)
    half = 0.5 * h
    k1 = [f(x + u1) for f in fns]
    s2 = [xi + half * ki for xi, ki in zip(x, k1)]
    k2 = [f(s2 + u2) for f in fns]
    s3 = [xi + half * ki for xi, ki in zip(x, k2)]
    k3 = [f(s3 + u2) for f in fns]
    s4 = [xi + h * ki for xi, ki in zip(x, k3)]
    k4 = [f(s4 + u3) for f in fns]
    w = h / 6.0
    return [xi + w * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def mode(net: NetworkSpec, vals: list, jump_priority: bool) -> str:
    """OUTSIDE_C unless the flow guard is <= 0 (NaN is outside), else JUMP
    under jump priority if the jump guard is <= 0, else FLOW."""
    if not net.c_raw(vals) <= 0.0:
        return OUTSIDE_C
    if jump_priority and net.d_raw(vals) <= 0.0:
        return JUMP
    return FLOW


def write_trajectory_csv(sol: SolutionPair, stream: IO[str]) -> int:
    writer = csv.writer(stream)
    n, m = sol.x.dim, sol.u.dim
    writer.writerow(["t", "k"] + [f"x_{i + 1}" for i in range(n)]
                    + [f"u_{j + 1}" for j in range(m)] + ["phase"])
    rows = 0
    x_samples = list(iter_samples(sol.x))
    u_samples = list(iter_samples(sol.u))
    first_of_interval = set()
    seen = set()
    for t, k, _v, _j in x_samples:
        if k not in seen:
            first_of_interval.add((t, k))
            seen.add(k)
    for (t, k, xv, jump_point), (_t2, _k2, uv, _) in zip(x_samples, u_samples):
        post_jump = k > 0 and (t, k) in first_of_interval
        phase = "jump" if (jump_point or post_jump) else "flow"
        writer.writerow([repr(t), k] + [repr(float(v)) for v in xv]
                        + [repr(float(v)) for v in uv] + [phase])
        rows += 1
    return rows


def value_at(signal: HybridSignal, t: float, k: int) -> np.ndarray:
    """The signal at ``(t, k)``, linear between samples."""
    for (_lo, _hi, kk), ts, vs in zip(signal.domain.intervals, signal.times, signal.values):
        if kk != k:
            continue
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            continue
        j = int(np.searchsorted(ts, t))
        if j < len(ts) and abs(ts[j] - t) <= 1e-12:
            return vs[j].copy()
        if j == 0:
            return vs[0].copy()
        if j >= len(ts):
            return vs[-1].copy()
        w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
        return (1.0 - w) * vs[j - 1] + w * vs[j]
    raise DomainError(f"point (t={t}, k={k}) is outside the signal domain")


def sup_norm(signal: HybridSignal, upto: Tuple[float, int]) -> float:
    """Supremum norm of the signal over points no later than ``upto``.

    Ordering of hybrid times is by the sum t + k.  The continuous part is a
    sample maximum standing in for an essential supremum; jump points are
    maximized exactly.  Vector samples are measured in the max norm.
    """
    t, k = upto
    if not any(kk == k and lo - 1e-12 <= t <= hi + 1e-12
               for lo, hi, kk in signal.domain.intervals):
        raise DomainError(f"point (t={t}, k={k}) is outside the signal domain")
    cutoff = t + k
    best_flow = 0.0
    best_jump = 0.0
    for s, l, row, jump_point in iter_samples(signal):
        if s + l > cutoff + 1e-12:
            continue
        mag = float(np.max(np.abs(row)))
        if jump_point:
            best_jump = max(best_jump, mag)
        else:
            best_flow = max(best_flow, mag)
    return max(best_flow, best_jump)
