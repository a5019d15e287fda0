"""The scalar hybrid helpers that the generated kernels and the row writer replaced,
kept as test oracles.

``rk4`` and ``mode`` are the former per-expression RK4 step and point
classification of ``hsgt.hybrid.simulate``: they call the network's compiled
flow and guard closures one at a time on joined lists of plain floats.
``write_trajectory_csv`` is the former two-pass CSV writer.  ``value_at`` and
``sup_norm`` read a ``HybridSignal`` by interpolation and by windowed maximum.
``flow_raw`` is the stacked flow map at one point, on plain floats.
"""

from __future__ import annotations

import csv
from typing import IO, Tuple

import numpy as np

from hsgt.hybrid import FLOW, JUMP, OUTSIDE_C, DomainError, HybridSignal, InputSignal, \
    NetworkSpec, SolutionPair


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
    x_samples = list(sol.x.iter_samples())
    u_samples = list(sol.u.iter_samples())
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
    for s, l, row, jump_point in signal.iter_samples():
        if s + l > cutoff + 1e-12:
            continue
        mag = float(np.max(np.abs(row)))
        if jump_point:
            best_jump = max(best_jump, mag)
        else:
            best_flow = max(best_flow, mag)
    return max(best_flow, best_jump)
