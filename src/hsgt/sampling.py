"""Stratified samplers over flow and jump sets.

Violations of Lyapunov-type inequalities concentrate where guards vanish and
where the active index of a max-type function changes, so the sampler mixes
uniform draws with guard-boundary points (found by bisecting between an
inside and an outside point) and tie points (coordinate blocks copied across
subsystems up to sign).  One command can hand its draws to a :class:`SampleMemo`,
so a set asked for twice (same guard expressions, same sampler spec) is drawn
once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .expr import EvalDomainError
from .hybrid import NetworkSpec


class SamplerEmptyError(Exception):
    """The target set received no samples; verification is inconclusive."""


@dataclass
class SamplerSpec:
    n_samples: int = 10000
    box_radius: float = 1.0
    u_box: Optional[List[Tuple[float, float]]] = None  # None means all zeros
    boundary_fraction: float = 0.2
    tie_fraction: float = 0.2
    seed: int = 0

    def u_low_high(self, input_dim: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.u_box is None:
            zeros = np.zeros(input_dim)
            return zeros, zeros
        if len(self.u_box) != input_dim:
            raise ValueError(f"u_box must list {input_dim} component ranges")
        lo = np.array([b[0] for b in self.u_box], dtype=float)
        hi = np.array([b[1] for b in self.u_box], dtype=float)
        return lo, hi


_BLOCK = 1 << 16  # rows per guard call at most; the block size never changes the samples
MAX_ATTEMPTS_FACTOR = 200  # uniform attempts per requested sample, at most


def sample_set(net: NetworkSpec, guard: Callable[[np.ndarray, np.ndarray], np.ndarray],
               spec: SamplerSpec) -> np.ndarray:
    """Sample points with ``guard(x, u) <= 0`` using the stratified mix.

    ``guard`` maps a block of rows ``X`` (B, n), ``U`` (B, m) to B values.  Each
    stratum draws and tests in blocks, yet consumes the generator as one attempt
    at a time would, so a fixed seed gives the same samples, bit for bit.  An
    attempt adds at most one sample, so a block of as many attempts as samples
    are still wanted never passes the point where one attempt at a time stops.
    The result is a read-only (N, n + m) array, one sample (state, then input)
    per row.
    """
    rng = np.random.default_rng(spec.seed)
    u_lo, u_hi = spec.u_low_high(net.input_dim)
    n, R = net.state_dim, spec.box_radius
    width = n + net.input_dim

    def draw(k):  # k attempts: x = uniform(-R, R), u = u_lo + uniform(0, 1)*(u_hi - u_lo)
        Z = rng.random((k, width))
        Z[:, :n] = -R + (R - -R) * Z[:, :n]
        Z[:, n:] = u_lo + Z[:, n:] * (u_hi - u_lo)
        return Z

    def test(Z):
        return guard(Z[:, :n], Z[:, n:]) <= 0.0

    n_boundary = int(spec.n_samples * spec.boundary_fraction)
    n_tie = int(spec.n_samples * spec.tie_fraction)
    n_uniform = spec.n_samples - n_boundary - n_tie
    attempts = 0
    limit = MAX_ATTEMPTS_FACTOR * max(spec.n_samples, 1)

    def uniform(wanted, n_outside):
        """Draws until ``wanted`` land inside or attempts run out, plus the first misses."""
        nonlocal attempts
        hits, misses = [np.empty((0, width))], [np.empty((0, width))]
        got = kept = 0
        while got < wanted and attempts < limit:
            Z = draw(min(wanted - got, limit - attempts, _BLOCK))
            attempts += len(Z)
            ok = test(Z)
            hits.append(Z[ok])
            misses.append(Z[~ok][:n_outside - kept])
            got, kept = got + len(hits[-1]), kept + len(misses[-1])
        return np.concatenate(hits), np.concatenate(misses)

    def bisect(lo, hi):
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok = test(mid)[:, None]
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        return lo

    inside, outside = uniform(n_uniform, n_boundary + 16)
    if not len(inside):
        raise SamplerEmptyError("no samples landed in the target set")
    samples = [inside]
    count = len(inside)

    # guard-boundary points: bisect segments between inside and outside draws
    bi = 0
    while count < n_uniform + n_boundary and bi < 4 * n_boundary:
        k = min(n_uniform + n_boundary - count, 4 * n_boundary - bi)
        bi += k
        if len(outside):
            # one call over the interleaved bounds draws what pair-at-a-time calls
            # (inside index, then outside index) draw, and leaves the same state
            picks = rng.integers(np.tile([len(inside), len(outside)], k))
            lo, hi = inside[picks[0::2]], outside[picks[1::2]]
        else:
            lo, hi = [], []
            for _ in range(k):
                lo.append(inside[rng.integers(len(inside))])
                hi.append(draw(1)[0])
            lo, hi = np.array(lo), np.array(hi)
        try:
            # without outside draws, a fresh draw that lands inside is skipped
            keep = ~test(hi) if not len(outside) else np.ones(k, dtype=bool)
            points = bisect(lo[keep], hi[keep]) if keep.any() else lo[:0]
        except EvalDomainError:
            # redo pair by pair, so the first error raised is the first in draw order
            for a, b in zip(lo[:, None], hi[:, None]):
                if len(outside) or not test(b)[0]:
                    bisect(a, b)
            raise
        samples.append(points)
        count += len(points)

    # tie points: copy one subsystem block onto another up to sign
    ti = 0
    while count < spec.n_samples and ti < 8 * n_tie:
        k = min(spec.n_samples - count, 8 * n_tie - ti)
        ti += k
        copies = []
        for _ in range(k):
            z = inside[rng.integers(len(inside))].copy()
            i, j = rng.integers(net.n), rng.integers(net.n)
            if i == j or net.subsystems[i].dim != net.subsystems[j].dim:
                continue
            sign = -1.0 if rng.random() < 0.5 else 1.0
            z[net.slices[j]] = sign * z[net.slices[i]]
            copies.append(z)
        if copies:
            copies = np.array(copies)
            samples.append(copies[test(copies)])
            count += len(samples[-1])
    # top up with plain inside draws if strata fell short
    samples.append(uniform(spec.n_samples - count, 0)[0])
    out = np.concatenate(samples)
    out.flags.writeable = False
    return out


class SampleMemo:
    """The sample sets of one command, drawn once each.

    A set is keyed by its kind (flow or jump), the guard expressions its guard
    folds over and the sampler spec; within one network those decide the
    samples.  A memo belongs to one command and one network: a draw that raises
    is not kept.
    """

    def __init__(self):
        self._sets: Dict[tuple, np.ndarray] = {}

    def get(self, net: NetworkSpec, kind: str, spec: SamplerSpec, sub: Optional[int]):
        guards = tuple(s.c_guard if kind == "c" else s.d_guard for s in
                       (net.subsystems if sub is None else [net.subsystems[sub]]))
        key = (kind, guards, tuple(_frozen(getattr(spec, f.name))
                                   for f in dataclasses.fields(spec)))
        found = self._sets.get(key)
        if found is None:
            found = self._sets[key] = _draw(net, kind, spec, sub)
        return found


def _frozen(value):
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _draw(net: NetworkSpec, kind: str, spec: SamplerSpec, sub: Optional[int]) -> np.ndarray:
    guard = net.c_array if kind == "c" else net.d_array
    return sample_set(net, lambda X, U: guard(X, U, sub), spec)


def flow_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None,
                     memo: Optional[SampleMemo] = None) -> np.ndarray:
    """Samples of the flow set (of subsystem ``sub``, or of the network)."""
    return _draw(net, "c", spec, sub) if memo is None else memo.get(net, "c", spec, sub)


def jump_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None,
                     memo: Optional[SampleMemo] = None) -> np.ndarray:
    """Samples of the jump set (of subsystem ``sub``, or of the network)."""
    return _draw(net, "d", spec, sub) if memo is None else memo.get(net, "d", spec, sub)


def sphere_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Directions with unit max norm, axes included."""
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
    extra = rng.uniform(-1.0, 1.0, (max(count - len(dirs), 0), dim))
    norms = np.max(np.abs(extra), axis=1)
    keep = norms > 1e-12
    dirs.extend(extra[keep] / norms[keep, None])
    return np.array(dirs[:max(count, 1)])
