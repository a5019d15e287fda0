"""Stratified samplers over flow and jump sets.

Violations of Lyapunov-type inequalities concentrate where guards vanish and
where the active index of a max-type function changes, so the sampler mixes
uniform draws with guard-boundary points (found by bisecting between an
inside and an outside point) and tie points (coordinate blocks copied across
subsystems up to sign).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

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
               spec: SamplerSpec) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Sample points with ``guard(x, u) <= 0`` using the stratified mix.

    ``guard`` maps a block of rows ``X`` (B, n), ``U`` (B, m) to B values.  Each
    stratum draws and tests in blocks, yet consumes the generator as one attempt
    at a time would, so a fixed seed gives the same samples, bit for bit.  An
    attempt adds at most one sample, so a block of as many attempts as samples
    are still wanted never passes the point where one attempt at a time stops.
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
        lo, hi = [], []
        for _ in range(k):  # one pair at a time's draw order: inside index, then outside
            lo.append(inside[rng.integers(len(inside))])
            hi.append(outside[rng.integers(len(outside))] if len(outside) else draw(1)[0])
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
    return [(z[:n], z[n:]) for z in np.concatenate(samples)]


def flow_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None):
    return sample_set(net, lambda X, U: net.c_array(X, U, sub), spec)


def jump_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None):
    return sample_set(net, lambda X, U: net.d_array(X, U, sub), spec)


def sphere_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Directions with unit max norm, axes included."""
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
    extra = rng.uniform(-1.0, 1.0, (max(count - len(dirs), 0), dim))
    norms = np.max(np.abs(extra), axis=1)
    keep = norms > 1e-12
    dirs.extend(extra[keep] / norms[keep, None])
    return np.array(dirs[:max(count, 1)])
