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
import itertools
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


def sample_set(net: NetworkSpec, guard: Callable[[np.ndarray], np.ndarray],
               spec: SamplerSpec) -> np.ndarray:
    """Sample points with ``guard(x, u) <= 0`` using the stratified mix.

    ``guard`` maps a block of rows (B, n + m), state then input, to B values.
    Each stratum draws and tests in blocks, yet consumes the generator as one
    attempt at a time would, so a fixed seed gives the same samples, bit for
    bit.  An attempt adds at most one sample, so a block of as many attempts as
    samples are still wanted never passes the point where one attempt at a time
    stops.
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
        return guard(Z) <= 0.0

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
        rows, src, dst, sign = _tie_draws(rng, len(inside), net, k)
        if len(rows):
            copies = inside[rows]
            for i, j in set(zip(src.tolist(), dst.tolist())):
                pair = np.flatnonzero((src == i) & (dst == j))
                copies[pair, net.slices[j]] = sign[pair, None] * copies[pair, net.slices[i]]
            samples.append(copies[test(copies)])
            count += len(samples[-1])
    # top up with plain inside draws if strata fell short
    samples.append(uniform(spec.n_samples - count, 0)[0])
    out = np.concatenate(samples)
    out.flags.writeable = False
    return out


_WORDS = 1 << 12  # raw generator words per chunk of tie draws; bounds their memory
_LOW = 0xFFFFFFFF


def _tie_draws(rng: np.random.Generator, n_inside: int, net: NetworkSpec, k: int):
    """The draws of ``k`` tie attempts, replayed from the generator's raw words.

    One attempt calls ``rng.integers(n_inside)`` for an inside row, then
    ``rng.integers(net.n)`` for ``i`` and for ``j``, and, if blocks ``i != j`` have
    one dim, ``rng.random() < 0.5`` for a minus sign.  Those calls cost
    microseconds each, so numpy's rules for them are replayed on the raw words
    of PCG64 (the bit generator of ``default_rng``), taken in chunks from a copy:

    * ``integers(m)`` draws nothing for ``m == 1``; otherwise it is Lemire's
      multiply-shift with its rejection loop on 32-bit words, each the low
      half of a fresh word or else the buffered high half of the last one;
    * ``random()`` is ``(w >> 11) * 2**-53`` of a fresh word and leaves the
      buffered half alone, so it is below 0.5 exactly when ``w < 2**63``.

    The generator then ends in the state those calls leave, the buffered half
    (stale or not) included.  Returns the inside row, ``i``, ``j`` and sign of
    each attempt with a usable pair, in attempt order.  Bounds stay below 2**32.
    """
    bits = rng.bit_generator
    state = bits.state
    source = np.random.PCG64(0)
    source.state = state
    size = min(_WORDS, 3 * k + 1)  # 3 words per attempt unless Lemire rejects one
    chunks = iter(lambda: source.random_raw(size).tolist(), None)
    words = itertools.chain.from_iterable(chunks)
    has_half, half, used = state["has_uint32"], state["uinteger"], 0
    dims = [s.dim for s in net.subsystems]
    usable = [[i != j and dims[i] == dims[j] for j in range(net.n)] for i in range(net.n)]
    draws = [(slot, m, (1 << 32) % m) for slot, m in enumerate((n_inside, net.n, net.n)) if m > 1]
    drawn = [0, 0, 0]  # integers(1) draws nothing and gives 0
    rows, src, dst, sign = [], [], [], []
    for _ in range(k):
        for slot, m, threshold in draws:
            while True:  # Lemire: a product whose low word is below 2**32 mod m is rejected
                if has_half:
                    has_half, word = 0, half
                else:
                    w = next(words)
                    used += 1
                    has_half, half, word = 1, w >> 32, w & _LOW
                product = word * m
                if product & _LOW >= threshold:
                    break
            drawn[slot] = product >> 32
        row, i, j = drawn
        if usable[i][j]:
            used += 1
            rows.append(row)
            src.append(i)
            dst.append(j)
            sign.append(-1.0 if next(words) < 1 << 63 else 1.0)
    bits.advance(used)  # advancing clears the buffered half; put it back
    state = bits.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bits.state = state
    return (np.array(rows, dtype=np.intp), np.array(src, dtype=np.intp),
            np.array(dst, dtype=np.intp), np.array(sign, dtype=float))


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
    return sample_set(net, lambda Z: guard(Z, sub), spec)


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
