"""Stratified samplers over flow and jump sets.

Violations of Lyapunov-type inequalities concentrate where guards vanish and
where the active index of a max-type function changes, so the sampler mixes
uniform draws with guard-boundary points (found by bisecting between an
inside and an outside point) and tie points (coordinate blocks copied across
subsystems up to sign).  Every draw goes through a :class:`SampleMemo`; one
command can hand all its draws to one, so a set asked for twice (same guard
expressions, same sampler spec) is drawn once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .expr import EvalDomainError, tree_key
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
    ties = _TieDecoder(rng, len(inside), net)
    ti = 0
    try:
        while count < spec.n_samples and ti < 8 * n_tie:
            k = min(spec.n_samples - count, 8 * n_tie - ti)
            ti += k
            rows, src, dst, sign = ties.take(k)
            if len(rows):
                copies = inside[rows]
                for i, j in set(zip(src.tolist(), dst.tolist())):
                    pair = np.flatnonzero((src == i) & (dst == j))
                    copies[pair, net.slices[j]] = sign[pair, None] * copies[pair, net.slices[i]]
                samples.append(copies[test(copies)])
                count += len(samples[-1])
    finally:
        ties.close()
    # top up with plain inside draws if strata fell short
    samples.append(uniform(spec.n_samples - count, 0)[0])
    out = np.concatenate(samples)
    out.flags.writeable = False
    return out


_WORDS = 1 << 12  # raw generator words per chunk of tie draws; bounds their memory
_LOW = 0xFFFFFFFF


class _TieDecoder:
    """The draws of one tie stratum's attempts, replayed from the generator's raw words.

    One attempt calls ``rng.integers(n_inside)`` for an inside row, then
    ``rng.integers(net.n)`` for ``i`` and for ``j``, and, if blocks ``i != j`` have
    one dim, ``rng.random() < 0.5`` for a minus sign.  Those calls cost
    microseconds each, so numpy's rules for them are replayed on the raw words
    of PCG64 (the bit generator of ``default_rng``), taken in chunks of at most
    ``_WORDS`` from a copy:

    * ``integers(m)`` draws nothing for ``m == 1``; otherwise it is Lemire's
      multiply-shift with its rejection loop on 32-bit words, each the low
      half of a fresh word or else the buffered high half of the last one;
    * ``random()`` is ``(w >> 11) * 2**-53`` of a fresh word and leaves the
      buffered half alone, so it is below 0.5 exactly when ``w < 2**63``.

    Without a rejection, an attempt that starts with the buffer empty at word
    ``p`` takes its row from the low half of ``p``, ``i`` from its high half and
    ``j`` from the low half of ``p + 1``, and leaves the high half of ``p + 1``
    buffered; the next attempt takes its row from that half and ``i``, ``j``
    from the next word ``q``.  So a chunk is decoded on arrays: both kinds of
    attempt at every position, a table of where the next pair of attempts
    starts (``p + 3`` plus one sign word per usable pair), one walk along that
    chain (eight pairs a step, through the table composed with itself), and a
    gather.  The scalar rule replays a pair of attempts with a rejection, and
    the attempts after it until the buffer is empty again, the first attempts
    of a stratum entered with a buffered half until it is empty, and every
    attempt when a bound is 1.

    :meth:`take` hands out the next attempts in order; :meth:`close` leaves the
    generator in the state the scalar calls of every attempt handed out leave,
    the buffered half (stale or not) included.  Nothing may draw from the
    generator in between.  Bounds stay below 2**32.
    """

    def __init__(self, rng: np.random.Generator, n_inside: int, net: NetworkSpec):
        self._bits = rng.bit_generator
        state = self._bits.state
        self._source = np.random.PCG64(0)
        self._source.state = state
        self._words = np.empty(0, dtype=np.uint64)  # words not yet decoded start at _pos
        self._base = self._pos = 0  # generator words before _words[0], next word to decode
        self._has, self._half = state["has_uint32"], state["uinteger"]
        self._n_inside, self._n = n_inside, net.n
        dims = [s.dim for s in net.subsystems]
        self._usable = np.array([[i != j and dims[i] == dims[j] for j in range(net.n)]
                                 for i in range(net.n)], dtype=bool)
        self._draws = [(slot, m, (1 << 32) % m)
                       for slot, m in enumerate((n_inside, net.n, net.n)) if m > 1]
        # the decoded attempts: words used, buffer flag and half after each, and the
        # row, i, j and sign of each usable one; _before[a] counts usable ones before a
        self._after = np.zeros((0, 3), dtype=np.int64)
        self._drawn = (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)
        self._before = np.zeros(1, dtype=np.intp)
        self._cursor = 0
        self._taken = (0, self._has, self._half)  # the state after the attempts handed out

    def take(self, k: int):
        """The row, ``i``, ``j`` and sign of each of the next ``k`` attempts with a
        usable pair, in attempt order."""
        parts = []
        while k:
            if self._cursor == len(self._after):
                self._decode(k)
            a = self._cursor
            b = a + min(k, len(self._after) - a)
            lo, hi = self._before[a], self._before[b]
            parts.append([col[lo:hi] for col in self._drawn])
            self._cursor, k = b, k - (b - a)
            self._taken = tuple(self._after[b - 1].tolist())
        if len(parts) != 1:  # none for k == 0, or the attempts of two chunks
            parts = [[np.concatenate([col[:0], *cols]) for col, *cols in zip(self._drawn, *parts)]]
        return tuple(parts[0])

    def close(self):
        """Advance the generator past the attempts handed out."""
        used, has, half = self._taken
        self._bits.advance(used)  # advancing clears the buffered half; put it back
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = has, half
        self._bits.state = state

    def _refill(self, size: int):
        self._base += self._pos  # past the end of _words, the scalar rule drew words singly
        self._words = np.concatenate([self._words[self._pos:], self._source.random_raw(size)])
        self._pos = 0

    def _word(self) -> int:
        words, self._pos = self._words, self._pos + 1
        if self._pos <= len(words):
            return int(words[self._pos - 1])
        return int(self._source.random_raw())

    def _decode(self, wanted: int):
        """Decode the next chunk of attempts, at least one."""
        if not (self._n_inside > 1 and self._n > 1):  # integers(1) draws nothing
            words = min(_WORDS, 3 * wanted + 1)  # 3 words an attempt unless Lemire rejects
            self._refill(max(0, words - len(self._words) + self._pos))
            segments = [self._scalar(wanted)]
        else:
            segments = self._chain()
        columns = segments[0] if len(segments) == 1 else [np.concatenate(col)
                                                          for col in zip(*segments)]
        use, self._after, *self._drawn = columns
        self._before = np.concatenate([[0], np.cumsum(use)])
        self._cursor = 0

    def _chain(self) -> list:
        """The attempts of the next chunk of words, decoded on arrays."""
        self._refill(_WORDS)
        w = self._words
        m, n = self._n_inside, self._n
        # the 32-bit halves in draw order (low, then high half of each word), and
        # what integers(m) and integers(n) make of each
        halves = w.astype("<u8", copy=False).view("<u4")
        bad_row = (halves * np.uint64(m) & _LOW) < (1 << 32) % m  # Lemire rejects a row from it
        pick = halves * np.uint64(n)
        bad_n = (pick & _LOW) < (1 << 32) % n
        pick >>= 32
        # the pair with j drawn from half x and i from half x - 1: usable, rejected
        ok, bad = np.zeros(len(halves), dtype=bool), np.zeros(len(halves), dtype=bool)
        ok[1:] = self._usable.ravel()[pick[:-1] * n + pick[1:]]
        bad[1:] = bad_n[:-1] | bad_n[1:]
        # a pair of attempts from word p with the buffer empty: the first draws its
        # row, i and j from halves 2p, 2p + 1 and 2p + 2 and keeps half 2p + 3 for the
        # second's row; that one draws i and j from the next word q
        last = len(w) - 5  # a pair takes at most five words
        use_a = ok[2:2 * last + 4:2]
        q = np.arange(last + 1) + 2 + use_a
        jb = 2 * q + 1
        # step[p]: where the pair after the one at p starts; it stays at p where that
        # pair has a rejection, and past the last pair
        step = np.arange(len(w) + 1)
        step[:last + 1] += np.where(bad_row[0:2 * last + 2:2] | bad[2:2 * last + 4:2]
                                    | bad_row[3:2 * last + 5:2] | bad[jb], 0, 3 + use_a + ok[jb])
        steps = [step]
        for _ in range(3):
            steps.append(steps[-1][steps[-1]])
        eight = memoryview(steps.pop())  # eight pairs at a time
        segments, p = [], 0
        if self._has:  # a buffered half on entry goes through the scalar rule
            segments.append(self._scalar())
            p = self._pos
        while p <= last:
            P = [p]
            while eight[p] != p:
                p = eight[p]
                P.append(p)
            P = np.array(P)
            for table in reversed(steps):
                P = np.stack([P, table[P]], axis=1).ravel()
            P = P[P < p]  # the clean pairs before the walk stopped
            if len(P):
                jx = np.stack([2 * P + 2, jb[P]], axis=1).ravel()  # the half j drew, per attempt
                rx = np.stack([2 * P, 2 * P + 3], axis=1).ravel()  # the half the row drew
                use = ok[jx]
                ju = jx[use]
                # an attempt ends past j's word and its sign word; the half after j's is
                # buffered if j drew a low half
                after = np.stack([self._base + (jx >> 1) + 1 + use, 1 - (jx & 1),
                                  halves[jx | 1]], axis=1)
                rows = (halves[rx[use]] * np.uint64(m) >> 32).astype(np.intp)
                sign = np.where(w[(ju >> 1) + 1] < 1 << 63, -1.0, 1.0)
                segments.append((use, after, rows, pick[ju - 1].astype(np.intp),
                                 pick[ju].astype(np.intp), sign))
            if p <= last:  # the pair at p has a rejection
                self._pos = p
                segments.append(self._scalar())
                p = self._pos
        self._pos = p
        return segments

    def _scalar(self, count: Optional[int] = None) -> tuple:
        """``count`` attempts by numpy's scalar rules, or, by default, attempts
        until the buffer is empty after one."""
        use, after = [], []
        drawn, out = [0, 0, 0], ([], [], [], [])
        while count is None or len(use) < count:
            for slot, m, threshold in self._draws:
                while True:  # Lemire: a product whose low word is below 2**32 mod m is rejected
                    if self._has:
                        self._has, word = 0, self._half
                    else:
                        w = self._word()
                        self._has, self._half, word = 1, w >> 32, w & _LOW
                    product = word * m
                    if product & _LOW >= threshold:
                        break
                drawn[slot] = product >> 32
            row, i, j = drawn
            use.append(bool(self._usable[i, j]))
            if use[-1]:
                for col, value in zip(out, (row, i, j, -1.0 if self._word() < 1 << 63 else 1.0)):
                    col.append(value)
            after.append((self._base + self._pos, self._has, self._half))
            if count is None and not self._has:
                break
        return (np.array(use, dtype=bool), np.array(after, dtype=np.int64).reshape(-1, 3),
                *(np.array(col, dtype=np.intp) for col in out[:3]), np.array(out[3], dtype=float))


class SampleMemo:
    """The sample sets of one command, drawn once each.

    A set is keyed by its kind (flow or jump), the ``tree_key`` of each guard
    expression its guard folds over and the sampler spec's ``repr``, which shows
    every field; within one network those decide the samples.  A memo belongs to
    one command and one network: a draw that raises is not kept.
    """

    def __init__(self):
        self._sets: Dict[tuple, np.ndarray] = {}

    def get(self, net: NetworkSpec, kind: str, spec: SamplerSpec, sub: Optional[int]):
        guards = tuple(tree_key(s.c_guard if kind == "c" else s.d_guard) for s in
                       (net.subsystems if sub is None else [net.subsystems[sub]]))
        key = (kind, guards, repr(spec))
        found = self._sets.get(key)
        if found is None:
            guard = net.c_array if kind == "c" else net.d_array
            found = self._sets[key] = sample_set(net, lambda Z: guard(Z, sub), spec)
        return found


def flow_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None,
                     memo: Optional[SampleMemo] = None) -> np.ndarray:
    """Samples of the flow set (of subsystem ``sub``, or of the network)."""
    return (memo or SampleMemo()).get(net, "c", spec, sub)


def jump_set_samples(net: NetworkSpec, spec: SamplerSpec, sub: Optional[int] = None,
                     memo: Optional[SampleMemo] = None) -> np.ndarray:
    """Samples of the jump set (of subsystem ``sub``, or of the network)."""
    return (memo or SampleMemo()).get(net, "d", spec, sub)


def sphere_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Directions with unit max norm, axes included."""
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
    extra = rng.uniform(-1.0, 1.0, (max(count - len(dirs), 0), dim))
    norms = np.max(np.abs(extra), axis=1)
    keep = norms > 1e-12
    dirs.extend(extra[keep] / norms[keep, None])
    return np.array(dirs[:max(count, 1)])
