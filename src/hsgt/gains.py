"""Gain matrices, the max-type gain operator, small-gain checks, scaling paths.

The small-gain condition is decided two independent ways and cross-checked:
by enumerating simple cycles of the gain digraph and testing each composed
cycle gain below the identity on a log grid, and by searching directly for a
nonnegative vector that the gain operator fails to strictly decrease.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import expr as ex
from .kfun import (GRID, UNBOUNDED_PROBE, Classification, KFun, at_least, inverse_kfun,
                   kfun_to_json, pointwise_min)

# Relative margin every strict decrease below the identity must clear.
STRICTNESS = 1e-9
# Largest network whose simple cycles are enumerated; larger ones get the
# direct search alone.
CYCLE_SIZE_LIMIT = 12
# Direct search: random nonnegative directions and radii per direction.
RANDOM_DIRECTIONS = 1000
RADII_POINTS = 9
# Direct-search directions evaluated together, each at every radius.
SEARCH_BLOCK = 64
# Lanes (cycles times grid points) the small-gain check composes together.
BUDGET = 32768


class GainMatrixError(Exception):
    pass


class SmallGainError(Exception):
    pass


class OmegaPathError(Exception):
    pass


@dataclass(frozen=True)
class GainMatrix:
    """Square matrix of gains with a zero diagonal; nonzero entries class-Kinf."""

    entries: tuple  # tuple of tuples of KFun

    def __post_init__(self):
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise GainMatrixError("gain matrix must be square")
            for j, g in enumerate(row):
                if i == j and not g.is_zero:
                    raise GainMatrixError(f"diagonal entry ({i + 1},{i + 1}) must be zero")
                if i != j and not g.is_zero and not at_least(g.classification, Classification.CLASS_K_INF):
                    raise GainMatrixError(
                        f"entry ({i + 1},{j + 1}) classified {g.classification.value}, "
                        "nonzero gains must be class-Kinf")

    @property
    def n(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def nonzero_rows(self) -> tuple:
        """Per row, its nonzero gains as ``(column, gain)`` pairs in column order."""
        return tuple(tuple((j, g) for j, g in enumerate(row) if not g.is_zero)
                     for row in self.entries)

    @functools.cached_property
    def by_shape(self) -> "_ShapeTable":
        """The nonzero gains grouped by the shape they are evaluated with."""
        return _ShapeTable.of(self)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Optional[KFun]]]) -> "GainMatrix":
        fixed = tuple(tuple(KFun.zero() if g is None else g for g in row) for row in rows)
        return GainMatrix(fixed)

    def linear_slopes(self) -> Optional[np.ndarray]:
        """Coefficient matrix when every entry is (sampled) linear, else None."""
        out = np.zeros((self.n, self.n))
        for i, row in enumerate(self.entries):
            for j, g in enumerate(row):
                if g.is_zero:
                    continue
                if g.linear_slope is None:
                    return None
                out[i, j] = g.linear_slope
        return out

    def to_json(self) -> dict:
        return {"n": self.n,
                "entries": [[None if g.is_zero else kfun_to_json(g) for g in row]
                            for row in self.entries]}


@dataclass(frozen=True)
class _ShapeTable:
    """The nonzero gains of a matrix grouped by the shape they are evaluated with.

    Edge a -> b, whose gain is ``entries[b][a]``, has id ``a * n + b``.
    ``group[e]`` numbers its group (-1 for a zero gain), and ``rank[e]`` sorts
    edges by group, then id; ``edges`` lists the nonzero gains' edges in rank
    order.  A group is an expression shape, whose members' constants are the
    rows ``group_consts[group][e]``, with a linear slope counting as the shape
    ``slope * s``; or a gain with no expression, alone, whose shape is None.
    """

    group: np.ndarray
    rank: np.ndarray
    edges: np.ndarray
    group_shape: tuple
    group_consts: tuple

    @staticmethod
    def of(gm: GainMatrix) -> "_ShapeTable":
        n = gm.n
        group = np.full(n * n, -1)
        ids, shapes, consts_of = {}, [], []
        for i, row in enumerate(gm.nonzero_rows):
            for j, g in row:
                e = j * n + i
                if g.linear_slope is not None:
                    key, consts = "slope", (g.linear_slope,)
                elif g.shape is not None:
                    key, consts = g.shape, g.consts
                else:
                    key, consts = e, ()  # a group of its own
                if key not in ids:
                    ids[key] = len(shapes)
                    shapes.append(_slope_shape() if key == "slope" else
                                  key if isinstance(key, ex.Shape) else None)
                    consts_of.append(np.zeros((n * n, len(consts))))
                group[e] = ids[key]
                consts_of[ids[key]][e] = consts
        rank = group * (n * n) + np.arange(n * n)
        edges = np.argsort(rank)[np.count_nonzero(group < 0):]  # zero gains rank first
        return _ShapeTable(group=group, rank=rank, edges=edges, group_shape=tuple(shapes),
                           group_consts=tuple(consts_of))


def _slope_shape() -> ex.Shape:
    """The shape ``k0 * s``: lane p of its kernel is ``slope * S[p]``, as
    ``KFun.array`` takes a linear slope."""
    return ex.compile_shaped(ex.Mul(ex.Const(1.0), ex.Var("s")), ("s",))[1]


def _rows_by_shape(gm: GainMatrix, edge: np.ndarray, X: np.ndarray,
                   redo_key: np.ndarray) -> np.ndarray:
    """Row k is ``g.array(X[k])`` for the gain g on edge ``edge[k]``, bit for bit.

    ``edge`` is in rank order, so each group's rows are adjacent, and each
    shape takes all of its rows in one kernel call, with each row's constants
    as (rows, 1) columns.  Then, rows in ascending ``redo_key`` (ties in row
    order), each marked lane is redone by its gain's scalar call and each gain
    alone takes its row in its own array call.  So the first error raised is
    the one that a loop over the rows in that order raises.
    """
    out = np.empty(X.shape)
    if not len(edge):
        return out
    table = gm.by_shape
    group = table.group[edge]
    starts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
    redo = []  # (lo, hi, mask) of each group with lanes to redo
    for lo, hi in zip([0] + starts, starts + [len(edge)]):
        shape = table.group_shape[group[lo]]
        if shape is None:
            redo.append((lo, hi, True))
            continue
        c = table.group_consts[group[lo]][edge[lo:hi]]
        bad = shape.lanes([X[lo:hi]], [c[:, m, None] for m in range(c.shape[1])], out[lo:hi])
        if np.any(bad):
            redo.append((lo, hi, bad))
    if not redo:
        return out
    marked = np.zeros(X.shape, dtype=bool)
    for lo, hi, bad in redo:
        marked[lo:hi] = bad
    todo = np.flatnonzero(marked.any(axis=1))
    for k in todo[np.argsort(redo_key[todo], kind="stable")].tolist():
        a, b = divmod(int(edge[k]), gm.n)
        g = gm.entries[b][a]
        if table.group_shape[group[k]] is None:
            out[k] = g.array(X[k])
        else:
            for p in np.flatnonzero(marked[k]).tolist():
                out[k, p] = g(float(X[k, p]))
    return out


def gamma_max_apply(gm: GainMatrix, s: Sequence[float]) -> np.ndarray:
    """Componentwise max of row gains applied to the vector; zero rows give 0.

    ``s`` is one vector of length n or a (B, n) block of them.  A block is
    evaluated one shape at a time over the stacked columns of its gains (see
    ``_rows_by_shape``), and each of its rows is bit for bit the image of that
    row on its own; a marked lane is redone in row, column, lane order, so an
    error is the one a loop over the gains of each row raises.  Either way a
    later gain wins only if it is greater, starting from 0.0.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != gm.n:
        raise GainMatrixError(f"expected a vector of length {gm.n}, got shape {s.shape}")
    if np.any(s < 0.0):
        raise GainMatrixError("gain operator arguments must be nonnegative")
    if s.ndim == 1:
        vals = s.tolist()
        out = np.zeros(gm.n)
        for i, row in enumerate(gm.nonzero_rows):
            best = 0.0
            for j, g in row:
                v = g(vals[j])
                if v > best:
                    best = v
            out[i] = best
        return out
    n, edges = gm.n, gm.by_shape.edges
    column, row = divmod(edges, n)  # gain (row, column) on edge column -> row
    images = np.full((n * n, len(s)), np.nan)  # NaN where there is no gain: it never wins
    images[edges] = _rows_by_shape(gm, edges, s.T[column], row * n + column)
    out = np.zeros(s.shape)
    out.T[...] = ex.lane_max([0.0, *images.reshape(n, n, len(s))])  # over columns in order
    return out


@dataclass
class SmallGainOptions:
    grid_lo: float = 1e-8
    grid_hi: float = 1e8
    grid_points: int = 128
    seed: int = 0

    def grid(self) -> np.ndarray:
        if self.grid_points < 16:
            raise SmallGainError("grid too coarse: need at least 16 points")
        return np.geomspace(self.grid_lo, self.grid_hi, self.grid_points)


@dataclass
class CycleWitness:
    indices: List[int]  # 0-based subsystem indices along the cycle
    radius: float
    value: float  # composed gain at the radius; a violation has value >= radius

    def to_json(self) -> dict:
        return {"cycle": [i + 1 for i in self.indices],
                "radius": self.radius, "composed_gain": self.value}


@dataclass
class SmallGainVerdict:
    holds: bool
    inconclusive: bool = False
    witness_vector: Optional[np.ndarray] = None
    witness_image: Optional[np.ndarray] = None
    witness_cycle: Optional[CycleWitness] = None
    margin: float = 0.0  # max of composed cycle gain / radius over the grid
    cycles_checked: bool = True
    methods_disagreed: bool = False
    notes: List[str] = field(default_factory=list)
    # simple_gain_cycles(gm) when enumerated, for build_omega_path; not reported
    cycles: Optional[List[List[int]]] = field(default=None, repr=False)

    def to_json(self) -> dict:
        out = {"holds": self.holds, "inconclusive": self.inconclusive,
               "margin": self.margin, "cycles_checked": self.cycles_checked}
        if self.witness_vector is not None:
            out["witness_vector"] = [float(v) for v in self.witness_vector]
            out["witness_image"] = [float(v) for v in self.witness_image]
        if self.witness_cycle is not None:
            out["witness_cycle"] = self.witness_cycle.to_json()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def simple_gain_cycles(gm: GainMatrix) -> List[List[int]]:
    """Every simple cycle of the gain digraph, which has an edge j -> i
    whenever the (i, j) gain is nonzero.

    Each cycle appears once, as the list of its 0-based nodes starting at its
    smallest index.  The list is in lexicographic order: a depth-first search
    from each start node in turn, through successors in ascending order.
    """
    n = gm.n
    succ = [[b for b in range(n) if not gm.entries[b][a].is_zero] for a in range(n)]
    cycles = []
    for start in range(n):
        path, on_path = [start], [False] * n
        stack = [iter(succ[start])]
        while stack:
            for b in stack[-1]:
                if b == start:
                    cycles.append(list(path))
                elif b > start and not on_path[b]:
                    path.append(b)
                    on_path[b] = True
                    stack.append(iter(succ[b]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return cycles


def compose_cycle(gm: GainMatrix, cycle: Sequence[int], r: float | np.ndarray,
                  factor: float = 1.0) -> float | np.ndarray:
    """Gain composed once around the cycle, starting and ending at radius r.

    Each gain is scaled by ``factor`` before the next one is applied.  ``r``
    is one radius, or a 1-D array of radii composed together through
    ``KFun.array``, lane p bit for bit the value at ``float(r[p])``.
    """
    v = r
    lanes = isinstance(r, np.ndarray)
    nodes = list(cycle)
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        g = gm.entries[b][a]
        v = factor * (g.array(v) if lanes else g(v))
    return v


def _running_max(start: float, values: np.ndarray) -> float:
    """Running max of ``values`` from ``start``: a later value wins only if it
    is greater, so NaN never wins.  The result is ``start`` or a value."""
    top = np.fmax.reduce(values, axis=None, initial=-np.inf)  # largest that is not NaN
    return top if top > start else start


def small_gain_check(gm: GainMatrix, options: Optional[SmallGainOptions] = None) -> SmallGainVerdict:
    """Decide the small-gain condition by cycle enumeration plus direct search.

    Strict decrease of a composed cycle gain is accepted only with a relative
    margin; grid points inside the margin band make the verdict inconclusive
    instead of a pass.  Any witness is re-evaluated before being reported.
    """
    opts = options or SmallGainOptions()
    grid = opts.grid()
    verdict = SmallGainVerdict(holds=True, margin=0.0)

    if gm.n <= CYCLE_SIZE_LIMIT:
        verdict.cycles = simple_gain_cycles(gm)
        for cycles, radii, rows in _cycle_hits(gm, verdict.cycles, grid, 1.0):
            if _scan(gm, cycles, radii, rows, verdict):
                break
        if verdict.witness_cycle is None and verdict.margin > 1.0 - STRICTNESS:
            verdict.holds = False
            verdict.inconclusive = True
            verdict.notes.append("cycle gain inside the strictness band; verdict inconclusive")
    else:
        verdict.cycles_checked = False
        verdict.notes.append(
            f"n={gm.n} exceeds the cycle enumeration limit; direct search only")

    s_witness = _direct_search(gm, opts.seed)
    if s_witness is not None:
        image = gamma_max_apply(gm, s_witness)
        if np.all(image >= s_witness) and np.any(s_witness > 0.0):
            if verdict.cycles_checked and verdict.witness_cycle is None and not verdict.inconclusive:
                verdict.methods_disagreed = True
                verdict.notes.append("direct witness found although every cycle passed")
            verdict.holds = False
            verdict.witness_vector = s_witness
            verdict.witness_image = image
    return verdict


def _cycle_hits(gm: GainMatrix, cycles: List[List[int]], grid: np.ndarray, factor: float):
    """Yield ``(cycles, radii, rows)`` in scan order, ``rows[k]`` the row
    ``compose_cycle(gm, cycles[k], radii, factor)``.

    Each block of ``BUDGET // grid.size`` consecutive cycles (at least one)
    comes as one ``(block, grid, _block_rows(...))``.  If any of its array
    calls raises, the block's cycles are replayed one at a time through
    ``ex.rows_in_order(compose_cycle)``, one yield per row, so a scan that stops
    at its first hit meets the errors of a cycle-by-cycle scan and no others.
    """
    size = max(1, BUDGET // grid.size)
    for first in range(0, len(cycles), size):
        block = cycles[first:first + size]
        try:
            rows = _block_rows(gm, block, grid, factor)
        except Exception:  # replayed cycle by cycle below, not swallowed
            for cycle in block:
                compose = lambda r, c=cycle: compose_cycle(gm, c, r, factor)
                for start, values in ex.rows_in_order(compose, grid):
                    yield [cycle], grid[start:start + values.size], values[None, :]
        else:
            yield block, grid, rows


def _block_rows(gm: GainMatrix, cycles: List[List[int]], grid: np.ndarray,
                factor: float) -> np.ndarray:
    """The (len(cycles), grid.size) array whose row k is ``compose_cycle(gm,
    cycles[k], grid, factor)``, bit for bit.

    The cycles are consecutive in ``simple_gain_cycles`` order, so those that
    share their first d + 1 nodes are adjacent.  Depth by depth, each distinct
    prefix is composed once, and only the prefixes still growing are kept.
    The rows taken at a depth, into a longer prefix or closing a cycle, are
    sorted by the shape of their edge's gain, then by edge, and each shape is
    one kernel call over its rows' parents (``_rows_by_shape``); lane p of a
    call does not depend on the other lanes.  A marked lane is redone in edge
    order, as one array call per edge would redo it.
    """
    m, n, width = len(cycles), gm.n, grid.size
    rank = gm.by_shape.rank
    lengths = np.array([len(c) for c in cycles])
    # nodes[k, d] -> nodes[k, d + 1] is cycle k's edge at depth d; the closing
    # edge goes back to the start, and -1 pads the rest
    nodes = np.full((m, lengths.max() + 1), -1)
    rows = np.repeat(np.arange(m), lengths)
    nodes[rows, np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = \
        list(itertools.chain.from_iterable(cycles))
    nodes[np.arange(m), lengths] = nodes[:, 0]
    # new[k, d]: the first d + 1 nodes of cycle k differ from those of cycle k - 1
    new = np.ones(nodes.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(nodes[1:] != nodes[:-1], axis=1)
    out = np.empty((m, width))
    prefix_rows = grid[None, :]  # the values after d edges, one row per growing prefix
    prefix = np.zeros(m, dtype=int)  # each cycle's row in prefix_rows
    for depth in range(nodes.shape[1] - 1):
        closing = lengths == depth + 1
        grows = (lengths > depth + 1) & new[:, depth + 1]  # the first cycle of each longer prefix
        taken = np.flatnonzero(grows | closing)
        edge = nodes[taken, depth] * n + nodes[taken, depth + 1]
        order = np.argsort(rank[edge], kind="stable")
        taken, edge = taken[order], edge[order]
        # the values after d + 1 edges, in taken order
        values = _rows_by_shape(gm, edge, prefix_rows[prefix[taken]], edge)
        np.multiply(factor, values, out=values)
        growing = grows[taken]
        out[taken[~growing]] = values[~growing]
        if not growing.any():
            break
        at = np.empty(m, dtype=int)
        at[taken[growing]] = np.arange(np.count_nonzero(growing))
        prefix = at[np.flatnonzero(grows)][np.cumsum(grows) - 1]
        prefix_rows = values[growing]
    return out


def _scan(gm: GainMatrix, cycles: List[List[int]], radii: np.ndarray, rows: np.ndarray,
          verdict: SmallGainVerdict) -> bool:
    """Scan the cycles' rows at the radii, as ``_cycle_hits`` gives them, in
    cycle-then-radius order; True once a hit is confirmed as a witness.

    A hit (``value >= radius``) is re-evaluated with the scalar call first.
    The margin is raised by every ratio ``value / radius`` up to and including
    the witness: the rows before it, then its own row up to its radius.  A
    maximum does not depend on order, and NaN never wins it.
    """
    ratios = rows / radii
    hit = rows >= radii
    for k in np.flatnonzero(hit.any(axis=1)).tolist():
        for p in np.flatnonzero(hit[k]).tolist():
            candidate = CycleWitness(list(cycles[k]), float(radii[p]), float(rows[k, p]))
            if compose_cycle(gm, cycles[k], candidate.radius) >= candidate.radius:
                margin = _running_max(verdict.margin, ratios[:k])
                verdict.margin = _running_max(margin, ratios[k, :p + 1])
                verdict.holds = False
                verdict.witness_cycle = candidate
                return True
    verdict.margin = _running_max(verdict.margin, ratios)
    return False


def _direct_search(gm: GainMatrix, seed: int) -> Optional[np.ndarray]:
    """First nonnegative vector, over directions then radii, that the gain
    operator does not strictly decrease in any component."""
    n = gm.n
    rng = np.random.default_rng(seed)
    masks = list(itertools.product((0.0, 1.0), repeat=n))[1:] if n <= 10 else []
    extra = np.abs(rng.standard_normal((RANDOM_DIRECTIONS, n)))
    norms = extra.max(axis=1)
    keep = norms > 0
    directions = np.vstack([np.reshape(masks, (-1, n)), extra[keep] / norms[keep, None]])
    radii = np.geomspace(1e-6, 1e6, RADII_POINTS)
    for first in range(0, len(directions), SEARCH_BLOCK):
        rows = (directions[first:first + SEARCH_BLOCK, None, :] * radii[:, None]).reshape(-1, n)
        for start, image in ex.rows_in_order(lambda s: gamma_max_apply(gm, s), rows):
            hits = np.flatnonzero(np.all(image >= rows[start:start + len(image)], axis=1))
            if hits.size:
                return rows[start + hits[0]].copy()
    return None


@dataclass
class OmegaPath:
    """Componentwise scaling path strictly decreased by the gain operator."""

    sigmas: List[KFun]
    sigma_invs: List[KFun]
    anchor: np.ndarray
    gain_matrix: GainMatrix
    grid: np.ndarray
    inflation: float
    margin: float  # max over the grid of (Gamma_max(sigma(r)))_i / sigma_i(r)
    vector_eval: Callable[[float], np.ndarray]

    @property
    def n(self) -> int:
        return len(self.sigmas)

    def to_json(self) -> dict:
        return {"anchor": [float(a) for a in self.anchor],
                "inflation": self.inflation,
                "margin": self.margin,
                "sigma": [kfun_to_json(s) for s in self.sigmas]}


def _path_vector_fn(gm: GainMatrix, anchor: np.ndarray, inflation: float) -> Callable[[float], np.ndarray]:
    slopes = gm.linear_slopes()
    n = gm.n
    if slopes is not None:
        scaled = slopes * (1.0 + inflation)
        coeff = anchor.copy()
        best = anchor.copy()
        for _ in range(n - 1):
            coeff = np.array([max([scaled[i, j] * coeff[j] for j in range(n) if j != i],
                                  default=0.0) for i in range(n)])
            best = np.maximum(best, coeff)

        def linear_fn(r, c=best) -> np.ndarray:
            return c * np.asarray(r)[..., None]
        return linear_fn

    factor = 1.0 + inflation

    def general_fn(r) -> np.ndarray:
        v = anchor * np.asarray(r)[..., None]
        best = v.copy()
        for _ in range(n - 1):
            v = factor * gamma_max_apply(gm, v)
            best = np.maximum(best, v)
        return best
    return general_fn


def _inflation_candidates(gm: GainMatrix, margin: float, cycles_exist: bool) -> List[float]:
    cands = [0.0]
    if cycles_exist and 0.0 < margin < 1.0:
        top = (1.0 / margin) ** (1.0 / (2.0 * gm.n)) - 1.0
        top = min(max(top, 1e-9), 1.0)
    else:
        top = 0.5
    cands.extend([top, top / 4.0, top / 16.0, top / 64.0, 1e-6])
    seen, out = set(), []
    for c in cands:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _inflated_cycles_ok(gm: GainMatrix, cycles: List[List[int]], inflation: float,
                        grid: np.ndarray) -> bool:
    if inflation == 0.0:
        return True
    return not any((rows > (1.0 - STRICTNESS) * radii).any() for _cycles, radii, rows in
                   _cycle_hits(gm, cycles, grid, 1.0 + inflation))


def build_omega_path(gm: GainMatrix, anchor: Optional[Sequence[float]] = None,
                     verdict: Optional[SmallGainVerdict] = None,
                     options: Optional[SmallGainOptions] = None) -> OmegaPath:
    """Construct the scaling path from iterated gain-operator images of the anchor.

    The plain construction (no inflation) is tried first.  When a grid point
    fails the strict decrease, the iterates are recomputed with mildly
    inflated gains, which restores strictness whenever the small-gain margin
    allows; the path is always verified against the original operator.
    """
    opts = options or SmallGainOptions()
    grid = opts.grid()
    if verdict is None:
        verdict = small_gain_check(gm, opts)
    if not verdict.holds:
        raise SmallGainError("small-gain condition does not hold; no scaling path exists")
    a = np.ones(gm.n) if anchor is None else np.asarray(anchor, dtype=float)
    if a.shape != (gm.n,) or np.any(a <= 0.0):
        raise OmegaPathError("anchor must be a positive vector matching the matrix size")

    cycles = None
    if gm.n <= CYCLE_SIZE_LIMIT:
        cycles = simple_gain_cycles(gm) if verdict.cycles is None else verdict.cycles
    worst_r = None
    for inflation in _inflation_candidates(gm, verdict.margin, cycles is None or bool(cycles)):
        if cycles is not None and not _inflated_cycles_ok(gm, cycles, inflation, grid):
            continue
        vec_fn = _path_vector_fn(gm, a, inflation)
        ok = True
        margin = 0.0
        for start, (sig, image) in ex.rows_in_order(lambda r: _path_image(gm, vec_fn, r), grid):
            fails = np.flatnonzero(np.any(image > (1.0 - STRICTNESS) * sig, axis=1))
            if fails.size:  # the candidate is dropped, and its margin with it
                ok = False
                worst_r = float(grid[start + fails[0]])
                break
            margin = float(_running_max(margin, (image / sig).max(axis=1)))
        if ok:
            shared = _classified_once(vec_fn)
            sigmas = [_sigma_component(shared, i) for i in range(gm.n)]
            sigma_invs = [inverse_kfun(sigma) for sigma in sigmas]
            return OmegaPath(sigmas=sigmas, sigma_invs=sigma_invs, anchor=a,
                             gain_matrix=gm, grid=grid, inflation=inflation,
                             margin=margin, vector_eval=vec_fn)
    raise OmegaPathError(
        f"scaling path not strictly decreased at r={worst_r!r}; "
        "the small-gain verdict may be a false positive")


def _path_image(gm: GainMatrix, vec_fn: Callable, r: np.ndarray):
    sig = vec_fn(r)
    return sig, gamma_max_apply(gm, sig)


def _classified_once(vec_fn: Callable) -> Callable:
    """``vec_fn``, but evaluated once on ``GRID`` and once on ``UNBOUNDED_PROBE``
    for all the components that are classified there.  An error there is
    raised again for each component, which then replays point by point."""
    taken = {}

    def shared(r):
        if r is not GRID and r is not UNBOUNDED_PROBE:
            return vec_fn(r)
        if id(r) not in taken:
            try:
                taken[id(r)] = vec_fn(r)
            except Exception as exc:  # raised again below, for every component
                taken[id(r)] = exc
        value = taken[id(r)]
        if isinstance(value, Exception):
            raise value
        return value
    return shared


def _sigma_component(vec_fn: Callable[[float], np.ndarray], i: int) -> KFun:
    # lane p of vec_fn(S) is vec_fn(float(S[p])) bit for bit, whole grids at once
    f = KFun.from_callable(lambda r: float(vec_fn(r)[i]), f"sigma_{i + 1}",
                           array_rule=lambda S: vec_fn(S)[:, i])
    if not at_least(f.classification, Classification.CLASS_K_INF):
        raise OmegaPathError(f"path component {i + 1} failed class-Kinf checks")
    return f


def compose_phi(path: OmegaPath) -> KFun:
    """Common lower envelope of the path components, checked against the gains
    over the whole grid at once; the first miss in (r, i) order is reported.
    On an evaluation error the radii are replayed one at a time."""
    phi = pointwise_min(path.sigmas)
    grid = np.asarray(path.grid, dtype=float)
    for start, misses in ex.rows_in_order(lambda r: _envelope_misses(path, phi, r), grid):
        hits = np.argwhere(misses)
        if hits.size:
            p, i = hits[0].tolist()
            raise OmegaPathError(
                f"envelope bound violated at r={float(grid[start + p])!r}, component {i + 1}")
    return phi


def _envelope_misses(path: OmegaPath, phi: KFun, radii: np.ndarray) -> np.ndarray:
    """Mask (B, n) of the radii and components that miss the envelope bound.

    A component's left side starts at phi(r) and takes each gain into it in
    column order by Python's ``max`` rule.  Components stop once every radius
    has missed, so a lone radius stops at its first miss, as a loop would.
    """
    sig = path.vector_eval(radii)
    phi_r = phi.array(radii)
    misses = np.zeros(sig.shape, dtype=bool)
    for i, row in enumerate(path.gain_matrix.nonzero_rows):
        lhs = ex.lane_max([phi_r, *(g.array(sig[:, j]) for j, g in row)])
        misses[:, i] = lhs > sig[:, i] * (1.0 + STRICTNESS)
        if misses.any(axis=1).all():
            break
    return misses
