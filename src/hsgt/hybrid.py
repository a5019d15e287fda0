"""Hybrid time domains, signals, network composition, and trajectory simulation.

States evolve by a fixed-step RK4 integration of the composed flow map while
the flow-set guard holds, and by the composed jump map (applied per subsystem,
identity outside that subsystem's jump set) when the jump-set guard holds.
Guard crossings inside a step are located by bisecting the step.  Membership
of a guard set uses the convention ``guard(x, u) <= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, IO, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex


class HybridError(Exception):
    pass


class DomainError(HybridError):
    pass


class SimulationError(HybridError):
    pass


# ---------------------------------------------------------------------------
# time domains and signals


@dataclass(frozen=True)
class HybridTimeDomain:
    """Ordered intervals ``[t_k, t_{k+1}] x {k}`` with consecutive jump counters."""

    intervals: Tuple[Tuple[float, float, int], ...]

    def __post_init__(self):
        if not self.intervals:
            raise DomainError("a hybrid time domain needs at least one interval")
        t0, _, k0 = self.intervals[0]
        if t0 != 0.0 or k0 != 0:
            raise DomainError("the first interval must start at (0, 0)")
        prev_end, prev_k = None, None
        for lo, hi, k in self.intervals:
            if hi < lo:
                raise DomainError(f"interval [{lo}, {hi}] has negative length")
            if prev_k is not None:
                if k != prev_k + 1:
                    raise DomainError("jump counters must increase by exactly one")
                if lo != prev_end:
                    raise DomainError("intervals must chain at the jump times")
            prev_end, prev_k = hi, k


@dataclass
class HybridSignal:
    """Sampled values on a hybrid time domain; both endpoints kept at jumps."""

    domain: HybridTimeDomain
    times: List[np.ndarray]       # one strictly increasing array per interval
    values: List[np.ndarray]      # matching (n_samples, dim) arrays

    def __post_init__(self):
        if len(self.times) != len(self.domain.intervals) or len(self.values) != len(self.times):
            raise DomainError("one sample block per domain interval is required")
        message = _first_bad_interval(self.domain.intervals, self.times, self.values)
        if message is not None:
            raise DomainError(message)

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]


def _first_bad_interval(intervals, times, values) -> Optional[str]:
    """The message of the first interval whose samples are bad, in one pass over
    all of them: an interval fails the first of these checks that it fails, and
    the first interval that fails any of them decides.  Its samples must match in
    number and be nonempty, their times must strictly increase, and they must lie
    in the interval (to 1e-12)."""
    lengths = np.array([len(ts) for ts in times], dtype=np.intp)
    sizes = np.array([len(vs) for vs in values], dtype=np.intp)
    problems = [("each interval needs matching nonempty samples",
                 (lengths != sizes) | (lengths == 0))]
    if len(lengths) and lengths.sum():
        flat = np.concatenate([np.asarray(ts, dtype=float).ravel() for ts in times])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # the steps inside each interval; one across two intervals is not a step
        across = np.zeros(len(flat), dtype=bool)
        across[starts[starts > 0] - 1] = True
        falls = np.flatnonzero((np.diff(flat) <= 0.0) & ~across[:-1])
        decreasing = np.zeros(len(lengths), dtype=bool)
        decreasing[np.searchsorted(ends, falls, side="right")] = True
        nonempty = np.flatnonzero(lengths)
        bounds = np.array([(intervals[i][0], intervals[i][1]) for i in nonempty.tolist()],
                          dtype=float).reshape(-1, 2)
        outside = np.zeros(len(lengths), dtype=bool)
        outside[nonempty] = ((flat[starts[nonempty]] < bounds[:, 0] - 1e-12)
                             | (flat[ends[nonempty] - 1] > bounds[:, 1] + 1e-12))
        problems += [("sample times must strictly increase inside an interval", decreasing),
                     ("samples outside their interval", outside)]
    firsts = [(int(np.argmax(bad)), rank) for rank, (_m, bad) in enumerate(problems) if bad.any()]
    return problems[min(firsts)[1]][0] if firsts else None


# ---------------------------------------------------------------------------
# subsystem and network specifications


@dataclass
class SubsystemSpec:
    """One hybrid subsystem: flow/jump maps over the global state plus guards."""

    dim: int
    flow: List[ex.Expr]
    jump: List[ex.Expr]
    c_guard: ex.Expr
    d_guard: ex.Expr
    name: str = ""

    def validate(self):
        if len(self.flow) != self.dim or len(self.jump) != self.dim:
            raise HybridError(
                f"subsystem '{self.name}': flow/jump maps must have {self.dim} components")


class InputSignal:
    """External input as expressions in (t, k) or a piecewise-constant table.

    ``values(t, k)`` is the input as a plain list of floats.  It must be a pure
    function of (t, k), as the four constructors below make it: the simulator
    reads the input at a step's start once, as the previous step's end input.
    ``constant`` and ``zero`` set ``is_constant``: the simulator then reads the
    input once per interval and reuses that list inside every step.
    """

    def __init__(self, fn: Callable[[float, int], list], dim: int, description: str,
                 is_constant: bool = False):
        self.values = fn
        self.dim = dim
        self.description = description
        self.is_constant = is_constant

    def __call__(self, t: float, k: int) -> np.ndarray:
        return np.asarray(self.values(t, k))

    @staticmethod
    def constant(values: Sequence[float]) -> "InputSignal":
        vals = [float(v) for v in values]
        return InputSignal(lambda t, k: vals, len(vals), f"constant {vals}",
                           is_constant=True)

    @staticmethod
    def zero(dim: int) -> "InputSignal":
        vals = [0.0] * dim
        return InputSignal(lambda t, k: vals, dim, "zero", is_constant=True)

    @staticmethod
    def from_exprs(exprs: Sequence[ex.Expr]) -> "InputSignal":
        compiled = [ex.compile_expr(e, ("t", "k")) for e in exprs]

        def fn(t: float, k: int) -> list:
            vals = (t, float(k))
            return [c(vals) for c in compiled]
        return InputSignal(fn, len(compiled), "expression input")

    @staticmethod
    def piecewise(times: Sequence[float], values: Sequence[Sequence[float]]) -> "InputSignal":
        ts = [float(v) for v in times]
        vs = [[float(v) for v in row] for row in values]
        if len(ts) != len(vs) or not ts:
            raise HybridError("piecewise input needs matching nonempty times and values")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise HybridError("piecewise input times must strictly increase")
        from bisect import bisect_right

        def fn(t: float, k: int) -> list:
            return vs[max(bisect_right(ts, t) - 1, 0)]
        return InputSignal(fn, len(vs[0]), "piecewise-constant input")


@dataclass
class NetworkSpec:
    """Composed network: intersection flow set, union jump set, stacked maps."""

    subsystems: List[SubsystemSpec]
    input_dim: int
    state_dim: int = 0
    slices: List[slice] = field(default_factory=list)
    var_order: Tuple[str, ...] = ()
    jump_sets_equal: bool = True
    warnings: List[str] = field(default_factory=list)
    _flow_fns: list = field(default_factory=list, repr=False)
    _jump_fns: list = field(default_factory=list, repr=False)
    _c_fns: list = field(default_factory=list, repr=False)
    _d_fns: list = field(default_factory=list, repr=False)
    _array_fns: dict = field(default_factory=dict, repr=False)  # found on first use
    _kernel: Optional[Callable] = field(default=None, repr=False)  # see run_kernel

    @property
    def n(self) -> int:
        return len(self.subsystems)

    def state_vars(self) -> Tuple[str, ...]:
        return self.var_order[:self.state_dim]

    def c_raw(self, vals: list, sub: Optional[int] = None) -> float:
        if sub is not None:
            return self._c_fns[sub](vals)
        return max(fn(vals) for fn in self._c_fns)

    def d_raw(self, vals: list, sub: Optional[int] = None) -> float:
        if sub is not None:
            return self._d_fns[sub](vals)
        return min(fn(vals) for fn in self._d_fns)

    def c_array(self, Z: np.ndarray, sub: Optional[int] = None) -> np.ndarray:
        """``c_raw`` at each row (state, then input) of ``Z`` (B, n + m), bit for bit."""
        return self._guard_array("c", Z, sub)

    def d_array(self, Z: np.ndarray, sub: Optional[int] = None) -> np.ndarray:
        """``d_raw`` at each row (state, then input) of ``Z`` (B, n + m), bit for bit."""
        return self._guard_array("d", Z, sub)

    def _compiled(self, kind: str) -> list:
        """Array functions of every guard (``c``, ``d``) or map (``flow``, ``jump``)."""
        fns = self._array_fns.get(kind)
        if fns is None:
            if kind in ("c", "d"):
                exprs = [[s.c_guard if kind == "c" else s.d_guard] for s in self.subsystems]
            else:
                exprs = [s.flow if kind == "flow" else s.jump for s in self.subsystems]
            fns = self._array_fns[kind] = [[ex.compile_array(e, self.var_order) for e in group]
                                           for group in exprs]
        return fns

    def _guard_array(self, kind: str, Z: np.ndarray, sub: Optional[int]) -> np.ndarray:
        fns = [group[0] for group in self._compiled(kind)]
        if sub is not None:
            fns = fns[sub:sub + 1]
        else:
            fns = [fns[i] for i in self._distinct_guards(kind)]
        fold = ex.lane_max if kind == "c" else ex.lane_min  # the fold of c_raw / d_raw
        return ex.in_row_order(lambda cols: fold([fn(cols) for fn in fns]), Z)

    def _distinct_guards(self, kind: str) -> List[int]:
        """The subsystems whose guard (``c``, ``d``) no earlier one repeats.  A
        repeat cannot change a fold where a later value wins only if strictly
        better."""
        found = self._array_fns.get(kind + " distinct")
        if found is None:
            firsts = {}
            for i, s in enumerate(self.subsystems):
                firsts.setdefault(ex.tree_key(s.c_guard if kind == "c" else s.d_guard), i)
            found = self._array_fns[kind + " distinct"] = list(firsts.values())
        return found

    def jump_raw(self, vals: list) -> list:
        """Composed jump: each subsystem maps only when inside its own jump set."""
        out = list(vals[:self.state_dim])
        for i, sl in enumerate(self.slices):
            if self._d_fns[i](vals) <= 0.0:
                out[sl] = [fn(vals) for fn in self._jump_fns[i]]
        return out

    def flow_array(self, cols: np.ndarray) -> np.ndarray:
        """The stacked flow map at each column of ``cols`` (state then input rows, B
        columns), as a (state_dim, B) array, bit for bit the flow closures on plain
        floats, raising as ``compile_array`` does."""
        return np.array([fn(cols) for group in self._compiled("flow") for fn in group])

    def sub_jump_array(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Subsystem i's jump map at each column, applied everywhere: (dim_i, B)."""
        return np.array([fn(cols) for fn in self._compiled("jump")[i]])

    def jump_array(self, cols: np.ndarray) -> np.ndarray:
        """``jump_raw`` at each column, as a (state_dim, B) array, bit for bit.

        Subsystem i's guard is evaluated on every column and its map only on the
        columns inside its own jump set, as ``jump_raw`` does row by row.
        """
        out = cols[:self.state_dim].copy()
        for i, sl in enumerate(self.slices):
            inside = self._compiled("d")[i][0](cols) <= 0.0
            if inside.any():
                out[sl, inside] = self.sub_jump_array(i, cols[:, inside])
        return out

    def run_kernel(self) -> Callable:
        """The run kernel of ``simulate``, compiled on the first call."""
        if self._kernel is None:
            self._kernel = _run_kernel(self)
        return self._kernel

    def jump_set_structurally_empty(self, sub: Optional[int] = None) -> bool:
        """True when the jump-set guard is a positive constant (no jumps ever)."""
        guards = [self.subsystems[sub].d_guard] if sub is not None \
            else [s.d_guard for s in self.subsystems]
        return all(isinstance(g, ex.Const) and g.value > 0.0 for g in guards)


def compose_network(specs: Sequence[SubsystemSpec], input_dim: int) -> NetworkSpec:
    """Stack subsystems into one network and record whether jump sets agree.

    The composed flow set is the intersection of the subsystem flow sets and
    the composed jump set is their union.  Stability analyses downstream
    require identical jump sets, so a mismatch is recorded as a warning here
    rather than an error.
    """
    specs = list(specs)
    if not specs:
        raise HybridError("a network needs at least one subsystem")
    state_dim = sum(s.dim for s in specs)
    state_vars = tuple(f"x_{i + 1}" for i in range(state_dim))
    input_vars = tuple(f"u_{m + 1}" for m in range(input_dim))
    var_order = state_vars + input_vars
    allowed = set(var_order)

    slices = []
    offset = 0
    for s in specs:
        s.validate()
        slices.append(slice(offset, offset + s.dim))
        offset += s.dim

    net = NetworkSpec(subsystems=specs, input_dim=input_dim, state_dim=state_dim,
                      slices=slices, var_order=var_order)
    for s in specs:
        for e in list(s.flow) + list(s.jump) + [s.c_guard, s.d_guard]:
            extra = ex.free_vars(e) - allowed
            if extra:
                raise HybridError(
                    f"subsystem '{s.name}': unresolvable variable {sorted(extra)[0]!r}")
        net._flow_fns.extend(ex.compile_expr(e, var_order) for e in s.flow)
        net._jump_fns.append([ex.compile_expr(e, var_order) for e in s.jump])
        net._c_fns.append(ex.compile_expr(s.c_guard, var_order))
        net._d_fns.append(ex.compile_expr(s.d_guard, var_order))

    net.jump_sets_equal = _jump_sets_equal(net, specs)
    if not net.jump_sets_equal:
        net.warnings.append(
            "jump sets differ between subsystems; the Lyapunov and trajectory "
            "stability analyses assume one shared jump set")
    return net


def _jump_sets_equal(net: NetworkSpec, specs) -> bool:
    """Jump guards of one ``tree_key``, or 256 seeded points in [-2, 2]^(n+m) that
    every jump guard classifies alike."""
    first = ex.tree_key(specs[0].d_guard)
    if all(ex.tree_key(s.d_guard) == first for s in specs[1:]):
        return True
    rng = np.random.default_rng(20240801)
    for _ in range(256):
        x = rng.uniform(-2.0, 2.0, net.state_dim)
        u = rng.uniform(-2.0, 2.0, net.input_dim)
        vals = x.tolist() + u.tolist()
        memberships = {fn(vals) <= 0.0 for fn in net._d_fns}
        if len(memberships) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# simulation


TIME_TOL = 1e-9  # event bisection stops at this bracket length in time
FLOW, JUMP, OUTSIDE_C = "flow", "jump", "outside C"  # the modes of a point


@dataclass
class SimOptions:
    step: float = 1e-3
    priority: str = "jump"  # resolution inside the overlap of flow and jump sets
    record_every: int = 1

    def validate(self):
        if self.step <= 0.0:
            raise SimulationError("integration step must be positive")
        if self.priority not in ("jump", "flow"):
            raise SimulationError("priority must be 'jump' or 'flow'")
        if self.record_every < 1:
            raise SimulationError("record_every must be at least 1")


@dataclass
class SolutionPair:
    x: HybridSignal
    u: HybridSignal
    termination: str  # horizon | max_jumps | left_domain | numerical_failure
    complete: bool
    jumps_applied: int

    @property
    def domain(self) -> HybridTimeDomain:
        return self.x.domain


class _Recorder:
    """The samples of a run, kept flat: the times of every interval in one list,
    and the state and input components of each sample, row after row, in two
    more.  ``finalize`` builds each signal once from them, with ``state_dim``
    and ``input_dim`` components per sample."""

    def __init__(self, state_dim: int, input_dim: int):
        self.widths = (state_dim, input_dim)
        self.ts: List[float] = []
        self.xs: List[float] = []
        self.us: List[float] = []
        self.opened: List[Tuple[float, int, int]] = []  # (t, k, first sample) per interval

    def open_interval(self, t: float, k: int):
        self.opened.append((t, k, len(self.ts)))

    def record(self, t: float, x: list, u: list):
        """The first sample of an interval; the run kernel records the rest."""
        self.ts.append(t)
        self.xs.extend(x)
        self.us.extend(u)

    def finalize(self, termination: str, complete: bool, jumps: int) -> SolutionPair:
        rows = len(self.ts)
        times = np.array(self.ts)
        states = np.array(self.xs).reshape(rows, self.widths[0])
        inputs = np.array(self.us).reshape(rows, self.widths[1])
        starts = [first for _t, _k, first in self.opened]
        cuts = list(zip(starts, starts[1:] + [rows]))
        domain = HybridTimeDomain(tuple((t, self.ts[b - 1] if b > a else t, k)
                                        for (t, k, _first), (a, b) in zip(self.opened, cuts)))
        u_times = times.copy()
        xsig = HybridSignal(domain, [times[a:b] for a, b in cuts], [states[a:b] for a, b in cuts])
        usig = HybridSignal(domain, [u_times[a:b] for a, b in cuts],
                            [inputs[a:b] for a, b in cuts])
        return SolutionPair(x=xsig, u=usig, termination=termination,
                            complete=complete, jumps_applied=jumps)


HORIZON, NUMERICAL_FAILURE = "horizon", "numerical_failure"  # the run kernel's other ends


def simulate(net: NetworkSpec, x0: Sequence[float], u: InputSignal,
             horizon: float, max_jumps: int,
             opts: Optional[SimOptions] = None) -> SolutionPair:
    """Simulate the composed network from ``x0`` under input ``u``.

    Each point is classified once, by the network's run kernel.  It returns a
    point that does not flow at once; from one that flows it takes fixed RK4
    steps and records them until a step end does not flow, bisects that step
    down to ``TIME_TOL`` and returns the event point found.  A point outside C
    jumps if it is in D and otherwise ends the run (``left_domain``).
    Completeness records that the run used its full time or jump budget.  An
    expression that leaves its domain ends the run as ``numerical_failure``,
    at the initial point too; an input undefined there is recorded as NaN.
    """
    opts = opts or SimOptions()
    opts.validate()
    if horizon <= 0.0 and max_jumps <= 0:
        raise SimulationError("need a positive horizon or a positive jump budget")
    x = [float(v) for v in x0]
    if len(x) != net.state_dim:
        raise SimulationError(f"initial state must have dimension {net.state_dim}")
    if u.dim != net.input_dim:
        raise SimulationError(f"input signal must have dimension {net.input_dim}")

    run = net.run_kernel()
    values = u.values
    reader = None if u.is_constant else values  # the kernel reuses a constant input
    t, k, jumps = 0.0, 0, 0
    rec = _Recorder(net.state_dim, u.dim)
    rec.open_interval(t, k)
    jump_priority = opts.priority == "jump"
    u_now = [math.nan] * u.dim  # recorded at t = 0 if the input is undefined there

    try:
        u_now = values(t, k)
        vals = x + u_now
        if not (net.c_raw(vals) <= 0.0 or net.d_raw(vals) <= 0.0):
            raise SimulationError("initial point lies outside the union of flow and jump sets")
        rec.record(t, x, u_now)
        while all(map(math.isfinite, x)):  # the initial point or a jump's image
            end, t, x, u_now = run(x, u_now, t, k, opts.step, horizon, opts.record_every,
                                   reader, jump_priority, rec.ts, rec.xs, rec.us)
            if end == HORIZON or end == NUMERICAL_FAILURE:
                return rec.finalize(end, end == HORIZON, jumps)
            if not all(map(math.isfinite, x)):  # an event point
                break
            # OUTSIDE_C jumps if the jump guard is <= 0
            if end == OUTSIDE_C and not net.d_raw(x + u_now) <= 0.0:
                return rec.finalize("left_domain", False, jumps)
            if jumps >= max_jumps:
                return rec.finalize("max_jumps", True, jumps)
            x, u_now = net.jump_raw(x + u_now), values(t, k + 1)
            k += 1
            jumps += 1
            rec.open_interval(t, k)
            rec.record(t, x, u_now)
        return rec.finalize(NUMERICAL_FAILURE, False, jumps)
    except ex.EvalDomainError:  # a guard, flow, jump or input expression left its domain
        if not rec.ts:  # it failed at the initial point
            rec.record(t, x, u_now)
        return rec.finalize(NUMERICAL_FAILURE, False, jumps)


def _unpack(ids: List[str], seq: str) -> List[str]:
    """The line binding the locals ``v{id}`` to the items of ``seq``, if any."""
    return ["".join(f"v{i}, " for i in ids) + f"= {seq}"] if ids else []


def _classify_lines(net: NetworkSpec, ids: dict, consts: dict, shared: dict) -> List[str]:
    """Lines setting ``mode`` at the point whose coordinates are the locals that
    ``ids`` names: OUTSIDE_C unless the flow guard (the ``c_raw`` fold) is <= 0
    (NaN is outside), else JUMP under ``jump_priority`` if the jump guard (the
    ``d_raw`` fold) is <= 0, else FLOW.

    The jump guards are evaluated only where they decide the outcome.  A subtree
    met again, in a guard or across the two folds, is read from the local that
    its first evaluation set, so structurally equal guards are evaluated once:
    a repeat cannot change a fold where a later value wins only if strictly
    better.  ``shared`` is ``expr.repeated_subtrees`` of the flow guards, then
    the jump guards; these lines fill fresh cells of it, one per structure.
    """
    c_guards = [s.c_guard for s in net.subsystems]
    d_guards = [s.d_guard for s in net.subsystems]
    cells: dict = {}
    memo = {node: cells.setdefault(id(cell), [None]) for node, cell in shared.items()}
    tags = iter(range(2 * net.n))

    def fold(guards, better: str, name: str) -> List[str]:
        lines: List[str] = []
        first, *rest = dict.fromkeys([
            ex.emit_lines(g, "value", lines, consts, var_ids=ids, tag=f"g{next(tags)}_",
                          memo=memo) for g in guards])
        lines.append(f"{name} = v{first}")
        lines.extend(f"if v{r} {better} {name}: {name} = v{r}" for r in rest)
        return lines

    c_lines = fold(c_guards, ">", "c")
    d_lines = fold(d_guards, "<", "d")
    return [*c_lines, "if not c <= 0.0:", "    mode = OUTSIDE_C", "elif jump_priority:",
            *(f"    {line}" for line in d_lines), "    mode = JUMP if d <= 0.0 else FLOW",
            "else:", "    mode = FLOW"]


_KERNEL_NAMES = {"FLOW": FLOW, "JUMP": JUMP, "OUTSIDE_C": OUTSIDE_C, "HORIZON": HORIZON,
                 "NUMERICAL_FAILURE": NUMERICAL_FAILURE, "TIME_TOL": TIME_TOL,
                 "SimulationError": SimulationError}


def _run_kernel(net: NetworkSpec) -> Callable:
    """``run(x, u, t, k, h, horizon, every, values, jump_priority, ts, xs, us)``:
    classify the point ``(t, k, x)`` under input ``u`` and return ``(end, t, x,
    u)``, in straight-line code.  A point that does not flow is returned at once
    with its mode (JUMP or OUTSIDE_C) as ``end``; from one that flows the run
    flows as follows.

    Each RK4 step has length ``min(h, horizon - t)``.  Its stages are inlined,
    with the arithmetic of a stage-by-stage loop in its order: the inputs at t,
    t + h/2 and t + h, the slopes k1 at x, k2 at x + h/2*k1, k3 at x + h/2*k2
    and k4 at x + h*k3, each component by component, then
    x + h/6*(k1 + 2*k2 + 2*k3 + k4).  Only the inputs at t + h/2 and t + h are
    read, with ``values``: the input at t is the previous step's end input.
    ``values`` None marks a constant input, which is not read at all: every
    stage takes the input at t.  Input reads stay outside the error translation
    of the arithmetic.

    A step whose end is finite and flows is accepted; every ``every``-th one,
    and the one reaching the horizon, is recorded into the flat lists ``ts``,
    ``xs`` and ``us``.  A sample is recorded only at a time after the last
    recorded one: a time less than 1e-15 before it, or equal, is a duplicate and
    dropped, and an earlier one raises SimulationError.  A step end that
    does not flow is bisected down to ``TIME_TOL`` in time; each trial step
    takes the slopes k1 of the failed step, which depend on neither its length
    nor the inputs read.  The event point is recorded and returned with its
    mode (JUMP or OUTSIDE_C) as ``end``.  At the horizon, and at a step end
    that is not finite, ``end`` is HORIZON or NUMERICAL_FAILURE and the rest is
    None.
    """
    n, m = net.state_dim, net.input_dim
    x1, xe, xh = ([f"{p}_{i}" for i in range(n)] for p in ("x1", "xe", "xh"))
    u1, u2, u3 = ([f"{p}_{r}" for r in range(m)] for p in ("u1", "u2", "u3"))
    consts: dict = {}
    shared = ex.repeated_subtrees([s.c_guard for s in net.subsystems]
                                  + [s.d_guard for s in net.subsystems])

    def nest(depth: int, block: List[str]) -> List[str]:
        return ["    " * depth + line for line in block]

    # one RK4 step of length hm from (t, x1, u1), into xe: the inputs read (or, for
    # a constant input, the input at t), the slopes k1, then the rest of the step
    read = ["if values is None:", "    u3 = u1", "else:", "    u2 = values(t + 0.5 * hm, k)",
            "    u3 = values(t + hm, k)"]
    unpack = ["if values is None:",
              *nest(1, [f"v{a} = v{b} = v{c}" for a, b, c in zip(u2, u3, u1)]),
              "else:", *nest(1, _unpack(u2, "u2") + _unpack(u3, "u3"))] if m else []
    flows = [e for s in net.subsystems for e in s.flow]
    slopes, slope1, rest = [], [], ["half = 0.5 * hm"]
    stages = ((u1, ""), (u2, "half"), (u2, "half"), (u3, "hm"))  # inputs, state offset
    for stage, (us, scale) in enumerate(stages, 1):
        lines = slope1 if stage == 1 else rest
        state_ids = x1 if stage == 1 else [f"x{stage}_{i}" for i in range(n)]
        if scale:
            lines += [f"v{xi} = vx1_{i} + {scale} * v{ki}"
                      for i, (xi, ki) in enumerate(zip(state_ids, slopes[-1]))]
        ids = dict(zip(net.var_order, state_ids + us))
        slopes.append([ex.emit_lines(e, "value", lines, consts, var_ids=ids, tag=f"{stage}_{i}_")
                       for i, e in enumerate(flows)])
    rest.append("w = hm / 6.0")
    rest += [f"vxe_{i} = vx1_{i} + w * (v{a} + 2.0 * v{b} + 2.0 * v{c} + v{d})"
             for i, (a, b, c, d) in enumerate(zip(*slopes))]
    step = [*read, *ex.translated(unpack + slope1 + rest)]
    trial = [*read, *ex.translated(unpack + rest)]  # a bisection step: k1 is the failed step's
    classify = ex.translated(_classify_lines(net, dict(zip(net.var_order, xe + u3)), consts,
                                             shared))

    def assign(dst: List[str], src: List[str]) -> List[str]:
        return [f"v{a} = v{b}" for a, b in zip(dst, src)]

    def record(state: str, u: str) -> List[str]:  # at t, by the duplicate rule above
        return ["if t <= last:", "    if not t - last > -1e-15:",
                "        raise SimulationError('non-monotone time inside an interval')",
                "else:", "    last = t", "    append_t(t)", f"    extend_x({state})",
                f"    extend_u({u})"]

    finite = " and ".join(f"isfinite(v{i})" for i in xe) or "True"
    accept = [*assign(x1, xe), *assign(u1, u3), "u1 = u3", "t = t + hs", "since += 1",
              "if since >= every or t >= end:", "    since = 0",
              *nest(1, record("(" + "".join(f"v{i}, " for i in x1) + ")", "u1")), "continue"]
    bisect = ["mid = 0.5 * (lo + hi)", "hm = mid * hs", *trial, *classify,
              "if mode == FLOW:", "    lo = mid", "else:", "    hi, mode_hi, uh = mid, mode, u3",
              *nest(1, assign(xh, xe))]
    start = _unpack(x1, "x") + _unpack(u1, "u1")
    start += _classify_lines(net, dict(zip(net.var_order, x1 + u1)), consts, shared)
    lines = [
        *ex.translated(start), "if mode != FLOW:", "    return mode, t, x, u1",
        "end = horizon - 1e-15", "last = ts[-1]", "since = 0",
        "append_t, extend_x, extend_u = ts.append, xs.extend, us.extend",
        "while True:",
        *nest(1, ["if t >= end:", "    return HORIZON, t, None, None",
                  "hs = horizon - t", "if not hs < h:", "    hs = h",  # min(h, horizon - t)
                  "hm = hs", *step,
                  f"if not ({finite}):", "    return NUMERICAL_FAILURE, t, None, None",
                  *classify, "if mode == FLOW:", *nest(1, accept),
                  "lo, hi, mode_hi, uh = 0.0, 1.0, mode, u3", *assign(xh, xe),
                  "while (hi - lo) * hs > TIME_TOL:", *nest(1, bisect),
                  "t = t + hi * hs", "x = [" + "".join(f"v{i}, " for i in xh) + "]",
                  *record("x", "uh"), "return mode_hi, t, x, uh"])]
    return ex.compile_lines("x, u1, t, k, h, horizon, every, values, jump_priority, ts, xs, us",
                            lines, {**consts, **_KERNEL_NAMES}, "the flow of the network")


# ---------------------------------------------------------------------------
# trajectory export


def trajectory_csv_header(state_dim: int, input_dim: int) -> str:
    """The header row of a trajectory CSV, ``\\r\\n`` included."""
    return ",".join(["t", "k"] + [f"x_{i + 1}" for i in range(state_dim)]
                    + [f"u_{j + 1}" for j in range(input_dim)] + ["phase"]) + "\r\n"


def write_trajectory_csv(sol: SolutionPair, stream: IO[str]) -> int:
    """Write t, k, state, input, and phase columns; returns the row count.

    The phase is ``jump`` at the last sample of every interval but the last
    and at the first sample of every interval after a jump, else ``flow``.
    Rows are comma-joined ``repr`` values ending in ``\\r\\n``, as ``csv.writer``
    writes them (no value needs quoting), one write per interval.
    """
    stream.write(trajectory_csv_header(sol.x.dim, sol.u.dim))
    last = len(sol.domain.intervals) - 1
    for idx, ((_lo, _hi, k), ts, xs, us) in enumerate(
            zip(sol.domain.intervals, sol.x.times, sol.x.values, sol.u.values)):
        k_col = str(k)
        phases = ["flow"] * len(ts)
        if k > 0:
            phases[0] = "jump"
        if idx < last:
            phases[-1] = "jump"
        stream.write("".join(",".join([repr(t), k_col, *map(repr, xv), *map(repr, uv), phase])
                             + "\r\n" for t, xv, uv, phase
                             in zip(ts.tolist(), xs.tolist(), us.tolist(), phases)))
    return sum(len(ts) for ts in sol.x.times)
