"""Hybrid time domains, signals, network composition, and trajectory simulation.

States evolve by a fixed-step RK4 integration of the composed flow map while
the flow-set guard holds, and by the composed jump map (applied per subsystem,
identity outside that subsystem's jump set) when the jump-set guard holds.
Guard crossings inside a step are located by bisecting the step.  Membership
of a guard set uses the convention ``guard(x, u) <= 0``.
"""

from __future__ import annotations

import csv
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
        for (lo, hi, _k), ts, vs in zip(self.domain.intervals, self.times, self.values):
            if len(ts) != len(vs) or len(ts) == 0:
                raise DomainError("each interval needs matching nonempty samples")
            if np.any(np.diff(ts) <= 0.0):
                raise DomainError("sample times must strictly increase inside an interval")
            if ts[0] < lo - 1e-12 or ts[-1] > hi + 1e-12:
                raise DomainError("samples outside their interval")

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]

    def iter_samples(self):
        """Yield (t, k, value_row, is_jump_point) over all stored samples."""
        last = len(self.domain.intervals) - 1
        for idx, ((_lo, _hi, k), ts, vs) in enumerate(
                zip(self.domain.intervals, self.times, self.values)):
            for j in range(len(ts)):
                jump_point = idx < last and j == len(ts) - 1
                yield float(ts[j]), k, vs[j], jump_point


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
    """External input as expressions in (t, k) or a piecewise-constant table."""

    def __init__(self, fn: Callable[[float, int], list], dim: int, description: str):
        self._fn = fn  # returns a plain list of floats
        self.dim = dim
        self.description = description

    def __call__(self, t: float, k: int) -> np.ndarray:
        return np.asarray(self._fn(t, k))

    def values(self, t: float, k: int) -> list:
        return self._fn(t, k)

    @staticmethod
    def constant(values: Sequence[float]) -> "InputSignal":
        vals = [float(v) for v in values]
        return InputSignal(lambda t, k: vals, len(vals), f"constant {vals}")

    @staticmethod
    def zero(dim: int) -> "InputSignal":
        vals = [0.0] * dim
        return InputSignal(lambda t, k: vals, dim, "zero")

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
    _array_fns: dict = field(default_factory=dict, repr=False)  # compiled on first use
    _sim_kernels: tuple = field(default=(), repr=False)  # compiled on the first simulate

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

    def c_array(self, X: np.ndarray, U: np.ndarray, sub: Optional[int] = None) -> np.ndarray:
        """``c_raw`` at each row of ``X`` (B, n) and ``U`` (B, m) joined, bit for bit."""
        return self._guard_array("c", X, U, sub)

    def d_array(self, X: np.ndarray, U: np.ndarray, sub: Optional[int] = None) -> np.ndarray:
        """``d_raw`` at each row of ``X`` (B, n) and ``U`` (B, m) joined, bit for bit."""
        return self._guard_array("d", X, U, sub)

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

    def _guard_array(self, kind: str, X, U, sub: Optional[int]) -> np.ndarray:
        fns = [group[0] for group in self._compiled(kind)]
        rows = np.concatenate([X, U], axis=1)
        cols = rows.T.copy()
        better = np.greater if kind == "c" else np.less  # the fold of c_raw / d_raw
        try:
            if sub is not None:
                return fns[sub](cols)
            out = fns[0](cols)
            for fn in fns[1:]:
                g = fn(cols)
                out = np.where(better(g, out), g, out)
            return out
        except ex.EvalDomainError:
            # the scalar fold raises at the first failing row, not the first failing guard
            raw = self.c_raw if kind == "c" else self.d_raw
            for vals in rows.tolist():
                raw(vals, sub)
            raise

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

    def sim_kernels(self) -> tuple:
        """The step and mode kernels of ``simulate``, compiled on the first call."""
        if not self._sim_kernels:
            self._sim_kernels = (_step_kernel(self), _mode_kernel(self))
        return self._sim_kernels

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
    """Structurally equal jump guards, or 256 seeded points in [-2, 2]^(n+m) that
    every jump guard classifies alike."""
    first = specs[0].d_guard
    if all(s.d_guard == first for s in specs[1:]):
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
FLOW, JUMP, OUTSIDE_C = "flow", "jump", "outside C"  # the modes of ``_mode``


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


def simulate(net: NetworkSpec, x0: Sequence[float], u: InputSignal,
             horizon: float, max_jumps: int,
             opts: Optional[SimOptions] = None) -> SolutionPair:
    """Simulate the composed network from ``x0`` under input ``u``.

    Each point is classified once, by the network's mode kernel.  A point
    outside C jumps if it is in D and otherwise ends the run (``left_domain``);
    a point that flows takes one fixed RK4 step of the step kernel.  A step
    whose end does not flow is bisected down to ``TIME_TOL`` and the event
    point found is recorded.  Completeness records that the run used its full
    time or jump budget.  An expression that leaves its domain ends the run as
    ``numerical_failure``, at the initial point too; an input undefined there
    is recorded as NaN.
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

    step, mode_of = net.sim_kernels()
    values = u.values
    t, k, jumps = 0.0, 0, 0
    rec = _Recorder()
    rec.open_interval(t, k)
    jump_priority = opts.priority == "jump"
    h = opts.step
    steps_since_record = 0
    mode = None  # the mode of (t, k, x), once known
    u_now = [math.nan] * u.dim  # recorded at t = 0 if the input is undefined there

    try:
        u_now = values(t, k)
        vals = x + u_now
        if not (net.c_raw(vals) <= 0.0 or net.d_raw(vals) <= 0.0):
            raise SimulationError("initial point lies outside the union of flow and jump sets")
        rec.record(t, x, u_now)
        while True:
            if not all(map(math.isfinite, x)):
                return rec.finalize("numerical_failure", False, jumps)
            if mode is None:  # the initial point or a jump's image
                mode = mode_of(x, u_now, jump_priority)
            if mode != FLOW:  # OUTSIDE_C jumps if the jump guard is <= 0
                if mode == OUTSIDE_C and not net.d_raw(x + u_now) <= 0.0:
                    return rec.finalize("left_domain", False, jumps)
                if jumps >= max_jumps:
                    return rec.finalize("max_jumps", True, jumps)
                x, u_now = net.jump_raw(x + u_now), values(t, k + 1)
                k += 1
                jumps += 1
                rec.open_interval(t, k)
                rec.record(t, x, u_now)
                steps_since_record = 0
                mode = None
                continue

            # flow phase
            if t >= horizon - 1e-15:
                return rec.finalize("horizon", True, jumps)
            h_step = min(h, horizon - t)
            x_end = step(x, values, t, k, h_step)
            if not all(map(math.isfinite, x_end)):
                return rec.finalize("numerical_failure", False, jumps)
            u_end = values(t + h_step, k)
            mode = mode_of(x_end, u_end, jump_priority)
            if mode != FLOW:
                theta, x, u_now, mode = _bisect_event(step, mode_of, x, values, t, k, h_step,
                                                      jump_priority, (x_end, u_end, mode))
                t = t + theta * h_step
                rec.record(t, x, u_now)
                steps_since_record = 0
                continue
            x, u_now = x_end, u_end
            t = t + h_step
            steps_since_record += 1
            if steps_since_record >= opts.record_every or t >= horizon - 1e-15:
                rec.record(t, x, u_now)
                steps_since_record = 0
    except ex.EvalDomainError:  # a guard, flow, jump or input expression left its domain
        if not rec.interval_times[0]:  # it failed at the initial point
            rec.record(t, x, u_now)
        return rec.finalize("numerical_failure", False, jumps)


def _bisect_event(step, mode_of, x, values, t, k, h_step, jump_priority, end) -> tuple:
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


def _unpack(ids: List[str], seq: str) -> List[str]:
    """The line binding the locals ``v{id}`` to the items of ``seq``, if any."""
    return ["".join(f"v{i}, " for i in ids) + f"= {seq}"] if ids else []


def _step_kernel(net: NetworkSpec) -> Callable:
    """``step(x, values, t, k, h)``: one RK4 step of length ``h`` from state ``x``
    at ``(t, k)`` under the input ``values(t, k)``, in straight-line code.

    Every stage of every flow component is inlined, with the arithmetic of a
    stage-by-stage loop in its order: the inputs at t, t + h/2 and t + h, the
    slopes k1 at x, k2 at x + h/2*k1, k3 at x + h/2*k2 and k4 at x + h*k3, each
    component by component, then x + h/6*(k1 + 2*k2 + 2*k3 + k4).
    """
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
        slopes.append([ex.emit_lines(e, "value", body, consts, var_ids=ids, tag=f"{stage}_{i}_")
                       for i, e in enumerate(flows)])
    body.append("w = h / 6.0")
    body.append("return [" + ", ".join(f"vx1_{i} + w * (v{a} + 2.0 * v{b} + 2.0 * v{c} + v{d})"
                                       for i, (a, b, c, d) in enumerate(zip(*slopes))) + "]")
    head = ["if h == 0.0:", "    return list(x)", "u1 = values(t, k)",
            "u2 = values(t + 0.5 * h, k)", "u3 = values(t + h, k)"]
    return ex.compile_lines("x, values, t, k, h", head, body, consts, "the RK4 step")


def _mode_kernel(net: NetworkSpec) -> Callable:
    """``mode(x, u, jump_priority)``: OUTSIDE_C unless the flow guard (the
    ``c_raw`` fold) is <= 0 (NaN is outside), else JUMP under jump priority if
    the jump guard (the ``d_raw`` fold) is <= 0, else FLOW.

    The jump guards are evaluated only where they decide the outcome; the
    caller settles OUTSIDE_C.  Structurally equal guards are evaluated once: a
    repeat cannot change a fold where a later value wins only if strictly better.
    """
    xs = [f"x_{i}" for i in range(net.state_dim)]
    us = [f"u_{r}" for r in range(net.input_dim)]
    ids = dict(zip(net.var_order, xs + us))
    body = _unpack(xs, "x") + _unpack(us, "u")
    consts, roots = {}, {}

    def fold(guards, better: str, name: str, indent: str):
        for g in guards:
            if g not in roots:
                lines: List[str] = []
                roots[g] = ex.emit_lines(g, "value", lines, consts, var_ids=ids,
                                         tag=f"{len(roots)}_")
                body.extend(indent + line for line in lines)
        first, *rest = dict.fromkeys(roots[g] for g in guards)
        body.append(f"{indent}{name} = v{first}")
        body.extend(f"{indent}if v{r} {better} {name}: {name} = v{r}" for r in rest)

    fold([s.c_guard for s in net.subsystems], ">", "c", "")
    body += ["if not c <= 0.0:", "    return OUTSIDE_C", "if jump_priority:"]
    fold([s.d_guard for s in net.subsystems], "<", "d", "    ")
    body += ["    if d <= 0.0:", "        return JUMP", "return FLOW"]
    return ex.compile_lines("x, u, jump_priority", [], body,
                            {**consts, "FLOW": FLOW, "JUMP": JUMP, "OUTSIDE_C": OUTSIDE_C},
                            "the guards")


# ---------------------------------------------------------------------------
# trajectory export


def write_trajectory_csv(sol: SolutionPair, stream: IO[str]) -> int:
    """Write t, k, state, input, and phase columns; returns the row count.

    The phase is ``jump`` at the last sample of every interval but the last
    and at the first sample of every interval after a jump, else ``flow``.
    """
    writer = csv.writer(stream)
    n, m = sol.x.dim, sol.u.dim
    writer.writerow(["t", "k"] + [f"x_{i + 1}" for i in range(n)]
                    + [f"u_{j + 1}" for j in range(m)] + ["phase"])
    last = len(sol.domain.intervals) - 1
    rows = 0
    for idx, ((_lo, _hi, k), ts, xs, us) in enumerate(
            zip(sol.domain.intervals, sol.x.times, sol.x.values, sol.u.values)):
        end = len(ts) - 1
        for j, (t, xv, uv) in enumerate(zip(ts.tolist(), xs.tolist(), us.tolist())):
            phase = "jump" if (idx < last and j == end) or (k > 0 and j == 0) else "flow"
            writer.writerow([repr(t), k, *map(repr, xv), *map(repr, uv), phase])
        rows += end + 1
    return rows
