"""Hybrid time domains, signals, composition semantics, and simulation."""

import io
import itertools
import math
import struct
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_hybrid
from conftest import config_path, two_sub_network
from hsgt import expr as ex
from hsgt.config import load_config
from hsgt.hybrid import (FLOW, TIME_TOL, DomainError, HybridSignal, HybridTimeDomain,
                         InputSignal, NetworkSpec, SimOptions, SimulationError, SolutionPair,
                         SubsystemSpec, _run_kernel, compose_network, simulate,
                         write_trajectory_csv)
from reference_hybrid import Recorder, iter_samples, rk4, sup_norm, value_at
from test_expr import _LANES, _trees


def single_decaying_subsystem(rate="-x_1"):
    spec = SubsystemSpec(dim=1, flow=[ex.parse(rate, ("x_1",))],
                         jump=[ex.parse("x_1", ("x_1",))],
                         c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name="solo")
    return compose_network([spec], input_dim=1)


def decoupled_two_sub():
    allowed = ("x_1", "x_2", "u_1")
    subs = []
    for i in (1, 2):
        subs.append(SubsystemSpec(
            dim=1, flow=[ex.parse(f"-x_{i}", allowed)],
            jump=[ex.parse(f"0.5*x_{i}", allowed)],
            c_guard=ex.parse("max(abs(x_1), abs(x_2)) - 1", allowed),
            d_guard=ex.parse("1 - max(abs(x_1), abs(x_2))", allowed),
            name=f"sub{i}"))
    return compose_network(subs, input_dim=1)


def frozen_network():
    allowed = ("x_1", "x_2", "u_1")
    latch = SubsystemSpec(dim=1, flow=[ex.parse("-x_1", allowed)],
                          jump=[ex.parse("x_1", allowed)],
                          c_guard=ex.Const(-1.0),
                          d_guard=ex.parse("1 - x_1", allowed), name="latch")
    bystander = SubsystemSpec(dim=1, flow=[ex.parse("-x_2", allowed)],
                              jump=[ex.parse("x_2", allowed)],
                              c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0),
                              name="bystander")
    return compose_network([latch, bystander], input_dim=1)


# ---------------------------------------------------------------------------
# domains and signals


def test_domain_must_start_at_origin():
    with pytest.raises(DomainError):
        HybridTimeDomain(((1.0, 2.0, 0),))


def test_domain_jump_counters_consecutive():
    with pytest.raises(DomainError):
        HybridTimeDomain(((0.0, 1.0, 0), (1.0, 2.0, 2)))


def test_domain_intervals_chain():
    with pytest.raises(DomainError):
        HybridTimeDomain(((0.0, 1.0, 0), (1.5, 2.0, 1)))


def test_signal_times_strictly_increase():
    dom = HybridTimeDomain(((0.0, 1.0, 0),))
    with pytest.raises(DomainError):
        HybridSignal(dom, [np.array([0.0, 0.0, 1.0])], [np.zeros((3, 1))])


def _raised_message(fn):
    try:
        fn()
    except DomainError as exc:
        return str(exc)
    return None


_SAMPLE_TIMES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 1e-11, 2.0, -1e-11,
                                 math.nan, math.inf]) | st.floats(-0.5, 3.0)


@st.composite
def _signal_cases(draw):
    """A hybrid time domain and sample blocks that are mostly valid: each interval's
    times are drawn sorted inside it, then some are disturbed (dropped, repeated,
    moved, shifted out or by less than the tolerance, repeated and shifted, or
    left with one value too many)."""
    ends = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5]), min_size=1, max_size=5))
    intervals, t = [], 0.0
    for k, length in enumerate(ends):
        intervals.append((t, t + length, k))
        t += length
    times, values = [], []
    for lo, hi, _k in intervals:
        ts = sorted(draw(st.lists(st.floats(lo, hi), min_size=1, max_size=6)))
        ts = list(dict.fromkeys(ts))  # strictly increasing
        fault = draw(st.sampled_from(["none"] * 5 + ["empty", "repeat", "moved", "shifted",
                                                     "repeat and shifted", "extra"]))
        if fault == "empty":
            ts = []
        elif fault.startswith("repeat"):
            ts.insert(draw(st.integers(0, len(ts) - 1)), ts[0])
        elif fault == "moved":
            ts[draw(st.integers(0, len(ts) - 1))] = draw(_SAMPLE_TIMES)
        if fault.endswith("shifted"):
            shift = draw(st.sampled_from([1e-13, -1e-13, 1e-11, -1e-11, 0.3, -0.3]))
            ts = [v + shift for v in ts]
        rows = len(ts) + (fault == "extra")
        times.append(np.array(ts, dtype=float))
        values.append(np.zeros((rows, 2)))
    return HybridTimeDomain(tuple(intervals)), times, values


@settings(max_examples=400, deadline=None)
@given(_signal_cases())
def test_signal_check_matches_the_per_interval_loop(case):
    """One pass over all intervals raises the message of the first bad interval,
    its checks taken in the loop's order: counts, strict increase, bounds."""
    domain, times, values = case
    assert _raised_message(lambda: HybridSignal(domain, times, values)) == \
        _raised_message(lambda: reference_hybrid.check_signal(domain, times, values))


def test_signal_check_reports_the_first_bad_interval():
    dom = HybridTimeDomain(((0.0, 1.0, 0), (1.0, 2.0, 1), (2.0, 3.0, 2)))
    good = [np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([2.0, 3.0])]
    cases = [  # (times, value rows per interval, message)
        ([good[0], np.array([1.0, 2.5]), np.array([2.0, 2.0])], [2, 2, 2],
         "samples outside their interval"),
        ([good[0], np.array([1.5, 1.5]), np.array([2.0, 4.0])], [2, 2, 2],
         "sample times must strictly increase inside an interval"),
        ([good[0], np.array([1.5, 1.5]), good[2]], [2, 3, 2],
         "each interval needs matching nonempty samples"),
        ([good[0], np.array([1.5, 1.5, 2.5]), good[2]], [2, 3, 2],
         "sample times must strictly increase inside an interval"),
        ([np.array([0.0, 1.0 + 2e-12]), good[1], np.array([])], [2, 2, 0],
         "samples outside their interval"),
        (good, [2, 2, 2], None)]
    for times, rows, message in cases:
        values = [np.zeros((r, 1)) for r in rows]
        assert _raised_message(lambda: HybridSignal(dom, times, values)) == message
        assert _raised_message(lambda: reference_hybrid.check_signal(dom, times, values)) == message


# ---------------------------------------------------------------------------
# simulation


def test_jump_sequence_and_flow_value():
    net = decoupled_two_sub()
    sol = simulate(net, [2.0, 0.0], InputSignal.zero(1), horizon=1.0, max_jumps=2)
    assert sol.jumps_applied == 2
    assert len(sol.domain.intervals) == 3
    starts = [sig[0] for sig in (sol.x.values[0][0], sol.x.values[1][0], sol.x.values[2][0])]
    assert starts == pytest.approx([2.0, 1.0, 0.5])
    value = value_at(sol.x, 1.0, 2)
    assert abs(value[0] - 0.5 * math.exp(-1.0)) <= 1e-6
    assert sol.termination == "horizon" and sol.complete


def test_pure_flow_matches_exponential():
    net = single_decaying_subsystem()
    sol = simulate(net, [1.0], InputSignal.zero(1), horizon=1.0, max_jumps=0)
    assert abs(value_at(sol.x, 1.0, 0)[0] - math.exp(-1.0)) <= 1e-6


def test_rk4_order_four():
    net = single_decaying_subsystem()
    errors = []
    for h in (0.1, 0.05):
        sol = simulate(net, [0.5], InputSignal.zero(1), horizon=1.0, max_jumps=0,
                       opts=SimOptions(step=h))
        errors.append(abs(value_at(sol.x, 1.0, 0)[0] - 0.5 * math.exp(-1.0)))
    factor = errors[0] / errors[1]
    assert 8.0 <= factor <= 32.0


def test_semigroup_for_pure_flow():
    net = single_decaying_subsystem()
    first = simulate(net, [1.0], InputSignal.zero(1), horizon=0.5, max_jumps=0)
    mid = value_at(first.x, 0.5, 0)
    second = simulate(net, mid, InputSignal.zero(1), horizon=0.5, max_jumps=0)
    direct = simulate(net, [1.0], InputSignal.zero(1), horizon=1.0, max_jumps=0)
    assert abs(value_at(second.x, 0.5, 0)[0] - value_at(direct.x, 1.0, 0)[0]) <= 1e-8


def test_frozen_pathology_keeps_state_constant():
    net = frozen_network()
    assert not net.jump_sets_equal
    assert net.warnings
    sol = simulate(net, [1.0, 5.0], InputSignal.zero(1), horizon=5.0, max_jumps=8)
    assert sol.termination == "max_jumps"
    assert sol.jumps_applied == 8
    for _t, _k, value, _j in iter_samples(sol.x):
        assert value == pytest.approx([1.0, 5.0])


def test_initial_point_outside_domain_rejected():
    allowed = ("x_1", "u_1")
    spec = SubsystemSpec(dim=1, flow=[ex.parse("-x_1", allowed)],
                         jump=[ex.parse("x_1", allowed)],
                         c_guard=ex.parse("abs(x_1) - 1", allowed),
                         d_guard=ex.Const(1.0), name="only")
    net = compose_network([spec], input_dim=1)
    with pytest.raises(SimulationError):
        simulate(net, [3.0], InputSignal.zero(1), horizon=1.0, max_jumps=0)


def test_zero_budget_rejected():
    net = single_decaying_subsystem()
    with pytest.raises(SimulationError):
        simulate(net, [0.5], InputSignal.zero(1), horizon=0.0, max_jumps=0)


@pytest.mark.parametrize("every", [0, -3])
def test_record_every_below_1_rejected(every):
    net = single_decaying_subsystem()
    with pytest.raises(SimulationError, match="record_every must be at least 1"):
        simulate(net, [0.5], InputSignal.zero(1), horizon=1.0, max_jumps=0,
                 opts=SimOptions(record_every=every))


def test_left_domain_termination():
    allowed = ("x_1", "u_1")
    spec = SubsystemSpec(dim=1, flow=[ex.parse("x_1", allowed)],
                         jump=[ex.parse("x_1", allowed)],
                         c_guard=ex.parse("abs(x_1) - 1", allowed),
                         d_guard=ex.Const(1.0), name="runaway")
    net = compose_network([spec], input_dim=1)
    sol = simulate(net, [0.5], InputSignal.zero(1), horizon=5.0, max_jumps=0)
    assert sol.termination == "left_domain"
    assert not sol.complete
    # the boundary point was located to within the time tolerance
    final = sol.x.values[-1][-1][0]
    assert final == pytest.approx(1.0, abs=1e-6)


def test_jump_priority_never_flows_inside_jump_set():
    net = decoupled_two_sub()
    sol = simulate(net, [2.0, 0.0], InputSignal.zero(1), horizon=1.0, max_jumps=2)
    for (lo, hi, k), ts, vs in zip(sol.domain.intervals, sol.x.times, sol.x.values):
        if hi - lo <= 0.0:
            continue
        u = sol.u.values[k][0]
        assert net.d_raw(vs[0].tolist() + u.tolist()) >= -1e-9


def test_domain_jump_count_matches_applications():
    net = decoupled_two_sub()
    sol = simulate(net, [2.0, 0.0], InputSignal.zero(1), horizon=0.5, max_jumps=2)
    assert len(sol.domain.intervals) - 1 == sol.jumps_applied


# ---------------------------------------------------------------------------
# composed jump semantics and jump-set comparison


def test_gtilde_applies_only_active_subsystems():
    allowed = ("x_1", "x_2", "u_1")
    one = SubsystemSpec(dim=1, flow=[ex.parse("-x_1", allowed)],
                        jump=[ex.parse("0.5*x_1", allowed)],
                        c_guard=ex.Const(-1.0),
                        d_guard=ex.parse("1 - x_1", allowed), name="one")
    two = SubsystemSpec(dim=1, flow=[ex.parse("-x_2", allowed)],
                        jump=[ex.parse("0.5*x_2", allowed)],
                        c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name="two")
    net = compose_network([one, two], input_dim=1)
    assert not net.jump_sets_equal
    out = net.jump_raw([1.5, 5.0, 0.0])
    assert out == pytest.approx([0.75, 5.0])


def test_identical_jump_guards_detected_structurally():
    net = decoupled_two_sub()
    assert net.jump_sets_equal
    assert not net.warnings


def test_unresolvable_variable_rejected():
    allowed = ("x_1", "u_1")
    spec = SubsystemSpec(dim=1, flow=[ex.parse("-x_1 + u_1", allowed)],
                         jump=[ex.parse("x_1", allowed)],
                         c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name="s")
    with pytest.raises(Exception) as err:
        compose_network([spec], input_dim=0)
    assert "unresolvable" in str(err.value) or "u_1" in str(err.value)


# ---------------------------------------------------------------------------
# norms and export


def sample_solution():
    net = decoupled_two_sub()
    return net, simulate(net, [2.0, 0.0], InputSignal.zero(1), horizon=1.0, max_jumps=2)


def test_sup_norm_constant_signal():
    dom = HybridTimeDomain(((0.0, 2.0, 0),))
    sig = HybridSignal(dom, [np.array([0.0, 1.0, 2.0])], [np.full((3, 1), 3.0)])
    assert sup_norm(sig, (1.5, 0)) == pytest.approx(3.0)


def test_sup_norm_initial_value_dominates():
    _net, sol = sample_solution()
    assert sup_norm(sol.x, (0.0, 2)) == pytest.approx(2.0)


def test_sup_norm_zero_signal():
    dom = HybridTimeDomain(((0.0, 1.0, 0),))
    sig = HybridSignal(dom, [np.array([0.0, 1.0])], [np.zeros((2, 2))])
    assert sup_norm(sig, (1.0, 0)) == 0.0


def test_sup_norm_outside_domain():
    _net, sol = sample_solution()
    with pytest.raises(DomainError):
        sup_norm(sol.x, (9.0, 0))


def test_csv_rows_and_phases():
    _net, sol = sample_solution()
    buf = io.StringIO()
    rows = write_trajectory_csv(sol, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "k", "x_1"]
    assert rows == len(lines) - 1
    jump_lines = [ln for ln in lines[1:] if ln.endswith("jump")]
    assert len(jump_lines) == 3  # pre, shared middle, post of the two jumps
    ks = [int(ln.split(",")[1]) for ln in jump_lines]
    assert ks == [0, 1, 2]


def test_csv_frozen_rows_identical():
    net = frozen_network()
    sol = simulate(net, [1.0, 5.0], InputSignal.zero(1), horizon=5.0, max_jumps=8)
    buf = io.StringIO()
    write_trajectory_csv(sol, buf)
    lines = buf.getvalue().strip().splitlines()[1:]
    assert len(lines) == 9  # one sample per interval, eight jumps
    for ln in lines:
        cols = ln.split(",")
        assert float(cols[2]) == pytest.approx(1.0)
        assert float(cols[3]) == pytest.approx(5.0)
        assert cols[-1] == "jump"


def test_piecewise_input_holds_values():
    sig = InputSignal.piecewise([0.0, 1.0], [[2.0], [3.0]])
    assert sig(0.5, 0) == pytest.approx([2.0])
    assert sig(1.5, 4) == pytest.approx([3.0])


def test_expression_input():
    sig = InputSignal.from_exprs([ex.parse("exp(0 - t)", ("t", "k"))])
    assert sig(1.0, 0) == pytest.approx([math.exp(-1.0)])


# ---------------------------------------------------------------------------
# differential gate: one flow/jump decision per point against the former loop
#
# ``_reference_simulate`` is the former loop, verbatim but for the tolerance
# constant, on the former per-interval recorder.  It evaluated both guards at the top of every iteration and again
# in ``_flow_event`` at each step end, and integrated each event point twice.


def _reference_simulate(net: NetworkSpec, x0: Sequence[float], u: InputSignal,
                        horizon: float, max_jumps: int,
                        opts: Optional[SimOptions] = None) -> SolutionPair:
    """Simulate the composed network from ``x0`` under input ``u``.

    Alternates jump and flow phases.  Flow integrates the stacked flow map
    with fixed-step RK4; a step that leaves the flow set or (under jump
    priority) enters the jump set is bisected down to the configured time
    tolerance and the boundary point is recorded.  Completeness records that
    the run used its full time or jump budget.
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

    t, k, jumps = 0.0, 0, 0
    u_now = u.values(t, k)
    vals = x + u_now
    if not (net.c_raw(vals) <= 0.0 or net.d_raw(vals) <= 0.0):
        raise SimulationError("initial point lies outside the union of flow and jump sets")

    rec = Recorder()
    rec.open_interval(t, k)
    rec.record(t, x, u_now)
    jump_priority = opts.priority == "jump"
    h = opts.step
    steps_since_record = 0

    try:
        while True:
            u_now = u.values(t, k)
            if not all(map(math.isfinite, x)):
                return rec.finalize("numerical_failure", False, jumps)
            vals = x + u_now
            in_c = net.c_raw(vals) <= 0.0
            in_d = net.d_raw(vals) <= 0.0
            if not in_c and not in_d:
                return rec.finalize("left_domain", False, jumps)
            do_jump = in_d and (jump_priority or not in_c)
            if do_jump:
                if jumps >= max_jumps:
                    return rec.finalize("max_jumps", True, jumps)
                x, u_now = net.jump_raw(vals), u.values(t, k + 1)
                k += 1
                jumps += 1
                rec.open_interval(t, k)
                rec.record(t, x, u_now)
                steps_since_record = 0
                continue

            # flow phase
            if t >= horizon - 1e-15:
                return rec.finalize("horizon", True, jumps)
            h_step = min(h, horizon - t)
            x_prop = rk4(net, x, u, t, k, h_step)
            if not all(map(math.isfinite, x_prop)):
                return rec.finalize("numerical_failure", False, jumps)
            if _flow_event(net, x_prop, u.values(t + h_step, k), jump_priority):
                theta = _bisect_event(net, x, u, t, k, h_step, jump_priority, TIME_TOL)
                x = rk4(net, x, u, t, k, theta * h_step)
                t = t + theta * h_step
                rec.record(t, x, u.values(t, k))
                steps_since_record = 0
                continue
            x = x_prop
            t = t + h_step
            steps_since_record += 1
            if steps_since_record >= opts.record_every or t >= horizon - 1e-15:
                rec.record(t, x, u.values(t, k))
                steps_since_record = 0
    except ex.EvalDomainError:  # a guard, flow, jump or input expression left its domain
        return rec.finalize("numerical_failure", False, jumps)


def _flow_event(net: NetworkSpec, x: list, u_val: list, jump_priority: bool) -> bool:
    vals = x + u_val
    if net.c_raw(vals) > 0.0:
        return True
    return jump_priority and net.d_raw(vals) <= 0.0


def _bisect_event(net, x, u, t, k, h_step, jump_priority, time_tol) -> float:
    lo, hi = 0.0, 1.0
    while (hi - lo) * h_step > time_tol:
        mid = 0.5 * (lo + hi)
        x_mid = rk4(net, x, u, t, k, mid * h_step)
        if _flow_event(net, x_mid, u.values(t + mid * h_step, k), jump_priority):
            hi = mid
        else:
            lo = mid
    return hi


def one_dim(flow, c_guard, d_guard, jump="x_1"):
    allowed = ("x_1", "u_1")
    spec = SubsystemSpec(dim=1, flow=[ex.parse(flow, allowed)], jump=[ex.parse(jump, allowed)],
                         c_guard=ex.parse(c_guard, allowed), d_guard=ex.parse(d_guard, allowed),
                         name="solo")
    return compose_network([spec], input_dim=1)


def failing_network():
    """A flow map that leaves its domain and one that blows up."""
    allowed = ("x_1", "x_2", "u_1")
    subs = [SubsystemSpec(dim=1, flow=[ex.parse(f, allowed)], jump=[ex.parse(j, allowed)],
                          c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name=name)
            for f, j, name in (("log(x_1 + 0.5) - 1 + 0.1*u_1", "x_1", "log"),
                               ("x_2*x_2*x_2", "x_2", "cube"))]
    return compose_network(subs, input_dim=1)


GRID_NETWORKS = {
    "decoupled": (decoupled_two_sub, ([2.0, 0.0], [0.5, -0.3], [1.0, 1.0])),
    "e1": (two_sub_network, ([0.9, -0.4], [1.5, 0.2], [-0.2, 0.1])),
    "frozen": (frozen_network, ([1.0, 5.0], [0.5, 0.5], [2.0, -1.0])),
    "runaway": (lambda: one_dim("x_1 + u_1", "abs(x_1) - 1", "1"), ([0.5], [-0.9], [0.0])),
    # C is x <= 2 and D is x >= 1, so the two priorities resolve the overlap differently
    "overlap": (lambda: one_dim("1 + u_1", "x_1 - 2", "1 - x_1", jump="x_1 - 1.5"),
                ([0.0], [1.5], [2.5])),
    "failing": (failing_network, ([1.0, 0.0], [1.0, 1.5], [3.0, 0.0])),
}


def grid_inputs():
    return [InputSignal.zero(1), InputSignal.constant([0.7]),
            InputSignal.from_exprs([ex.parse("0.5*exp(0 - t) + 0.1*k", ("t", "k"))]),
            InputSignal.piecewise([0.0, 0.4, 1.1], [[0.2], [-1.2], [0.6]])]


def fingerprint(run, net, x0, u, opts, horizon=1.5, max_jumps=5):
    """Every byte the run produced, or the error it raised."""
    try:
        sol = run(net, x0, u, horizon, max_jumps, opts)
    except SimulationError as err:
        return ("raised", str(err))
    return (sol.termination, sol.complete, sol.jumps_applied, repr(sol.domain.intervals),
            [a.tobytes() for sig in (sol.x, sol.u) for a in sig.times + sig.values])


def test_simulate_matches_reference_loop_bit_for_bit():
    results = {}
    for name, (make, initial_states) in GRID_NETWORKS.items():
        net = make()
        for (i, x0), (j, u), priority, every in itertools.product(
                enumerate(initial_states), enumerate(grid_inputs()), ("jump", "flow"), (1, 3)):
            opts = SimOptions(step=0.01, priority=priority, record_every=every)
            new = fingerprint(simulate, net, x0, u, opts)
            assert new == fingerprint(_reference_simulate, net, x0, u, opts), \
                (name, x0, u.description, priority, every)
            results[name, i, j, every, priority] = new
    assert len(results) == 288
    # the grid reaches every termination, jumps often, and the priority matters somewhere
    assert {r[0] for r in results.values()} == {"horizon", "max_jumps", "left_domain",
                                                "numerical_failure"}
    assert sum(r[0] != "raised" and r[2] > 0 for r in results.values()) >= 90
    assert any(r != results[key[:-1] + ("flow",)]
               for key, r in results.items() if key[-1] == "jump")


def _ramp_to(level):
    """x' = 1 (the input enters with weight 0); C is x <= level and D is x >= level,
    and a jump resets x to 0."""
    return one_dim("1 + 0*u_1", f"x_1 - {level}", f"{level} - x_1", jump="0*x_1")


def _event_in_the_shortened_step(sol):  # the first event lies in the last step, 0.9 to 1.0
    return sol.jumps_applied == 1 and 0.9 < sol.domain.intervals[0][1] < 1.0


def _duplicates_dropped(sol):  # each event point repeats its interval's start time
    return sol.jumps_applied == 3 and [len(ts) for ts in sol.x.times[1:]] == [1, 1, 1]


def _on_the_breakpoint(sol):  # the breakpoint is a step end, and its event is found there
    return sol.domain.intervals[0][1] == 0.5 and sol.jumps_applied == 2


EDGE_CASES = {
    "event in the shortened last step": (
        _ramp_to(0.995), [0.0], InputSignal.zero(1), 1.0, 1, SimOptions(step=0.3),
        _event_in_the_shortened_step),
    "horizon not a multiple of the step": (
        decoupled_two_sub(), [2.0, 0.0], InputSignal.zero(1), 1.05, 2, SimOptions(step=0.1),
        lambda sol: sol.x.times[-1][-1] == 1.05 and sol.jumps_applied == 2),
    # near t = 1e7 an event 2**-50 steps in rounds to the step start, so the event
    # point is dropped as a duplicate time and the state jumps from the step start
    "duplicate time dropped": (
        one_dim("u_1", "x_1 - 1", "1 - x_1", jump="0*x_1 + 1"), [1.0],
        InputSignal.piecewise([0.0, 1e7], [[0.0], [1.0]]), 2.05e7, 3,
        SimOptions(step=1e6, priority="flow"), _duplicates_dropped),
    "piecewise breakpoint on a step end": (
        one_dim("u_1 - x_1", "u_1 - 1", "1 - u_1", jump="0.5*x_1"), [0.2],
        InputSignal.piecewise([0.0, 0.5], [[0.0], [2.0]]), 1.0, 2, SimOptions(step=0.25),
        _on_the_breakpoint),
    "input expression in t and k": (
        one_dim("u_1", "x_1 - 1", "1 - x_1", jump="0*x_1"), [0.0],
        InputSignal.from_exprs([ex.parse("0.5 + exp(0 - t) + 0.5*k", ("t", "k"))]), 3.0, 4,
        SimOptions(step=0.01), lambda sol: sol.jumps_applied == 4),
    "record_every 3 across events": (
        _ramp_to(0.3), [0.0], InputSignal.zero(1), 1.0, 5, SimOptions(step=0.01, record_every=3),
        lambda sol: sol.jumps_applied == 3 and [len(ts) for ts in sol.x.times] == [11, 11, 11, 5]),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_simulate_matches_reference_loop_on_edge_cases(case):
    net, x0, u, horizon, max_jumps, opts, occurs = EDGE_CASES[case]
    assert fingerprint(simulate, net, x0, u, opts, horizon, max_jumps) == \
        fingerprint(_reference_simulate, net, x0, u, opts, horizon, max_jumps)
    assert occurs(simulate(net, x0, u, horizon, max_jumps, opts))


# flow and jump guards that share a subtree without being equal: e1's max of
# abs values, and a log that can leave its domain (C is x <= e^1.2 - 2, D is
# x >= e^0.8 - 2, and a jump moves x down by 1)
SHARED_SUBTREE_NETWORKS = {
    "e1": (two_sub_network, ([0.9, -0.4], [1.5, 0.2], [-0.2, 0.1])),
    "log": (lambda: one_dim("1 + u_1", "log(x_1 + 2)*0.5 - 0.6", "0.2 - log(x_1 + 2)*0.25",
                            jump="x_1 - 1"), ([0.0], [1.0], [-1.5])),
}


@pytest.mark.parametrize("name", SHARED_SUBTREE_NETWORKS)
def test_run_kernel_matches_reference_loop_where_guards_share_a_subtree(name):
    make, initial_states = SHARED_SUBTREE_NETWORKS[name]
    net = make()
    inputs = [InputSignal.constant([0.7]), InputSignal.piecewise([0.0, 0.4, 1.1],
                                                                 [[0.2], [-3.5], [0.6]]),
              InputSignal.from_exprs([ex.parse("0.5*exp(0 - t) + 0.1*k", ("t", "k"))])]
    ends, jumps = set(), 0
    for x0, u, priority in itertools.product(initial_states, inputs, ("jump", "flow")):
        opts = SimOptions(step=0.01, priority=priority)
        new = fingerprint(simulate, net, x0, u, opts, horizon=3.0, max_jumps=40)
        assert new == fingerprint(_reference_simulate, net, x0, u, opts, horizon=3.0,
                                  max_jumps=40), (name, x0, u.description, priority)
        ends.add(new[0])
        jumps += new[2]
    # the log leaves its domain where the piecewise input drives x below -2
    assert jumps >= 5 and "horizon" in ends and ("numerical_failure" in ends) == (name == "log")


def test_run_kernel_numbers_the_guards_shared_subtrees_once(monkeypatch):
    """The start point and the step end are classified with fresh cells of one numbering."""
    calls = []
    numbering = ex.repeated_subtrees
    monkeypatch.setattr(ex, "repeated_subtrees",
                        lambda trees: calls.append(len(trees)) or numbering(trees))
    _run_kernel(two_sub_network())
    assert calls == [4]  # both flow guards, then both jump guards


@pytest.mark.parametrize("u", [
    InputSignal.constant([40.0]), InputSignal.piecewise([0.0, 0.5], [[40.0], [39.0]]),
    InputSignal.from_exprs([ex.parse("40 - 0.5*t", ("t", "k"))])],
    ids=["constant", "piecewise", "expression"])
def test_run_kernel_matches_reference_loop_over_many_bisections(monkeypatch, u):
    """e1 driven toward u/3 = 13 reaches its jump set every few steps, as in the
    benchmark's long simulate; every event is bisected down to ``TIME_TOL``."""
    halvings = []
    bisect = _bisect_event

    def counting(net, x, u, t, k, h_step, jump_priority, time_tol):
        width, n = 1.0, 0
        while width * h_step > time_tol:  # the halvings of the loop it calls
            width, n = 0.5 * width, n + 1
        halvings.append(n)
        return bisect(net, x, u, t, k, h_step, jump_priority, time_tol)
    monkeypatch.setitem(globals(), "_bisect_event", counting)
    net, opts = two_sub_network(), SimOptions(step=0.004)
    assert fingerprint(simulate, net, [0.3, -0.6], u, opts, horizon=1.0, max_jumps=10 ** 6) == \
        fingerprint(_reference_simulate, net, [0.3, -0.6], u, opts, horizon=1.0,
                    max_jumps=10 ** 6)
    assert len(halvings) >= 10 and sum(halvings) >= 100


def _guard_and_read_counts(u: InputSignal):
    """Run e1 from inside its flow set to the horizon without an event under ``u``,
    counting union checks, input reads and ``abs`` calls; returns the counts and
    the number of accepted steps."""
    net = two_sub_network()
    calls = {"c": 0, "d": 0, "read": 0, "abs": 0}
    c_raw, d_raw = net.c_raw, net.d_raw
    net.c_raw = lambda vals, sub=None: calls.__setitem__("c", calls["c"] + 1) or c_raw(vals, sub)
    net.d_raw = lambda vals, sub=None: calls.__setitem__("d", calls["d"] + 1) or d_raw(vals, sub)

    def counting_abs(v):
        calls["abs"] += 1
        return abs(v)
    net.run_kernel().__globals__["abs"] = counting_abs
    read = u.values
    u.values = lambda t, k: calls.__setitem__("read", calls["read"] + 1) or read(t, k)
    sol = simulate(net, [0.5, 0.2], u, horizon=1.0, max_jumps=3, opts=SimOptions(step=0.01))
    steps = len(sol.x.times[0]) - 1
    assert sol.termination == "horizon" and sol.jumps_applied == 0 and steps == 100
    return calls, steps


def test_each_accepted_step_evaluates_each_guard_once():
    # e1's flows call nothing.  Its flow guards max(abs(x_1), abs(x_2)) - 1 are
    # equal, and so are its jump guards 1 - max(abs(x_1), abs(x_2)); the max is
    # computed once by the flow fold and read by the jump fold.  So two abs calls
    # are one classification, of the start or of a step end in the run kernel
    calls, steps = _guard_and_read_counts(InputSignal.constant([0.3]))
    # a constant input is read once, at the start, which is seen by the union
    # check and classified once; then each accepted step classifies its end once
    assert calls == {"c": 1, "d": 0, "read": 1, "abs": 2 * (steps + 1)}


@pytest.mark.parametrize("u", [
    InputSignal.piecewise([0.0], [[0.3]]),
    InputSignal.from_exprs([ex.parse("0.3 + 0*t", ("t", "k"))])], ids=["piecewise", "expression"])
def test_each_accepted_step_reads_an_input_that_may_vary_twice(u):
    # the same run under inputs not marked constant, though they hold 0.3: each
    # accepted step reads the input at its middle and end
    calls, steps = _guard_and_read_counts(u)
    assert calls == {"c": 1, "d": 0, "read": 1 + 2 * steps, "abs": 2 * (steps + 1)}


def test_flow_priority_skips_the_jump_guard_inside_the_flow_set():
    net = one_dim("-x_1", "-1", "log(x_1 - 5)")  # the jump guard is undefined at x = 1
    flow = SimOptions(step=0.01, priority="flow")
    jump = SimOptions(step=0.01, priority="jump")
    before = _reference_simulate(net, [1.0], InputSignal.zero(1), 1.0, 3, flow)
    assert before.termination == "numerical_failure" and before.domain.intervals == ((0.0, 0.0, 0),)
    after = simulate(net, [1.0], InputSignal.zero(1), 1.0, 3, flow)
    assert after.termination == "horizon" and after.complete
    assert after.x.values[0][-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    # under jump priority the guard decides between flow and jump, so it still fails there
    assert fingerprint(simulate, net, [1.0], InputSignal.zero(1), jump) == \
        fingerprint(_reference_simulate, net, [1.0], InputSignal.zero(1), jump)
    assert simulate(net, [1.0], InputSignal.zero(1), 1.0, 3, jump).termination \
        == "numerical_failure"


def test_nan_flow_guard_counts_as_outside_the_flow_set():
    # 0 at x = 0, and inf - inf = NaN for any x > 0
    net = one_dim("1", "x_1*1e308*1e308 - x_1*1e308*1e308", "1")
    sol = simulate(net, [0.0], InputSignal.zero(1), horizon=1.0, max_jumps=0,
                   opts=SimOptions(step=0.01))
    # the step is bisected down to the earliest NaN point, where the run leaves the domain
    assert sol.termination == "left_domain" and 0.0 < sol.domain.intervals[-1][1] <= TIME_TOL
    # the former step-end test counted NaN as inside C and the loop top as outside
    before = _reference_simulate(net, [0.0], InputSignal.zero(1), 1.0, 0, SimOptions(step=0.01))
    assert before.termination == "left_domain" and before.domain.intervals[-1][1] == 0.01


def test_expression_error_at_the_initial_point_ends_as_numerical_failure():
    net = decoupled_two_sub()
    opts = SimOptions(step=0.001)
    undefined = InputSignal.from_exprs([ex.parse("log(t - 0.5)", ("t", "k"))])
    sol = simulate(net, [2.0, 0.0], undefined, 1.0, 2, opts)
    assert sol.termination == "numerical_failure" and not sol.complete
    assert sol.domain.intervals == ((0.0, 0.0, 0),)
    assert sol.x.values[0].tolist() == [[2.0, 0.0]] and math.isnan(sol.u.values[0][0, 0])
    # the former loop read the first input outside its try and raised
    with pytest.raises(ex.EvalDomainError):
        _reference_simulate(net, [2.0, 0.0], undefined, 1.0, 2, opts)
    # the same error one RK4 stage later ends the run the same way, in both loops
    later = InputSignal.from_exprs([ex.parse("log(0.0005 - t)", ("t", "k"))])
    assert simulate(net, [2.0, 0.0], later, 1.0, 2, opts).termination == "numerical_failure"
    assert fingerprint(simulate, net, [2.0, 0.0], later, opts) == \
        fingerprint(_reference_simulate, net, [2.0, 0.0], later, opts)
    # guards undefined at the initial point: the union check fails the same way
    net = one_dim("-x_1", "log(x_1 - 5)", "1")
    sol = simulate(net, [1.0], InputSignal.constant([0.3]), 1.0, 2, SimOptions(step=0.01))
    assert sol.termination == "numerical_failure"
    assert sol.x.values[0].tolist() == [[1.0]] and sol.u.values[0].tolist() == [[0.3]]


def test_csv_matches_former_writer_bytes():
    runs, zero_length = 0, 0
    for name, (make, initial_states) in GRID_NETWORKS.items():
        net = make()
        for x0, u, priority, every in itertools.product(
                initial_states, grid_inputs(), ("jump", "flow"), (1, 3)):
            opts = SimOptions(step=0.01, priority=priority, record_every=every)
            sol = simulate(net, x0, u, 1.5, 5, opts)
            new, old = io.StringIO(), io.StringIO()
            rows = reference_hybrid.write_trajectory_csv(sol, old)
            assert write_trajectory_csv(sol, new) == rows
            assert new.getvalue() == old.getvalue(), (name, x0, u.description, priority, every)
            runs += 1
            zero_length += any(lo == hi for lo, hi, _k in sol.domain.intervals[1:-1])
    # the frozen network jumps in place, into intervals of zero length
    assert runs == 288 and zero_length > 0


def test_a_jump_set_entered_and_left_within_one_step_is_missed():
    # D is [0.54, 0.56]; x = t is there for 0.02 s, inside the step from 0.5 to 0.6
    net = one_dim("1 + 0*u_1", "-1", "abs(x_1 - 0.55) - 0.01")
    sol = simulate(net, [0.0], InputSignal.zero(1), horizon=1.0, max_jumps=3,
                   opts=SimOptions(step=0.1))
    assert sol.termination == "horizon"
    assert sol.jumps_applied == 0


def test_kernels_compile_on_the_first_simulate_only(monkeypatch):
    made = []
    real = ex.compile_lines

    def counting(*args):
        made.append(args[0])
        return real(*args)
    monkeypatch.setattr(ex, "compile_lines", counting)
    cfg = load_config(config_path("e1.json"))
    assert made == [] and cfg.network._kernel is None
    u = InputSignal.zero(cfg.network.input_dim)
    simulate(cfg.network, [0.5, 0.2], u, 0.1, 1)
    kernel = cfg.network._kernel
    assert made == ["x, u1, t, k, h, horizon, every, values, jump_priority, ts, xs, us"]
    simulate(cfg.network, [0.2, 0.5], u, 0.1, 1)
    assert len(made) == 1 and cfg.network._kernel is kernel


# ---------------------------------------------------------------------------
# differential gate: the generated kernels against the former step kernel, event
# bisection and scalar mode


def _kernel_outcome(fn):
    """The bytes of each float, or the error class.  A NaN counts as NaN: the sign
    that inf - inf and the like give it depends on whether CPython has specialized
    the float operation yet, in the former step as in the kernel."""
    try:
        result = fn()
    except ex.EvalDomainError as exc:
        return type(exc)
    if isinstance(result, str):
        return result
    return [struct.pack("<d", v) if v == v else "nan" for v in result]


def _run_outcome(fn, start):
    """What ``fn(ts, xs, us)`` returns and records into lists that hold the sample
    ``start``: its end, time, state and input, then the recorded times, states and
    inputs; or the error class and the records."""
    records = tuple(list(part) for part in start)
    try:
        end, t, x, u = fn(*records)
    except ex.EvalDomainError as exc:
        return type(exc), [_kernel_outcome(lambda: r) for r in records]
    return end, [_kernel_outcome(lambda: r) for r in ([t], x or [], u or []) + records]


_TREES = _trees()  # built once: a new recursive strategy is validated on its first draw


@st.composite
def _kernel_cases(draw):
    """A network of 1-3 one-state subsystems with random flows and guards (guards
    drawn from a pool of two, so they repeat), a point, an input, a time, a step
    for the former step kernel, a step for the run, a (possibly fractional) number
    of run steps to the horizon and a record cadence."""
    n = draw(st.integers(1, 3))
    names = [f"x_{i + 1}" for i in range(n)] + ["u_1"]

    def tree():
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        return ex.substitute(draw(_TREES), {"x": ex.Var(x), "y": ex.Var(y)})
    c_pool, d_pool = [tree(), tree()], [tree(), tree()]
    subs = [SubsystemSpec(dim=1, flow=[tree()], jump=[ex.Var(f"x_{i + 1}")],
                          c_guard=draw(st.sampled_from(c_pool)),
                          d_guard=draw(st.sampled_from(d_pool)), name=f"s{i}")
            for i in range(n)]
    x = draw(st.lists(_LANES, min_size=n, max_size=n))
    a, b = draw(_LANES), draw(_LANES)
    sampled = st.sampled_from([0.0, 0.01, 0.01 * 0.5 ** 23, 1e-300])
    h_step = draw(sampled | st.floats(0.0, 2.0))
    # a run's step stays above half an ulp of t <= 10, or t + h == t and the run stalls
    h_run = draw(sampled | st.floats(1e-14, 2.0))
    steps = draw(st.integers(1, 4) | st.floats(0.1, 4.0))  # a fraction shortens the last step
    return (subs, x, (a, b), draw(st.floats(0.0, 10.0)), draw(st.integers(0, 3)), h_step,
            h_run, steps, draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_kernels_match_former_scalar_step_and_mode(case):
    subs, x, (a, b), t, k, h_step, h, steps, every = case
    try:
        net = compose_network(subs, input_dim=1)
    except ex.EvalDomainError:  # the jump-set comparison met an undefined jump guard
        assume(False)
    u = InputSignal(lambda s, _k: [a + b * s], 1, "affine in t")
    run = net.run_kernel()
    step = reference_hybrid.step_kernel(net)
    horizon = t + steps * h

    def former(jump_priority, *rec):  # the former mode, then the former flow if it flows
        mode = reference_hybrid.mode(net, x + u.values(t, k), jump_priority)
        if mode != FLOW:
            return mode, t, x, u.values(t, k)
        return reference_hybrid.flow(net, step, x, u.values(t, k), t, k, h, horizon, every,
                                     u.values, jump_priority, *rec)
    for jump_priority in (True, False):
        start = ([t], x, u.values(t, k))
        assert _run_outcome(lambda *rec: run(
            x, u.values(t, k), t, k, h, horizon, every, u.values, jump_priority, *rec), start) \
            == _run_outcome(lambda *rec: former(jump_priority, *rec), start)
    # the former step kernel itself still matches the per-expression step
    assert _kernel_outcome(lambda: step(x, u.values, t, k, h_step)) == \
        _kernel_outcome(lambda: reference_hybrid.rk4(net, x, u, t, k, h_step))
