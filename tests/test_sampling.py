"""The block sampler against the samplers it replaced.

``_attempt_loop_sample_set`` is the one-attempt-at-a-time loop and
``_reference_sample_set`` the block sampler that drew boundary pairs one pair at
a time and tie attempts through scalar generator calls; both are kept verbatim
as oracles.  For a fixed seed the sampler must return the same points in the
same order, bit for bit, raise the same error where a guard fails, and leave its
generator in the same state as the pair loop.  ``_TieDecoder`` replays numpy's
``integers`` and ``random`` on raw PCG64 words, chunk by chunk; properties pin
it to the scalar calls.
"""

import dataclasses
import math
import struct
import tracemalloc
from types import SimpleNamespace
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_json
from hsgt import expr as ex
from hsgt import sampling
from hsgt.config import build_config
from hsgt.hybrid import SubsystemSpec, compose_network
from hsgt.sampling import (_BLOCK, _WORDS, MAX_ATTEMPTS_FACTOR, SamplerEmptyError,
                           SamplerSpec, _TieDecoder, flow_set_samples, jump_set_samples,
                           sample_set)


def _attempt_loop_sample_set(net, guard, spec) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Sample points with ``guard(x, u) <= 0`` using the stratified mix."""
    rng = np.random.default_rng(spec.seed)
    u_lo, u_hi = spec.u_low_high(net.input_dim)
    R = spec.box_radius

    def draw():
        x = rng.uniform(-R, R, net.state_dim)
        u = u_lo + rng.uniform(0.0, 1.0, net.input_dim) * (u_hi - u_lo)
        return x, u

    n_boundary = int(spec.n_samples * spec.boundary_fraction)
    n_tie = int(spec.n_samples * spec.tie_fraction)
    n_uniform = spec.n_samples - n_boundary - n_tie

    inside: List[Tuple[np.ndarray, np.ndarray]] = []
    outside: List[Tuple[np.ndarray, np.ndarray]] = []
    attempts = 0
    limit = MAX_ATTEMPTS_FACTOR * max(spec.n_samples, 1)
    while len(inside) < n_uniform and attempts < limit:
        x, u = draw()
        attempts += 1
        if guard(x, u) <= 0.0:
            inside.append((x, u))
        elif len(outside) < n_boundary + 16:
            outside.append((x, u))
    if not inside:
        raise SamplerEmptyError("no samples landed in the target set")

    samples = list(inside)

    # guard-boundary points: bisect segments between inside and outside draws
    bi = 0
    while len(samples) < n_uniform + n_boundary and bi < 4 * n_boundary:
        bi += 1
        xin, uin = inside[rng.integers(len(inside))]
        if outside:
            xout, uout = outside[rng.integers(len(outside))]
        else:
            xout, uout = draw()
            if guard(xout, uout) <= 0.0:
                continue
        lo_pt, hi_pt = (xin, uin), (xout, uout)
        for _ in range(40):
            xm = 0.5 * (lo_pt[0] + hi_pt[0])
            um = 0.5 * (lo_pt[1] + hi_pt[1])
            if guard(xm, um) <= 0.0:
                lo_pt = (xm, um)
            else:
                hi_pt = (xm, um)
        samples.append(lo_pt)

    # tie points: copy one subsystem block onto another up to sign
    ti = 0
    while len(samples) < spec.n_samples and ti < 8 * n_tie:
        ti += 1
        x, u = inside[rng.integers(len(inside))]
        x = x.copy()
        i, j = rng.integers(net.n), rng.integers(net.n)
        if i == j or net.subsystems[i].dim != net.subsystems[j].dim:
            continue
        sign = -1.0 if rng.random() < 0.5 else 1.0
        x[net.slices[j]] = sign * x[net.slices[i]]
        if guard(x, u) <= 0.0:
            samples.append((x, u))
    # top up with plain inside draws if strata fell short
    while len(samples) < spec.n_samples and attempts < limit:
        x, u = draw()
        attempts += 1
        if guard(x, u) <= 0.0:
            samples.append((x, u))
    return samples


def _reference_sample_set(net, guard, spec) -> List[Tuple[np.ndarray, np.ndarray]]:
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
        except ex.EvalDomainError:
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


def _outcome(fn):
    try:
        return fn()
    except (ex.EvalDomainError, SamplerEmptyError) as exc:
        return type(exc), str(exc)


def _pairs(net, got):
    """A sample block as the ``(x, u)`` pairs the reference samplers return."""
    if isinstance(got, tuple):
        return got
    assert got.shape == (len(got), net.state_dim + net.input_dim)
    return [(z[:net.state_dim], z[net.state_dim:]) for z in got]


def _assert_same_pairs(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert len(got) == len(expected)
    for (x, u), (xr, ur) in zip(got, expected):
        assert x.shape == xr.shape and u.shape == ur.shape
        assert x.tobytes() == xr.tobytes() and u.tobytes() == ur.tobytes()


def _assert_same(net, spec, kind, sub=None):
    """Block sampler == attempt loop on the flow (``c``) or jump (``d``) set."""
    scalar = net.c_raw if kind == "c" else net.d_raw
    block = flow_set_samples if kind == "c" else jump_set_samples
    expected = _outcome(lambda: _attempt_loop_sample_set(
        net, lambda x, u: scalar(x.tolist() + u.tolist(), sub), spec))
    got = _pairs(net, _outcome(lambda: block(net, spec, sub=sub)))
    _assert_same_pairs(got, expected)
    return expected if isinstance(expected, tuple) else got


def _network(guards, dims=(1, 1), input_dim=1):
    """Subsystems of the given dims with ``(flow_guard, jump_guard)`` texts."""
    state_dim = sum(dims)
    allowed = [f"x_{i + 1}" for i in range(state_dim)] + [f"u_{m + 1}" for m in range(input_dim)]
    subs, offset = [], 0
    for dim, (c_text, d_text) in zip(dims, guards):
        own = [f"x_{offset + k + 1}" for k in range(dim)]
        subs.append(SubsystemSpec(dim=dim, flow=[ex.parse(f"-{v}", allowed) for v in own],
                                  jump=[ex.parse(f"0.5*{v}", allowed) for v in own],
                                  c_guard=ex.parse(c_text, allowed),
                                  d_guard=ex.parse(d_text, allowed)))
        offset += dim
    return compose_network(subs, input_dim=input_dim)


@pytest.fixture(scope="module")
def e1():
    cfg = build_config(load_json("e1.json"))
    return cfg.network, dataclasses.replace(cfg.sampler, n_samples=1000)


@pytest.mark.parametrize("seed", [0, 1, 3, 5, 13])
@pytest.mark.parametrize("kind", ["c", "d"])
def test_e1_sets_match_reference(e1, seed, kind):
    net, spec = e1
    assert len(_assert_same(net, dataclasses.replace(spec, seed=seed), kind)) == 1000


@pytest.mark.parametrize("sub", [0, 1])
@pytest.mark.parametrize("kind", ["c", "d"])
def test_per_subsystem_guards_match_reference(sub, kind):
    net = _network([("abs(x_1) - 1", "1 - x_2^2 - u_1"),
                    ("x_2 + 0.5*x_1*x_1 - 0.5", "min(x_1, x_2) + 0.25")])
    spec = SamplerSpec(n_samples=800, box_radius=2.0, u_box=[(-1.0, 1.0)], seed=7)
    _assert_same(net, spec, kind, sub=sub)
    _assert_same(net, spec, kind)  # the max / min fold over both subsystems


@pytest.mark.parametrize("seed", [0, 2])
def test_mixed_dims_and_inputs_match_reference(seed):
    """Dims 2 and 1 give no tie pairs, so the top-up stratum fills the set."""
    net = _network([("max(abs(x_1), abs(x_2)) - 1 + 0.25*u_2", "x_3 - u_1"),
                    ("abs(x_3) - 1.5", "x_1 + x_2")], dims=(2, 1), input_dim=2)
    spec = SamplerSpec(n_samples=600, box_radius=1.5, u_box=[(-1.0, 1.0), (0.5, 2.0)],
                       seed=seed)
    for kind in ("c", "d"):
        assert len(_assert_same(net, spec, kind)) == 600


def test_no_inputs_match_reference():
    net = _network([("max(abs(x_1), abs(x_2)) - 1", "1 - max(abs(x_1), abs(x_2))")] * 2,
                   input_dim=0)
    spec = SamplerSpec(n_samples=700, box_radius=2.0, seed=4)
    for kind in ("c", "d"):
        x, u = _assert_same(net, spec, kind)[0]
        assert x.shape == (2,) and u.shape == (0,)


def test_guard_without_outside_draws_matches_reference():
    """Flow guard -1: every draw lands inside, the boundary stratum finds nothing."""
    net = _network([("-1", "1")] * 2)
    spec = SamplerSpec(n_samples=500, box_radius=2.0, seed=1)
    assert len(_assert_same(net, spec, "c")) == 500
    assert _assert_same(net, spec, "d") == (SamplerEmptyError,
                                            "no samples landed in the target set")


def test_tiny_target_set_comes_up_short_like_reference():
    net = _network([("max(abs(x_1), abs(x_2)) - 0.05", "1")] * 2)
    spec = SamplerSpec(n_samples=50, box_radius=2.0, boundary_fraction=0.04,
                       tie_fraction=0.0, seed=0)
    got = _assert_same(net, spec, "c")
    assert 0 < len(got) < 50


def test_raising_guard_raises_like_reference():
    net = _network([("log(x_1) - 1", "1")] * 2)
    spec = SamplerSpec(n_samples=300, box_radius=2.0, seed=0)
    assert _assert_same(net, spec, "c") == (ex.EvalDomainError,
                                            "math domain error in log(x_1) - 1.0")


def test_error_in_bisection_is_the_first_in_draw_order():
    """Bisecting all pairs at once meets a later pair's error first; the one-pair
    order must decide which error is raised."""
    net = _network([("max(abs(x_1), abs(x_2)) - 1", "1")] * 2)
    spec = SamplerSpec(n_samples=400, box_radius=2.0, seed=3)

    def fail_near_edge(X):  # the boundary is only approached by bisection
        near = np.abs(np.max(np.abs(X), axis=1) - 1.0) < 1e-9
        if near.any():
            raise ex.EvalDomainError(f"near the edge at {X[np.argmax(near)].tolist()!r}")
        return np.max(np.abs(X), axis=1) - 1.0

    expected = _outcome(lambda: _attempt_loop_sample_set(
        net, lambda x, u: fail_near_edge(x[None])[0], spec))
    assert expected[0] is ex.EvalDomainError
    assert _outcome(lambda: sample_set(net, lambda Z: fail_near_edge(Z[:, :2]), spec)) == expected


def test_array_guards_match_scalar_guards_row_by_row():
    net = _network([("x_1/x_2 - 1", "1 - x_1 - u_1"), ("max(x_2, 0.5) - 1", "min(x_1, u_1)")])
    rng = np.random.default_rng(0)
    X, U = rng.uniform(-2.0, 2.0, (64, 2)), rng.uniform(-1.0, 1.0, (64, 1))
    Z = np.concatenate([X, U], axis=1)
    for sub in (None, 0, 1):
        for array, scalar in ((net.c_array, net.c_raw), (net.d_array, net.d_raw)):
            assert [float(v) for v in array(Z, sub)] == [scalar(z.tolist(), sub) for z in Z]


def test_array_guard_fold_raises_the_first_failing_row():
    """Row 0 fails in the second guard and row 1 in the first; one row at a time,
    the second guard's error comes first."""
    net = _network([("log(x_1 + 1.9)", "1"), ("log(x_2)", "1")])
    Z = np.array([[1.0, -1.0, 0.0], [-1.95, 1.0, 0.0]])
    with pytest.raises(ex.EvalDomainError, match=r"^math domain error in log\(x_2\)$"):
        net.c_array(Z)


_GUARD_POOL = ["x_1", "0 - x_2", "min(x_2, x_1*x_3)", "max(abs(x_1), abs(x_3)) - 1",
               "log(x_3)", "x_1*0"]
_GUARD_LANES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, math.inf, -math.inf,
                                math.nan, -math.nan])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_GUARD_POOL), st.sampled_from(_GUARD_POOL)),
                min_size=3, max_size=3),
       st.lists(st.tuples(_GUARD_LANES, _GUARD_LANES, _GUARD_LANES, _GUARD_LANES),
                min_size=1, max_size=6))
def test_network_guard_folds_each_distinct_guard_once(guards, rows):
    """The network-wide guard folds a repeated guard once; a repeat cannot change
    the keep-first fold, so the bits, NaN and signed zeros included, and the first
    error are those of the fold over every subsystem's guard."""
    try:
        net = _network(guards, dims=(1, 1, 1))
    except ex.EvalDomainError:  # the jump-set comparison met an undefined jump guard
        assume(False)
    Z = np.array(rows, dtype=float)

    def bits(fn):
        out = _outcome(fn)
        return out if isinstance(out, tuple) else [struct.pack("<d", v) for v in out.tolist()]
    for kind, fold, sides in (("c", ex.lane_max, 0), ("d", ex.lane_min, 1)):
        texts = [pair[sides] for pair in guards]
        assert net._distinct_guards(kind) == [texts.index(t) for t in dict.fromkeys(texts)]
        every = [ex.compile_array(ex.parse(t, net.var_order), net.var_order) for t in texts]
        got = bits(lambda: net.c_array(Z) if kind == "c" else net.d_array(Z))
        want = bits(lambda: ex.in_row_order(lambda cols: fold([fn(cols) for fn in every]), Z))
        assert got == want


def test_network_guards_that_differ_only_in_a_zero_sign_are_both_folded():
    """``Const(0.0) == Const(-0.0)``, so ``==`` takes these guards for repeats; they
    are kept apart, and the fold is the builtin's over both."""
    x = ex.Var("x_1")
    plus, minus = (ex.Min((ex.Const(z), ex.Mul(ex.Const(0.0), x))) for z in (0.0, -0.0))
    assert plus == minus
    subs = [SubsystemSpec(dim=1, flow=[ex.Const(0.0)], jump=[ex.Var(f"x_{i + 1}")],
                          c_guard=g, d_guard=g) for i, g in enumerate((plus, minus))]
    net = compose_network(subs, input_dim=1)
    assert net._distinct_guards("c") == [0, 1]
    Z = np.array([[1.0, 0.0, 0.0]])
    assert struct.pack("<d", net.d_array(Z)[0]) == struct.pack("<d", min(0.0, -0.0, 0.0))


# ---------------------------------------------------------------------------
# block pair draws against the pair-at-a-time sampler


def _with_final_state(monkeypatch, draw):
    """``draw()``'s outcome and the state its generator ends in."""
    made, real = [], np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]
    monkeypatch.setattr(np.random, "default_rng", recording)
    try:
        outcome = _outcome(draw)
    finally:
        monkeypatch.setattr(np.random, "default_rng", real)
    return outcome, made[-1].bit_generator.state


def _assert_matches_pair_loop(monkeypatch, net, spec, kind):
    guard = net.c_array if kind == "c" else net.d_array
    expected, expected_state = _with_final_state(
        monkeypatch, lambda: _reference_sample_set(
            net, lambda X, U: guard(np.concatenate([X, U], axis=1)), spec))
    got, state = _with_final_state(monkeypatch, lambda: sample_set(net, guard, spec))
    _assert_same_pairs(_pairs(net, got), expected)
    assert state == expected_state
    return got


@pytest.mark.parametrize("kind", ["c", "d"])
def test_e1_sets_match_pair_loop_with_generator_state(monkeypatch, kind):
    cfg = build_config(load_json("e1.json"))
    for seed in (0, 1):
        got = _assert_matches_pair_loop(
            monkeypatch, cfg.network, dataclasses.replace(cfg.sampler, seed=seed), kind)
        assert len(got) == cfg.sampler.n_samples and not got.flags.writeable


def test_no_outside_draws_match_pair_loop_with_generator_state(monkeypatch):
    """Flow guard -1: the boundary stratum draws its outside points one at a time."""
    net = _network([("-1", "1")] * 2)
    spec = SamplerSpec(n_samples=500, box_radius=2.0, seed=1)
    assert len(_assert_matches_pair_loop(monkeypatch, net, spec, "c")) == 500


def test_short_set_matches_pair_loop_and_keeps_its_note(monkeypatch):
    from hsgt.lyapunov import _draw_samples
    from hsgt.reporting import VerificationReport
    net = _network([("max(abs(x_1), abs(x_2)) - 0.05", "1")] * 2)
    spec = SamplerSpec(n_samples=50, box_radius=2.0, boundary_fraction=0.04,
                       tie_fraction=0.0, seed=0)
    got = _assert_matches_pair_loop(monkeypatch, net, spec, "c")
    assert 0 < len(got) < 50
    report = VerificationReport(condition="short")
    flow_pts, _jump = _draw_samples(report, net, spec)
    assert flow_pts.tobytes() == got.tobytes()
    assert report.notes == [f"flow samples: {len(got)} of 50 drawn; strata came up short"]


# ---------------------------------------------------------------------------
# tie draws replayed from raw generator words


def _tie_entry_states(monkeypatch):
    """Record the buffered-half flag the replayed generator holds as each tie block
    starts, and the bound of the row draws."""
    entered, real = [], _TieDecoder.take

    def spy(self, k):
        entered.append((self._taken[1], self._n_inside))
        return real(self, k)
    monkeypatch.setattr(_TieDecoder, "take", spy)
    return entered


def test_single_subsystem_ties_draw_rows_only(monkeypatch):
    """One subsystem: ``integers(1)`` draws nothing and no pair is usable, yet each
    attempt still draws its inside row."""
    entered = _tie_entry_states(monkeypatch)
    net = _network([("abs(x_1) - 1", "1 - abs(x_1)")], dims=(1,))
    spec = SamplerSpec(n_samples=400, box_radius=2.0, u_box=[(-1.0, 1.0)], seed=2)
    for kind in ("c", "d"):
        assert len(_assert_matches_pair_loop(monkeypatch, net, spec, kind)) == 400
    assert entered and all(n_inside > 1 for _half, n_inside in entered)


@pytest.mark.parametrize("seed", [0, 3])
def test_three_subsystems_with_one_wider_block_match_pair_loop(monkeypatch, seed):
    """Dims (1, 1, 2): only the pairs (0, 1) and (1, 0) are usable."""
    entered = _tie_entry_states(monkeypatch)
    net = _network([("max(abs(x_1), abs(x_2)) - 1", "x_3 - 0.5"),
                    ("abs(x_2) - 1.5 + 0.5*u_1", "x_1 + x_4"),
                    ("max(abs(x_3), abs(x_4)) - 1", "1 - abs(x_4)")], dims=(1, 1, 2))
    spec = SamplerSpec(n_samples=900, box_radius=1.5, u_box=[(-1.0, 1.0)], seed=seed)
    for kind in ("c", "d"):
        assert len(_assert_matches_pair_loop(monkeypatch, net, spec, kind)) == 900
    assert entered


def test_one_inside_row_ties_match_pair_loop(monkeypatch):
    """A single uniform sample: the row draw ``integers(1)`` takes no word."""
    entered = _tie_entry_states(monkeypatch)
    net = _network([("max(abs(x_1), abs(x_2)) - 1", "1")] * 2)
    spec = SamplerSpec(n_samples=10, box_radius=2.0, boundary_fraction=0.0,
                       tie_fraction=0.9, seed=5)
    got = _assert_matches_pair_loop(monkeypatch, net, spec, "c")
    assert len(got) == 10
    assert entered and {n_inside for _half, n_inside in entered} == {1}


def test_tie_block_entered_with_a_buffered_half_matches_pair_loop(monkeypatch):
    """Tie copies never pass ``| |x_1| - |x_2| | >= 0.1``, so the stratum runs block
    after block; a block of odd length leaves a buffered half word for the next."""
    entered = _tie_entry_states(monkeypatch)
    net = _network([("0.1 - abs(abs(x_1) - abs(x_2))", "1")] * 2)
    spec = SamplerSpec(n_samples=300, box_radius=2.0, tie_fraction=0.25, seed=4)
    assert len(_assert_matches_pair_loop(monkeypatch, net, spec, "c")) == 300
    halves = [half for half, _n_inside in entered]
    assert 0 in halves and 1 in halves


def _scalar_tie_draws(rng, n_inside, net, k):
    """``k`` tie attempts through numpy's scalar calls, as the pair loop draws them."""
    out = [[], [], [], []]
    for _ in range(k):
        row = int(rng.integers(n_inside))
        i, j = int(rng.integers(net.n)), int(rng.integers(net.n))
        if i == j or net.subsystems[i].dim != net.subsystems[j].dim:
            continue
        sign = -1.0 if rng.random() < 0.5 else 1.0
        for col, value in zip(out, (row, i, j, sign)):
            col.append(value)
    return out


_PRIOR = st.one_of(st.just(None), st.integers(1, 2 ** 32 - 1))  # None: one random()
_BOUNDS = st.one_of(st.integers(1, 2 ** 32 - 1),
                    st.sampled_from([1, 2, 3, 3 * 2 ** 30, 3 * 2 ** 30 + 1, 2 ** 31 + 1,
                                     2 ** 32 - 1]))


def _tie_net(dims):
    return SimpleNamespace(n=len(dims), subsystems=[SimpleNamespace(dim=d) for d in dims])


def _decoded(rng, n_inside, net, blocks):
    """The decoder consumed in ``blocks`` of attempts, then closed: its four columns
    as lists."""
    decoder = _TieDecoder(rng, n_inside, net)
    got = [decoder.take(k) for k in blocks]
    decoder.close()
    for cols in got:
        for col, dtype in zip(cols, (np.intp, np.intp, np.intp, np.float64)):
            assert col.dtype == dtype
    return [np.concatenate(col).tolist() for col in zip(*got)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), _BOUNDS,
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(0, 400),
       st.lists(_PRIOR, max_size=5))
def test_tie_draws_match_scalar_calls(seed, n_inside, dims, k, prior):
    """Rows, pairs, signs and the final generator state, buffered half included,
    after prior draws that leave the buffer full, empty or stale.  Near 3*2**30
    about one 32-bit word in four is rejected, so Lemire's loop runs."""
    net = _tie_net(dims)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for bound in prior:
        for rng in (fast, slow):
            rng.random() if bound is None else rng.integers(bound)
    assert _decoded(fast, n_inside, net, [k]) == _scalar_tie_draws(slow, n_inside, net, k)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_tie_draws_cross_word_chunks():
    """Enough attempts to take several chunks of raw words, with rejections."""
    net = _tie_net([1, 1])
    fast, slow = np.random.default_rng(11), np.random.default_rng(11)
    k = 2 * _WORDS
    got = _decoded(fast, 3 * 2 ** 30, net, [k])
    assert got == _scalar_tie_draws(slow, 3 * 2 ** 30, net, k)
    assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), _BOUNDS,
       st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.integers(1, 500), min_size=1, max_size=20),
       st.lists(_PRIOR, max_size=5))
def test_decoder_blocks_match_scalar_calls(seed, n_inside, dims, sizes, prior):
    """One decoder consumed block by block, as the tie stratum does, past two chunks
    of raw words: the attempts of all blocks, and the state after the stratum, are
    those of the scalar calls."""
    net = _tie_net(dims)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for bound in prior:
        for rng in (fast, slow):
            rng.random() if bound is None else rng.integers(bound)
    decoder = _TieDecoder(fast, n_inside, net)
    got, blocks = [], []
    # until the attempts taken use more than two chunks of words, or number 2 * _WORDS
    # (with both bounds 1, an attempt uses no word)
    while decoder._taken[0] <= 2 * _WORDS and sum(blocks) < 2 * _WORDS:
        blocks.append(sizes[len(blocks) % len(sizes)])
        got.append(decoder.take(blocks[-1]))
    decoder.close()
    got = [np.concatenate(col).tolist() for col in zip(*got)]
    assert got == _scalar_tie_draws(slow, n_inside, net, sum(blocks))
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("dims", [[1, 1], [1, 2, 1], [2, 2, 2, 2]])
def test_decoder_decodes_no_chunk_ahead_of_the_attempts_taken(monkeypatch, dims):
    """A stratum takes shrinking blocks, each the attempts it still wants.  A new
    chunk is decoded only once every decoded attempt is taken, so the attempts
    decoded exceed those taken by less than the last chunk holds."""
    chunks, real = [], _TieDecoder._decode

    def counting(self, wanted):
        real(self, wanted)
        chunks.append(len(self._after))
    monkeypatch.setattr(_TieDecoder, "_decode", counting)
    net = _tie_net(dims)
    for seed in range(4):
        chunks.clear()
        blocks = [2000, 1003, 498, 256, 133, 65, 41, 18, 10, 7, 2]
        _decoded(np.random.default_rng(seed), 1500, net, blocks)
        assert 0 <= sum(chunks) - sum(blocks) < chunks[-1]
        assert len(chunks) <= -(-sum(blocks) // (_WORDS // 3)) + 1  # a chunk holds >= _WORDS/3


def _scalar_runs(monkeypatch):
    """Record each replay by the scalar rule inside the chain: the word it starts at,
    the words of its chunk and the word after it."""
    runs, real = [], _TieDecoder._scalar

    def spy(self, count=None):
        start, size = self._pos, len(self._words)
        out = real(self, count)
        if count is None:
            runs.append((start, size, self._pos))
        return out
    monkeypatch.setattr(_TieDecoder, "_scalar", spy)
    return runs


@pytest.mark.parametrize("case", ["inside", "boundary"])
def test_decoder_replays_rejections_like_scalar_calls(monkeypatch, case):
    """A Lemire rejection in the middle of a chunk, with a bound that rejects about
    one word in 1,024, and one whose replay reads past the end of its chunk, with
    a bound that rejects one in four.  The seed is searched for; the case must
    occur."""
    n_inside = 2 ** 32 - 2 ** 22 if case == "inside" else 3 * 2 ** 30
    net = _tie_net([1, 1])
    runs = _scalar_runs(monkeypatch)
    for seed in range(50):
        runs.clear()
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        blocks = [7, 300, 1, 2000, 45, 500]
        got = _decoded(fast, n_inside, net, blocks)
        if case == "inside":
            hit = any(0 < start and end < size - 5 for start, size, end in runs)
        else:
            hit = any(end > size for start, size, end in runs)
        if hit:
            break
    assert hit
    assert got == _scalar_tie_draws(slow, n_inside, net, sum(blocks))
    assert fast.bit_generator.state == slow.bit_generator.state


def test_decoder_memory_stays_within_a_chunk():
    """The decoder holds one chunk of words and its decoded attempts, whatever the
    budget: 10**6 attempts peak within 1.5 times 10**4."""
    net = _tie_net([1, 1])

    def peak(budget):
        rng = np.random.default_rng(5)
        decoder = _TieDecoder(rng, 10 ** 4, net)
        tracemalloc.start()
        try:
            for _ in range(budget // 1000):
                decoder.take(1000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = peak(10 ** 4), peak(10 ** 6)
    assert large <= 1.5 * small, (small, large)
