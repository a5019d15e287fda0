"""Trajectory-level estimate checks on simulated solution pairs."""

import math

import numpy as np
import pytest

from conftest import two_sub_network
from hsgt import trajectories
from hsgt.hybrid import InputSignal, SimOptions, simulate
from hsgt.kfun import KFun
from hsgt.trajectories import (AGEstimate, Beta, ISSEstimate, PreGSEstimate,
                               TrajectoryError, TrajectoryGains, WindowedNorms,
                               check_ag, check_iss, check_pre_gs,
                               check_zero_input_prestability, fit_empirical_gain,
                               initial_condition_grid, run_estimate_batch)
from reference_hybrid import sup_norm

OPTS = SimOptions(step=0.005, record_every=2)


@pytest.fixture(scope="module")
def e1_net():
    return two_sub_network()


@pytest.fixture(scope="module")
def free_net():
    # same dynamics with flow allowed everywhere and no jumps
    return two_sub_network(box_guards=False)


def sim(net, x0, level=0.0, horizon=20.0, jumps=10):
    return simulate(net, x0, InputSignal.constant([level]), horizon, jumps, OPTS)


def half_gains(n=2):
    return TrajectoryGains.uniform(n, KFun.linear(0.5), KFun.linear(0.5))


# ---------------------------------------------------------------------------
# windowed norms


def test_windowed_norms_monotone(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    norms = WindowedNorms(sol, e1_net)
    for arr in norms.sub_prefix + [norms.full_prefix, norms.u_prefix]:
        assert np.all(np.diff(arr) >= -1e-15)


def windowed_full(norms: WindowedNorms, t: float, k: float) -> float:
    """The full-state prefix norm over the samples ordered at or before (t, k)."""
    idx = int(np.searchsorted(norms.sums, t + k + 1e-12, side="right")) - 1
    if idx < 0:
        raise TrajectoryError("window before the first sample")
    return float(norms.full_prefix[idx])


def test_windowed_norms_match_signal_sup(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    norms = WindowedNorms(sol, e1_net)
    assert windowed_full(norms, 0.0, 2) == pytest.approx(sup_norm(sol.x, (0.0, 2)))
    assert windowed_full(norms, 0.0, 2) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# pointwise estimates


def test_iss_passes_with_moderate_decay(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    est = ISSEstimate(betas=[Beta.exponential(1.0, 0.4)] * 2, gains=half_gains())
    assert check_iss(sol, est, e1_net).passed


def test_iss_fails_with_aggressive_decay(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    est = ISSEstimate(betas=[Beta.exponential(1.0, 10.0)] * 2, gains=half_gains())
    result = check_iss(sol, est, e1_net)
    assert not result.passed
    worst = max(r.worst_excess for r in result.results)
    assert worst > 0


def test_iss_trivial_zero_run(e1_net):
    sol = sim(e1_net, [0.0, 0.0])
    est = ISSEstimate(betas=[Beta.exponential(1.0, 0.4)] * 2, gains=half_gains())
    assert check_iss(sol, est, e1_net).passed


def test_iss_upper_envelope_with_fitted_ratio_gains(e1_net):
    """A constant-in-time bound plus measured windowed-ratio gains always holds."""
    sol = sim(e1_net, [2.0, 0.0], level=0.5)
    from hsgt import expr as ex
    flat = Beta.from_expr(ex.parse("r", ("r", "t", "k")))
    norms = WindowedNorms(sol, e1_net)
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            if i == j:
                row.append(KFun.zero())
                continue
            window = norms.sub_prefix[j][norms.window_idx]
            ok = window > 0
            ratio = float(np.max(norms.sub_mag[i][ok] / window[ok]))
            row.append(KFun.linear(max(ratio, 1e-9)))
        rows.append(row)
    est = ISSEstimate(betas=[flat] * 2,
                      gains=TrajectoryGains(rows, [KFun.zero()] * 2))
    assert check_iss(sol, est, e1_net).passed


def test_pre_gs_passes_with_identity_sigma(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    est = PreGSEstimate(sigmas=[KFun.identity()] * 2, gains=half_gains(),
                        composite_sigma=KFun.identity(),
                        composite_gamma=KFun.linear(0.5))
    assert check_pre_gs(sol, est, e1_net).passed


def test_pre_gs_fails_at_initial_point_with_shrunk_sigma(e1_net):
    sol = sim(e1_net, [2.0, 0.0])
    est = PreGSEstimate(sigmas=[KFun.linear(0.4)] * 2, gains=half_gains())
    result = check_pre_gs(sol, est, e1_net)
    assert not result.passed
    bad = result.results[0]
    assert bad.worst_point["t"] == pytest.approx(0.0)
    assert bad.worst_point["k"] == 0


def test_pre_gs_constant_input_fixed_point_bound(e1_net):
    sol = sim(e1_net, [0.0, 0.0], level=1.0, horizon=30.0)
    norms = WindowedNorms(sol, e1_net)
    assert norms.full_inf() == pytest.approx(1.0 / 3.0, abs=1e-3)
    est = PreGSEstimate(sigmas=[KFun.identity()] * 2, gains=half_gains(),
                        composite_sigma=KFun.identity(),
                        composite_gamma=KFun.linear(0.5))
    assert check_pre_gs(sol, est, e1_net).passed


# ---------------------------------------------------------------------------
# asymptotic gain


def test_ag_zero_input(e1_net):
    sol = sim(e1_net, [2.0, 0.0], horizon=40.0)
    est = AGEstimate(gains=half_gains(), composite_gamma=KFun.identity())
    batch = check_ag(sol, est, e1_net)
    assert batch.passed
    assert batch.metadata["bounded_up_to_horizon"] <= 2.0 + 1e-9


def test_ag_constant_input_equilibrium(e1_net):
    sol = sim(e1_net, [2.0, 0.0], level=1.0, horizon=40.0)
    est = AGEstimate(gains=TrajectoryGains.uniform(2, KFun.identity(), KFun.identity()),
                     composite_gamma=KFun.identity())
    batch = check_ag(sol, est, e1_net)
    assert batch.passed
    tail = batch.results[-1].worst_point["tail_max"]
    assert tail == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_ag_requires_complete_run():
    net = two_sub_network(box_guards=False, stable=False)
    sol = simulate(net, [1.0, 0.5], InputSignal.zero(1), 2000.0, 0,
                   SimOptions(step=0.01, record_every=4))
    assert sol.termination == "numerical_failure"
    est = AGEstimate(gains=half_gains())
    with pytest.raises(TrajectoryError):
        check_ag(sol, est, net)


def test_ag_frozen_pathology_fails():
    from hsgt import expr as ex
    from hsgt.hybrid import SubsystemSpec, compose_network
    allowed = ("x_1", "x_2", "u_1")
    latch = SubsystemSpec(dim=1, flow=[ex.parse("-x_1", allowed)],
                          jump=[ex.parse("x_1", allowed)],
                          c_guard=ex.Const(-1.0),
                          d_guard=ex.parse("1 - x_1", allowed), name="latch")
    bystander = SubsystemSpec(dim=1, flow=[ex.parse("-x_2", allowed)],
                              jump=[ex.parse("x_2", allowed)],
                              c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0),
                              name="bystander")
    net = compose_network([latch, bystander], input_dim=1)
    sol = simulate(net, [1.0, 5.0], InputSignal.zero(1), 5.0, 8)
    est = AGEstimate(gains=TrajectoryGains.uniform(2, KFun.zero(), KFun.zero()),
                     composite_gamma=KFun.zero())
    batch = check_ag(sol, est, net)
    assert not batch.passed
    tails = {r.label: r.worst_point["tail_max"] for r in batch.results
             if "subsystem" in (r.worst_point or {})}
    assert tails["ag-sub2"] == pytest.approx(5.0)


def test_ag_tail_stable_under_horizon_doubling(e1_net):
    tails = []
    for horizon in (30.0, 60.0):
        sol = sim(e1_net, [2.0, 0.0], horizon=horizon)
        norms = WindowedNorms(sol, e1_net)
        threshold = 0.8 * norms.sums[-1]
        tails.append(float(np.max(norms.full_mag[norms.sums >= threshold])))
    assert abs(tails[0] - tails[1]) < 1e-3


# ---------------------------------------------------------------------------
# contrapositive probe


def test_small_gain_contrapositive_on_coupling_strength():
    stable = two_sub_network(coupling=0.25, box_guards=False)
    unstable = two_sub_network(coupling=1.5, box_guards=False)
    est_iss = ISSEstimate(betas=[Beta.exponential(1.0, 0.4)] * 2, gains=half_gains())
    est_ag = AGEstimate(gains=half_gains(), composite_gamma=KFun.linear(0.5))
    opts = SimOptions(step=0.005, record_every=2)
    sol_ok = simulate(stable, [1.0, 0.5], InputSignal.zero(1), 40.0, 0, opts)
    assert check_iss(sol_ok, est_iss, stable).passed
    assert check_ag(sol_ok, est_ag, stable).passed
    sol_bad = simulate(unstable, [1.0, 0.5], InputSignal.zero(1), 15.0, 0, opts)
    assert not check_iss(sol_bad, est_iss, unstable).passed
    assert not check_ag(sol_bad, est_ag, unstable).passed


# ---------------------------------------------------------------------------
# zero-input excursions and empirical gains


def test_zero_input_prestability_table(e1_net):
    grid = [0.25, 0.5, 0.75, 1.0]
    batch = check_zero_input_prestability(e1_net, grid, grid, horizon=10.0,
                                          max_jumps=4, opts=OPTS)
    assert batch.passed
    for row in batch.metadata["table"]:
        assert row["radius"] == pytest.approx(row["bound"])


def test_zero_input_prestability_fails_for_unstable():
    net = two_sub_network(box_guards=False, stable=False, coupling=0.0)
    batch = check_zero_input_prestability(net, [0.25, 0.5], [0.5, 1.0],
                                          horizon=8.0, max_jumps=0, opts=OPTS)
    assert not batch.passed


def test_zero_input_prestability_trivial_large_bound(e1_net):
    batch = check_zero_input_prestability(e1_net, [0.5], [100.0], horizon=5.0,
                                          max_jumps=4, opts=OPTS)
    assert batch.passed


def test_fit_empirical_gain_matches_equilibria(e1_net):
    table = fit_empirical_gain(e1_net, [0.5, 1.0, 2.0], horizon=40.0,
                               max_jumps=10, opts=OPTS)
    values = [v for _lvl, v in table]
    assert values == pytest.approx([1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0], abs=2e-3)
    assert values == sorted(values)


def test_fit_empirical_gain_zero_level(e1_net):
    table = fit_empirical_gain(e1_net, [0.0], horizon=10.0, max_jumps=4, opts=OPTS)
    assert table[0][1] == pytest.approx(0.0, abs=1e-12)


def test_run_errors_other_than_failed_runs_propagate(e1_net, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed run")
    monkeypatch.setattr(trajectories, "simulate", broken)
    with pytest.raises(TypeError):
        check_zero_input_prestability(e1_net, [0.5], [1.0], horizon=1.0, max_jumps=2)
    with pytest.raises(TypeError):
        fit_empirical_gain(e1_net, [0.5], horizon=1.0, max_jumps=2)


# ---------------------------------------------------------------------------
# batch driver


def test_batch_driver_runs_grid(e1_net):
    est = PreGSEstimate(sigmas=[KFun.identity()] * 2, gains=half_gains(),
                        composite_sigma=KFun.identity(),
                        composite_gamma=KFun.linear(0.5))
    ics = initial_condition_grid(4, 2.0, 2, seed=1)
    inputs = [InputSignal.zero(1), InputSignal.constant([0.5])]
    batch = run_estimate_batch(e1_net, est, ics, inputs, horizon=15.0,
                               max_jumps=8, opts=OPTS)
    assert batch.passed
    assert len(batch.results) == 4 * 2 * 3  # two subsystems plus composed per run


def test_batch_driver_rejects_empty(e1_net):
    est = AGEstimate(gains=half_gains())
    with pytest.raises(TrajectoryError):
        run_estimate_batch(e1_net, est, [], [InputSignal.zero(1)], 5.0, 2)


def test_beta_validation():
    with pytest.raises(TrajectoryError):
        Beta.exponential(0.5, 1.0)
    Beta.exponential(2.0, 0.3).validate()
    from hsgt import expr as ex
    growing = Beta.from_expr(ex.parse("r*(1 + t)", ("r", "t", "k")))
    with pytest.raises(TrajectoryError):
        growing.validate()
