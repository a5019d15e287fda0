"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see the summary lines while the suite executes.
"""

import contextlib
import json
import math

import numpy as np
import pytest

from conftest import (cert_value, config_path, linear_gain_matrix, load_json, maxlin_radius,
                      random_linear_ensemble)
from hsgt.config import load_config
from hsgt.equiv import to_v_form, to_w_form
from hsgt.gains import build_omega_path, gamma_max_apply, small_gain_check
from hsgt.hybrid import InputSignal, SimOptions, simulate
from hsgt.kfun import Classification, KFun, at_least, compose, inverse_kfun, invert
from hsgt.lyapunov import (VerifyTolerances, build_composite, verify_composite_flow,
                           verify_composite_jump, verify_subsystem)
from hsgt.trajectories import (AGEstimate, PreGSEstimate, TrajectoryGains, check_ag,
                               fit_empirical_gain, initial_condition_grid,
                               run_estimate_batch)
from reference_hybrid import iter_samples, value_at

TOL_1E7 = VerifyTolerances(flow=1e-7, jump_rel=1e-7)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared ensemble for criteria 1, 2, and 9


@pytest.fixture(scope="module")
def linear_ensemble():
    out = []
    for coeffs in random_linear_ensemble(count=50, max_n=6, seed=20240810):
        rho = maxlin_radius(coeffs)
        gm = linear_gain_matrix(coeffs)
        verdict = small_gain_check(gm)
        out.append((coeffs, rho, gm, verdict))
    return out


@pytest.fixture(scope="module")
def accepted_paths(linear_ensemble):
    paths = []
    for _coeffs, rho, gm, verdict in linear_ensemble:
        if abs(rho - 1.0) < 0.02 or not verdict.holds:
            continue
        paths.append((gm, build_omega_path(gm, verdict=verdict)))
    return paths


@pytest.fixture(scope="module")
def e1_setup():
    cfg = load_config(config_path("e1.json"))
    verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
    cert = build_composite(cfg.candidates, cfg.gain_matrix, cfg.network,
                           anchor=cfg.anchor, verdict=verdict, options=cfg.sg_options)
    return cfg, verdict, cert


def test_criterion_1_small_gain_oracle_agreement(linear_ensemble):
    with criterion(1, "small-gain oracle agreement"):
        compared = 0
        for _coeffs, rho, _gm, verdict in linear_ensemble:
            if abs(rho - 1.0) < 0.02:
                continue
            compared += 1
            assert not verdict.methods_disagreed
            assert verdict.holds == (rho < 1.0), f"disagreement at radius {rho}"
        assert compared >= 30  # the margin band must not swallow the ensemble


def test_criterion_2_omega_path_strict_decrease(linear_ensemble, accepted_paths):
    with criterion(2, "scaling-path strict decrease"):
        assert accepted_paths, "no accepted matrices in the ensemble"
        grid = np.geomspace(1e-8, 1e8, 128)
        for gm, path in accepted_paths:
            for r in grid:
                sigma = path.vector_eval(float(r))
                image = gamma_max_apply(gm, sigma)
                assert np.all(image < sigma), f"violated at r={float(r)}"


def test_criterion_3_certificate_pipeline(e1_setup):
    with criterion(3, "certificate pipeline on the reference network"):
        cfg, verdict, cert = e1_setup
        assert verdict.holds
        for i in range(cfg.network.n):
            report = verify_subsystem(cfg.candidates, i, cfg.network, cfg.sampler,
                                      TOL_1E7)
            assert report.passed, report.violations[:3]
        for t in (0.2, 1.0, 3.7):
            assert cert.lam(t) == pytest.approx(0.5 * t, rel=1e-12)
            assert cert.gamma(t) == pytest.approx(0.5 * t, rel=1e-12)
            for sigma in cert.path.sigmas:
                assert sigma(t) == pytest.approx(t, rel=1e-12)
        assert cfg.sampler.n_samples == 10000
        flow = verify_composite_flow(cert, cfg.network, cfg.sampler, TOL_1E7)
        jump = verify_composite_jump(cert, cfg.network, cfg.sampler, TOL_1E7)
        assert flow.passed and not flow.violations
        assert jump.passed and not jump.violations


def test_criterion_4_falsification_sensitivity():
    with criterion(4, "falsification sensitivity"):
        cfg = load_config(config_path("e1_unstable.json"))
        verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
        assert not verdict.holds
        if verdict.witness_cycle is not None:
            w = verdict.witness_cycle
            from hsgt.gains import compose_cycle
            assert compose_cycle(cfg.gain_matrix, w.indices, w.radius) >= w.radius
        else:
            s = verdict.witness_vector
            assert np.all(gamma_max_apply(cfg.gain_matrix, s) >= s)
        report = verify_subsystem(cfg.candidates, 0, cfg.network, cfg.sampler,
                                  TOL_1E7)
        assert not report.passed
        v = report.violations[0]
        assert v.measured > v.required


def test_criterion_5_simulator_accuracy():
    with criterion(5, "simulator accuracy and integration order"):
        cfg = load_config(config_path("e1_decoupled.json"))
        sim = cfg.simulation
        assert sim.options.step == pytest.approx(1e-3)
        sol = simulate(cfg.network, sim.x0, sim.input_signal, sim.horizon,
                       sim.max_jumps, sim.options)
        value = value_at(sol.x, 1.0, 2)[0]
        assert abs(value - 0.5 * math.exp(-1.0)) <= 1e-6
        errors = []
        for h in (0.1, 0.05):
            sol_h = simulate(cfg.network, sim.x0, sim.input_signal, sim.horizon,
                             sim.max_jumps, SimOptions(step=h))
            errors.append(abs(value_at(sol_h.x, 1.0, 2)[0] - 0.5 * math.exp(-1.0)))
        factor = errors[0] / errors[1]
        assert 8.0 <= factor <= 32.0, f"observed order factor {factor}"


def test_criterion_6_frozen_pathology():
    with criterion(6, "frozen-state pathology breaks the asymptotic gain"):
        cfg = load_config(config_path("frozen.json"))
        sim = cfg.simulation
        sol = simulate(cfg.network, sim.x0, sim.input_signal, sim.horizon,
                       sim.max_jumps, sim.options)
        for _t, _k, value, _j in iter_samples(sol.x):
            assert value[1] == pytest.approx(5.0)
        traj = cfg.trajectories
        batch = check_ag(sol, traj.estimate, cfg.network)
        assert not batch.passed


def test_criterion_7_form_round_trip(e1_setup):
    with criterion(7, "certificate-form round trip"):
        cfg, _verdict, cert = e1_setup
        wf, report_w = to_w_form(cert, cfg.network, cfg.sampler, tolerances=TOL_1E7)
        for r in (0.1, 1.0, 5.0):
            assert wf.gamma_bar(r) == pytest.approx((2.0 / 3.0) * r, abs=1e-7 * max(1.0, r))
        assert report_w.passed and not report_w.violations
        gamma2, lam2, report_v = to_v_form(wf, cfg.sampler, tolerances=TOL_1E7)
        assert report_v.passed and not report_v.violations
        rng = np.random.default_rng(2)
        for _ in range(500):
            x, u = rng.uniform(-2.0, 2.0, 2).tolist(), [0.0]
            if cfg.network.d_raw(x + u) > 0.0:
                continue
            lhs = cert_value(cert, cfg.network.jump_raw(x + u))
            rhs = max(lam2(cert_value(cert, x)), gamma2(0.0))
            assert lhs <= rhs + 1e-7


def test_criterion_8_trajectory_theorems(e1_setup):
    with criterion(8, "trajectory estimates and empirical gain bound"):
        cfg, _verdict, cert = e1_setup
        net = cfg.network
        ics = initial_condition_grid(20, 2.0, net.state_dim, seed=1)
        levels = [0.0, 0.5, 1.0]
        inputs = [InputSignal.constant([lvl]) for lvl in levels]
        opts = SimOptions(step=0.004, record_every=4)
        gains = TrajectoryGains.uniform(2, KFun.linear(0.5), KFun.linear(0.5))
        pre_gs = PreGSEstimate(sigmas=[KFun.identity()] * 2, gains=gains,
                               composite_sigma=KFun.identity(),
                               composite_gamma=KFun.linear(0.5))
        batch = run_estimate_batch(net, pre_gs, ics, inputs, 40.0, 20, opts)
        assert batch.passed
        ag = AGEstimate(gains=TrajectoryGains.uniform(2, KFun.identity(),
                                                      KFun.identity()),
                        composite_gamma=KFun.identity())
        batch_ag = run_estimate_batch(net, ag, ics, inputs, 40.0, 20, opts)
        assert batch_ag.passed
        table = fit_empirical_gain(net, [0.5, 1.0, 2.0], 40.0, 20, opts=opts)
        bound = compose(inverse_kfun(cert.psi1), cert.gamma)
        for level, measured in table:
            assert measured is not None
            assert measured <= bound(level) + 1e-9


def test_criterion_9_inversion_round_trips(linear_ensemble, accepted_paths, e1_setup):
    with criterion(9, "inversion round trips across the function inventory"):
        _cfg, _verdict, cert = e1_setup
        inventory = [cert.lam, cert.gamma, cert.psi1, cert.psi2]
        inventory.extend(cert.path.sigmas)
        for _coeffs, _rho, gm, _verdict2 in linear_ensemble:
            for row in gm.entries:
                for entry in row:
                    if not entry.is_zero:
                        inventory.append(entry)
        for _gm, path in accepted_paths:
            inventory.extend(path.sigmas)
        rng = np.random.default_rng(9)
        checked = 0
        for f in inventory:
            if not at_least(f.classification, Classification.CLASS_K_INF):
                continue
            checked += 1
            for r in np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 100)):
                r = float(r)
                assert invert(f, f(r)) == pytest.approx(r, rel=1e-8)
        assert checked >= 50
