"""Certificate-form transformations and their sampled verification."""

import dataclasses

import numpy as np
import pytest

from conftest import cert_value, gain_matrix_from_candidates, two_sub_candidates, two_sub_network
from hsgt import expr as ex
from hsgt.equiv import TransformError, majorize_lambda, to_v_form, to_w_form
from hsgt.kfun import Classification, KFun
from hsgt.lyapunov import build_composite
from hsgt.sampling import SamplerSpec


@pytest.fixture(scope="module")
def e1_like():
    net = two_sub_network()
    cands = two_sub_candidates()
    gm = gain_matrix_from_candidates(cands)
    return net, build_composite(cands, gm, net)


@pytest.fixture(scope="module")
def sampler():
    return SamplerSpec(n_samples=1500, box_radius=2.0, u_box=None, seed=0)


GRID = np.geomspace(1e-6, 1e6, 129)


def test_majorize_linear_contraction():
    rho = majorize_lambda(KFun.linear(0.5), GRID)
    for r in (0.2, 1.0, 7.3, 1e3):
        assert rho(r) == pytest.approx(0.75 * r, rel=1e-12)
    assert rho.classification is Classification.CLASS_K_INF


def test_majorize_zero_contraction():
    rho = majorize_lambda(KFun.zero(), GRID)
    for r in (0.4, 2.0):
        assert rho(r) == pytest.approx(0.5 * r, rel=1e-12)


def test_majorize_non_monotone_uses_running_max():
    lam = KFun.from_text("min(0.6*s, 0.7 - 0.1*s)")
    grid = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    rho = majorize_lambda(lam, grid)
    assert rho(2.0) == pytest.approx(0.5 * (0.6 + 2.0), rel=1e-12)


def test_majorize_rejects_non_contraction():
    with pytest.raises(TransformError):
        majorize_lambda(KFun.linear(1.5), GRID)


@pytest.mark.parametrize("lam_text", ["0.5*s", "0.8*s", "0.3*s + 0.2*s/(1+s)"])
def test_majorant_sandwich(lam_text):
    lam = KFun.from_text(lam_text)
    rho = majorize_lambda(lam, GRID)
    for r in GRID:
        r = float(r)
        assert lam(r) <= rho(r) + 1e-12 * r
        assert rho(r) < r


def test_w_form_threshold_gain_is_two_thirds(e1_like, sampler):
    net, cert = e1_like
    wf, report = to_w_form(cert, net, sampler)
    assert report.passed
    for r in (0.3, 1.0, 2.5):
        assert wf.gamma_bar(r) == pytest.approx((2.0 / 3.0) * r, rel=1e-9)
    assert wf.alpha2_bar(1.0) == pytest.approx(0.25, abs=1e-6)
    assert wf.alpha1_bar(1.0) == pytest.approx(0.5, rel=1e-9)


def test_w_form_jump_decrease_example(e1_like, sampler):
    net, cert = e1_like
    wf, _report = to_w_form(cert, net, sampler)
    x = [1.0, 0.0]
    drop = cert_value(wf.v_form, net.jump_raw(x + [0.0])) - cert_value(wf.v_form, x)
    assert drop == pytest.approx(-0.5)
    assert drop <= -wf.alpha2_bar(1.0) + 1e-7


def test_v_form_recovery_linear_case(e1_like, sampler):
    net, cert = e1_like
    wf, _ = to_w_form(cert, net, sampler)
    exact = dataclasses.replace(wf, alpha2_bar=KFun.linear(0.25))
    gamma2, lam2, report = to_v_form(exact, sampler)
    assert report.passed
    assert lam2(1.0) == pytest.approx(0.75, rel=1e-9)
    assert lam2(3.0) == pytest.approx(2.25, rel=1e-9)
    assert gamma2(1.0) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_round_trip_jump_condition_against_original(e1_like, sampler):
    net, cert = e1_like
    wf, report_w = to_w_form(cert, net, sampler)
    gamma2, lam2, report_v = to_v_form(wf, sampler)
    assert report_w.passed and report_v.passed
    # spot check the recovered inequality directly on jump-set points
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 2).tolist()
        if net.d_raw(x + [0.0]) > 0.0:
            continue
        lhs = cert_value(cert, net.jump_raw(x + [0.0]))
        assert lhs <= lam2(cert_value(cert, x)) + 1e-7


def test_w_form_deterministic(e1_like, sampler):
    net, cert = e1_like
    wf1, _ = to_w_form(cert, net, sampler)
    wf2, _ = to_w_form(cert, net, sampler)
    for r in np.geomspace(1e-3, 1e3, 13):
        assert wf1.gamma_bar(float(r)) == pytest.approx(wf2.gamma_bar(float(r)), abs=1e-9)
        assert wf1.alpha2_bar(float(r)) == wf2.alpha2_bar(float(r))


def test_recovered_lambda_below_identity(e1_like, sampler):
    net, cert = e1_like
    wf, _ = to_w_form(cert, net, sampler)
    _gamma2, lam2, _report = to_v_form(wf, sampler)
    for t in np.geomspace(1e-4, 1e4, 33):
        assert lam2(float(t)) < float(t)
