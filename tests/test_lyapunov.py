"""Composite certificate construction and sampled Lyapunov verification."""

import math

import numpy as np
import pytest

from conftest import (cert_value, gain_matrix_from_candidates, linear_gain_matrix,
                      two_sub_candidates, two_sub_network, with_alpha, with_lambda)
from hsgt import expr as ex
from hsgt.gains import GainMatrix, build_omega_path
from hsgt.kfun import KFun
from hsgt.lyapunov import (CertificateError, JumpSetMismatchError, SubsystemLyapunov,
                           VerifyTolerances, _active_flow_bound, _top_level, active_set,
                           build_composite,
                           verify_composite_flow, verify_composite_jump,
                           verify_subsystem)
from hsgt.sampling import SamplerSpec, flow_set_samples
from reference_hybrid import flow_raw


@pytest.fixture(scope="module")
def e1_like():
    net = two_sub_network()
    cands = two_sub_candidates()
    gm = gain_matrix_from_candidates(cands)
    cert = build_composite(cands, gm, net)
    return net, cands, gm, cert


def test_subsystem_verification_passes(e1_like, small_sampler):
    net, cands, _gm, _cert = e1_like
    for i in (0, 1):
        report = verify_subsystem(cands, i, net, small_sampler)
        assert report.passed, report.violations[:3]


def test_subsystem_verification_fails_for_strong_coupling(small_sampler):
    net = two_sub_network(coupling=2.0)
    cands = two_sub_candidates()  # gains fitted to the weak-coupling case
    report = verify_subsystem(cands, 0, net, small_sampler)
    assert not report.passed
    v = report.violations[0]
    assert v.measured > v.required


def test_subsystem_verification_fails_for_zero_dynamics(small_sampler):
    allowed = ("x_1", "u_1")
    from hsgt.hybrid import SubsystemSpec, compose_network
    spec = SubsystemSpec(dim=1, flow=[ex.Const(0.0)],
                         jump=[ex.parse("0.5*x_1", allowed)],
                         c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name="still")
    net = compose_network([spec], input_dim=1)
    cand = SubsystemLyapunov(v=ex.parse("abs(x_1)", ("x_1",)),
                             psi1=KFun.identity(), psi2=KFun.identity(),
                             alpha=KFun.linear(0.5), lam=KFun.linear(0.5))
    report = verify_subsystem([cand], 0, net, small_sampler)
    assert not report.passed


def test_composite_certificate_matches_hand_values(e1_like):
    _net, _cands, _gm, cert = e1_like
    for t in (0.3, 1.0, 4.0):
        assert cert.lam(t) == pytest.approx(0.5 * t, rel=1e-12)
        assert cert.gamma(t) == pytest.approx(0.5 * t, rel=1e-12)
        assert cert.psi1(t) == pytest.approx(t, rel=1e-12)
        assert cert.psi2(t) == pytest.approx(t, rel=1e-12)
        assert cert.phi(t) == pytest.approx(t, rel=1e-12)
        assert cert.alpha(t) == pytest.approx(0.5 * t, rel=1e-9)
        for sigma in cert.path.sigmas:
            assert sigma(t) == pytest.approx(t, rel=1e-12)
    assert cert_value(cert, np.array([1.0, 0.2])) == pytest.approx(1.0)


def test_single_subsystem_certificate():
    from hsgt.hybrid import SubsystemSpec, compose_network
    allowed = ("x_1", "u_1")
    spec = SubsystemSpec(dim=1, flow=[ex.parse("-x_1 + 0.25*u_1", allowed)],
                         jump=[ex.parse("0.5*x_1", allowed)],
                         c_guard=ex.Const(-1.0),
                         d_guard=ex.parse("1 - abs(x_1)", allowed), name="solo")
    net = compose_network([spec], input_dim=1)
    cand = SubsystemLyapunov(v=ex.parse("abs(x_1)", ("x_1",)),
                             psi1=KFun.identity(), psi2=KFun.identity(),
                             alpha=KFun.linear(0.5), lam=KFun.linear(0.5),
                             gamma_external=KFun.linear(0.5))
    gm = GainMatrix.from_rows([[None]])
    cert = build_composite([cand], gm, net, anchor=[2.0])
    # scaled level: sigma is 2 r, its inverse halves, the contraction commutes
    assert cert.path.sigmas[0](3.0) == pytest.approx(6.0)
    assert cert.lam(1.0) == pytest.approx(0.5)
    assert cert_value(cert, np.array([3.0])) == pytest.approx(1.5)


def test_asymmetric_gains_still_identity_path():
    net = two_sub_network()
    cands = two_sub_candidates()
    cands[0].gamma_internal[1] = KFun.linear(0.5)
    cands[1].gamma_internal[0] = KFun.linear(0.25)
    gm = gain_matrix_from_candidates(cands)
    cert = build_composite(cands, gm, net)
    for t in (0.2, 1.0, 10.0):
        for sigma in cert.path.sigmas:
            assert sigma(t) == pytest.approx(t, rel=1e-12)
        assert cert.lam(t) == pytest.approx(0.5 * t, rel=1e-12)


def test_gain_disagreement_rejected():
    net = two_sub_network()
    cands = two_sub_candidates()
    gm = linear_gain_matrix([[0, 0.9], [0.9, 0]])
    with pytest.raises(CertificateError):
        build_composite(cands, gm, net)


def _column(x):
    """One state as a block of one lane."""
    return np.array(x, dtype=float)[:, None]


def _active(cert, x):
    return np.flatnonzero(active_set(cert.pieces(_column(x))[1])[:, 0]).tolist()


def test_active_set(e1_like):
    _net, _cands, _gm, cert = e1_like
    assert _active(cert, [1.0, 0.2]) == [0]
    assert _active(cert, [0.5, 0.5]) == [0, 1]
    assert _active(cert, [0.0, 0.0]) == [0, 1]


@pytest.mark.parametrize("levels", [
    [1.0, math.nan], [math.nan, 1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, 3.0, 1.0],
    [-1.0, 0.0, -0.0, -0.0, 0.0, -0.0, -2.0, 0.0]])
def test_value_is_the_top_level_as_np_max_takes_it(levels):
    # NaN anywhere makes the value NaN; the sign of a tied zero is np.max's, in every lane
    block = np.array([levels, levels[::-1], levels], dtype=float).T
    got = _top_level(block).tolist()
    assert [repr(v) for v in got] == [repr(float(np.max(lane))) for lane in block.T]


def test_composite_flow_passes_with_margin(e1_like, small_sampler):
    net, _cands, _gm, cert = e1_like
    report = verify_composite_flow(cert, net, small_sampler)
    assert report.passed
    assert report.extras["empirical_alpha_min_ratio"] >= 0.5 - 1e-9


def test_composite_jump_passes(e1_like, small_sampler):
    net, _cands, _gm, cert = e1_like
    report = verify_composite_jump(cert, net, small_sampler)
    assert report.passed


def test_forged_alpha_fails(e1_like, small_sampler):
    net, _cands, _gm, cert = e1_like
    forged = with_alpha(cert, KFun.linear(10.0))
    report = verify_composite_flow(forged, net, small_sampler)
    assert not report.passed
    assert report.violations


def test_forged_lambda_fails(e1_like, small_sampler):
    net, _cands, _gm, cert = e1_like
    forged = with_lambda(cert, KFun.linear(0.1))
    report = verify_composite_jump(forged, net, small_sampler)
    assert not report.passed


def test_jump_passes_through_input_gain_branch(e1_like):
    # with a uselessly small contraction the jump inequality can only hold
    # through the input-gain branch, which dominates on this input box
    net, _cands, _gm, cert = e1_like
    forged = with_lambda(cert, KFun.linear(0.01))
    sampler = SamplerSpec(n_samples=800, box_radius=2.0, u_box=[(2.0, 3.0)], seed=0)
    report = verify_composite_jump(forged, net, sampler)
    assert report.passed


def test_built_gamma_is_class_k(e1_like):
    _net, _cands, _gm, cert = e1_like
    from hsgt.kfun import Classification, at_least
    assert at_least(cert.gamma.classification, Classification.CLASS_K)


def test_weakening_alpha_keeps_passing(e1_like, small_sampler):
    net, _cands, _gm, cert = e1_like
    assert verify_composite_flow(cert, net, small_sampler).passed
    weaker = with_alpha(cert, KFun.linear(0.25))
    assert verify_composite_flow(weaker, net, small_sampler).passed


def test_tie_point_checks_both_pieces(e1_like):
    net, cands, _gm, cert = e1_like
    x, u = [0.5, 0.5], [0.0]
    env = dict(zip(net.state_vars(), x))
    seed = dict(zip(net.state_vars(), flow_raw(net, x + u)))
    assert _active(cert, x) == [0, 1]
    for i in (0, 1):
        _v, _lo, hi = ex.directional_bounds(cands[i].v, env, seed)
        assert hi == pytest.approx(-0.375)           # -0.75 * V at the tie
        assert hi <= -0.25 * cert_value(cert, x) + 1e-12


def test_jump_set_mismatch_refused(small_sampler):
    from hsgt.hybrid import SubsystemSpec, compose_network
    allowed = ("x_1", "x_2", "u_1")
    one = SubsystemSpec(dim=1, flow=[ex.parse("-x_1", allowed)],
                        jump=[ex.parse("0.5*x_1", allowed)],
                        c_guard=ex.Const(-1.0),
                        d_guard=ex.parse("1 - x_1", allowed), name="one")
    two = SubsystemSpec(dim=1, flow=[ex.parse("-x_2", allowed)],
                        jump=[ex.parse("0.5*x_2", allowed)],
                        c_guard=ex.Const(-1.0), d_guard=ex.Const(1.0), name="two")
    net = compose_network([one, two], input_dim=1)
    cands = two_sub_candidates(gain=0.0)
    for cand in cands:
        cand.gamma_internal.clear()
    gm = gain_matrix_from_candidates(cands)
    cert = build_composite(cands, gm, net)
    with pytest.raises(JumpSetMismatchError):
        verify_composite_flow(cert, net, small_sampler)
    with pytest.raises(JumpSetMismatchError):
        verify_composite_jump(cert, net, small_sampler)


def test_sandwich_property(e1_like):
    _net, _cands, _gm, cert = e1_like
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.uniform(-3.0, 3.0, 2)
        v = cert_value(cert, x)
        mag = float(np.max(np.abs(x)))
        assert cert.psi1(mag) <= v + 1e-12
        assert v <= cert.psi2(mag) + 1e-12


def test_lambda_below_identity_on_grid(e1_like):
    _net, _cands, _gm, cert = e1_like
    for t in np.geomspace(1e-6, 1e6, 64):
        assert cert.lam(float(t)) < float(t)


@pytest.mark.parametrize("x, active, worst_i", [
    ([0.5, 0.5], [0, 1], 0),      # tie, equal pieces: the first one
    ([0.5, -0.5], [0, 1], 1),     # tie: the worse of the two scaled pieces
    ([0.5, -0.499], [0], 0),      # just off the tie: the active piece alone, although
    ([0.499, -0.5], [1], 1),      # in the first case the inactive one is worse
])
def test_active_flow_bound_is_worst_active_piece(e1_like, x, active, worst_i):
    net, _cands, _gm, cert = e1_like
    u = [-1.0]
    flow = flow_raw(net, x + u)
    scaled = [cert.path.sigma_invs[i].linear_slope * math.copysign(1.0, x[i]) * flow[i]
              for i in (0, 1)]
    W, levels = cert.pieces(_column(x))
    assert _active(cert, x) == active
    worst, i = _active_flow_bound(cert, net, _column(x + u), W, levels,
                                  np.array([cert_value(cert, x)]))
    assert (worst.tolist(), i.tolist()) == ([pytest.approx(max(scaled[j] for j in active))],
                                            [worst_i])


def test_composite_flow_matches_per_sample_oracle(e1_like, small_sampler):
    """Margins, checked count and violations equal a sample-by-sample recomputation
    from the tree interpreter, the chain-rule bounds and the path slopes."""
    net, cands, _gm, cert = e1_like
    forged = with_alpha(cert, KFun.linear(0.7))  # tight enough to fail on some samples
    sampler = SamplerSpec(n_samples=600, box_radius=2.0, u_box=[(-0.5, 0.5)], seed=4)
    report = verify_composite_flow(forged, net, sampler)
    margins, failed = [], 0
    n = net.state_dim
    for x, u in ((z[:n], z[n:]) for z in flow_set_samples(net, sampler)):
        env = dict(zip(net.state_vars(), x.tolist()))
        levels = [cert.path.sigma_invs[i](ex.evaluate(c.v, env)) for i, c in enumerate(cands)]
        value = max(levels)
        if value < cert.gamma(float(np.max(np.abs(u)))):
            continue
        f = dict(zip(net.state_vars(), flow_raw(net, x.tolist() + u.tolist())))
        worst = max(cert.path.sigma_invs[i].linear_slope
                    * ex.directional_bounds(cands[i].v, env, f)[2]
                    for i in (0, 1) if levels[i] >= value - 1e-9)
        margins.append(-forged.alpha(value) + 1e-7 - worst)
        failed += margins[-1] < 0.0
    assert report.samples_checked == len(margins)
    assert 0 < len(report.violations) == failed
    assert report.margin_min == min(margins)


def test_pipeline_end_to_end(small_sampler):
    net = two_sub_network()
    cands = two_sub_candidates()
    gm = gain_matrix_from_candidates(cands)
    from hsgt.gains import small_gain_check
    verdict = small_gain_check(gm)
    assert verdict.holds
    for i in (0, 1):
        assert verify_subsystem(cands, i, net, small_sampler).passed
    cert = build_composite(cands, gm, net, verdict=verdict)
    assert verify_composite_flow(cert, net, small_sampler).passed
    assert verify_composite_jump(cert, net, small_sampler).passed
