"""Transformations between the two certificate forms, with sampled verification.

The gain-implication form bounds the decrease by functions of the certificate
value; the norm-threshold form bounds it by functions of the state norm once
the state dominates a threshold gain of the input.  Both directions are
constructive here: the jump contraction is majorized by an explicitly built
strictly-increasing function, the threshold gain is composed from inverses,
and the jump decay of the norm-threshold form is fitted from sphere minima of
the certificate's one-step decrease.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .hybrid import NetworkSpec
from .kfun import (Classification, KFun, at_least, compose, inverse_kfun,
                   kfun_to_json, pointwise_max, require_class)
from .lyapunov import (CompositeCertificate, VerifyTolerances, _active_flow_bound,
                       _check_samples, _draw_samples, _everywhere, _max_norm)
from .reporting import VerificationReport
from .sampling import SampleMemo, SamplerEmptyError, SamplerSpec, jump_set_samples, \
    sphere_directions


# Radii on which both transformations build and check their functions.
FORM_GRID = np.geomspace(1e-8, 1e8, 129)


class TransformError(Exception):
    pass


def majorize_lambda(lam: KFun, grid: Sequence[float]) -> KFun:
    """Strictly increasing majorant of a below-identity contraction.

    On each grid point the majorant averages the running maximum of the
    contraction with the identity, which keeps it strictly between the
    contraction and the identity; values between grid points interpolate
    linearly and stay monotone.
    """
    xs = [float(r) for r in grid if r > 0.0]
    if not xs or any(b <= a for a, b in zip(xs, xs[1:])):
        raise TransformError("majorization grid must be positive and increasing")
    running = 0.0
    ys = []
    for r in xs:
        v = lam(r)
        if v >= r:
            raise TransformError(f"contraction is not below the identity at s={r!r}")
        if v < 0.0:
            raise TransformError(f"contraction is negative at s={r!r}")
        running = max(running, v)
        ys.append(0.5 * (running + r))
    rho = KFun.piecewise_linear(xs, ys, "identity-averaged majorant")
    if not at_least(rho.classification, Classification.CLASS_K_INF):
        raise TransformError("majorant failed class-Kinf checks")
    return rho


@dataclass
class WFormCertificate:
    """Norm-threshold certificate sharing the composite evaluator."""

    v_form: CompositeCertificate
    net: NetworkSpec
    psi1_bar: KFun
    psi2_bar: KFun
    gamma_bar: KFun
    alpha1_bar: KFun
    alpha2_bar: KFun
    rho: KFun

    def to_json(self) -> dict:
        return {
            "form": "norm-threshold",
            "psi1": kfun_to_json(self.psi1_bar),
            "psi2": kfun_to_json(self.psi2_bar),
            "gamma_bar": kfun_to_json(self.gamma_bar),
            "alpha1_bar": kfun_to_json(self.alpha1_bar),
            "alpha2_bar": kfun_to_json(self.alpha2_bar),
            "rho": kfun_to_json(self.rho),
        }


def _fit_jump_decay(cert: CompositeCertificate, rho: KFun, box_radius: float,
                    seed: int) -> KFun:
    """Largest increasing lower bound of the one-step decrease over state spheres:
    40 log-spaced radii up to ``box_radius``, 64 directions each."""
    rng = np.random.default_rng(seed)
    dim = cert.net.state_dim
    radii = np.geomspace(box_radius * 1e-4, box_radius, 40)
    dirs = sphere_directions(dim, 64, rng)
    points = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)  # radius by radius

    def decrease(state):
        v = cert.values(state)
        return v - rho.array(v)
    drops = ex.in_row_order(decrease, points).reshape(len(radii), -1)
    minima = [functools.reduce(min, row, math.inf) for row in drops.tolist()]
    lower = list(minima)
    for i in range(len(lower) - 2, -1, -1):
        lower[i] = min(lower[i], lower[i + 1])
    values = []
    prev = 0.0
    for b in lower:
        v = max(b * (1.0 - 1e-9), prev * (1.0 + 1e-12))
        values.append(v)
        prev = v
    if values[0] <= 0.0:
        raise TransformError("fitted jump decay is not positive on the sphere grid")
    fit = KFun.piecewise_linear(list(radii), values, "fitted jump decay over spheres")
    require_class(fit, Classification.CLASS_K_INF, "fitted jump decay")
    return fit


def to_w_form(cert: CompositeCertificate, net: NetworkSpec, sampler: SamplerSpec,
              tolerances: Optional[VerifyTolerances] = None, memo: Optional[SampleMemo] = None
              ) -> Tuple[WFormCertificate, VerificationReport]:
    """Derive the norm-threshold form from a verified gain-implication form.

    The evaluator is kept as-is rather than rescaled, so the jump decay is
    the empirically fitted sphere minimum of ``V - rho(V)`` instead of a
    rescaled unbounded rate; the fitted bound is what the sampled check
    enforces.
    """
    tol = tolerances or VerifyTolerances()
    rho = majorize_lambda(cert.lam, FORM_GRID)
    rho_inv = inverse_kfun(rho)
    psi1_inv = inverse_kfun(cert.psi1)
    if cert.gamma.is_zero:
        gamma_bar = KFun.zero()
    else:
        gamma_bar = compose(psi1_inv, compose(rho_inv, cert.gamma))
    alpha1_bar = compose(cert.alpha, cert.psi1)
    require_class(alpha1_bar, Classification.POSITIVE_DEFINITE, "flow decay")
    alpha2_bar = _fit_jump_decay(cert, rho, sampler.box_radius, sampler.seed + 7)

    wf = WFormCertificate(v_form=cert, net=net, psi1_bar=cert.psi1, psi2_bar=cert.psi2,
                          gamma_bar=gamma_bar, alpha1_bar=alpha1_bar,
                          alpha2_bar=alpha2_bar, rho=rho)
    report = _verify_w_form(wf, net, sampler, tol, memo)
    return wf, report


def _verify_w_form(wf: WFormCertificate, net: NetworkSpec, sampler: SamplerSpec,
                   tol: VerifyTolerances, memo: Optional[SampleMemo] = None
                   ) -> VerificationReport:
    cert = wf.v_form
    report = VerificationReport(condition="norm-threshold-form")
    drawn = _draw_samples(report, net, sampler, jump_seed=3, memo=memo)
    if drawn is None:
        return report.finalize()
    flow_pts, jump_pts = drawn
    n = net.state_dim

    def above_threshold(cols):
        """The samples whose state norm reaches the input threshold, and the norms there."""
        x_mag = _max_norm(cols[:n])
        if wf.gamma_bar.is_zero:
            return _everywhere(cols), x_mag
        premise = ~(x_mag < wf.gamma_bar.array(_max_norm(cols[n:])))
        return premise, x_mag[premise]

    def flow(cols):
        premise, x_mag = above_threshold(cols)
        on = cols[:, premise]
        W, levels = cert.pieces(on[:n])
        worst, _i = _active_flow_bound(cert, net, on, W, levels, x_mag)
        return premise, worst, -wf.alpha1_bar.array(x_mag), tol.flow, "norm-threshold flow decay"

    def jump(cols):
        premise, x_mag = above_threshold(cols)
        on = cols[:, premise]
        drop = cert.values(net.jump_array(on)) - cert.values(on[:n])
        rhs = -wf.alpha2_bar.array(x_mag)
        return premise, drop, rhs, tol.jump_slack(rhs), "norm-threshold jump decrease"

    _check_samples(report, "flow", flow_pts, n, flow)
    _check_samples(report, "jump", jump_pts, n, jump)
    return report.finalize(None if report.samples_checked else
                           "no sample passed the norm threshold")


def to_v_form(wf: WFormCertificate, sampler: SamplerSpec,
              tolerances: Optional[VerifyTolerances] = None, memo: Optional[SampleMemo] = None
              ) -> Tuple[KFun, KFun, VerificationReport]:
    """Recover gain-implication data (gamma, lambda) from the norm-threshold form.

    The contraction is the identity minus an explicitly built increasing
    decrement: the fitted jump decay transported through the upper sandwich
    bound, capped at half the identity and monotonized on the grid.  The jump
    inequality is re-checked against the shared evaluator, covering states
    below the input threshold through a fitted, majorized input gain.
    """
    tol = tolerances or VerifyTolerances()
    net = wf.net
    cert = wf.v_form

    gamma = compose(wf.psi2_bar, wf.gamma_bar) if not wf.gamma_bar.is_zero else KFun.zero()

    psi2_inv = inverse_kfun(wf.psi2_bar)
    xs = [float(r) for r in FORM_GRID if r > 0.0]
    running = 0.0
    ys = []
    for r in xs:
        m = min(wf.alpha2_bar(psi2_inv(r)), 0.5 * r)
        running = max(running, m)
        ys.append(running)
    decrement = KFun.piecewise_linear(xs, ys, "capped jump decrement")
    lam_fn = lambda t: t - decrement(t)
    lam = KFun.from_callable(lam_fn, "identity minus capped decrement")

    report = VerificationReport(condition="gain-implication-jump")
    if not at_least(lam.classification, Classification.CLASS_K):
        report.finalize("identity minus the decrement failed monotonicity checks")
        return gamma, lam, report
    for r in FORM_GRID:
        if lam(float(r)) >= float(r):
            raise TransformError(f"recovered contraction not below identity at t={float(r)!r}")

    gamma_tilde = _fit_jump_input_gain(wf, gamma, sampler)

    drawn = _draw_samples(report, net, sampler, flow=False, jump_seed=5, memo=memo)
    if drawn is not None and len(drawn[1]):  # an empty jump set is vacuous: no input gain
        _check_samples(report, "jump", drawn[1], net.state_dim, cert.jump_condition(
            net, lam, gamma_tilde, tol, "recovered jump inequality"))
        report.extras["gamma_tilde"] = kfun_to_json(gamma_tilde)
    return gamma, lam, report.finalize()


def _fit_jump_input_gain(wf: WFormCertificate, gamma: KFun, sampler: SamplerSpec) -> KFun:
    """Majorized input gain covering jump states below the input threshold.

    For each of 24 input levels, in 16 input directions, the post-jump value
    is maximized over sampled jump states whose value sits below the
    recovered gain of that level; running maximization plus a small inflation
    makes the fit strictly increasing.  The combined gain is the pointwise max
    with the recovered gain.
    """
    net = wf.net
    if gamma.is_zero or sampler.u_box is None or net.jump_set_structurally_empty():
        return gamma
    u_lo, u_hi = sampler.u_low_high(net.input_dim)
    u_scale = float(np.max(np.abs(np.stack([u_lo, u_hi]))))
    if u_scale <= 0.0:
        return gamma
    rng = np.random.default_rng(sampler.seed + 11)
    try:
        pool = jump_set_samples(net, dataclasses.replace(
            sampler, seed=sampler.seed + 13,
            n_samples=max(256, sampler.n_samples // 8)))
    except SamplerEmptyError:
        return gamma
    xs = np.geomspace(u_scale * 1e-3, u_scale, 24)
    u_dirs = sphere_directions(net.input_dim, 16, rng)
    cert = wf.v_form
    states = pool[:, :net.state_dim]
    state_values = ex.in_row_order(cert.values, states)
    running = 0.0
    values = []
    for level in xs:
        threshold = gamma(float(level))
        below = states[~(state_values > threshold)]
        # state by state, each with every input in turn
        rows = np.concatenate([np.repeat(below, len(u_dirs), axis=0),
                               np.tile(u_dirs * level, (len(below), 1))], axis=1)
        after = ex.in_row_order(lambda c: cert.values(net.jump_array(c)), rows)
        running = max(running, functools.reduce(max, after.tolist(), 0.0))
        values.append(running)
    inflated = [v * (1.0 + 1e-6) + 1e-9 * x for v, x in zip(values, xs)]
    fitted = KFun.piecewise_linear(list(xs), inflated, "majorized post-jump input gain")
    return pointwise_max([fitted, gamma])
