"""The per-sample verifiers the block check kernel replaced, kept as test oracles.

Each sample is handed to a closure as lists of plain floats, one sample at a
time, exactly as ``hsgt.lyapunov`` and ``hsgt.equiv`` did before their checks
ran on sample blocks.  The certificate's ``V_i`` and their chain-rule bounds
are compiled here with the scalar code generator, so nothing below goes through
the block code.  ``reference_verify`` assembles the report of ``hsgt verify``
from these verifiers; the differential tests require the same bytes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from hsgt import expr as ex
from hsgt.equiv import FORM_GRID, TransformError, WFormCertificate, majorize_lambda
from hsgt.gains import small_gain_check
from hsgt.kfun import (Classification, KFun, at_least, compose, inverse_kfun, kfun_to_json,
                       pointwise_max, require_class)
from hsgt.lyapunov import JumpSetMismatchError, VerifyTolerances, build_composite
from hsgt.reporting import VerificationReport, Violation
from hsgt.sampling import SamplerEmptyError, flow_set_samples, jump_set_samples, \
    sphere_directions
from reference_hybrid import flow_raw


class _Scalar:
    """Scalar evaluation of one certificate: ``pieces(x)`` on plain floats."""

    def __init__(self, cert):
        state = cert.net.state_vars()
        self.cert = cert
        self.v_fns = [ex.compile_expr(c.v, state) for c in cert.candidates]
        self.bound_fns = [ex.compile_bounds(c.v, state) for c in cert.candidates]

    def pieces(self, x) -> List[Tuple[float, float]]:
        out = []
        for v_fn, sigma_inv in zip(self.v_fns, self.cert.path.sigma_invs):
            w = v_fn(x)
            out.append((w, sigma_inv(w)))
        return out

    def value(self, x) -> float:
        return _top_level(self.pieces(x))


def _top_level(pieces):
    top = pieces[0][1]
    for _w, level in pieces[1:]:
        if top == top and not top > level:
            top = level
    return top


def _active_set(pieces):
    top = _top_level(pieces)
    return [i for i, (_w, level) in enumerate(pieces) if level >= top - 1e-9]


def sigma_inv_slope(path, i: int, w: float) -> float:
    """Local slope of the i-th inverse path component near level w."""
    sigma_inv = path.sigma_invs[i]
    if sigma_inv.linear_slope is not None:
        return sigma_inv.linear_slope
    d = max(1e-6, 1e-6 * abs(w))
    if w - d > 0.0:
        return (sigma_inv(w + d) - sigma_inv(w - d)) / (2.0 * d)
    return (sigma_inv(w + d) - sigma_inv(w)) / d


def default_alpha_fn(path, cands):
    """The composite decay rate's scalar function, one band point at a time."""
    n = path.n
    band = (0.5, 0.75, 1.0, 1.5, 2.0)

    def fn(v: float) -> float:
        if v <= 0.0:
            return 0.0
        best = math.inf
        for i in range(n):
            w = path.sigmas[i](v)
            slope = min(sigma_inv_slope(path, i, w * b) for b in band)
            best = min(best, slope * cands[i].alpha(w))
        return best
    return fn


def add_margin(report, margin: float):
    """The report's former per-sample update of its margin minimum and running mean."""
    if report.margin_min is None or margin < report.margin_min:
        report.margin_min = margin
    total = (report.margin_mean or 0.0) * (report.samples_checked - 1) + margin
    report.margin_mean = total / report.samples_checked if report.samples_checked else margin


def _check_samples(report, check, samples, condition):
    for s_idx, (x, u) in enumerate(samples):
        report.samples_tested += 1
        x, u = x.tolist(), u.tolist()
        outcome = condition(x, u)
        if outcome is None:
            continue
        measured, required, slack, detail = outcome
        report.samples_checked += 1
        add_margin(report, required + slack - measured)
        if not measured <= required + slack:
            report.violations.append(Violation(
                sample_index=s_idx, point={"x": list(x), "u": list(u)}, measured=measured,
                required=required, detail=detail, check=check))


def _pairs(net, block):
    return [(z[:net.state_dim], z[net.state_dim:]) for z in block]


def _draw_samples(report, net, sampler, flow=True, jump_seed=None, sub=None):
    flow_pts, jump_pts = [], []
    try:
        if flow:
            flow_pts = _pairs(net, flow_set_samples(net, sampler, sub=sub))
        if jump_seed is not None:
            if net.jump_set_structurally_empty(sub):
                report.notes.append("empty jump set: jump condition is vacuous")
            else:
                jump_pts = _pairs(net, jump_set_samples(
                    net, dataclasses.replace(sampler, seed=sampler.seed + jump_seed), sub=sub))
    except SamplerEmptyError as exc:
        report.verdict = "inconclusive"
        report.notes.append(str(exc))
        return None
    for name, pts in (("flow", flow_pts), ("jump", jump_pts)):
        if pts and len(pts) < sampler.n_samples:
            report.notes.append(f"{name} samples: {len(pts)} of {sampler.n_samples} drawn; "
                                "strata came up short")
    return flow_pts, jump_pts


def _max_norm(v: Sequence[float]) -> float:
    return max(map(abs, v), default=0.0)


def _active_flow_bound(sc: _Scalar, net, x, u, pieces, fallback_level):
    direction = flow_raw(net, x + u)
    active = _active_set(pieces)
    if not active:
        return math.nan, -1
    worst, worst_i = -math.inf, active[0]
    for i in active:
        w = pieces[i][0]
        slope = sigma_inv_slope(sc.cert.path, i, w if w > 0 else max(fallback_level, 1e-9))
        _v, _lo, hi = sc.bound_fns[i](x, direction)
        piece = slope * hi
        if piece > worst:
            worst, worst_i = piece, i
    return worst, worst_i


def _check_sandwich(report, cand, x_sub, vi, s_idx, tol):
    mag = _max_norm(x_sub)
    lo, hi = cand.psi1(mag), cand.psi2(mag)
    slack = tol.sandwich_rel * max(1.0, abs(vi))
    if not lo - slack <= vi <= hi + slack:
        report.violations.append(Violation(
            sample_index=s_idx, point={"x_i": x_sub},
            measured=vi, required=lo if vi < lo else hi,
            detail="sandwich bound", check="sandwich"))


def verify_subsystem(cands, index, net, sampler, tol):
    cand = cands[index]
    report = VerificationReport(condition=f"subsystem-{index + 1}")
    drawn = _draw_samples(report, net, sampler, jump_seed=1, sub=index)
    if drawn is None:
        return report
    flow_pts, jump_pts = drawn
    v_fns = [ex.compile_expr(c.v, net.state_vars()) for c in cands]
    bound_fn = ex.compile_bounds(cand.v, net.state_vars())
    sub_slice = net.slices[index]

    def neighbour_gains(x):
        return [cand.internal_gain(j)(v_fns[j](x)) for j in range(net.n) if j != index]

    def input_gain(u):
        return [] if cand.gamma_external.is_zero else [cand.gamma_external(_max_norm(u))]

    def flow(x, u):
        vi = v_fns[index](x)
        if vi < max(neighbour_gains(x) + (input_gain(u) or [0.0])):
            return None
        _val, _lo, hi = bound_fn(x, flow_raw(net, x + u))
        return hi, -cand.alpha(vi), tol.flow, "flow decay under the gain premise"

    def jump(x, u):
        x_new = list(x)
        x_new[sub_slice] = [fn(x + u) for fn in net._jump_fns[index]]
        rhs = max([cand.lam(v_fns[index](x))] + neighbour_gains(x) + input_gain(u))
        return (v_fns[index](x_new), rhs,
                max(tol.jump_abs, tol.jump_rel * abs(rhs)), "jump contraction")

    for s_idx, (x, _u) in enumerate(flow_pts):
        x = x.tolist()
        _check_sandwich(report, cand, x[sub_slice], v_fns[index](x), s_idx, tol)
    _check_samples(report, "flow", flow_pts, flow)
    checked_flow = report.samples_checked
    _check_samples(report, "jump", jump_pts, jump)
    return report.finalize(None if checked_flow else "no flow sample satisfied the gain premise")


def _require_shared_jump_set(net):
    if not net.jump_sets_equal:
        raise JumpSetMismatchError(
            "composite conditions assume one shared jump set; "
            "the configured subsystems have differing jump sets")


def verify_composite_flow(cert, net, sampler, tol):
    _require_shared_jump_set(net)
    sc = _Scalar(cert)
    report = VerificationReport(condition="composite-flow")
    drawn = _draw_samples(report, net, sampler)
    if drawn is None:
        return report

    alpha_ratio = math.inf

    def flow(x, u):
        nonlocal alpha_ratio
        pieces = sc.pieces(x)
        value = _top_level(pieces)
        if not cert.gamma.is_zero and value < cert.gamma(_max_norm(u)):
            return None
        worst, worst_i = _active_flow_bound(sc, net, x, u, pieces, value)
        if value > 0.0 and -worst / value < alpha_ratio:
            alpha_ratio = -worst / value
        where = f"at active index {worst_i + 1}" if worst_i >= 0 else "with no active piece"
        return worst, -cert.alpha(value), tol.flow, f"flow decay {where}"

    _check_samples(report, "flow", drawn[0], flow)
    if math.isfinite(alpha_ratio):
        report.extras["empirical_alpha_min_ratio"] = alpha_ratio
    if report.samples_checked == 0:
        report.verdict = "inconclusive"
        report.notes.append("no flow sample passed the input-gain threshold")
        return report
    return report.finalize()


def verify_composite_jump(cert, net, sampler, tol):
    _require_shared_jump_set(net)
    sc = _Scalar(cert)
    report = VerificationReport(condition="composite-jump")
    drawn = _draw_samples(report, net, sampler, flow=False, jump_seed=0)
    if drawn is None:
        return report

    def jump(x, u):
        rhs = cert.lam(sc.value(x))
        if not cert.gamma.is_zero:
            rhs = max(rhs, cert.gamma(_max_norm(u)))
        return (sc.value(net.jump_raw(x + u)), rhs,
                max(tol.jump_abs, tol.jump_rel * abs(rhs)), "composite jump contraction")

    _check_samples(report, "jump", drawn[1], jump)
    return report.finalize()


# ---------------------------------------------------------------------------
# the two certificate forms


def _fit_jump_decay(sc, rho, box_radius, seed):
    rng = np.random.default_rng(seed)
    dim = sc.cert.net.state_dim
    radii = np.geomspace(box_radius * 1e-4, box_radius, 40)
    dirs = sphere_directions(dim, 64, rng)
    minima = []
    for r in radii:
        worst = math.inf
        for d in dirs:
            v = sc.value((d * r).tolist())
            worst = min(worst, v - rho(v))
        minima.append(worst)
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


def to_w_form(cert, net, sampler, tol):
    sc = _Scalar(cert)
    rho = majorize_lambda(cert.lam, FORM_GRID)
    rho_inv = inverse_kfun(rho)
    psi1_inv = inverse_kfun(cert.psi1)
    if cert.gamma.is_zero:
        gamma_bar = KFun.zero()
    else:
        gamma_bar = compose(psi1_inv, compose(rho_inv, cert.gamma))
    alpha1_bar = compose(cert.alpha, cert.psi1)
    require_class(alpha1_bar, Classification.POSITIVE_DEFINITE, "flow decay")
    alpha2_bar = _fit_jump_decay(sc, rho, sampler.box_radius, sampler.seed + 7)
    wf = WFormCertificate(v_form=cert, net=net, psi1_bar=cert.psi1, psi2_bar=cert.psi2,
                          gamma_bar=gamma_bar, alpha1_bar=alpha1_bar,
                          alpha2_bar=alpha2_bar, rho=rho)
    return wf, _verify_w_form(wf, sc, net, sampler, tol)


def _verify_w_form(wf, sc, net, sampler, tol):
    report = VerificationReport(condition="norm-threshold-form")
    drawn = _draw_samples(report, net, sampler, jump_seed=3)
    if drawn is None:
        return report
    flow_pts, jump_pts = drawn

    def state_norm_above_threshold(x, u) -> Optional[float]:
        x_mag = _max_norm(x)
        if not wf.gamma_bar.is_zero and x_mag < wf.gamma_bar(_max_norm(u)):
            return None
        return x_mag

    def flow(x, u):
        x_mag = state_norm_above_threshold(x, u)
        if x_mag is None:
            return None
        worst, _i = _active_flow_bound(sc, net, x, u, sc.pieces(x), x_mag)
        return worst, -wf.alpha1_bar(x_mag), tol.flow, "norm-threshold flow decay"

    def jump(x, u):
        x_mag = state_norm_above_threshold(x, u)
        if x_mag is None:
            return None
        drop = sc.value(net.jump_raw(x + u)) - sc.value(x)
        rhs = -wf.alpha2_bar(x_mag)
        return drop, rhs, max(tol.jump_abs, tol.jump_rel * abs(rhs)), \
            "norm-threshold jump decrease"

    _check_samples(report, "flow", flow_pts, flow)
    _check_samples(report, "jump", jump_pts, jump)
    if report.samples_checked == 0:
        report.verdict = "inconclusive"
        report.notes.append("no sample passed the norm threshold")
        return report
    return report.finalize()


def to_v_form(wf, sampler, tol):
    net = wf.net
    sc = _Scalar(wf.v_form)
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
    lam = KFun.from_callable(lambda t: t - decrement(t), "identity minus capped decrement")

    report = VerificationReport(condition="gain-implication-jump")
    if not at_least(lam.classification, Classification.CLASS_K):
        report.verdict = "inconclusive"
        report.notes.append("identity minus the decrement failed monotonicity checks")
        return gamma, lam, report
    for r in FORM_GRID:
        if lam(float(r)) >= float(r):
            raise TransformError(f"recovered contraction not below identity at t={float(r)!r}")

    gamma_tilde = _fit_jump_input_gain(wf, sc, gamma, sampler)

    drawn = _draw_samples(report, net, sampler, flow=False, jump_seed=5)
    if drawn is None:
        return gamma, lam, report
    if not drawn[1]:
        return gamma, lam, report.finalize()

    def jump(x, u):
        rhs = lam(sc.value(x))
        if not gamma_tilde.is_zero:
            rhs = max(rhs, gamma_tilde(_max_norm(u)))
        return (sc.value(net.jump_raw(x + u)), rhs,
                max(tol.jump_abs, tol.jump_rel * abs(rhs)), "recovered jump inequality")

    _check_samples(report, "jump", drawn[1], jump)
    report.extras["gamma_tilde"] = kfun_to_json(gamma_tilde)
    return gamma, lam, report.finalize()


def _fit_jump_input_gain(wf, sc, gamma, sampler):
    net = wf.net
    if gamma.is_zero or sampler.u_box is None or net.jump_set_structurally_empty():
        return gamma
    u_lo, u_hi = sampler.u_low_high(net.input_dim)
    u_scale = float(np.max(np.abs(np.stack([u_lo, u_hi]))))
    if u_scale <= 0.0:
        return gamma
    rng = np.random.default_rng(sampler.seed + 11)
    try:
        pool = _pairs(net, jump_set_samples(net, dataclasses.replace(
            sampler, seed=sampler.seed + 13,
            n_samples=max(256, sampler.n_samples // 8))))
    except SamplerEmptyError:
        return gamma
    xs = np.geomspace(u_scale * 1e-3, u_scale, 24)
    u_dirs = sphere_directions(net.input_dim, 16, rng)
    states = [(x, sc.value(x)) for x in (z.tolist() for z, _u in pool)]
    running = 0.0
    values = []
    for level in xs:
        threshold = gamma(float(level))
        inputs = [(d * level).tolist() for d in u_dirs]
        best = 0.0
        for x, v in states:
            if v > threshold:
                continue
            for u in inputs:
                best = max(best, sc.value(net.jump_raw(x + u)))
        running = max(running, best)
        values.append(running)
    inflated = [v * (1.0 + 1e-6) + 1e-9 * x for v, x in zip(values, xs)]
    fitted = KFun.piecewise_linear(list(xs), inflated, "majorized post-jump input gain")
    return pointwise_max([fitted, gamma])


# ---------------------------------------------------------------------------
# the verify command


def reference_verify(cfg, which: str, lines: Optional[list] = None):
    """``(exit code, printed summary lines, report dict)`` of ``hsgt verify --which``.

    The summary lines go to ``lines`` as they are printed, so a caller sees the
    lines printed before an error too.
    """
    tol = cfg.tolerances or VerifyTolerances()
    reports, ok = [], True
    lines = [] if lines is None else lines
    if which == "subsystem":
        for i in range(cfg.network.n):
            rep = verify_subsystem(cfg.candidates, i, cfg.network, cfg.sampler, tol)
            reports.append(rep.to_json())
            lines.append(rep.summary_line())
            ok = ok and rep.passed
    else:
        verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
        if not verdict.holds:
            return 1, [], {"command": "verify", "which": which, "seed": cfg.seed,
                           "small_gain": verdict.to_json()}
        cert = build_composite(cfg.candidates, cfg.gain_matrix, cfg.network,
                               anchor=cfg.anchor, verdict=verdict, options=cfg.sg_options)
        if which == "composite":
            for rep in (verify_composite_flow(cert, cfg.network, cfg.sampler, tol),
                        verify_composite_jump(cert, cfg.network, cfg.sampler, tol)):
                reports.append(rep.to_json())
                lines.append(rep.summary_line())
                ok = ok and rep.passed
        else:
            wf, rep_w = to_w_form(cert, cfg.network, cfg.sampler, tol)
            gamma2, lam2, rep_v = to_v_form(wf, cfg.sampler, tol)
            reports.append(rep_w.to_json())
            reports.append(rep_v.to_json())
            reports.append({"wform": wf.to_json(),
                            "recovered_gamma": kfun_to_json(gamma2),
                            "recovered_lambda": kfun_to_json(lam2)})
            lines += [rep_w.summary_line(), rep_v.summary_line()]
            ok = rep_w.passed and rep_v.passed
    return (0 if ok else 1), lines, {"command": "verify", "which": which, "seed": cfg.seed,
                                     "reports": reports}
