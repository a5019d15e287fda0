"""Subsystem Lyapunov candidates, the composite max-type certificate, verifiers.

The composite function is the componentwise-scaled maximum
``V(x) = max_i sigma_i^{-1}(V_i(x_i))`` over a scaling path built from the
gain matrix.  Its flow condition is checked through the active indices of the
maximum: the inner product of any generalized gradient with the flow is
bounded by the worst active piece, because the gradient set lies in the
convex hull of the active pieces' gradients and the inner product is linear
over that hull.

Every sampled check runs on a whole block of samples at once: the state and
input as columns of B lanes.  Lane by lane the block evaluates what the
per-sample check evaluates on plain floats, bit for bit, and nothing more, so a
stage runs only on the lanes that reach it; an evaluation error is the one the
first failing sample, in sample order, raises.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .gains import STRICTNESS, GainMatrix, OmegaPath, SmallGainOptions, SmallGainVerdict, \
    build_omega_path, compose_phi
from .hybrid import NetworkSpec
from .kfun import Classification, KFun, compose, inverse_kfun, \
    kfun_to_json, pointwise_max, pointwise_min, require_class
from .reporting import VerificationReport, Violation
from .sampling import SampleMemo, SamplerEmptyError, SamplerSpec, flow_set_samples, \
    jump_set_samples


class CertificateError(Exception):
    pass


class JumpSetMismatchError(CertificateError):
    """Composite conditions require every subsystem to share one jump set."""


@dataclass
class VerifyTolerances:
    flow: float = 1e-7
    jump_rel: float = 1e-9
    jump_abs: float = 1e-12
    sandwich_rel: float = 1e-9

    def jump_slack(self, rhs: np.ndarray) -> np.ndarray:
        """The slack of every jump check at each lane: ``max(jump_abs, jump_rel * |rhs|)``."""
        return ex.lane_max([self.jump_abs, self.jump_rel * np.abs(rhs)])


@dataclass
class SubsystemLyapunov:
    """Candidate data for one subsystem: V_i, sandwich bounds, rates, gains."""

    v: ex.Expr                        # function of this subsystem's state variables
    psi1: KFun
    psi2: KFun
    alpha: KFun                       # continuous positive definite decay rate
    lam: KFun                         # jump contraction, lam(s) < s for s > 0
    gamma_internal: Dict[int, KFun] = field(default_factory=dict)  # 0-based neighbor index
    gamma_external: KFun = field(default_factory=KFun.zero)

    def validate(self, grid: np.ndarray):
        require_class(self.psi1, Classification.CLASS_K_INF, "psi1")
        require_class(self.psi2, Classification.CLASS_K_INF, "psi2")
        require_class(self.alpha, Classification.POSITIVE_DEFINITE, "alpha")
        require_class(self.lam, Classification.POSITIVE_DEFINITE, "lambda")
        for r in grid:
            if self.lam(float(r)) >= float(r):
                raise CertificateError(f"lambda(s) < s fails at s={float(r)!r}")

    def internal_gain(self, j: int) -> KFun:
        return self.gamma_internal.get(j, KFun.zero())


@dataclass
class CompositeCertificate:
    """Certificate for the interconnection: scaling path and comparison functions."""

    path: OmegaPath
    phi: KFun
    gamma: KFun
    lam: KFun
    psi1: KFun
    psi2: KFun
    alpha: KFun
    candidates: List[SubsystemLyapunov]
    net: NetworkSpec
    _v_fns: list = field(default_factory=list, repr=False)
    _bound_fns: list = field(default_factory=list, repr=False)

    @property
    def n(self) -> int:
        return self.path.n

    def pieces(self, state: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``W[i] = V_i`` and ``levels[i] = sigma_i^{-1}(V_i)`` at each lane, each evaluated once.

        ``state`` holds one row per state variable and one column per lane; both
        results are (n, B).  Each lane is the evaluation at that state as plain
        floats, so a division by zero raises ``EvalDomainError``.
        """
        W = np.empty((self.n, state.shape[1]))
        levels = np.empty_like(W)
        for i, (v_fn, sigma_inv) in enumerate(zip(self._v_fns, self.path.sigma_invs)):
            W[i] = v_fn(state)
            levels[i] = sigma_inv.array(W[i])
        return W, levels

    def values(self, state: np.ndarray) -> np.ndarray:
        """The composite value at each lane of ``state``."""
        return _top_level(self.pieces(state)[1])

    def jump_condition(self, net: NetworkSpec, lam: KFun, gamma: KFun, tol: VerifyTolerances,
                       detail: str) -> Callable:
        """The condition ``V(g(x, u)) <= max(lam(V(x)), gamma(|u|))`` at every jump
        sample, up to the jump slack, for :func:`_check_samples`."""
        n = net.state_dim

        def jump(cols):
            rhs = lam.array(self.values(cols[:n]))
            if not gamma.is_zero:
                rhs = ex.lane_max([rhs, gamma.array(_max_norm(cols[n:]))])
            return _everywhere(cols), self.values(net.jump_array(cols)), rhs, \
                tol.jump_slack(rhs), detail
        return jump

    def to_json(self) -> dict:
        return {
            "form": "gain-implication",
            "sigma": self.path.to_json(),
            "phi": kfun_to_json(self.phi),
            "gamma": kfun_to_json(self.gamma),
            "lambda": kfun_to_json(self.lam),
            "psi1": kfun_to_json(self.psi1),
            "psi2": kfun_to_json(self.psi2),
            "alpha": kfun_to_json(self.alpha),
        }


def _top_level(levels: np.ndarray) -> np.ndarray:
    """The composite value at each lane: the largest of ``levels`` (n, B), by ``np.max``'s rule.

    A NaN level makes the value NaN, and of equal levels the later one wins
    (numpy's fold over up to 8 levels), which decides the sign of a zero.
    """
    top = levels[0]
    for level in levels[1:]:
        top = np.where((top == top) & ~(top > level), level, top)
    return top


def active_set(levels: np.ndarray) -> np.ndarray:
    """Mask (n, B) of the pieces attaining the maximum at each lane, up to an absolute 1e-9."""
    return levels >= _top_level(levels) - 1e-9


def build_composite(cands: Sequence[SubsystemLyapunov], gm: GainMatrix,
                    net: NetworkSpec, anchor: Optional[Sequence[float]] = None,
                    verdict: Optional[SmallGainVerdict] = None,
                    options: Optional[SmallGainOptions] = None) -> CompositeCertificate:
    """Assemble the interconnection certificate from subsystem candidates.

    Requires the small-gain condition for the supplied gain matrix; the
    matrix entries must agree with the candidates' internal gains.  The jump
    contraction combines the scaled cross gains with the scaled subsystem
    contractions and is checked below the identity on the grid.
    """
    cands = list(cands)
    if len(cands) != gm.n or gm.n != net.n:
        raise CertificateError("candidate list, gain matrix, and network sizes differ")
    opts = options or SmallGainOptions()
    g = opts.grid()
    for i, cand in enumerate(cands):
        cand.validate(g[(g > 0) & (g < 1e9)])
        for j in range(gm.n):
            if i == j:
                continue
            _check_gain_agreement(cand.internal_gain(j), gm.entries[i][j], i, j)

    path = build_omega_path(gm, anchor, verdict=verdict, options=opts)
    phi = compose_phi(path)
    phi_inv = inverse_kfun(phi)

    externals = [compose(phi_inv, c.gamma_external) for c in cands
                 if not c.gamma_external.is_zero]
    gamma = pointwise_max(externals) if externals else KFun.zero()

    lam_terms: List[KFun] = []
    for i in range(gm.n):
        lam_terms.append(compose(path.sigma_invs[i], compose(cands[i].lam, path.sigmas[i])))
        for j in range(gm.n):
            if j != i and not gm.entries[i][j].is_zero:
                lam_terms.append(compose(path.sigma_invs[i],
                                         compose(gm.entries[i][j], path.sigmas[j])))
    lam = pointwise_max(lam_terms)
    for r in g:
        if lam(float(r)) > (1.0 - STRICTNESS) * float(r):
            raise CertificateError(f"jump contraction is not below identity at t={float(r)!r}")

    psi1 = pointwise_min([compose(path.sigma_invs[i], cands[i].psi1) for i in range(gm.n)])
    psi2 = pointwise_max([compose(path.sigma_invs[i], cands[i].psi2) for i in range(gm.n)])

    alpha = _default_alpha(path, cands)
    require_class(alpha, Classification.POSITIVE_DEFINITE, "alpha")

    cert = CompositeCertificate(path=path, phi=phi, gamma=gamma, lam=lam, psi1=psi1, psi2=psi2,
                                alpha=alpha, candidates=cands, net=net)
    cert._v_fns = [ex.compile_array(c.v, net.state_vars()) for c in cands]
    cert._bound_fns = [ex.compile_bounds_array(c.v, net.state_vars()) for c in cands]
    return cert


def _check_gain_agreement(a: KFun, b: KFun, i: int, j: int):
    if a.is_zero != b.is_zero:
        raise CertificateError(f"candidate gain ({i + 1},{j + 1}) disagrees with the gain matrix")
    if a.is_zero:
        return
    for r in (0.37, 1.0, 8.5, 123.0):
        va, vb = a(r), b(r)
        if abs(va - vb) > 1e-9 * max(1.0, abs(va), abs(vb)):
            raise CertificateError(
                f"candidate gain ({i + 1},{j + 1}) disagrees with the gain matrix at s={r}")


def _sigma_inv_slope(path: OmegaPath, i: int, W: np.ndarray) -> np.ndarray:
    """Local slope of the i-th inverse path component near each level of ``W``."""
    sigma_inv = path.sigma_invs[i]
    if sigma_inv.linear_slope is not None:
        return np.full(len(W), sigma_inv.linear_slope)
    d = ex.lane_max([1e-6, 1e-6 * np.abs(W)])
    up = sigma_inv.array(W + d)
    out = np.empty(len(W))
    two = W - d > 0.0
    out[two] = (up[two] - sigma_inv.array((W - d)[two])) / (2.0 * d[two])
    one = ~two
    out[one] = (up[one] - sigma_inv.array(W[one])) / d[one]
    return out


_ALPHA_BAND = np.array([0.5, 0.75, 1.0, 1.5, 2.0])


def _default_alpha(path: OmegaPath, cands: Sequence[SubsystemLyapunov]) -> KFun:
    """Composite decay rate: worst scaled subsystem decay along the path.

    At level v the active subsystem runs at V_i = sigma_i(v) and decays at
    least at alpha_i(sigma_i(v)); the inverse-path slope converts that decay
    back to the composite level.  For nonlinear paths the slope is floored
    over a band around the level, mirroring the bounded-slope property used
    to justify the construction.
    """
    n = path.n

    def fn(v: float) -> float:
        if v <= 0.0:
            return 0.0
        best = math.inf
        for i in range(n):
            w = path.sigmas[i](v)
            slopes = ex.in_row_order(functools.partial(_sigma_inv_slope, path, i), w * _ALPHA_BAND)
            best = min(best, min(slopes.tolist()) * cands[i].alpha(w))
        return best
    return KFun.from_callable(fn, "composite decay rate")


# ---------------------------------------------------------------------------
# sampled checks


def _check_samples(report: VerificationReport, check: str, pts: np.ndarray, n: int,
                   condition: Callable) -> Optional[tuple]:
    """Run one sampled inequality ``measured <= required + slack`` into ``report``.

    ``pts`` (N, n + m) are the samples, n state then m input components each.
    ``condition(cols)`` gets them as columns (state rows, then input rows),
    through :func:`expr.in_row_order`, and returns ``(premise, measured,
    required, slack, detail, ...)``: a mask over the samples, arrays over the
    samples meeting the premise (``slack`` may be one float), and one detail
    string or one per such sample.  Its whole outcome is returned.  Every
    sample counts as tested; those meeting the premise count as checked and
    add the margin ``required + slack - measured``, in sample order.  A NaN on
    either side is a violation.
    """
    report.samples_tested += len(pts)
    if not len(pts):
        return None
    outcome = ex.in_row_order(condition, pts)
    premise, measured, required, slack, detail = outcome[:5]
    with np.errstate(all="ignore"):
        bound = required + slack
        margins = bound - measured
        failed = ~(measured <= bound)
    # the running minimum and mean, rounded in sample order; a NaN first margin
    # stays the minimum, as no margin compares below it
    low, mean, count = report.margin_min, report.margin_mean, report.samples_checked
    for margin in margins.tolist():
        count += 1
        if low is None or margin < low:
            low = margin
        mean = ((mean or 0.0) * (count - 1) + margin) / count
    report.margin_min, report.margin_mean, report.samples_checked = low, mean, count
    rows = np.flatnonzero(premise)
    for k in np.flatnonzero(failed).tolist():
        point = pts[int(rows[k])]
        report.violations.append(Violation(
            sample_index=int(rows[k]), point={"x": point[:n].tolist(), "u": point[n:].tolist()},
            measured=float(measured[k]), required=float(required[k]),
            detail=detail if isinstance(detail, str) else str(detail[k]), check=check))
    return outcome


def _draw_samples(report: VerificationReport, net: NetworkSpec, sampler: SamplerSpec,
                  flow: bool = True, jump_seed: Optional[int] = None,
                  sub: Optional[int] = None, memo: Optional[SampleMemo] = None):
    """Flow and jump samples for one report, or None if a sampler came up empty.

    Jump samples use the seed ``sampler.seed + jump_seed`` and are skipped
    when ``jump_seed`` is None; a structurally empty jump set yields none and
    a note.  An empty sampler marks the report inconclusive; a set with fewer
    points than asked adds a note.  Sets come from ``memo`` when one is given.
    """
    flow_pts = jump_pts = np.empty((0, net.state_dim + net.input_dim))
    try:
        if flow:
            flow_pts = flow_set_samples(net, sampler, sub=sub, memo=memo)
        if jump_seed is not None:
            if net.jump_set_structurally_empty(sub):
                report.notes.append("empty jump set: jump condition is vacuous")
            else:
                jump_pts = jump_set_samples(
                    net, dataclasses.replace(sampler, seed=sampler.seed + jump_seed), sub=sub,
                    memo=memo)
    except SamplerEmptyError as exc:
        report.verdict = "inconclusive"
        report.notes.append(str(exc))
        return None
    for name, pts in (("flow", flow_pts), ("jump", jump_pts)):
        if len(pts) and len(pts) < sampler.n_samples:
            report.notes.append(f"{name} samples: {len(pts)} of {sampler.n_samples} drawn; "
                                "strata came up short")
    return flow_pts, jump_pts


def _max_norm(rows: np.ndarray) -> np.ndarray:
    """Max norm of each lane of ``rows`` as ``max(map(abs, v), default=0.0)``; 0 with no rows."""
    if not len(rows):
        return np.zeros(rows.shape[1])
    return ex.lane_max(list(np.abs(rows)))


def _active_flow_bound(cert: CompositeCertificate, net: NetworkSpec, cols: np.ndarray,
                       W: np.ndarray, levels: np.ndarray,
                       fallback_level: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Worst scaled directional derivative over the active pieces, and its index, per lane.

    ``W, levels`` are ``cert.pieces`` at the state rows of ``cols``.  A piece at
    level zero takes the inverse-path slope at ``fallback_level``.  With no
    active piece (a NaN level makes the value NaN) the bound is NaN and the
    index -1, so the flow conditions record a violation.
    """
    state = cols[:net.state_dim]
    direction = net.flow_array(cols)
    active = active_set(levels)
    some = active.any(axis=0)
    worst = np.where(some, -math.inf, math.nan)
    worst_i = np.where(some, active.argmax(axis=0), -1)
    for i in range(cert.n):
        on = np.flatnonzero(active[i])
        if not len(on):
            continue
        w = W[i, on]
        slope = _sigma_inv_slope(cert.path, i,
                                 np.where(w > 0, w, ex.lane_max([fallback_level[on], 1e-9])))
        _v, _lo, hi = cert._bound_fns[i](state[:, on], direction[:, on])
        piece = slope * hi
        better = piece > worst[on]
        worst[on] = np.where(better, piece, worst[on])
        worst_i[on] = np.where(better, i, worst_i[on])
    return worst, worst_i


def _everywhere(cols: np.ndarray) -> np.ndarray:
    return np.ones(cols.shape[1], dtype=bool)


# ---------------------------------------------------------------------------
# verifiers


def verify_subsystem(cands: Sequence[SubsystemLyapunov], index: int, net: NetworkSpec,
                     sampler: SamplerSpec, tolerances: Optional[VerifyTolerances] = None,
                     memo: Optional[SampleMemo] = None) -> VerificationReport:
    """Check one subsystem's sandwich, gain-implication flow, and jump conditions.

    Flow samples are drawn from the subsystem's flow set; the decay bound is
    only enforced where this subsystem's value dominates every gain-scaled
    neighbor value and the external gain of the input.
    """
    tol = tolerances or VerifyTolerances()
    cand = cands[index]
    report = VerificationReport(condition=f"subsystem-{index + 1}")
    drawn = _draw_samples(report, net, sampler, jump_seed=1, sub=index, memo=memo)
    if drawn is None:
        return report.finalize()
    flow_pts, jump_pts = drawn
    n = net.state_dim
    v_fns = [ex.compile_array(c.v, net.state_vars()) for c in cands]
    bound_fn = ex.compile_bounds_array(cand.v, net.state_vars())
    sub_slice = net.slices[index]

    def neighbour_gains(cols):
        return [cand.internal_gain(j).array(v_fns[j](cols[:n])) for j in range(net.n)
                if j != index]

    def input_gain(cols):
        return [] if cand.gamma_external.is_zero else \
            [cand.gamma_external.array(_max_norm(cols[n:]))]

    def sandwich(cols):
        vi = v_fns[index](cols[:n])
        mag = _max_norm(cols[sub_slice])
        return vi, cand.psi1.array(mag), cand.psi2.array(mag)

    def flow(cols):
        vi = v_fns[index](cols[:n])
        premise = ~(vi < ex.lane_max(neighbour_gains(cols) + (input_gain(cols) or [0.0])))
        on = cols[:, premise]
        _val, _lo, hi = bound_fn(on[:n], net.flow_array(on))
        return (premise, hi, -cand.alpha.array(vi[premise]), tol.flow,
                "flow decay under the gain premise")

    def jump(cols):
        x_new = cols[:n].copy()
        x_new[sub_slice] = net.sub_jump_array(index, cols)
        rhs = ex.lane_max([cand.lam.array(v_fns[index](cols[:n]))] + neighbour_gains(cols)
                          + input_gain(cols))
        return _everywhere(cols), v_fns[index](x_new), rhs, tol.jump_slack(rhs), "jump contraction"

    if len(flow_pts):
        x_sub = flow_pts[:, sub_slice]
        _check_sandwich(report, x_sub, *ex.in_row_order(sandwich, flow_pts), tol)
    _check_samples(report, "flow", flow_pts, n, flow)
    checked_flow = report.samples_checked
    _check_samples(report, "jump", jump_pts, n, jump)
    return report.finalize(None if checked_flow else "no flow sample satisfied the gain premise")


def _check_sandwich(report: VerificationReport, x_sub: np.ndarray, vi: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray, tol: VerifyTolerances) -> None:
    """``lo <= V_i <= hi`` up to slack at each sample; ``x_sub`` (N, dim_i) are the
    subsystem's states, the rest one value per sample.  A NaN side is a violation."""
    with np.errstate(all="ignore"):
        slack = tol.sandwich_rel * ex.lane_max([1.0, np.abs(vi)])
        failed = ~((lo - slack <= vi) & (vi <= hi + slack))
    for s_idx in np.flatnonzero(failed).tolist():
        v = float(vi[s_idx])
        report.violations.append(Violation(
            sample_index=s_idx, point={"x_i": x_sub[s_idx].tolist()}, measured=v,
            required=float(lo[s_idx] if v < lo[s_idx] else hi[s_idx]),
            detail="sandwich bound", check="sandwich"))


def _require_shared_jump_set(net: NetworkSpec):
    if not net.jump_sets_equal:
        raise JumpSetMismatchError(
            "composite conditions assume one shared jump set; "
            "the configured subsystems have differing jump sets")


def verify_composite_flow(cert: CompositeCertificate, net: NetworkSpec,
                          sampler: SamplerSpec,
                          tolerances: Optional[VerifyTolerances] = None,
                          memo: Optional[SampleMemo] = None) -> VerificationReport:
    """Decay of the composite function along the flow, via active indices.

    For each flow sample past the input-gain threshold, every active index's
    scaled piece must decrease at rate alpha; checking the active pieces
    covers the full generalized gradient of the max-composition.  The
    measured decay floor is reported as the empirical rate.
    """
    tol = tolerances or VerifyTolerances()
    _require_shared_jump_set(net)
    report = VerificationReport(condition="composite-flow")
    drawn = _draw_samples(report, net, sampler, memo=memo)
    if drawn is None:
        return report.finalize()
    n = net.state_dim
    details = np.array(["flow decay with no active piece"]
                       + [f"flow decay at active index {i + 1}" for i in range(cert.n)])

    def flow(cols):
        W, levels = cert.pieces(cols[:n])
        value = _top_level(levels)
        premise = _everywhere(cols) if cert.gamma.is_zero else \
            ~(value < cert.gamma.array(_max_norm(cols[n:])))
        value = value[premise]
        worst, worst_i = _active_flow_bound(cert, net, cols[:, premise], W[:, premise],
                                            levels[:, premise], value)
        return premise, worst, -cert.alpha.array(value), tol.flow, details[worst_i + 1], value

    pts = drawn[0]
    outcome = _check_samples(report, "flow", pts, n, flow)
    alpha_ratio = math.inf
    if outcome is not None:  # a strict running minimum in sample order
        worst, value = outcome[1], outcome[5]
        decaying = value > 0.0
        for ratio in (-worst[decaying] / value[decaying]).tolist():
            if ratio < alpha_ratio:
                alpha_ratio = ratio
    if math.isfinite(alpha_ratio):
        report.extras["empirical_alpha_min_ratio"] = alpha_ratio
    return report.finalize(None if report.samples_checked else
                           "no flow sample passed the input-gain threshold")


def verify_composite_jump(cert: CompositeCertificate, net: NetworkSpec,
                          sampler: SamplerSpec,
                          tolerances: Optional[VerifyTolerances] = None,
                          memo: Optional[SampleMemo] = None) -> VerificationReport:
    """Jump samples must satisfy V after the jump <= max(lam(V), gamma(|u|))."""
    tol = tolerances or VerifyTolerances()
    _require_shared_jump_set(net)
    report = VerificationReport(condition="composite-jump")
    drawn = _draw_samples(report, net, sampler, flow=False, jump_seed=0, memo=memo)
    if drawn is not None:
        _check_samples(report, "jump", drawn[1], net.state_dim, cert.jump_condition(
            net, cert.lam, cert.gamma, tol, "composite jump contraction"))
    return report.finalize()
