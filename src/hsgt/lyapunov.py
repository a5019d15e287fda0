"""Subsystem Lyapunov candidates, the composite max-type certificate, verifiers.

The composite function is the componentwise-scaled maximum
``V(x) = max_i sigma_i^{-1}(V_i(x_i))`` over a scaling path built from the
gain matrix.  Its flow condition is checked through the active indices of the
maximum: the inner product of any generalized gradient with the flow is
bounded by the worst active piece, because the gradient set lies in the
convex hull of the active pieces' gradients and the inner product is linear
over that hull.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .gains import STRICTNESS, GainMatrix, OmegaPath, SmallGainOptions, SmallGainVerdict, \
    build_omega_path, compose_phi
from .hybrid import NetworkSpec
from .kfun import Classification, KFun, compose, inverse_kfun, \
    kfun_to_json, pointwise_max, pointwise_min, require_class
from .reporting import VerificationReport, Violation
from .sampling import SamplerEmptyError, SamplerSpec, flow_set_samples, jump_set_samples


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


def gain_matrix_from_candidates(cands: Sequence[SubsystemLyapunov]) -> GainMatrix:
    n = len(cands)
    rows = []
    for i in range(n):
        rows.append([cands[i].internal_gain(j) if j != i else None for j in range(n)])
    return GainMatrix.from_rows(rows)


@dataclass
class CompositeCertificate:
    """Certificate for the interconnection: scaling path and comparison functions."""

    path: OmegaPath
    phi: KFun
    phi_inv: KFun
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

    def pieces(self, x: Sequence[float]) -> List[Tuple[float, float]]:
        """``(V_i(x), sigma_i^{-1}(V_i(x)))`` for every i, each evaluated once.

        ``x`` is the state as plain floats, so a division by zero raises
        ``EvalDomainError``; numpy scalars would give inf or NaN instead.
        """
        out = []
        for v_fn, sigma_inv in zip(self._v_fns, self.path.sigma_invs):
            w = v_fn(x)
            out.append((w, sigma_inv(w)))
        return out

    def value(self, x: Sequence[float]) -> float:
        return _top_level(self.pieces(x))

    def with_alpha(self, alpha: KFun) -> "CompositeCertificate":
        return dataclasses.replace(self, alpha=alpha)

    def with_lambda(self, lam: KFun) -> "CompositeCertificate":
        return dataclasses.replace(self, lam=lam)

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


def _top_level(pieces: Sequence[Tuple[float, float]]) -> float:
    """The composite value: the largest level of ``pieces``, by ``np.max``'s rule.

    A NaN level makes the value NaN, and of equal levels the later one wins
    (numpy's fold over up to 8 levels), which decides the sign of a zero.
    """
    top = pieces[0][1]
    for _w, level in pieces[1:]:
        if top == top and not top > level:
            top = level
    return top


def active_set(pieces: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of ``cert.pieces(x)`` attaining the maximum, up to an absolute 1e-9."""
    top = _top_level(pieces)
    return [i for i, (_w, level) in enumerate(pieces) if level >= top - 1e-9]


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

    path = build_omega_path(gm, anchor, g, verdict=verdict, options=opts)
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

    cert = CompositeCertificate(path=path, phi=phi, phi_inv=phi_inv, gamma=gamma,
                                lam=lam, psi1=psi1, psi2=psi2, alpha=alpha,
                                candidates=cands, net=net)
    cert._v_fns = [ex.compile_expr(c.v, net.state_vars()) for c in cands]
    cert._bound_fns = [ex.compile_bounds(c.v, net.state_vars()) for c in cands]
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


def _sigma_inv_slope(path: OmegaPath, i: int, w: float) -> float:
    """Local slope of the i-th inverse path component near level w."""
    sigma_inv = path.sigma_invs[i]
    if sigma_inv.linear_slope is not None:
        return sigma_inv.linear_slope
    d = max(1e-6, 1e-6 * abs(w))
    if w - d > 0.0:
        return (sigma_inv(w + d) - sigma_inv(w - d)) / (2.0 * d)
    return (sigma_inv(w + d) - sigma_inv(w)) / d


def _default_alpha(path: OmegaPath, cands: Sequence[SubsystemLyapunov]) -> KFun:
    """Composite decay rate: worst scaled subsystem decay along the path.

    At level v the active subsystem runs at V_i = sigma_i(v) and decays at
    least at alpha_i(sigma_i(v)); the inverse-path slope converts that decay
    back to the composite level.  For nonlinear paths the slope is floored
    over a band around the level, mirroring the bounded-slope property used
    to justify the construction.
    """
    n = path.n
    band = (0.5, 0.75, 1.0, 1.5, 2.0)

    def fn(v: float) -> float:
        if v <= 0.0:
            return 0.0
        best = math.inf
        for i in range(n):
            w = path.sigmas[i](v)
            slope = min(_sigma_inv_slope(path, i, w * b) for b in band)
            best = min(best, slope * cands[i].alpha(w))
        return best
    return KFun.from_callable(fn, "composite decay rate")


# ---------------------------------------------------------------------------
# sampled checks


def _check_samples(report: VerificationReport, check: str, samples, condition) -> None:
    """Run one sampled inequality ``measured <= required + slack`` into ``report``.

    ``condition(x, u)`` gets the sample as lists of plain floats and returns
    None where the premise fails, else ``(measured, required, slack, detail)``.
    Every sample counts as tested; those meeting the premise count as checked
    and add the margin ``required + slack - measured``.  A NaN on either side
    is a violation.
    """
    for s_idx, (x, u) in enumerate(samples):
        report.samples_tested += 1
        x, u = x.tolist(), u.tolist()
        outcome = condition(x, u)
        if outcome is None:
            continue
        measured, required, slack, detail = outcome
        report.samples_checked += 1
        report.add_margin(required + slack - measured)
        if not measured <= required + slack:
            report.violations.append(Violation(
                sample_index=s_idx, point=_point_json(x, u), measured=measured,
                required=required, detail=detail, check=check))


def _draw_samples(report: VerificationReport, net: NetworkSpec, sampler: SamplerSpec,
                  flow: bool = True, jump_seed: Optional[int] = None,
                  sub: Optional[int] = None):
    """Flow and jump samples for one report, or None if a sampler came up empty.

    Jump samples use the seed ``sampler.seed + jump_seed`` and are skipped
    when ``jump_seed`` is None; a structurally empty jump set yields none and
    a note.  An empty sampler marks the report inconclusive; a set with fewer
    points than asked adds a note.
    """
    flow_pts, jump_pts = [], []
    try:
        if flow:
            flow_pts = flow_set_samples(net, sampler, sub=sub)
        if jump_seed is not None:
            if net.jump_set_structurally_empty(sub):
                report.notes.append("empty jump set: jump condition is vacuous")
            else:
                jump_pts = jump_set_samples(
                    net, dataclasses.replace(sampler, seed=sampler.seed + jump_seed), sub=sub)
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
    """Max norm of a row of plain floats; 0 for an empty input vector."""
    return max(map(abs, v), default=0.0)


def _active_flow_bound(cert: CompositeCertificate, net: NetworkSpec, x: list, u: list,
                       pieces: List[Tuple[float, float]],
                       fallback_level: float) -> Tuple[float, int]:
    """Worst scaled directional derivative over the active pieces, and its index.

    ``pieces`` is ``cert.pieces(x)``.  A piece at level zero takes the
    inverse-path slope at ``fallback_level``.  With no active piece (a NaN
    level makes the value NaN) the bound is NaN and the index -1, so the
    flow conditions record a violation.
    """
    direction = net.flow_raw(x + u)
    active = active_set(pieces)
    if not active:
        return math.nan, -1
    worst, worst_i = -math.inf, active[0]
    for i in active:
        w = pieces[i][0]
        slope = _sigma_inv_slope(cert.path, i, w if w > 0 else max(fallback_level, 1e-9))
        _v, _lo, hi = cert._bound_fns[i](x, direction)
        piece = slope * hi
        if piece > worst:
            worst, worst_i = piece, i
    return worst, worst_i


def _point_json(x: list, u: list) -> dict:
    return {"x": list(x), "u": list(u)}


# ---------------------------------------------------------------------------
# verifiers


def verify_subsystem(cands: Sequence[SubsystemLyapunov], index: int, net: NetworkSpec,
                     sampler: SamplerSpec,
                     tolerances: Optional[VerifyTolerances] = None) -> VerificationReport:
    """Check one subsystem's sandwich, gain-implication flow, and jump conditions.

    Flow samples are drawn from the subsystem's flow set; the decay bound is
    only enforced where this subsystem's value dominates every gain-scaled
    neighbor value and the external gain of the input.
    """
    tol = tolerances or VerifyTolerances()
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
        _val, _lo, hi = bound_fn(x, net.flow_raw(x + u))
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
    if checked_flow == 0:
        report.verdict = "inconclusive"
        report.notes.append("no flow sample satisfied the gain premise")
        return report
    return report.finalize()


def _check_sandwich(report, cand, x_sub, vi, s_idx, tol):
    mag = _max_norm(x_sub)
    lo, hi = cand.psi1(mag), cand.psi2(mag)
    slack = tol.sandwich_rel * max(1.0, abs(vi))
    if not lo - slack <= vi <= hi + slack:  # a NaN side is a violation
        report.violations.append(Violation(
            sample_index=s_idx, point={"x_i": x_sub},
            measured=vi, required=lo if vi < lo else hi,
            detail="sandwich bound", check="sandwich"))


def _require_shared_jump_set(net: NetworkSpec):
    if not net.jump_sets_equal:
        raise JumpSetMismatchError(
            "composite conditions assume one shared jump set; "
            "the configured subsystems have differing jump sets")


def verify_composite_flow(cert: CompositeCertificate, net: NetworkSpec,
                          sampler: SamplerSpec,
                          tolerances: Optional[VerifyTolerances] = None) -> VerificationReport:
    """Decay of the composite function along the flow, via active indices.

    For each flow sample past the input-gain threshold, every active index's
    scaled piece must decrease at rate alpha; checking the active pieces
    covers the full generalized gradient of the max-composition.  The
    measured decay floor is reported as the empirical rate.
    """
    tol = tolerances or VerifyTolerances()
    _require_shared_jump_set(net)
    report = VerificationReport(condition="composite-flow")
    drawn = _draw_samples(report, net, sampler)
    if drawn is None:
        return report

    alpha_ratio = math.inf

    def flow(x, u):
        nonlocal alpha_ratio
        pieces = cert.pieces(x)
        value = _top_level(pieces)
        if not cert.gamma.is_zero and value < cert.gamma(_max_norm(u)):
            return None
        worst, worst_i = _active_flow_bound(cert, net, x, u, pieces, value)
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


def verify_composite_jump(cert: CompositeCertificate, net: NetworkSpec,
                          sampler: SamplerSpec,
                          tolerances: Optional[VerifyTolerances] = None) -> VerificationReport:
    """Jump samples must satisfy V after the jump <= max(lam(V), gamma(|u|))."""
    tol = tolerances or VerifyTolerances()
    _require_shared_jump_set(net)
    report = VerificationReport(condition="composite-jump")
    drawn = _draw_samples(report, net, sampler, flow=False, jump_seed=0)
    if drawn is None:
        return report

    def jump(x, u):
        rhs = cert.lam(cert.value(x))
        if not cert.gamma.is_zero:
            rhs = max(rhs, cert.gamma(_max_norm(u)))
        return (cert.value(net.jump_raw(x + u)), rhs,
                max(tol.jump_abs, tol.jump_rel * abs(rhs)), "composite jump contraction")

    _check_samples(report, "jump", drawn[1], jump)
    return report.finalize()
