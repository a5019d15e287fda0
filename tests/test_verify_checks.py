"""Every sampled certificate check trips on a forged copy of the e1 config; evaluation
errors, NaN sides and the input branch (configs/e1_iss.json) trip them as well."""

import dataclasses
import json
import math
import struct
import warnings

import numpy as np
import pytest

from conftest import cert_value, config_path, load_json
from hsgt.cli import _emit, main
from hsgt.config import load_config
from hsgt.equiv import _verify_w_form, to_w_form
from hsgt.expr import EvalDomainError
from hsgt.lyapunov import VerifyTolerances, _check_sandwich, _check_samples, build_composite, \
    verify_composite_flow, verify_subsystem
from hsgt.reporting import VerificationReport, Violation
from reference_verify import add_margin
from test_block_verify import _premise_never_met


def _psi1_doubled(cfg):
    cfg["lyapunov"]["subsystems"][0]["psi1"] = "2*s"


def _jump_scaled(factor):
    def forge(cfg):
        for i, sub in enumerate(cfg["network"]["subsystems"]):
            sub["jump"] = [f"{factor}*x_{i + 1}"]
    return forge


def _alpha_raised(cfg):
    for sub in cfg["lyapunov"]["subsystems"]:
        sub["alpha"] = "0.9*s"


FORGES = {
    "psi1_doubled": _psi1_doubled,
    "jump_0.6": _jump_scaled("0.6"),
    "jump_1.0": _jump_scaled("1.0"),
    "alpha_0.9": _alpha_raised,
}

# forge, --which, and per report either None (passes) or the (check, detail
# prefix) every listed violation must carry.
CASES = [
    ("psi1_doubled", "subsystem", {"subsystem-1": ("sandwich", "sandwich bound"),
                                   "subsystem-2": None}),
    ("jump_0.6", "subsystem", {"subsystem-1": ("jump", "jump contraction"),
                               "subsystem-2": ("jump", "jump contraction")}),
    ("jump_0.6", "composite", {"composite-flow": None,
                               "composite-jump": ("jump", "composite jump contraction")}),
    ("jump_1.0", "wform", {"norm-threshold-form": ("jump", "norm-threshold jump decrease"),
                           "gain-implication-jump": ("jump", "recovered jump inequality")}),
    ("alpha_0.9", "subsystem",
     {"subsystem-1": ("flow", "flow decay under the gain premise"),
      "subsystem-2": ("flow", "flow decay under the gain premise")}),
    ("alpha_0.9", "composite", {"composite-flow": ("flow", "flow decay at active index"),
                                "composite-jump": None}),
    ("alpha_0.9", "wform", {"norm-threshold-form": ("flow", "norm-threshold flow decay"),
                            "gain-implication-jump": None}),
]


def _e1_with(tmp_path, edit, n_samples=1500):
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = n_samples
    edit(cfg)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("forge,which,expected", CASES,
                         ids=[f"{f}-{w}" for f, w, _e in CASES])
def test_forged_config_trips_its_check(tmp_path, capsys, forge, which, expected):
    path = _e1_with(tmp_path, FORGES[forge], n_samples=300)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--which", which, "--out", str(out)]) == 1
    capsys.readouterr()
    reports = {r["condition"]: r for r in json.loads(out.read_text())["reports"]
               if "condition" in r}
    assert set(reports) == set(expected)
    for condition, want in expected.items():
        report = reports[condition]
        if want is None:
            assert report["verdict"] == "pass", condition
            continue
        check, detail = want
        assert report["verdict"] == "fail", condition
        first = report["violations"][0]
        assert first["check"] == check and first["detail"].startswith(detail), first
        assert {v["check"] for v in report["violations"]} == {check}


def test_violations_sort_by_check_then_index():
    report = VerificationReport(condition="ordering")
    for check, index in (("sandwich", 0), ("jump", 3), ("flow", 1_500_000), ("jump", 0)):
        report.violations.append(Violation(sample_index=index, point={}, measured=1.0,
                                           required=0.0, check=check))
    report.finalize()
    assert [(v.check, v.sample_index) for v in report.violations] == [
        ("flow", 1_500_000), ("jump", 0), ("jump", 3), ("sandwich", 0)]
    assert report.to_json()["violations"][0]["check"] == "flow"


def test_violations_fail_a_report_whose_premise_no_sample_met(tmp_path):
    cfg = load_config(_e1_with(tmp_path, _premise_never_met, n_samples=300))
    report = verify_subsystem(cfg.candidates, 0, cfg.network, cfg.sampler, cfg.tolerances)
    assert report.verdict == "fail"
    assert report.notes == ["no flow sample satisfied the gain premise"]
    order = [(v.check, v.sample_index) for v in report.violations]
    assert order == sorted(order) and {c for c, _i in order} == {"jump", "sandwich"}
    assert report.summary_line().startswith("[FAIL] subsystem-1: 300/600 samples checked")


def test_finalize_sets_the_verdict():
    def verdict(violations=0, empty_draw=False, unchecked=None):
        report = VerificationReport(condition="rule")
        report.violations = [Violation(sample_index=i, point={}, measured=1.0, required=0.0)
                             for i in range(violations)]
        if empty_draw:
            report.verdict = "inconclusive"
        return report.finalize(unchecked).verdict, report.notes

    assert verdict() == ("pass", [])
    assert verdict(violations=1) == ("fail", [])
    assert verdict(violations=1, unchecked="why") == ("fail", ["why"])
    assert verdict(violations=1, empty_draw=True) == ("fail", [])
    assert verdict(unchecked="why") == ("inconclusive", ["why"])
    assert verdict(empty_draw=True) == ("inconclusive", [])


# every jump check: forge, --which, report, detail
JUMP_CHECKS = [
    ("jump_0.6", "subsystem", "subsystem-1", "jump contraction"),
    ("jump_0.6", "composite", "composite-jump", "composite jump contraction"),
    ("jump_1.0", "wform", "norm-threshold-form", "norm-threshold jump decrease"),
    ("jump_1.0", "wform", "gain-implication-jump", "recovered jump inequality"),
]


def _verify_reports(tmp_path, capsys, path, which):
    out = tmp_path / "report.json"
    main(["verify", "--config", path, "--which", which, "--out", str(out)])
    capsys.readouterr()
    return {r["condition"]: r for r in json.loads(out.read_text())["reports"]
            if "condition" in r}


@pytest.mark.parametrize("forge,which,condition,detail", JUMP_CHECKS,
                         ids=[c for _f, _w, c, _d in JUMP_CHECKS])
def test_jump_checks_take_the_jump_slack_not_the_flow_slack(tmp_path, capsys, forge, which,
                                                            condition, detail):
    """With the flow slack at 1, a jump sample that exceeds its bound by less than 1
    but by more than the jump slack is still a violation."""
    def edit(cfg):
        FORGES[forge](cfg)
        cfg["analysis"]["tolerances"]["flow"] = 1.0
    report = _verify_reports(tmp_path, capsys, _e1_with(tmp_path, edit, n_samples=300),
                             which)[condition]
    excess = [v["measured"] - v["required"] for v in report["violations"]
              if v["check"] == "jump" and v["detail"] == detail]
    assert report["verdict"] == "fail"
    assert excess and all(0.0 < e < 1.0 for e in excess)


def test_recovered_jump_margin_ignores_the_flow_slack(tmp_path, capsys):
    margins = []
    for flow in (1e-7, 1.0):
        path = _e1_with(tmp_path, lambda c: c["analysis"]["tolerances"].update(flow=flow),
                        n_samples=300)
        report = _verify_reports(tmp_path, capsys, path, "wform")["gain-implication-jump"]
        margins.append(report["margin_min"])
    assert margins[0] == margins[1]


# ---------------------------------------------------------------------------
# evaluation on plain-float rows


def _v2_divides_by_zero(cfg):
    cfg["lyapunov"]["subsystems"][1]["v"] = "x_2^2/abs(x_2)"


def test_division_by_zero_in_a_candidate_is_an_evaluation_error(tmp_path, capsys):
    # the norm-threshold fit evaluates V on the axes, where x_2 = 0
    path = _e1_with(tmp_path, _v2_divides_by_zero)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", path, "--which", "wform"]) == 1
    assert "analysis failed: float division by zero in x_2^2.0/abs(x_2)" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_certificate_value_raises_at_an_axis_point(tmp_path):
    cfg = load_config(_e1_with(tmp_path, _v2_divides_by_zero))
    cert = build_composite(cfg.candidates, cfg.gain_matrix, cfg.network, anchor=cfg.anchor,
                           options=cfg.sg_options)
    assert cert_value(cert, [0.5, 0.25]) == 0.5
    with pytest.raises(EvalDomainError, match=r"float division by zero in x_2\^2.0/abs\(x_2\)"):
        cert_value(cert, [0.5, 0.0])


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_nan_certificate_fails_every_composite_sample(tmp_path, capsys):
    # inf*x - inf*x is NaN everywhere, so no composite sample may pass
    path = _e1_with(tmp_path, lambda c: c["lyapunov"]["subsystems"][0].update(
        v="abs(x_1) + 1e300*1e300*x_1 - 1e300*1e300*x_1"))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--which", "composite", "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    reports = {r["condition"]: r for r in report["reports"]}
    for condition in ("composite-flow", "composite-jump"):
        assert reports[condition]["verdict"] == "fail"
        assert reports[condition]["violation_count"] == reports[condition]["samples_checked"]
        assert reports[condition]["samples_checked"] == 1500
    # a NaN value has no active piece: the bound is NaN and names no index
    for v in reports["composite-flow"]["violations"]:
        assert v["measured"] == "NaN" and v["detail"] == "flow decay with no active piece"


def test_norm_threshold_flow_fails_on_a_nan_certificate(e1_cert, e1_config):
    sampler = dataclasses.replace(e1_config.sampler, n_samples=200)
    wf, _report = to_w_form(e1_cert, e1_config.network, sampler)
    nan_cert = dataclasses.replace(e1_cert, _v_fns=[lambda x: math.nan] * e1_cert.n)
    report = _verify_w_form(dataclasses.replace(wf, v_form=nan_cert), e1_config.network,
                            sampler, VerifyTolerances())
    flow = [v for v in report.violations if v.check == "flow"]
    assert report.verdict == "fail"
    assert len(flow) == 200 and all(math.isnan(v.measured) for v in flow)


def test_reports_write_non_finite_numbers_as_strings(tmp_path):
    out = tmp_path / "report.json"
    _emit({"a": [math.nan, math.inf, -math.inf, 0.1, -0.0, 5e-324, np.float64(1 / 3)],
           "b": (1, "x", None, 2 ** 70), "c": {10: 1.0, 2: math.nan}}, str(out))
    assert out.read_text() == json.dumps(
        {"a": ["NaN", "Infinity", "-Infinity", 0.1, -0.0, 5e-324, 1 / 3],
         "b": [1, "x", None, 2 ** 70], "c": {10: 1.0, 2: "NaN"}}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("measured, required", [
    (math.nan, 0.0), (0.0, math.nan), (1.0, 0.5), (-math.inf, math.nan)])
def test_check_kernel_counts_nan_and_excess_as_violations(measured, required):
    report = VerificationReport(condition="kernel")
    pts = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 0.25]])
    _check_samples(report, "flow", pts, 2, lambda cols: (
        np.array([True, False]), np.array([measured]), np.array([required]), 0.0, "d"))
    assert [v.point for v in report.violations] == [{"x": [1.0, 2.0], "u": [0.5]}]
    assert (report.samples_tested, report.samples_checked) == (2, 1)


def _noisy_margins():
    margins = np.random.default_rng(0).standard_normal(500)
    margins[[7, 300]], margins[[40, 41]], margins[99] = math.nan, (math.inf, -math.inf), -0.0
    return margins.tolist()


@pytest.mark.parametrize("earlier, margins", [
    ([], [math.nan, 1.0, -2.0]),
    ([], [1.0, math.nan, -2.0, 0.5]),
    ([], [math.inf, 1.0, -math.inf, 2.0]),
    ([], [-math.inf, 3.0]),
    ([], [-0.0, 0.0, -0.0]),
    ([], [-0.0, 0.0]),
    ([], [0.0, -0.0]),
    ([], [-0.0]),
    ([-0.0], [-0.0, -0.0]),
    ([0.1, 0.2, 0.7], [1 / 3, -0.0, 5e-324, 1e308, 1e308]),
    ([2.0, math.nan], [-1.0]),
    ([0.5, -1.5], _noisy_margins()),
    ([], _noisy_margins()),
])
def test_check_kernel_margins_match_the_per_sample_update(earlier, margins):
    """The kernel's running minimum and mean carry the bits of one update per sample,
    also onto a report that holds an earlier check's margins."""
    def condition(cols):  # margin = required + (-0.0) - 0.0, which is required, bit for bit
        size = cols.shape[1]
        return np.ones(size, dtype=bool), np.zeros(size), cols[0].copy(), -0.0, "m"

    def bits(report):
        return [None if v is None else struct.pack("<d", v)
                for v in (report.margin_min, report.margin_mean)] + [report.samples_checked]

    got, expected = VerificationReport(condition="kernel"), VerificationReport(condition="loop")
    for block in (earlier, margins):
        if block:
            _check_samples(got, "flow", np.array(block)[:, None], 1, condition)
        for margin in block:
            expected.samples_checked += 1
            add_margin(expected, margin)
    assert bits(got) == bits(expected)


def test_check_kernel_reports_points_as_plain_floats():
    seen = []

    def condition(cols):
        seen.append(cols.tolist())
        return (np.array([False, True]), np.array([1.0]), np.array([0.0]), 0.0,
                np.array(["second"]))
    report = VerificationReport(condition="rows")
    _check_samples(report, "flow", np.array([[1.0, 2.0, 0.5], [3.0, 4.0, -0.5]]), 2, condition)
    assert seen == [[[1.0, 3.0], [2.0, 4.0], [0.5, -0.5]]]  # one call, on columns
    [v] = report.violations
    assert (v.sample_index, v.point, v.detail) == (1, {"x": [3.0, 4.0], "u": [-0.5]}, "second")
    assert {type(c) for c in v.point["x"] + v.point["u"] + [v.measured, v.required]} == {float}


def test_sandwich_check_counts_nan_as_violation():
    report = VerificationReport(condition="sandwich")
    x_sub, vi = np.array([[0.5], [0.5]]), np.array([math.nan, 0.5])
    _check_sandwich(report, x_sub, vi, x_sub[:, 0], x_sub[:, 0], VerifyTolerances())
    assert [(v.sample_index, v.point) for v in report.violations] == [(0, {"x_i": [0.5]})]


def test_composite_flow_evaluates_each_piece_once_per_sample(e1_cert, e1_config):
    calls, lanes = [0] * e1_cert.n, [0] * e1_cert.n

    def counted(i, fn):
        def wrapper(state):
            calls[i] += 1
            lanes[i] += state.shape[1]
            return fn(state)
        return wrapper
    cert = dataclasses.replace(e1_cert, _v_fns=[counted(i, fn)
                                                for i, fn in enumerate(e1_cert._v_fns)])
    sampler = dataclasses.replace(e1_config.sampler, n_samples=200)
    report = verify_composite_flow(cert, e1_config.network, sampler)
    assert report.samples_tested == 200
    assert lanes == [200] * e1_cert.n and calls == [1] * e1_cert.n


# ---------------------------------------------------------------------------
# the input branch (configs/e1_iss.json)


def test_iss_config_passes_all_three_verifies(capsys):
    for which in ("subsystem", "composite", "wform"):
        assert main(["verify", "--config", config_path("e1_iss.json"), "--which", which]) == 0
    out = capsys.readouterr().out
    assert "[PASS] composite-flow: 2128/3000 samples checked, min margin 5.721e-02" in out


def test_e1_candidates_fail_under_inputs(tmp_path, capsys):
    path = _e1_with(tmp_path, lambda c: c["analysis"]["sampler"].update(u_box=[[-1.0, 1.0]]))
    for which, condition in (("subsystem", "subsystem-1"), ("composite", "composite-flow"),
                             ("wform", "norm-threshold-form")):
        assert main(["verify", "--config", path, "--which", which]) == 1
        assert f"[FAIL] {condition}:" in capsys.readouterr().out
