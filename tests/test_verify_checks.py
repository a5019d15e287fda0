"""Every sampled certificate check trips on a forged copy of the e1 config."""

import json

import pytest

from conftest import load_json
from hsgt.cli import main
from hsgt.reporting import VerificationReport, Violation


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


@pytest.mark.parametrize("forge,which,expected", CASES,
                         ids=[f"{f}-{w}" for f, w, _e in CASES])
def test_forged_config_trips_its_check(tmp_path, capsys, forge, which, expected):
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = 300
    FORGES[forge](cfg)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(path), "--which", which, "--out", str(out)]) == 1
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
