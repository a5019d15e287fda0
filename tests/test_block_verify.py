"""Block verification against the per-sample verifiers it replaced.

``reference_verify`` runs the former per-sample closures on plain floats.  On
e1, e1_iss and e1 variants at 1,500 samples, ``hsgt verify`` must write the
same report bytes and print the same lines, or fail with the same error.  Also
here: the sample-set memo of one command, the evaluation-error contract of the
block stages, and the array building blocks against their scalar forms.
"""

import dataclasses
import json
import math
import struct
import warnings

import numpy as np
import pytest

from conftest import config_path, load_json
from hsgt import expr as ex
from hsgt import sampling
from hsgt.cli import _emit, main
from hsgt.config import load_config
from hsgt.equiv import TransformError
from hsgt.gains import OmegaPathError, SmallGainError
from hsgt.hybrid import HybridError
from hsgt.kfun import KFun, KFunError, inverse_kfun
from hsgt.lyapunov import CertificateError, _active_flow_bound, _default_alpha, \
    _sigma_inv_slope
from reference_hybrid import flow_raw
from reference_verify import _Scalar, default_alpha_fn, reference_verify, sigma_inv_slope
from reference_verify import _active_flow_bound as reference_flow_bound
from test_sampling import _network

ANALYSIS_ERRORS = (SmallGainError, CertificateError, TransformError, OmegaPathError, KFunError,
                   HybridError, ex.EvalDomainError)


def _subsystems(cfg, key, texts):
    for sub, text in zip(cfg["network"]["subsystems"], texts):
        sub[key] = [text] if key in ("jump", "flow") else text


def _candidate(index, **fields):
    return lambda cfg: cfg["lyapunov"]["subsystems"][index].update(fields)


def _premise_never_met(cfg):
    """Subsystem 1's sandwich and jump fail, and no flow sample meets its gain premise."""
    _candidate(0, psi1="2*s")(cfg)
    cfg["gains"]["internal"][0][1] = "1000000*s"
    _subsystems(cfg, "jump", ["1e7*x_1", "0.5*x_2"])


BOX = "max(abs(x_1), abs(x_2))"
VARIANTS = {
    "e1": lambda cfg: None,
    "u_box": lambda cfg: cfg["analysis"]["sampler"].update(u_box=[[-1.0, 1.0]]),
    "psi1_2s": _candidate(0, psi1="2*s"),
    "premise_never_met": _premise_never_met,
    "jump_0.6": lambda cfg: _subsystems(cfg, "jump", ["0.6*x_1", "0.6*x_2"]),
    "jump_1.0": lambda cfg: _subsystems(cfg, "jump", ["1.0*x_1", "1.0*x_2"]),
    "alpha_0.9": lambda cfg: [_candidate(i, alpha="0.9*s")(cfg) for i in (0, 1)],
    "jump_guards_1": lambda cfg: _subsystems(cfg, "jump_guard", ["1", "1"]),
    "flow_guard_1": lambda cfg: _subsystems(cfg, "flow_guard", ["1", "1"]),
    "v1_square": _candidate(0, v="x_1^2"),
    "v2_max": _candidate(1, v="max(x_2, 0 - x_2)"),
    # probes: a division by zero on an axis, and a NaN certificate
    "v2_divides_by_zero": _candidate(1, v="x_2^2/abs(x_2)"),
    "v1_nan": _candidate(0, v="abs(x_1) + 1e300*1e300*x_1 - 1e300*1e300*x_1"),
    "v2_nan": _candidate(1, v="abs(x_2) + 1e300*1e300*x_2 - 1e300*1e300*x_2"),
    # signed candidates and no input gains: composite values below zero are checked
    "signed_no_inputs": lambda cfg: (
        [_candidate(i, v=f"x_{i + 1}", external_gain="0")(cfg) for i in (0, 1)],
        cfg["gains"].pop("external")),
    # both divide by zero on an axis; the jump-decay fit meets V_2's zero first
    "both_divide_by_zero": lambda cfg: [_candidate(i, v=f"x_{i + 1}^2/abs(x_{i + 1})")(cfg)
                                        for i in (0, 1)],
    # subsystem 2's jump map fails where x_2 <= -1; subsystem 1's check never maps x_2
    "jump2_log": lambda cfg: _subsystems(cfg, "jump", ["0.5*x_1", "0.5*x_2 + 0*log(x_2 + 1)"]),
    # the second subsystem's own flow and jump sets are larger
    "own_guards": lambda cfg: (_subsystems(cfg, "flow_guard", [f"{BOX} - 1", f"{BOX} - 1.5"]),
                               _subsystems(cfg, "jump_guard", [f"1 - {BOX}", f"1.5 - {BOX}"])),
}


def _config(tmp_path, name, n_samples=1500):
    if name == "e1_iss":
        cfg = load_json("e1_iss.json")
    else:
        cfg = load_json("e1.json")
        VARIANTS[name](cfg)
    cfg["analysis"]["sampler"]["n_samples"] = n_samples
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_block(path, which, out, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["verify", "--config", path, "--which", which, "--out", str(out)])
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc, captured


@pytest.mark.parametrize("which", ["subsystem", "composite", "wform"])
@pytest.mark.parametrize("name", ["e1_iss"] + list(VARIANTS))
def test_block_verify_matches_per_sample_reference(tmp_path, capsys, name, which):
    path = _config(tmp_path, name)
    rc, captured = _run_block(path, which, tmp_path / "block.json", capsys)
    printed = []
    try:
        expected = reference_verify(load_config(path), which, printed)
    except ANALYSIS_ERRORS as exc:
        assert (rc, captured.err) == (1, f"analysis failed: {exc}\n")
        assert captured.out.splitlines() == printed
        return
    ref_rc, lines, report = expected
    _emit(report, str(tmp_path / "reference.json"))
    assert (tmp_path / "block.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert (rc, captured.out.splitlines(), captured.err) == (ref_rc, lines, "")


def test_reference_covers_margins_ratios_violations_and_nan_sides(tmp_path, capsys):
    """The differential cases above exercise what they must compare."""
    seen = {}
    for name, which in (("e1", "composite"), ("alpha_0.9", "composite"), ("v1_nan", "composite"),
                        ("jump_1.0", "wform"), ("u_box", "subsystem")):
        _rc, _lines, report = reference_verify(load_config(_config(tmp_path, name)), which)
        seen[name] = {r["condition"]: r for r in report["reports"] if "condition" in r}
    assert "empirical_alpha_min_ratio" in seen["e1"]["composite-flow"]["extras"]
    assert "margin_mean" in seen["e1"]["composite-flow"]
    assert seen["alpha_0.9"]["composite-flow"]["violation_count"] > 1
    assert math.isnan(seen["v1_nan"]["composite-flow"]["violations"][0]["measured"])
    assert seen["jump_1.0"]["norm-threshold-form"]["violation_count"] > 1
    assert seen["u_box"]["subsystem-1"]["violation_count"] > 1


@pytest.mark.parametrize("name", ["v2_divides_by_zero", "both_divide_by_zero"])
def test_division_by_zero_probe_still_fails_the_same_way(tmp_path, capsys, name):
    """The fit's first point (r, 0) fails in V_2; the first point where V_1 fails,
    (0, r), comes later, so the error of the first failing sample names V_2."""
    path = _config(tmp_path, name)
    rc, captured = _run_block(path, "wform", tmp_path / "out.json", capsys)
    assert rc == 1
    assert captured.err == "analysis failed: float division by zero in x_2^2.0/abs(x_2)\n"


# ---------------------------------------------------------------------------
# stages run only where the per-sample closures ran


def test_bounds_failing_outside_the_gain_premise_are_never_evaluated(tmp_path, capsys):
    """e1_iss with the input held at 0.5: subsystem 1's gain premise needs
    |x_1| >= 0.5.  V_1's value is abs(x_1) everywhere, but its chain rule takes
    ``m^-0.5`` at ``m = 0``, which holds wherever |x_1| <= 0.5: outside the
    premise, where the flow bound is never evaluated."""
    v1 = "abs(x_1) + 0*max(0, abs(x_1) - 0.5)^0.5"
    cfg = load_json("e1_iss.json")
    cfg["analysis"]["sampler"].update(n_samples=1500, u_box=[[0.5, 0.5]])
    cfg["lyapunov"]["subsystems"][0]["v"] = v1
    path = tmp_path / "premise.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ex.EvalDomainError, match="math domain error"):
        ex.compile_bounds(ex.parse(v1, ["x_1"]), ("x_1",))([0.25], [1.0])
    expected = reference_verify(load_config(str(path)), "subsystem")
    rc, captured = _run_block(str(path), "subsystem", tmp_path / "out.json", capsys)
    assert (rc, captured.out.splitlines(), captured.err) == (expected[0], expected[1], "")
    assert rc == 0 and captured.out.startswith("[PASS] subsystem-1")


# ---------------------------------------------------------------------------
# one draw per sample set and command


def _counting_draws(monkeypatch):
    calls = []
    real = sampling.sample_set

    def counted(net, guard, spec):
        calls.append(spec.seed)
        return real(net, guard, spec)
    monkeypatch.setattr(sampling, "sample_set", counted)
    return calls


@pytest.mark.parametrize("name, draws", [("e1", 2), ("own_guards", 4)])
def test_subsystem_verify_draws_each_distinct_set_once(tmp_path, capsys, monkeypatch,
                                                       name, draws):
    path = _config(tmp_path, name)
    calls = _counting_draws(monkeypatch)
    rc, captured = _run_block(path, "subsystem", tmp_path / "block.json", capsys)
    assert len(calls) == draws
    monkeypatch.undo()
    ref_rc, lines, report = reference_verify(load_config(path), "subsystem")
    _emit(report, str(tmp_path / "reference.json"))
    assert (tmp_path / "block.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert (rc, captured.out.splitlines()) == (ref_rc, lines)


def test_flow_guards_alone_differing_share_the_jump_set(tmp_path, capsys, monkeypatch):
    cfg = load_json("e1.json")
    cfg["analysis"]["sampler"]["n_samples"] = 300
    _subsystems(cfg, "flow_guard", [f"{BOX} - 1", f"{BOX} - 1.5"])
    path = tmp_path / "flow_guards.json"
    path.write_text(json.dumps(cfg))
    calls = _counting_draws(monkeypatch)
    _run_block(str(path), "subsystem", tmp_path / "out.json", capsys)
    assert calls == [0, 1, 0]  # two flow sets, one shared jump set (seed + 1)


def test_memo_lives_in_one_command(tmp_path, capsys, monkeypatch):
    path = _config(tmp_path, "e1", n_samples=300)
    calls = _counting_draws(monkeypatch)
    for _ in range(2):
        _run_block(path, "composite", tmp_path / "out.json", capsys)
    assert calls == [0, 0, 0, 0]  # flow and jump (seed + 0) in each call


def test_memo_hands_out_read_only_blocks():
    cfg = load_config(config_path("e1.json"))
    memo = sampling.SampleMemo()
    spec = sampling.SamplerSpec(n_samples=200, box_radius=2.0, seed=3)
    first = sampling.flow_set_samples(cfg.network, spec, sub=0, memo=memo)
    assert sampling.flow_set_samples(cfg.network, spec, sub=1, memo=memo) is first
    assert sampling.flow_set_samples(cfg.network, spec, memo=memo) is not first
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


# ---------------------------------------------------------------------------
# array building blocks against their scalar forms


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _nonlinear_path(e1_cert):
    """e1's path with the nonlinear components sigma(r) = r + r^2 and 2r + r^3."""
    sigmas = [KFun.from_text("s + s^2"), KFun.from_text("2*s + s^3")]
    return dataclasses.replace(e1_cert.path, sigmas=sigmas,
                               sigma_invs=[inverse_kfun(s) for s in sigmas])


def test_array_maps_match_scalar_maps_row_by_row():
    net = _network([("x_1/x_2 - 1", "x_1 - u_1"), ("max(x_2, 0.5) - 1", "min(x_1, u_1)")])
    rng = np.random.default_rng(0)
    rows = np.concatenate([rng.uniform(-2.0, 2.0, (64, 2)), rng.uniform(-1.0, 1.0, (64, 1))],
                          axis=1)
    rows[:4, 1] = 0.0  # the first guard divides by x_2 here, but only as a flow guard
    cols = rows.T.copy()
    assert net.flow_array(cols).T.tolist() == [flow_raw(net, r) for r in rows.tolist()]
    jumped = net.jump_array(cols).T.tolist()
    assert jumped == [net.jump_raw(r) for r in rows.tolist()]
    assert 0 < sum(a != r[:2] for a, r in zip(jumped, rows.tolist())) < 64
    for i in (0, 1):
        mapped = net.sub_jump_array(i, cols).T.tolist()
        assert mapped == [[0.5 * r[i]] for r in rows.tolist()]


def test_sigma_inv_slope_on_lanes_matches_scalar(e1_cert):
    path = _nonlinear_path(e1_cert)
    W = np.array([0.0, 1e-9, 5e-7, 1e-6, 2e-6, 0.3, 1.0, 7.5, 1e3])
    for i in range(path.n):
        got = _sigma_inv_slope(path, i, W)
        assert _bits(got.tolist()) == _bits([sigma_inv_slope(path, i, w) for w in W.tolist()])
    linear = _sigma_inv_slope(e1_cert.path, 0, W)
    assert _bits(linear.tolist()) == _bits([sigma_inv_slope(e1_cert.path, 0, w)
                                           for w in W.tolist()])


def test_active_flow_bound_matches_reference_on_a_nonlinear_path(e1_cert, e1_config):
    """Pieces at level zero take the slope at the fallback level (at least 1e-9)."""
    cert = dataclasses.replace(e1_cert, path=_nonlinear_path(e1_cert))
    net, sc = e1_config.network, _Scalar(cert)
    points = [[0.0, 0.0, 0.3], [0.0, 0.5, 0.3], [0.5, 0.0, -0.3], [0.5, 0.5, 0.0],
              [-0.7, 0.2, 1.0], [1e-12, 0.0, 0.0], [0.2, -0.9, 0.5]]
    cols = np.array(points).T.copy()
    for fallback in (np.zeros(len(points)), np.full(len(points), 0.4),
                     np.array([math.nan, 1e-12, 0.0, 2.0, -1.0, 0.1, 0.7])):
        W, levels = cert.pieces(cols[:2])
        worst, index = _active_flow_bound(cert, net, cols, W, levels, fallback)
        for k, p in enumerate(points):
            want = reference_flow_bound(sc, net, p[:2], p[2:], sc.pieces(p[:2]), float(fallback[k]))
            assert (struct.pack("<d", worst[k]), int(index[k])) == \
                (struct.pack("<d", want[0]), want[1])


def test_default_alpha_matches_scalar_band(e1_cert):
    path = _nonlinear_path(e1_cert)
    cands = e1_cert.candidates
    fn, reference = _default_alpha(path, cands).fn, default_alpha_fn(path, cands)
    for v in (0.0, 1e-8, 0.01, 0.7, 3.0, 40.0):
        assert struct.pack("<d", fn(v)) == struct.pack("<d", reference(v))


_LANES = [0.0, -0.0, 1e-13, -1e-13, 0.5, -0.5, 2.0, -3.0, 1e-200, 1e300, math.inf, -math.inf,
          math.nan]


@pytest.mark.parametrize("text", [
    "abs(x)", "max(x, 0 - x)", "min(x, y, 1)", "x^2/abs(y)", "log(x) + y", "x^0.5*y",
    "exp(x)*y", "max(abs(x), abs(y))", "x*y - y/x", "3", "min(1, 2) + 0*x", "(x - y)^2",
    "max(x, y) - min(x, y)", "x/(y*y)", "min(2, y/x)", "max(1, x^0.5)"])
def test_bounds_array_matches_scalar_bounds_lane_by_lane(text):
    """Each lane alone, and blocks of 16 lanes: bits, or the first failing lane's error."""
    tree = ex.parse(text, ["x", "y"])
    scalar = ex.compile_bounds(tree, ("x", "y"))
    block = ex.compile_bounds_array(tree, ("x", "y"))

    def outcome(fn):
        try:
            return [_bits(lane) for lane in zip(*fn())]
        except ex.EvalDomainError as exc:
            return type(exc), str(exc)

    def scalar_lanes(pts, ds):
        for p, d in zip(pts, ds):
            lane = outcome(lambda: [[v] for v in scalar(list(p), d)])
            if isinstance(lane, tuple):
                return lane
        return [_bits(scalar(list(p), d)) for p, d in zip(pts, ds)]

    rng = np.random.default_rng(0)
    points = [(a, b) for a in _LANES for b in _LANES]
    dirs = rng.uniform(-2.0, 2.0, (len(points), 2)).tolist()
    for width in (1, 16):
        for lo in range(0, len(points), width):
            pts, ds = points[lo:lo + width], dirs[lo:lo + width]
            got = outcome(lambda: block(np.array(pts).T.copy(), np.array(ds).T.copy()))
            assert got == scalar_lanes(pts, ds), (pts, ds)


def test_bounds_array_compiles_on_first_call(monkeypatch):
    """Building a bounds function compiles nothing; its first call compiles its
    value and scalar bounds code and, once per shape, its shape's bounds kernel."""
    made = []
    real = ex._generate

    def counting(expr, var_order, mode):
        made.append(mode)
        return real(expr, var_order, mode)
    monkeypatch.setattr(ex, "_generate", counting)
    before = dict(ex._KERNELS)
    # the exponent gives the two trees a shape that no other test uses
    fn = ex.compile_bounds_array(ex.parse("abs(x)^1.625 + 0.5", ["x"]), ("x",))
    other = ex.compile_bounds_array(ex.parse("abs(x)^1.625 + 2", ["x"]), ("x",))
    assert made == [] and ex._KERNELS == before
    fn(np.array([[1.0]]), np.array([[1.0]]))
    fn(np.array([[2.0]]), np.array([[1.0]]))
    assert sorted(made) == ["bounds", "bounds_array", "value"]
    (key,) = ex._KERNELS.keys() - before.keys()
    assert key[1] == "bounds_array"
    kernel = ex._KERNELS[key]
    other(np.array([[1.0]]), np.array([[1.0]]))  # one kernel per shape, not per function
    assert sorted(made) == ["bounds", "bounds", "bounds_array", "value", "value"]
    assert ex._KERNELS.keys() - before.keys() == {key} and ex._KERNELS[key] is kernel


def test_config_load_compiles_no_array_code(monkeypatch):
    made = []
    real = ex._generate

    def counting(expr, var_order, mode):
        made.append(mode)
        return real(expr, var_order, mode)
    monkeypatch.setattr(ex, "_generate", counting)
    load_config(config_path("e1.json"))
    assert "value" in made and "array" not in made and "bounds_array" not in made
