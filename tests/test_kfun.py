"""Comparison-function algebra: classification, composition, inversion, lattice."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgt import expr as ex
from hsgt.kfun import (Classification, KFun, KFunError, KRangeError, classify,
                       compose, default_grid, inverse_kfun, invert,
                       pointwise_max, pointwise_min)


@pytest.mark.parametrize("text, expected", [
    ("2*s", Classification.CLASS_K_INF),
    ("s/(1+s)", Classification.CLASS_K),
    ("1+s", Classification.UNVERIFIED),
    ("s^2", Classification.CLASS_K_INF),
    ("s + s^3", Classification.CLASS_K_INF),
    ("s/(1+s^2)", Classification.POSITIVE_DEFINITE),
])
def test_classification(text, expected):
    assert KFun.from_text(text).classification is expected


@pytest.mark.parametrize("text", ["exp(s)-1", "s^2", "exp(s)"])
def test_classify_agrees_with_construction(text):
    # overflow on the grid counts as unbounded growth on both paths
    f = KFun.from_text(text)
    assert classify(f) is f.classification


def test_classify_rejects_coarse_grid():
    f = KFun.from_text("2*s")
    with pytest.raises(ValueError):
        classify(f, np.geomspace(1e-6, 1e6, 16))


def test_zero_function_is_distinguished():
    z = KFun.zero()
    assert z.is_zero
    assert z(3.7) == 0.0
    assert compose(KFun.from_text("2*s"), z).is_zero
    assert compose(z, KFun.from_text("2*s")).is_zero


@pytest.mark.parametrize("outer, inner, point, expected", [
    ("2*s", "3*s", 5.0, 30.0),
    ("s^2", "s^2", 3.0, 81.0),
    ("0.5*s", "0.5*s", 8.0, 2.0),
])
def test_compose_pointwise(outer, inner, point, expected):
    f = compose(KFun.from_text(outer), KFun.from_text(inner))
    assert f(point) == pytest.approx(expected, rel=1e-12)


def test_compose_recomputes_classification():
    bounded = KFun.from_text("s/(1+s)")
    f = compose(bounded, KFun.from_text("2*s"))
    assert f.classification is Classification.CLASS_K


@pytest.mark.parametrize("text, y, expected", [
    ("2*s", 4.0, 2.0),
    ("s + s^3", 2.0, 1.0),
    ("0.25*s", 1.0, 4.0),
])
def test_invert(text, y, expected):
    assert invert(KFun.from_text(text), y) == pytest.approx(expected, rel=1e-9)


def test_invert_zero_target_is_zero():
    assert invert(KFun.from_text("s + s^3"), 0.0) == 0.0


def test_invert_accepts_bracket_hint():
    f = KFun.from_text("s + s^3")
    assert invert(f, 2.0, bracket_hint=5.0) == pytest.approx(1.0, rel=1e-9)
    assert invert(f, 2.0, bracket_hint=0.01) == pytest.approx(1.0, rel=1e-9)


def test_invert_above_bounded_range_raises():
    f = KFun.from_text("s/(1+s)")
    with pytest.raises(KRangeError):
        invert(f, 2.0)


def test_invert_requires_monotone_class():
    f = KFun.from_text("s/(1+s^2)")
    with pytest.raises(KFunError):
        invert(f, 0.2)


_KINF_TEXTS = ("2*s", "0.5*s", "s + s^3", "s^2", "0.1*s + 0.3*s^2", "3*s/(1+s) + 0.5*s")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_KINF_TEXTS),
       st.floats(min_value=math.log(1e-4), max_value=math.log(1e4)))
def test_inversion_round_trip(text, logr):
    f = KFun.from_text(text)
    r = math.exp(logr)
    assert invert(f, f(r)) == pytest.approx(r, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINF_TEXTS), st.sampled_from(_KINF_TEXTS),
       st.sampled_from(_KINF_TEXTS), st.floats(min_value=1e-3, max_value=1e3))
def test_compose_is_associative_pointwise(a, b, c, s):
    fa, fb, fc = (KFun.from_text(t) for t in (a, b, c))
    left = compose(compose(fa, fb), fc)
    right = compose(fa, compose(fb, fc))
    assert left(s) == pytest.approx(right(s), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text", ["s/(1+s^2)", "min(s, 2-s+abs(s-1))", "abs(s-1)"])
def test_classify_never_upgrades_nonmonotone(text):
    f = KFun.from_text(text)
    assert f.classification not in (Classification.CLASS_K, Classification.CLASS_K_INF)


def test_pointwise_max_examples():
    f = pointwise_max([KFun.from_text("s^2"), KFun.from_text("2*s")])
    assert f(1.0) == pytest.approx(2.0)
    assert f(4.0) == pytest.approx(16.0)
    g = pointwise_max([KFun.identity(), KFun.from_text("0.5*s")])
    for r in (0.3, 1.0, 7.0):
        assert g(r) == pytest.approx(r)


def test_pointwise_min_examples():
    f = pointwise_min([KFun.identity(), KFun.from_text("2*s")])
    for r in (0.2, 1.0, 9.0):
        assert f(r) == pytest.approx(r)


def test_pointwise_max_of_kinf_is_kinf():
    f = pointwise_max([KFun.from_text("s^2"), KFun.from_text("2*s")])
    assert f.classification is Classification.CLASS_K_INF


def test_pointwise_empty_rejected():
    with pytest.raises(KFunError):
        pointwise_max([])


def test_pointwise_zero_shortcuts():
    f = KFun.from_text("2*s")
    assert pointwise_max([KFun.zero(), f])(3.0) == pytest.approx(6.0)
    assert pointwise_min([KFun.zero(), f]).is_zero


def test_piecewise_linear_and_exact_inverse():
    f = KFun.piecewise_linear([1.0, 2.0, 4.0], [0.5, 1.5, 4.5])
    assert f(0.5) == pytest.approx(0.25)   # interpolated through the origin
    assert f(3.0) == pytest.approx(3.0)
    assert f(8.0) == pytest.approx(4.5 + 1.5 * 4.0)  # tail slope 1.5
    inv = inverse_kfun(f)
    for r in (0.2, 1.0, 2.5, 6.0, 20.0):
        assert inv(f(r)) == pytest.approx(r, rel=1e-12)


def test_linear_fast_path_detection():
    f = KFun.from_text("0.5*s")
    assert f.linear_slope == pytest.approx(0.5)
    assert KFun.from_text("s + s^2").linear_slope is None


def test_grid_metadata_recorded():
    f = KFun.from_text("2*s")
    assert f.grid_info is not None
    assert f.grid_info.points >= 64
    assert f.grid_info.lo <= 1e-6 and f.grid_info.hi >= 1e6


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_KINF_TEXTS), st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_classified_k_functions_are_monotone_samples(text, a, b):
    f = KFun.from_text(text)
    lo, hi = sorted((a, b))
    if hi > lo:
        assert f(hi) >= f(lo)


# ---------------------------------------------------------------------------
# the array call against the scalar call, lane by lane


def _array_kfuns():
    cubic = KFun.from_text("s + s^3")
    knots = KFun.piecewise_linear([1.0, 2.0, 4.0], [0.5, 1.5, 2.0])
    return {
        "linear": KFun.linear(0.37),
        "linear-text": KFun.from_text("0.3*s"),
        "saturating": KFun.from_text("0.3*s/(1 + s) + 0.2*s"),
        "exp": KFun.from_text("exp(s) - 1"),
        "log": KFun.from_text("log(s) + s"),
        "pow": KFun.from_text("s^0.5 + max(s, 2*s - 1)"),
        "min-max": KFun.from_text("min(s, 1) + max(0.2*s, s/(1 + s)) + log(1 + s)"),
        "reciprocal": KFun.from_text("s + 1/s"),
        "zero": KFun.zero(),
        "piecewise": knots,
        "callable": KFun.from_callable(lambda s: s / (1.0 + math.sqrt(s)), "s/(1+sqrt(s))"),
        "inverse": inverse_kfun(cubic),
        "piecewise-inverse": inverse_kfun(knots),
        "composed": compose(cubic, knots),
    }


_ARRAY_KFUNS = _array_kfuns()
_KFUN_LANES = st.floats(min_value=0.0, max_value=1e3) | st.sampled_from(
    [0.0, -0.0, 1e-300, 0.25, 1.0, 709.0, 710.0, 1e300, -1.0, math.inf, math.nan])


def _scalar_outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the lane loop of a callable passes on any error
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_ARRAY_KFUNS)), st.lists(_KFUN_LANES, min_size=1, max_size=12))
def test_array_call_matches_scalar_call_lane_by_lane(name, lanes):
    f = _ARRAY_KFUNS[name]
    got = _scalar_outcome(lambda: f.array(np.array(lanes)))
    for s in lanes:  # the first lane that raises decides the array call's error
        value = _scalar_outcome(lambda: f(s))
        if isinstance(value, tuple):
            assert got == value
            return
    assert [struct.pack("<d", v) for v in got.tolist()] == \
        [struct.pack("<d", f(s)) for s in lanes]


def test_array_compiles_lazily():
    f = KFun.from_text("0.3*s/(1 + s) + 0.2*s")
    assert "_array_fn" not in vars(f)
    f.array(np.array([1.0, 2.0]))
    assert "_array_fn" in vars(f)
