"""Comparison-function algebra: classification, composition, inversion, lattice."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgt import expr as ex
from hsgt.kfun import (GRID, Classification, KFun, KFunError, KOverflowError, KRangeError,
                       at_least, compose, inverse_kfun, invert, pointwise_max, pointwise_min)


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
    # overflow on the grid counts as unbounded growth, here as in the two-pass reference
    expected = {"exp(s)-1": Classification.CLASS_K_INF, "s^2": Classification.CLASS_K_INF,
                "exp(s)": Classification.UNVERIFIED}[text]
    f = KFun.from_text(text)
    assert f.classification is expected
    assert _reference_construction(f.fn)[0] is expected


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


def test_invert_above_bounded_range_raises():
    f = KFun.from_text("s/(1+s)")
    with pytest.raises(KRangeError):
        invert(f, 2.0)


# exp overflows from s ~ 2.03e6 while the term it scales is still ~1e-12: the
# function is finite up to ~4.06e5 and overflows beyond
_OVERFLOWING = "0.3*s/(1 + s) + 0.2*s + 1e-320*exp(0.00035*s)"


def test_invert_counts_an_overflow_as_above_the_target():
    f = KFun.from_text(_OVERFLOWING)
    assert f.classification is Classification.CLASS_K_INF  # the overflow counts as growth
    with pytest.raises(ex.EvalOverflowError):
        f(2.4e6)  # the bracket's second upper end
    r = invert(f, 3e5)
    assert r == pytest.approx(1499998.5, rel=1e-9)
    assert abs(f(r) - 3e5) <= 1e-10 * 3e5


def test_invert_above_the_last_finite_value_raises_a_kfun_error():
    f = KFun.from_text(_OVERFLOWING)
    # the bracket closes on the overflow threshold; the residual check and the
    # endpoint fallback count the overflow there as +inf instead of raising it
    with pytest.raises(KOverflowError) as err:
        invert(f, 1e6)
    assert isinstance(err.value, KFunError) and not isinstance(err.value, ex.EvalDomainError)
    # and the inverse counts such targets as unbounded growth, as classify does an overflow
    inverse = inverse_kfun(f)
    assert inverse.classification is Classification.CLASS_K_INF
    assert inverse(3e5) == invert(f, 3e5)


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
    # the exponent gives the two trees a shape that no other test uses
    before = dict(ex._KERNELS)
    f = KFun.from_text("0.3*s/(1 + s) + 0.2*s^1.375")
    g = KFun.from_text("0.7*s/(2 + s) + 0.1*s^1.375")
    assert f.shape == g.shape and f.consts == (0.3, 1.0, 0.2) and g.consts == (0.7, 2.0, 0.1)
    assert ex._KERNELS == before  # building a KFun compiles no array code
    f.array(np.array([1.0, 2.0]))
    assert ex._KERNELS.keys() - before.keys() == {(f.shape, "array")}
    kernel = ex._KERNELS[f.shape, "array"]
    g.array(np.array([1.0, 2.0]))  # one kernel per shape, not per function
    assert ex._KERNELS.keys() - before.keys() == {(f.shape, "array")}
    assert ex._KERNELS[g.shape, "array"] is kernel
    assert KFun.from_text("0.3*s/(1 + s) + 0.2*s^1.5").shape != f.shape  # exponents stay


# ---------------------------------------------------------------------------
# the one-pass constructor against the former two passes over the grid.
# _reference_classify_callable and _reference_linear_slope are the former
# classify_callable and _linear_slope, verbatim: classification sampled the
# grid, and the slope test sampled it again.

_UNBOUNDED_PROBE = np.geomspace(1e6, 1e12, 16)
_UNBOUNDED_LEVEL = 1e9
_ZERO_AT_ZERO_TOL = 1e-12


def _reference_linear_slope(fn, grid):
    """Slope when the sampled function is exactly proportional to its argument."""
    try:
        base = fn(1.0)
    except Exception:
        return None
    if not math.isfinite(base) or base <= 0.0:
        return None
    probes = list(grid) + [3.7, 0.0317]
    for r in probes:
        try:
            v = fn(float(r))
        except Exception:
            return None
        if not math.isfinite(v) or abs(v - base * r) > 1e-12 * max(abs(v), base * r):
            return None
    return base


def _reference_classify_callable(fn, grid):
    """Strongest class consistent with sampled checks; never claims a refuted one.

    ``fn`` follows the expression error contract: an overflow (``EvalOverflowError``)
    counts as unbounded growth, any other ``EvalDomainError`` as undefined.
    """
    if len(grid) < 64 or grid[0] > 1e-6 or grid[-1] < 1e6:
        raise ValueError("classification grid must have >= 64 points spanning [1e-6, 1e6]")
    try:
        v0 = fn(0.0)
    except ex.EvalDomainError:
        return Classification.UNVERIFIED
    if not math.isfinite(v0) or abs(v0) > _ZERO_AT_ZERO_TOL:
        return Classification.UNVERIFIED

    values = []
    overflowed = False
    for r in grid:
        try:
            v = fn(float(r))
        except ex.EvalOverflowError:
            overflowed = True
            break
        if math.isinf(v):
            overflowed = True
            break
        values.append(v)
    if not values:
        return Classification.UNVERIFIED
    arr = np.asarray(values)
    if np.any(arr <= 0.0):
        return Classification.UNVERIFIED
    strictly_increasing = bool(np.all(np.diff(arr) > 0.0))
    if not strictly_increasing:
        return Classification.POSITIVE_DEFINITE
    if overflowed:
        return Classification.CLASS_K_INF
    unbounded = arr[-1] > _UNBOUNDED_LEVEL
    if not unbounded:
        for r in _UNBOUNDED_PROBE:
            try:
                v = fn(float(r))
            except ex.EvalOverflowError:
                unbounded = True
                break
            except ex.EvalDomainError:
                break
            if math.isinf(v) or v > _UNBOUNDED_LEVEL:
                unbounded = True
                break
    return Classification.CLASS_K_INF if unbounded else Classification.CLASS_K


def _reference_construction(fn):
    grid = np.geomspace(1e-6, 1e6, 64)
    cls = _reference_classify_callable(fn, grid)
    slope = _reference_linear_slope(fn, grid) if at_least(cls, Classification.CLASS_K) else None
    return cls, slope


def _construction_bits(build):
    """Class and slope bits of a construction, or the class and message of its error."""
    try:
        cls, slope = build()
    except Exception as exc:
        return type(exc), str(exc)
    return cls, None if slope is None else struct.pack("<d", slope)


def _assert_one_pass_matches(fn, build):
    def one_pass():
        f = build()
        return f.classification, f.linear_slope
    assert _construction_bits(one_pass) == _construction_bits(lambda: _reference_construction(fn))


def _compiled(text):
    compiled = ex.compile_expr(ex.parse(text, ("s",)), ("s",))
    return lambda s: compiled((s,))


_GRID_POINTS = GRID.tolist()
# where a fault is planted: zero, grid points, the slope probes, the unbounded probe
_FAULT_POINTS = st.sampled_from([0.0, 1.0, 3.7, 0.0317, 1e6] + _UNBOUNDED_PROBE.tolist()) | \
    st.sampled_from(_GRID_POINTS)
_COEF = st.sampled_from([1e-4, 1e-6, 1 / 3, 0.1 * 3, 0.5, 2.0, 1e3]) | \
    st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def _base_texts(draw):
    c, b = draw(_COEF), draw(_COEF)
    return draw(st.sampled_from([
        f"{c!r}*s", "s/3", "0.1*s*3", f"{c!r}*s^2", f"{c!r}*s^0.5", f"{c!r}*s + {b!r}*s^2",
        f"{c!r}*s/(1 + {b!r}*s)", f"{c!r}*s/(1 + s) + {b!r}*s", f"exp({c!r}*s) - 1",
        f"log(1 + {c!r}*s)", "log(s)", f"{c!r}*s/(1 + s^2)", "1 + s", "abs(s - 1)",
        f"min(s, {c!r}) + {b!r}*s", f"max(s, {c!r}*s)", "s^700",
    ]))


def _faulty(base, kind, where):
    """``base`` with one fault planted at ``where`` (or, for *-from kinds, from there on)."""
    def fn(s):
        if kind == "domain" and s == where:
            raise ex.EvalDomainError(f"undefined at {s!r}")
        if kind == "zerodiv" and s == where:
            raise ZeroDivisionError("float division by zero")
        if kind == "overflow-from" and s >= where:
            raise ex.EvalOverflowError(f"overflow at {s!r}")
        if kind == "inf-from" and s >= where:
            return math.inf
        if kind == "nan" and s == where:
            return math.nan
        if kind == "nudge" and s == where:
            return base(s) * (1.0 + 1e-11)
        return base(s)
    return fn


@settings(max_examples=400, deadline=None)
@given(_base_texts(), st.sampled_from(["none", "domain", "zerodiv", "overflow-from",
                                       "inf-from", "nan", "nudge"]), _FAULT_POINTS)
def test_one_pass_construction_matches_two_pass_reference(text, kind, where):
    fn = _faulty(_compiled(text), kind, where)
    _assert_one_pass_matches(fn, lambda: KFun.from_callable(fn, ""))
    if kind == "none":
        _assert_one_pass_matches(fn, lambda: KFun.from_text(text))


def _knots():
    return KFun.piecewise_linear([1.0, 2.0, 4.0], [0.5, 1.5, 2.0])


@pytest.mark.parametrize("name, fn", [
    ("domain-at-zero", _faulty(lambda s: 2.0 * s, "domain", 0.0)),
    ("log-at-zero", _compiled("log(s) + s")),
    ("domain-at-grid-point", _faulty(lambda s: 2.0 * s, "domain", _GRID_POINTS[40])),
    ("overflow-on-grid", _compiled("exp(s) - 1")),
    ("overflow-in-unbounded-probe", _faulty(lambda s: 1e-4 * s, "overflow-from", 1e7)),
    ("inf-on-grid", _faulty(lambda s: 0.5 * s, "inf-from", _GRID_POINTS[63])),
    ("nan-on-grid", _faulty(lambda s: 0.5 * s, "nan", _GRID_POINTS[5])),
    ("nan-at-slope-probe", _faulty(lambda s: 0.5 * s, "nan", 3.7)),
    ("domain-at-slope-base", _faulty(lambda s: 0.5 * s, "domain", 1.0)),
    ("bounded", _compiled("s/(1 + s)")),
    ("bounded-with-offset", _compiled("2*s/(1 + s) + 1e-12*s")),
    ("slow-linear", _compiled("1e-4*s")),
    ("third", _compiled("s/3")),
    ("inexact-product", _compiled("0.1*s*3")),
    ("saturating-gain", _compiled("0.3*s/(1 + s) + 0.2*s")),
    ("piecewise-knots", _knots().fn),
    ("piecewise-linear-knots", KFun.piecewise_linear([1.0, 2.0], [0.5, 1.0]).fn),
    ("opaque-callable", lambda s: s / (1.0 + math.sqrt(s))),
    ("opaque-linear", lambda s: 0.25 * s),
    ("inverse", inverse_kfun(KFun.from_text("s + s^3")).fn),
    ("inverse-bounded", inverse_kfun(KFun.from_text("s/(1 + s) + s")).fn),
    ("piecewise-inverse", inverse_kfun(_knots()).fn),
])
def test_one_pass_construction_fixed_cases(name, fn):
    _assert_one_pass_matches(fn, lambda: KFun.from_callable(fn, ""))


def test_slow_linear_gain_is_class_k_not_kinf():
    # 1e-4*s stays below the unbounded level up to 1e12, so growth is not certified
    f = KFun.from_text("1e-4*s")
    assert f.classification is Classification.CLASS_K
    assert f.linear_slope == 1e-4


def test_construction_samples_each_grid_point_once():
    calls = []

    def fn(s):  # above the unbounded level at the grid's end, so no probe runs
        calls.append(s)
        return 2e3 * s
    f = KFun.from_callable(fn, "")
    assert f.linear_slope == 2e3
    assert sorted(calls) == sorted([0.0, 1.0, 3.7, 0.0317] + _GRID_POINTS)


def test_grid_is_fixed_and_read_only():
    assert GRID.tolist() == np.geomspace(1e-6, 1e6, 64).tolist()
    with pytest.raises(ValueError):
        GRID[0] = 0.0


def test_zero_is_one_shared_instance():
    assert KFun.zero() is KFun.zero()
    assert KFun.from_text("0") is KFun.zero()


# ---------------------------------------------------------------------------
# the array rule against the point-by-point pass


def _block_rule(fn):
    """An array rule for ``fn`` that evaluates every lane and, if any raise,
    raises the last one's error: errors a point-by-point pass never reaches."""
    def rule(S):
        values, error = [], None
        for s in S.tolist():
            try:
                values.append(fn(s))
            except Exception as exc:  # the last error is raised below
                values.append(math.nan)
                error = exc
        if error is not None:
            raise error
        return np.array(values)
    return rule


def _assert_rule_matches_scalar_pass(fn):
    with_rule = lambda: KFun.from_callable(fn, "", array_rule=_block_rule(fn))
    _assert_one_pass_matches(fn, with_rule)
    try:
        f = with_rule()
    except Exception:  # the construction's error was compared above
        return
    lanes = np.concatenate([GRID, _UNBOUNDED_PROBE, [0.0, 3.7, 1e300, math.inf, math.nan]])
    got = _scalar_outcome(lambda: [struct.pack("<d", v) for v in f.array(lanes).tolist()])
    want = []
    for s in lanes.tolist():
        value = _scalar_outcome(lambda: f(s))
        if isinstance(value, tuple):
            want = value
            break
        want.append(struct.pack("<d", value))
    assert got == want


_MID = _GRID_POINTS[30]


def _domain_before_overflow(s):
    if s == _GRID_POINTS[20]:
        raise ex.EvalDomainError(f"undefined at {s!r}")
    if s >= _MID:
        raise ex.EvalOverflowError(f"overflow at {s!r}")
    return 0.5 * s


def _inf_before_domain(s):
    if s == _GRID_POINTS[40]:
        raise ex.EvalDomainError(f"undefined at {s!r}")
    return math.inf if s >= _MID else 0.5 * s


@pytest.mark.parametrize("name, fn", [
    ("inf-mid-grid", _faulty(lambda s: 0.5 * s, "inf-from", _MID)),
    ("overflow-mid-grid", _faulty(lambda s: 0.5 * s, "overflow-from", _MID)),
    ("domain-before-overflow", _domain_before_overflow),
    ("domain-past-inf", _inf_before_domain),
    ("domain-mid-grid", _faulty(lambda s: 0.5 * s, "domain", _MID)),
    ("zerodiv-mid-grid", _faulty(lambda s: 0.5 * s, "zerodiv", _MID)),
    ("domain-in-unbounded-probe", _faulty(lambda s: 1e-4 * s, "domain", _UNBOUNDED_PROBE[5])),
    ("overflow-in-unbounded-probe", _faulty(lambda s: 1e-4 * s, "overflow-from", 1e7)),
    ("nan-on-grid", _faulty(lambda s: 0.5 * s, "nan", _GRID_POINTS[5])),
    ("linear", lambda s: 0.25 * s),
    ("saturating", _compiled("0.3*s/(1 + s) + 0.2*s")),
])
def test_array_rule_matches_scalar_pass_fixed_cases(name, fn):
    _assert_rule_matches_scalar_pass(fn)


def test_domain_error_before_the_overflow_raises_as_the_scalar_pass():
    fn = _domain_before_overflow
    with pytest.raises(ex.EvalDomainError, match="undefined at") as info:
        KFun.from_callable(fn, "", array_rule=_block_rule(fn))
    assert type(info.value) is ex.EvalDomainError


@settings(max_examples=200, deadline=None)
@given(_base_texts(), st.sampled_from(["none", "domain", "zerodiv", "overflow-from",
                                       "inf-from", "nan", "nudge"]), _FAULT_POINTS)
def test_array_rule_matches_scalar_pass(text, kind, where):
    _assert_rule_matches_scalar_pass(_faulty(_compiled(text), kind, where))


def test_rule_takes_each_run_of_points_in_one_call():
    calls = []

    def rule(S):
        calls.append(len(S))
        return 2e-3 * S
    f = KFun.from_callable(lambda s: 2e-3 * s, "", array_rule=rule)
    assert f.classification is Classification.CLASS_K_INF and f.linear_slope == 2e-3
    assert calls == [GRID.size, _UNBOUNDED_PROBE.size]
    assert f.array_rule is rule
