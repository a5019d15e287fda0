"""Comparison-function algebra: classification, composition, inversion, lattice ops.

A :class:`KFun` is a scalar function of one nonnegative argument, used for
every gain, scaling path component, decay rate, and sandwich bound in the
toolkit.  Class membership (positive definite / class-K / class-K-infinity)
is certified by sampling on the fixed logarithmic grid ``GRID``, never
symbolically: a failed check refutes a class.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex


class KFunError(Exception):
    pass


class KRangeError(KFunError):
    """Inversion target above the sampled range of a bounded class-K function."""


class KOverflowError(KFunError):
    """Inversion target above every value a function takes before it overflows."""


class Classification(enum.Enum):
    ZERO = "zero"
    UNVERIFIED = "unverified"
    POSITIVE_DEFINITE = "positive-definite"
    CLASS_K = "class-K"
    CLASS_K_INF = "class-Kinf"


_STRENGTH = {
    Classification.ZERO: -1,
    Classification.UNVERIFIED: 0,
    Classification.POSITIVE_DEFINITE: 1,
    Classification.CLASS_K: 2,
    Classification.CLASS_K_INF: 3,
}


def at_least(c: Classification, floor: Classification) -> bool:
    return _STRENGTH[c] >= _STRENGTH[floor]


# The classification grid of every comparison function.
GRID = np.geomspace(1e-6, 1e6, 64)
GRID.flags.writeable = False
# Where a function bounded on GRID is probed for unbounded growth.
UNBOUNDED_PROBE = np.geomspace(1e6, 1e12, 16)
UNBOUNDED_PROBE.flags.writeable = False
_UNBOUNDED_LEVEL = 1e9
_ZERO_AT_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class KFun:
    """A scalar monotone-candidate function with a sampled classification.

    Backed by an expression tree in the single variable ``s`` when one is
    available, with the tree's ``shape`` and constants ``consts``, which its
    array calls pass to the shape's kernel; numerically defined functions
    (bisection inverses, grid fits) carry only the evaluator and a description,
    and optionally an array rule: lane p of ``array_rule(S)`` is
    ``fn(float(S[p]))`` bit for bit, unless it raises.
    """

    fn: Callable[[float], float]
    classification: Classification
    expr: Optional[ex.Expr] = None
    description: str = ""
    linear_slope: Optional[float] = None
    nodes: Optional[tuple] = field(default=None, repr=False)  # piecewise-linear knots
    array_rule: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    shape: Optional[ex.Shape] = field(default=None, repr=False)
    consts: tuple = field(default=(), repr=False)

    def __call__(self, s: float) -> float:
        if self.linear_slope is not None:
            return self.linear_slope * s
        return self.fn(s)

    def array(self, S: np.ndarray) -> np.ndarray:
        """Values at a 1-D float array: lane p is ``self(float(S[p]))`` bit for bit.

        If the scalar call raises on some lane, this raises the first such
        lane's error, with the same class and message.
        """
        if self.linear_slope is not None:
            return self.linear_slope * S
        if self.shape is not None:
            return self.shape.array([S], self.consts, lambda lane: self.fn(*lane))
        return np.array(list(_values_at(self.fn, self.array_rule, S)), dtype=float)

    @property
    def is_zero(self) -> bool:
        return self.classification is Classification.ZERO

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        if self.expr is not None:
            return ex.render(self.expr)
        return self.description or "<numeric>"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "KFun":
        return _ZERO

    @staticmethod
    def from_expr(expression: ex.Expr) -> "KFun":
        names = ex.free_vars(expression)
        if not names <= {"s"}:
            raise KFunError(f"expected a function of 's', found variables {sorted(names)}")
        if type(expression) is ex.Const and expression.value == 0.0:
            return KFun.zero()
        compiled, shape, consts = ex.compile_shaped(expression, ("s",))
        f = KFun.from_callable(lambda s: compiled((s,)), "", expression)
        return replace(f, shape=shape, consts=consts)

    @staticmethod
    def from_text(text: str) -> "KFun":
        return KFun.from_expr(ex.parse(text, ("s",)))

    @staticmethod
    def from_callable(fn: Callable[[float], float], description: str,
                      expr: Optional[ex.Expr] = None,
                      array_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> "KFun":
        """The one sampled constructor: class and exact linear slope from one pass over ``GRID``."""
        cls, values = classify_callable(fn, array_rule)
        slope = _linear_slope(fn, values) if at_least(cls, Classification.CLASS_K) else None
        return KFun(fn=fn, classification=cls, expr=expr, description=description,
                    linear_slope=slope, array_rule=array_rule)

    @staticmethod
    def identity() -> "KFun":
        return KFun.from_text("s")

    @staticmethod
    def linear(c: float) -> "KFun":
        return KFun.from_expr(ex.Mul(ex.Const(float(c)), ex.Var("s")))

    @staticmethod
    def piecewise_linear(xs: Sequence[float], ys: Sequence[float],
                         description: str = "piecewise-linear fit") -> "KFun":
        """Monotone interpolant through (0,0) and the given knots.

        Beyond the last knot the function continues with the final segment's
        slope (at least a small positive slope, so unboundedness is kept).
        """
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys) or not xs:
            raise KFunError("piecewise_linear needs matching nonempty knot lists")
        if xs[0] > 0.0:
            xs = [0.0] + xs
            ys = [0.0] + ys
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                raise KFunError("piecewise_linear knots must strictly increase")
        tail = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]) if len(xs) > 1 else 1.0
        tail = max(tail, 1e-12)
        nodes = tuple(zip(xs, ys))

        def fn(s: float, _xs=tuple(xs), _ys=tuple(ys), _tail=tail) -> float:
            if s <= 0.0:
                return _ys[0] if s == _xs[0] else _ys[0] + s  # below zero never queried
            if s >= _xs[-1]:
                return _ys[-1] + _tail * (s - _xs[-1])
            j = bisect_left(_xs, s)
            x0, x1 = _xs[j - 1], _xs[j]
            y0, y1 = _ys[j - 1], _ys[j]
            return y0 + (y1 - y0) * (s - x0) / (x1 - x0)

        out = KFun.from_callable(fn, description)
        return replace(out, nodes=nodes)


_ZERO = KFun(fn=lambda s: 0.0, classification=Classification.ZERO,
             expr=ex.Const(0.0), description="0")


def _linear_slope(fn: Callable[[float], float], values: List[float]) -> Optional[float]:
    """Slope when the sampled function is exactly proportional to its argument.

    ``values`` are ``classify_callable``'s samples on ``GRID``, and a sampling
    cut short gives no slope; only 1.0, 3.7 and 0.0317 are evaluated on top.
    """
    if len(values) < GRID.size:
        return None
    try:
        base = fn(1.0)
        if not math.isfinite(base) or base <= 0.0:
            return None
        probes = itertools.chain(zip(GRID.tolist(), values), ((r, fn(r)) for r in (3.7, 0.0317)))
        for r, v in probes:
            if not math.isfinite(v) or abs(v - base * r) > 1e-12 * max(abs(v), base * r):
                return None
    except Exception:
        return None
    return base


def _values_at(fn: Callable[[float], float], array_rule: Optional[Callable],
               points: np.ndarray):
    """``fn``'s values at ``points`` in order: one ``array_rule`` call, or, when
    there is no rule or it raises, ``fn`` point by point, raising as ``fn`` does."""
    if array_rule is not None:
        try:
            return array_rule(points).tolist()
        except Exception:  # replayed point by point below, not swallowed
            pass
    return map(fn, points.tolist())


def classify_callable(fn: Callable[[float], float], array_rule: Optional[Callable] = None
                      ) -> Tuple[Classification, List[float]]:
    """Strongest class consistent with sampled checks; never claims a refuted one.

    Also returns the values of ``fn`` on ``GRID`` as far as they were sampled.
    ``fn`` follows the expression error contract: an overflow (``EvalOverflowError``,
    or ``KOverflowError`` from an inverse) counts as unbounded growth, any other
    ``EvalDomainError`` as undefined.
    ``array_rule`` (see ``KFun``) takes each run of points in one call.
    """
    values: List[float] = []
    try:
        v0 = fn(0.0)
    except ex.EvalDomainError:
        return Classification.UNVERIFIED, values
    if not math.isfinite(v0) or abs(v0) > _ZERO_AT_ZERO_TOL:
        return Classification.UNVERIFIED, values

    overflowed = False
    try:
        for v in _values_at(fn, array_rule, GRID):
            if math.isinf(v):
                overflowed = True
                break
            values.append(v)
    except (ex.EvalOverflowError, KOverflowError):
        overflowed = True
    if not values:
        return Classification.UNVERIFIED, values
    arr = np.asarray(values)
    if np.any(arr <= 0.0):
        return Classification.UNVERIFIED, values
    strictly_increasing = bool(np.all(np.diff(arr) > 0.0))
    if not strictly_increasing:
        return Classification.POSITIVE_DEFINITE, values
    if overflowed:
        return Classification.CLASS_K_INF, values
    unbounded = arr[-1] > _UNBOUNDED_LEVEL
    if not unbounded:
        try:
            for v in _values_at(fn, array_rule, UNBOUNDED_PROBE):
                if math.isinf(v) or v > _UNBOUNDED_LEVEL:
                    unbounded = True
                    break
        except (ex.EvalOverflowError, KOverflowError):
            unbounded = True
        except ex.EvalDomainError:
            pass
    return (Classification.CLASS_K_INF if unbounded else Classification.CLASS_K), values


def compose(outer: KFun, inner: KFun) -> KFun:
    """Pointwise composition ``outer(inner(s))`` with the class recomputed."""
    if outer.is_zero:
        return KFun.zero()
    if inner.is_zero:
        v0 = outer(0.0)
        if abs(v0) <= _ZERO_AT_ZERO_TOL:
            return KFun.zero()
        return KFun.from_expr(ex.Const(v0))
    if outer.expr is not None and inner.expr is not None:
        return KFun.from_expr(ex.substitute(outer.expr, {"s": inner.expr}))
    fn = lambda s, f=outer, g=inner: f(g(s))
    return KFun.from_callable(fn, f"{outer.describe()} o {inner.describe()}")


_BRACKET_LIMIT = 1e12


def invert(f: KFun, y: float) -> float:
    """Solve ``f(r) = y`` for r >= 0 by bracketing and bisection.

    The result satisfies ``|f(r) - y| <= 1e-10 * max(1, y)``; the bisection
    additionally runs until the bracket is tight in r, so round trips hold to
    much better than the residual guarantee.
    """
    if y < 0.0:
        raise KRangeError("inversion target must be nonnegative")
    if f.is_zero:
        if y == 0.0:
            return 0.0
        raise KRangeError("the zero function has no positive values")
    if not at_least(f.classification, Classification.CLASS_K):
        raise KFunError(f"cannot invert a function classified {f.classification.value}")
    if y == 0.0:
        return 0.0
    if f.linear_slope is not None:
        return y / f.linear_slope
    if f.nodes is not None:
        return _invert_piecewise(f, y)

    hi = max(1.0, y)
    lo = 0.0
    val_hi = _safe_call(f, hi)
    while val_hi is not None and val_hi < y:
        lo = hi
        hi *= 8.0
        if hi > _BRACKET_LIMIT:
            if f.classification is Classification.CLASS_K:
                raise KRangeError(f"{y!r} is above the sampled range of a bounded class-K function")
            raise KFunError(f"bracket for inverse not found within [0, {_BRACKET_LIMIT:g}]")
        val_hi = _safe_call(f, hi)
    if val_hi is None:
        raise KFunError("function not evaluable while bracketing the inverse")

    resid_tol = 1e-10 * max(1.0, y)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = _safe_call(f, mid)
        if v is None:
            raise KFunError("function not evaluable during bisection")
        if v < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    r = 0.5 * (lo + hi)
    if _residual(f, r, y) > resid_tol:
        # Extremely flat region: fall back to the best bracket endpoint.
        for cand in (lo, hi):
            if _residual(f, cand, y) <= resid_tol:
                return cand
        if math.isinf(_residual(f, hi, y)):  # the bracket closed on the overflow threshold
            raise KOverflowError(f"{y!r} is above every value before the function overflows")
        raise KFunError(f"bisection failed to meet residual tolerance at y={y!r}")
    return r


def _invert_piecewise(f: KFun, y: float) -> float:
    xs = [n[0] for n in f.nodes]
    ys = [n[1] for n in f.nodes]
    if y >= ys[-1]:
        tail = max((ys[-1] - ys[-2]) / (xs[-1] - xs[-2]) if len(xs) > 1 else 1.0, 1e-12)
        return xs[-1] + (y - ys[-1]) / tail
    j = bisect_left(ys, y)
    if j == 0:
        return xs[0]
    x0, x1, y0, y1 = xs[j - 1], xs[j], ys[j - 1], ys[j]
    if y1 == y0:
        return x0
    return x0 + (x1 - x0) * (y - y0) / (y1 - y0)


def _residual(f: KFun, s: float, y: float) -> float:
    """``|f(s) - y|``, infinite where ``f`` overflows."""
    try:
        return abs(f(s) - y)
    except ex.EvalOverflowError:
        return math.inf


def _safe_call(f: KFun, s: float) -> Optional[float]:
    """``f(s)``: +inf where it overflows or is +inf (above every target), None
    where it is undefined."""
    try:
        v = f(s)
    except ex.EvalOverflowError:  # unbounded growth, as ``classify_callable`` counts it
        return math.inf
    except ex.EvalDomainError:
        return None
    return v if math.isfinite(v) else float("inf") if v > 0 else None


def pointwise_max(fs: Sequence[KFun]) -> KFun:
    return _pointwise(fs, maximum=True)


def pointwise_min(fs: Sequence[KFun]) -> KFun:
    return _pointwise(fs, maximum=False)


def _pointwise(fs: Sequence[KFun], maximum: bool) -> KFun:
    fs = list(fs)
    if not fs:
        raise KFunError("pointwise max/min of an empty list")
    nonzero = [f for f in fs if not f.is_zero]
    if maximum:
        if not nonzero:
            return KFun.zero()
        fs = nonzero
    else:
        if len(nonzero) < len(fs):
            return KFun.zero()  # class-K candidates are nonnegative, so min with 0 is 0
    if len(fs) == 1:
        return fs[0]
    if all(f.expr is not None for f in fs):
        node = ex.Max(tuple(f.expr for f in fs)) if maximum else ex.Min(tuple(f.expr for f in fs))
        return KFun.from_expr(node)
    funcs = tuple(fs)
    if maximum:
        fn = lambda s: max(f(s) for f in funcs)
        label = "max(" + ", ".join(f.describe() for f in funcs) + ")"
    else:
        fn = lambda s: min(f(s) for f in funcs)
        label = "min(" + ", ".join(f.describe() for f in funcs) + ")"
    return KFun.from_callable(fn, label)


def inverse_kfun(f: KFun) -> KFun:
    """Inverse as a new function: exact for linear, bisection-backed otherwise."""
    if f.linear_slope is not None:
        return KFun.linear(1.0 / f.linear_slope)
    if f.nodes is not None:
        xs = [n[0] for n in f.nodes]
        ys = [n[1] for n in f.nodes]
        if ys[0] == 0.0 and all(b > a for a, b in zip(ys, ys[1:])):
            return KFun.piecewise_linear(ys, xs, f"{f.describe()}^-1")
    return KFun.from_callable(lambda y: invert(f, y), f"{f.describe()}^-1")


def require_class(f: KFun, floor: Classification, what: str) -> None:
    if not at_least(f.classification, floor):
        raise KFunError(f"{what} must be {floor.value} or stronger, got {f.classification.value}")


_JSON_SAMPLES = (0.1, 0.5, 1.0, 2.0, 10.0)


def kfun_to_json(f: KFun) -> dict:
    samples = {}
    for r in _JSON_SAMPLES:
        try:
            samples[repr(float(r))] = f(float(r))
        except ex.EvalDomainError:
            samples[repr(float(r))] = None
    out = {
        "description": f.describe(),
        "classification": f.classification.value,
        "samples": samples,
    }
    ident = all(v is not None and abs(v - float(r)) <= 1e-12 * max(1.0, float(r))
                for r, v in zip(_JSON_SAMPLES, samples.values()))
    if ident and not f.is_zero:
        out["equals_identity_on_samples"] = True
    return out
