"""Parser, tree walks, generated backend, renderer, and directional-bound tests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_expr
from hsgt import expr as ex


def test_parse_single_product():
    tree = ex.parse("0.5*s", ["s"])
    assert tree == ex.Mul(ex.Const(0.5), ex.Var("s"))


def test_parse_max_of_power():
    tree = ex.parse("max(s, s^2)", ["s"])
    assert tree == ex.Max((ex.Var("s"), ex.Pow(ex.Var("s"), 2.0)))


def test_parse_incomplete_input_reports_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("0.5*t +", ["t"])
    assert err.value.offset == 8


def test_parse_unknown_identifier_carries_name():
    with pytest.raises(ex.UnknownIdentifierError) as err:
        ex.parse("0.5*q + s", ["s"])
    assert err.value.name == "q"


@pytest.mark.parametrize("text, bindings, expected", [
    ("0.5*s", {"s": 4.0}, 2.0),
    ("max(s, s^2)", {"s": 0.5}, 0.5),
    ("min(s, 2*s)", {"s": 3.0}, 3.0),
    ("abs(0 - s)", {"s": 2.5}, 2.5),
    ("exp(0)", {}, 1.0),
    ("log(exp(2))", {}, 2.0),
    ("-x_1 + 0.25*x_2", {"x_1": 1.0, "x_2": 2.0}, -0.5),
])
def test_evaluate(text, bindings, expected):
    tree = ex.parse(text, list(bindings) or ["s"])
    assert ex.evaluate(tree, bindings) == pytest.approx(expected, abs=1e-15)


def test_divide_by_zero_is_domain_error():
    tree = ex.parse("1/s", ["s"])
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(tree, {"s": 0.0})


def test_log_of_nonpositive_is_domain_error():
    tree = ex.parse("log(s)", ["s"])
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(tree, {"s": 0.0})


def test_negative_base_fractional_power_is_domain_error():
    tree = ex.parse("s^0.5", ["s"])
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(tree, {"s": -2.0})


def test_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("s + q", ["s", "q"]), {"s": 1.0})


def test_structural_equality_means_same_values():
    a = ex.parse("0.5*s + max(s, s^2)", ["s"])
    b = ex.parse("0.5*s + max(s, s^2)", ["s"])
    assert a == b
    for v in np.linspace(0.0, 5.0, 23):
        assert ex.evaluate(a, {"s": float(v)}) == ex.evaluate(b, {"s": float(v)})


_EXPRESSIONS = [
    "0.5*s", "s^2 + 3*s", "max(s, s^2, 0.1)", "min(2*s, s + 1)",
    "abs(s - 2)/(1 + s^2)", "exp(0 - s) + log(1 + s)", "-s + 0.25*s^3",
    "(s + 1)*(s - 1)", "2/(1 + s)",
]


@settings(max_examples=60)
@given(st.sampled_from(_EXPRESSIONS), st.floats(min_value=1e-3, max_value=50.0))
def test_render_round_trip_preserves_evaluation(text, value):
    tree = ex.parse(text, ["s"])
    reparsed = ex.parse(ex.render(tree), ["s"])
    assert ex.evaluate(reparsed, {"s": value}) == pytest.approx(
        ex.evaluate(tree, {"s": value}), rel=1e-15, abs=1e-15)


@settings(max_examples=60)
@given(st.sampled_from(_EXPRESSIONS), st.floats(min_value=1e-3, max_value=50.0))
def test_compiled_matches_interpreted(text, value):
    tree = ex.parse(text, ["s"])
    compiled = ex.compile_expr(tree, ("s",))
    assert compiled((value,)) == pytest.approx(ex.evaluate(tree, {"s": value}),
                                               rel=1e-15, abs=1e-15)


def test_directional_bounds_smooth_chain_rule():
    tree = ex.parse("x^2 + 3*x*y", ["x", "y"])
    value, lo, hi = ex.directional_bounds(tree, {"x": 2.0, "y": 1.0},
                                          {"x": 1.0, "y": -1.0})
    # gradient (2x + 3y, 3x) = (7, 6); direction (1, -1) gives 1
    assert value == pytest.approx(10.0)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)


def test_directional_bounds_abs_at_kink():
    tree = ex.parse("abs(x)", ["x"])
    _v, lo, hi = ex.directional_bounds(tree, {"x": 0.0}, {"x": 2.0})
    assert lo == pytest.approx(-2.0) and hi == pytest.approx(2.0)


def test_directional_bounds_max_tie_takes_hull():
    tree = ex.parse("max(x, y)", ["x", "y"])
    _v, lo, hi = ex.directional_bounds(tree, {"x": 1.0, "y": 1.0},
                                       {"x": -3.0, "y": 5.0})
    assert lo == pytest.approx(-3.0) and hi == pytest.approx(5.0)


def test_directional_bounds_match_central_difference_at_smooth_points():
    rng = np.random.default_rng(7)
    tree = ex.parse("x^3 + 2*x*y + exp(0 - y)", ["x", "y"])
    for _ in range(25):
        x, y = rng.uniform(0.2, 2.0, 2)
        dx, dy = rng.uniform(-1.0, 1.0, 2)
        _v, lo, hi = ex.directional_bounds(tree, {"x": x, "y": y}, {"x": dx, "y": dy})
        assert hi == pytest.approx(lo, abs=1e-12)
        h = 1e-6
        num = (ex.evaluate(tree, {"x": x + h * dx, "y": y + h * dy})
               - ex.evaluate(tree, {"x": x - h * dx, "y": y - h * dy})) / (2 * h)
        assert hi == pytest.approx(num, abs=max(1e-6, 1e-4 * abs(hi)))


def test_substitute_composes():
    outer = ex.parse("s^2 + s", ["s"])
    inner = ex.parse("2*s", ["s"])
    composed = ex.substitute(outer, {"s": inner})
    assert ex.evaluate(composed, {"s": 3.0}) == pytest.approx(36.0 + 6.0)


# ---------------------------------------------------------------------------
# the generated backend against the reference interpreter

_POINTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e300, 710.0]) \
    | st.floats(min_value=-1e6, max_value=1e6)


def _trees(max_leaves=10):
    leaves = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, -0.5, 1e-12, 1e300, 1e999])
                       .map(ex.Const), st.sampled_from(["x", "y"]).map(ex.Var))

    def extend(ch):
        pair = st.tuples(ch, ch)
        args = st.lists(ch, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            pair.map(lambda p: ex.Add(*p)), pair.map(lambda p: ex.Sub(*p)),
            pair.map(lambda p: ex.Mul(*p)), pair.map(lambda p: ex.Div(*p)),
            st.tuples(ch, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -1.0, 1e3]))
            .map(lambda p: ex.Pow(*p)),
            ch.map(ex.Abs), ch.map(ex.Exp), ch.map(ex.Log),
            args.map(ex.Min), args.map(ex.Max))
    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _outcome(fn):
    try:
        return repr(fn())
    except ex.EvalDomainError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_trees(), _POINTS, _POINTS, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_generated_code_matches_reference_interpreter(tree, x, y, dx, dy):
    reference = _outcome(lambda: reference_expr.evaluate(tree, {"x": x, "y": y}))
    assert _outcome(lambda: ex.compile_expr(tree, ("x", "y"))((x, y))) == reference
    try:
        value, lo, hi = ex.compile_bounds(tree, ("x", "y"))([x, y], [dx, dy])
    except ex.EvalDomainError:
        return  # a chain-rule factor may be undefined where the value is not
    assert repr(value) == reference
    assert lo <= hi


_LANES = _POINTS | st.sampled_from([math.inf, -math.inf, math.nan])


def _raised(fn):
    try:
        return fn()
    except ex.EvalDomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_trees(), st.lists(st.tuples(_LANES, _LANES), min_size=1, max_size=8))
def test_array_code_matches_scalar_code_lane_by_lane(tree, points):
    scalar = ex.compile_expr(tree, ("x", "y"))
    got = _raised(lambda: ex.compile_array(tree, ("x", "y"))(np.array(points).T.copy()))
    for point in points:  # the first lane that raises decides the array call's error
        value = _raised(lambda: scalar(point))
        if isinstance(value, tuple):
            assert got == value
            return
    assert [struct.pack("<d", v) for v in got.tolist()] == \
        [struct.pack("<d", scalar(point)) for point in points]


def test_nan_of_two_nans_keeps_its_bits_from_call_to_call():
    """inf/-inf is a negative NaN, log(NaN) a positive one; which of the two their
    product returns changes once CPython specializes the multiplication."""
    tree = ex.parse("exp(1e999/min(x, 1) * log(y + 1))", ["x", "y"])
    scalar = ex.compile_expr(tree, ("x", "y"))
    array = ex.compile_array(tree, ("x", "y"))
    point = (-math.inf, math.nan)
    want = struct.pack("<d", math.nan)
    for _ in range(20):
        assert struct.pack("<d", scalar(point)) == want
        assert struct.pack("<d", array(np.array([point]).T.copy())[0]) == want


def test_lanewise_functions_keep_the_shape_of_a_block():
    block = np.array([[0.5, 1.0, 710.0], [-1.0, 2.0, math.nan]])
    for name, args, fn in (("exp", (), math.exp), ("log", (), math.log),
                           ("pow", (1.5,), lambda v: math.pow(v, 1.5))):
        got = ex._ARRAY_NAMESPACE[name](block, *args)
        assert got.shape == block.shape
        for value, v in zip(got.ravel().tolist(), block.ravel().tolist()):
            try:
                want = fn(v)
            except (ArithmeticError, ValueError):  # a lane that raises holds NaN
                want = math.nan
            assert struct.pack("<d", value) == struct.pack("<d", want)


def _with_consts(tree, values):
    """``tree`` with its constants, in left-to-right order, taken from ``values``."""
    if isinstance(tree, ex.Const):
        return ex.Const(next(values))
    if isinstance(tree, (ex.Min, ex.Max)):
        return type(tree)(tuple(_with_consts(a, values) for a in tree.args))
    if isinstance(tree, ex.Pow):
        return ex.Pow(_with_consts(tree.base, values), tree.exponent)
    kids = {k: _with_consts(v, values) if isinstance(v, ex.Expr) else v
            for k, v in vars(tree).items()}
    return type(tree)(**kids)


_CONSTS = st.sampled_from([0.0, -0.0, 1.0, 2.0, -0.5, 1e-12, 1e300, 1e999, 3.7])


@settings(max_examples=300, deadline=None)
@given(_trees(), st.lists(st.lists(_CONSTS, min_size=10, max_size=10), min_size=1, max_size=4),
       st.lists(st.tuples(_LANES, _LANES), min_size=1, max_size=5), st.randoms())
def test_shape_kernel_rows_match_their_own_trees(tree, consts, lanes, rng):
    """One kernel call over a (rows, width) block, each row a tree of one shape
    with its own constants as (rows, 1) columns, with the marked lanes redone
    row by row, equals each row's own array call, errors included."""
    trees = [_with_consts(tree, iter(c)) for c in consts]
    compiled = [ex.compile_shaped(t, ("x", "y")) for t in trees]
    shape = compiled[0][1]
    assert all(c[1] == shape for c in compiled)
    X, Y = (np.array([[rng.choice(lanes)[i] for _ in lanes] for _ in trees]) for i in (0, 1))
    cols = [np.array(col)[:, None] for col in zip(*(c[2] for c in compiled))]

    def by_shape():
        out = np.empty(X.shape)
        bad = np.broadcast_to(shape.lanes([X, Y], cols, out), out.shape)
        for r, (scalar, _shape, _consts) in enumerate(compiled):
            for p in np.flatnonzero(bad[r]).tolist():
                out[r, p] = scalar((float(X[r, p]), float(Y[r, p])))
        return out

    def per_tree():
        return np.array([ex.compile_array(t, ("x", "y"))([X[r], Y[r]])
                         for r, t in enumerate(trees)])

    got, want = _raised(by_shape), _raised(per_tree)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert [struct.pack("<d", v) for v in got.ravel().tolist()] == \
            [struct.pack("<d", v) for v in want.ravel().tolist()]


_DIRS = st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e300]) | st.floats(-2.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(_trees(), st.lists(st.tuples(_LANES, _LANES, _DIRS, _DIRS), min_size=1, max_size=8))
def test_array_bounds_match_scalar_bounds_lane_by_lane(tree, lanes):
    """The bounds of ``compile_bounds_array`` are ``compile_bounds``' lane by lane,
    bit for bit, and a raising lane raises the first such lane's error."""
    scalar = ex.compile_bounds(tree, ("x", "y"))
    cols = np.array(lanes).T.copy()
    got = _raised(lambda: ex.compile_bounds_array(tree, ("x", "y"))(cols[:2], cols[2:]))
    for x, y, dx, dy in lanes:
        value = _raised(lambda: scalar([x, y], [dx, dy]))
        if isinstance(value[0], type):
            assert got == value
            return
    for lane, (x, y, dx, dy) in zip(zip(*got), lanes):
        assert [struct.pack("<d", v) for v in lane] == \
            [struct.pack("<d", v) for v in scalar([x, y], [dx, dy])]


# lanes in the abs and min/max tie bands, a zero divisor, divisors whose square
# underflows, and NaN, whose min/max tie band is empty
_EDGES = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-13, 1e-200, -1e-200, 1.0, -1.0,
                          1.0 + 1e-13, 2.0, -3.0, 1e300, math.inf, -math.inf, math.nan]) \
    | _POINTS


def _lane_bits(values):
    return [struct.pack("<d", v) for v in values]


def _each_lane_mode(module, tree, lanes):
    """The ``array``, ``bounds`` and ``bounds_array`` functions of ``module`` on
    ``lanes``: the bits of each value, lo and hi, or the error class and message."""
    names = ("x", "y")
    cols = np.array(lanes).T.copy()
    bounds = module.compile_bounds(tree, names)
    block = module.compile_bounds_array(tree, names)
    return (_raised(lambda: _lane_bits(module.compile_array(tree, names)(cols[:2]))),
            [_raised(lambda: _lane_bits(bounds([x, y], [dx, dy]))) for x, y, dx, dy in lanes],
            _raised(lambda: [_lane_bits(lane) for lane in zip(*block(cols[:2], cols[2:]))]))


_X, _Y = ex.Var("x"), ex.Var("y")


@settings(max_examples=300, deadline=None)
@given(_trees(), st.lists(st.tuples(_EDGES, _EDGES, _DIRS, _DIRS), min_size=1, max_size=6))
@example(ex.Abs(_X), [(1e-13, 0.0, 1.0, 0.0), (-0.0, 0.0, -2.0, 0.0), (3.0, 0.0, 1.0, 0.0)])
@example(ex.Max((_X, _Y)), [(1.0, 1.0, 1.0, -1.0), (1.0, 1.0 + 1e-13, 0.5, 2.0)])
@example(ex.Min((_X, _Y, ex.Const(2.0))), [(2.0, 2.0, 1.0, -1.0), (math.nan, 1.0, 1.0, 1.0)])
@example(ex.Div(_X, _Y), [(1.0, 1e-200, 1.0, 1.0), (2.0, 3.0, 0.0, 1.0)])
@example(ex.Div(_X, _Y), [(1.0, 2.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)])
def test_one_rule_table_matches_the_former_emitter(tree, lanes):
    """The ``array``, ``bounds`` and ``bounds_array`` functions built from the one
    rule table equal those of the former tables and emitter, kept in
    ``reference_expr``, lane by lane: value, lo and hi bits, NaN bits included,
    or the same error class and message."""
    assert _each_lane_mode(ex, tree, lanes) == _each_lane_mode(reference_expr, tree, lanes)


def _bits_or_error(fn):
    try:
        return struct.pack("<d", fn())
    except ex.EvalDomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_trees(30), st.lists(st.tuples(_LANES, _LANES), min_size=1, max_size=4))
def test_inline_value_code_matches_one_temporary_per_node(tree, points):
    """Value mode writes arithmetic inline; the former emitter, kept in
    ``reference_expr``, wrote one temporary per node.  Both give the same bits,
    NaN bits included, or the same error class and message."""
    inline = ex.compile_expr(tree, ("x", "y"))
    former = reference_expr.compile_expr(tree, ("x", "y"))
    for point in points:
        assert _bits_or_error(lambda: inline(point)) == _bits_or_error(lambda: former(point))


def test_inline_value_code_keeps_the_first_error():
    """The division is evaluated before the fold after it, so its error comes
    first, with its own class and message, as a line per node had it."""
    tree = ex.parse("x/y + max(exp(x), log(y))", ["x", "y"])
    lines: list = []
    ex.emit_lines(tree, "value", lines, {}, {"x": 0, "y": 1})
    assert lines[0].endswith("(vals[0] / vals[1])")  # computed before the fold
    # also before a fold that cannot raise, so the operations keep their order
    lines = []
    ex.emit_lines(ex.parse("x/y + max(x, y)", ["x", "y"]), "value", lines, {}, {"x": 0, "y": 1})
    assert lines[0].endswith("(vals[0] / vals[1])")
    for point in ((1.0, 0.0), (1000.0, 0.0), (1000.0, -1.0), (1.0, -1.0), (2.0, 3.0)):
        got = _bits_or_error(lambda: ex.compile_expr(tree, ("x", "y"))(point))
        assert got == _bits_or_error(lambda: reference_expr.compile_expr(tree, ("x", "y"))(point))
    assert _bits_or_error(lambda: ex.compile_expr(tree, ("x", "y"))((1000.0, 0.0)))[0] \
        is ex.EvalDomainError
    # a subtree nested past the limit is computed into its temporary: the pending
    # division goes first there too
    deep = ex.Var("x")
    for _ in range(60):
        deep = ex.Exp(deep)
    tree = ex.Add(ex.Div(ex.Var("x"), ex.Var("y")), deep)
    got = _bits_or_error(lambda: ex.compile_expr(tree, ("x", "y"))((1.0, 0.0)))
    assert got == _bits_or_error(lambda: reference_expr.compile_expr(tree, ("x", "y"))((1.0, 0.0)))
    assert got[0] is ex.EvalDomainError  # not the overflow of the exp chain


def test_deeply_nested_value_code_compiles():
    """Texts nested past the limit are computed into temporaries, so a tree much
    deeper than the tokenizer's 200 nested parentheses compiles."""
    tree = ex.Var("x")
    for i in range(400):
        tree = ex.Sub(ex.Const(0.5 * i), ex.Abs(tree)) if i % 2 \
            else ex.Log(ex.Add(tree, ex.Const(3.0)))
    for x in (0.0, 1.0, -2.0, 1e300):
        assert _bits_or_error(lambda: ex.compile_expr(tree, ("x",))((x,))) == \
            _bits_or_error(lambda: reference_expr.compile_expr(tree, ("x",))((x,)))


def test_parentheses_nest_up_to_the_bound():
    """Each level takes a few parser frames, so the bound keeps a deep text from
    exhausting the interpreter's stack; past it the '(' that opens one level too
    many is named."""
    bound = ex.NESTING_MAX
    assert ex.parse("(" * bound + "s" + ")" * bound, ["s"]) == ex.Var("s")
    assert ex.parse("abs(" * bound + "s" + ")" * bound, ["s"]) is not None
    for text, offset in (("(" * (bound + 1) + "s" + ")" * (bound + 1), bound + 1),
                         ("max(s, " * (bound + 1) + "s" + ")" * (bound + 1), 7 * bound + 4)):
        with pytest.raises(ex.ParseError) as err:
            ex.parse(text, ["s"])
        assert err.value.offset == offset
        assert str(err.value) == f"parentheses nested deeper than {bound} levels (offset {offset})"


def test_tree_walks_take_a_5000_term_sum():
    text = " + ".join(["s"] * 5000)
    tree = ex.parse(text, ["s"])
    assert ex.render(tree) == text
    assert ex.free_vars(tree) == {"s"}
    assert ex.tree_key(ex.substitute(tree, {"s": ex.Var("s")})) == ex.tree_key(tree)
    assert ex.evaluate(tree, {"s": 0.5}) == 2500.0
    memo = ex.repeated_subtrees([tree, ex.parse(text, ["s"])])  # the roots share one cell
    assert len(memo) == 2 and len({id(cell) for cell in memo.values()}) == 1


def test_long_sum_compiles_straight_line():
    tree = ex.parse(" + ".join(["s"] * 600), ["s"])
    assert ex.compile_expr(tree, ("s",))((0.5,)) == ex.evaluate(tree, {"s": 0.5}) == 300.0
    assert ex.directional_bounds(tree, {"s": 0.5}, {"s": 1.0}) == (300.0, 600.0, 600.0)


def test_infinite_constant_is_bound_not_printed():
    tree = ex.parse("s + 1e999", ["s"])
    assert ex.compile_expr(tree, ("s",))((1.0,)) == math.inf
    assert ex.directional_bounds(tree, {"s": 1.0}, {"s": 1.0})[0] == math.inf


@pytest.mark.parametrize("text", ["min(s)", "max(s)"])
def test_single_argument_min_max(text):
    tree = ex.parse(text, ["s"])
    assert repr(ex.compile_expr(tree, ("s",))((-0.0,))) == "-0.0"
    assert ex.directional_bounds(tree, {"s": 2.0}, {"s": 3.0}) == (2.0, 3.0, 3.0)


_SIGNED = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0]) \
    | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([ex.Min, ex.Max]), st.lists(_SIGNED, min_size=1, max_size=5))
def test_value_mode_min_max_select_as_the_builtins(node, args):
    """Value mode emits min/max as compare-and-select, not as a builtin call, and
    gives the builtin's bits: NaN, signed zeros and infinities included."""
    names = tuple(f"a{i}" for i in range(len(args)))
    tree = node(tuple(ex.Var(name) for name in names))
    lines: list = []
    ex.emit_lines(tree, "value", lines, {}, {name: i for i, name in enumerate(names)})
    assert not any("min(" in line or "max(" in line for line in lines)
    builtin = min if node is ex.Min else max
    assert struct.pack("<d", ex.compile_expr(tree, names)(args)) == \
        struct.pack("<d", builtin(args))


def test_exp_overflow_raises_overflow_error():
    tree = ex.parse("exp(s)", ["s"])
    for fn in (lambda: ex.compile_expr(tree, ("s",))((1000.0,)),
               lambda: ex.compile_bounds(tree, ("s",))([1000.0], [1.0]),
               lambda: ex.evaluate(tree, {"s": 1000.0})):
        with pytest.raises(ex.EvalOverflowError):
            fn()


def test_generated_domain_errors_follow_the_contract():
    for text, value in (("1/s", 0.0), ("log(s)", -1.0), ("s^0.5", -2.0)):
        with pytest.raises(ex.EvalDomainError):
            ex.compile_expr(ex.parse(text, ["s"]), ("s",))((value,))


# ---------------------------------------------------------------------------
# the tree walks against the former recursive ones in ``reference_expr``

_EDGES = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, 0.5])


def _edge_trees(max_leaves=12):
    """Trees over constants at the edges of the float line, with ``0 - x`` of
    either zero among them (the parser's leading minus builds ``0.0 - x``)."""
    leaves = _EDGES.map(ex.Const) | st.sampled_from(["x", "y"]).map(ex.Var)

    def extend(ch):
        pair = st.tuples(ch, ch)
        args = st.lists(ch, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            pair.map(lambda p: ex.Add(*p)), pair.map(lambda p: ex.Sub(*p)),
            pair.map(lambda p: ex.Mul(*p)), pair.map(lambda p: ex.Div(*p)),
            st.tuples(st.sampled_from([0.0, -0.0]), ch).map(lambda p: ex.Sub(ex.Const(p[0]), p[1])),
            st.tuples(ch, _EDGES).map(lambda p: ex.Pow(*p)),
            ch.map(ex.Abs), ch.map(ex.Exp), ch.map(ex.Log), args.map(ex.Min), args.map(ex.Max))
    return st.recursive(leaves, extend, max_leaves=max_leaves)


@settings(max_examples=500, deadline=None)
@given(_edge_trees(), _edge_trees(max_leaves=4))
@example(ex.Mul(ex.Sub(ex.Const(-0.0), ex.Var("x")), ex.Sub(ex.Const(0.0), ex.Var("y"))),
         ex.Const(math.nan))
def test_tree_walks_match_the_former_recursive_ones(tree, inner):
    assert ex.render(tree) == reference_expr.render(tree)
    assert ex.free_vars(tree) == reference_expr.free_vars(tree)
    for mapping in ({"x": inner}, {"x": inner, "y": ex.Var("x")}, {}):
        assert repr(ex.substitute(tree, mapping)) == repr(reference_expr.substitute(tree, mapping))


_SMALL = st.recursive(
    st.sampled_from([ex.Const(0.0), ex.Const(-0.0), ex.Const(math.nan), ex.Const(-math.nan),
                     ex.Const(1.0), ex.Var("x")]),
    lambda ch: st.one_of(st.tuples(ch, ch).map(lambda p: ex.Sub(*p)),
                         st.tuples(ch, ch).map(lambda p: ex.Add(*p)),
                         st.lists(ch, min_size=1, max_size=2).map(tuple).map(ex.Min),
                         ch.map(ex.Abs), st.tuples(ch, _EDGES).map(lambda p: ex.Pow(*p))),
    max_leaves=4)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SMALL, min_size=2, max_size=8))
@example([ex.Const(0.0), ex.Const(-0.0)])
@example([ex.Pow(ex.Var("x"), 0.0), ex.Pow(ex.Var("x"), -0.0)])
@example([ex.Min((ex.Var("x"), ex.Var("x"))), ex.Min((ex.Var("x"),))])
def test_tree_key_is_shared_exactly_by_equal_reprs(trees):
    """Small trees over few leaves, so that many pairs are equal: NaN of either
    sign has one ``repr``, a zero of each sign its own."""
    for a in trees:
        for b in trees:
            assert (ex.tree_key(a) == ex.tree_key(b)) == (repr(a) == repr(b))


def _cells_by_id(memo, trees):
    """The former ``repr``-keyed ``memo`` in the form :func:`ex.emit_lines` reads:
    one cell per key, under the ``id`` of each node with that key."""
    cells = {key: [None] for key in memo}
    out, stack = {}, list(trees)
    while stack:
        node = stack.pop()
        if repr(node) in cells:
            out[id(node)] = cells[repr(node)]
        stack.extend(ex.children(node))
    return out


@st.composite
def _guard_lists(draw):
    """Guards that share subtrees: as objects, as equal copies, and inside sums
    and maxima of each other."""
    pool = draw(st.lists(_edge_trees(max_leaves=5), min_size=1, max_size=3))
    pick = st.sampled_from(pool)
    guard = st.one_of(pick, pick.map(lambda t: reference_expr.substitute(t, {})),
                      st.tuples(pick, pick).map(lambda p: ex.Add(*p)),
                      st.tuples(pick, pick).map(ex.Max), _edge_trees(max_leaves=3))
    return draw(st.lists(guard, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(_guard_lists())
def test_shared_subtrees_emit_as_with_the_former_repr_keyed_memo(guards):
    def emit(memo):
        lines, consts = [], {}
        roots = [ex.emit_lines(g, "value", lines, consts, {"x": 0, "y": 1}, tag=f"g{i}_",
                               memo=memo) for i, g in enumerate(guards)]
        return lines, repr(consts), roots
    assert emit(ex.repeated_subtrees(guards)) == \
        emit(_cells_by_id(reference_expr.repeated_subtrees(guards), guards))
