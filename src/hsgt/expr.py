"""Expression trees for scalar dynamics, guards, gains, and comparison functions.

The grammar (also documented in the README) is a small infix language:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' number]
    atom   := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'

with ``func`` one of ``abs``, ``min``, ``max``, ``exp``, ``log``.  Offsets in
parse errors are 1-based character positions; errors at end of input report
one position past the last character.

Parentheses and calls nest at most ``NESTING_MAX`` deep; sums and products
have no length limit, as every walk over a tree is a loop over :func:`children`.

One code generator backs :func:`compile_expr`, :func:`compile_shaped`,
:func:`compile_bounds`, :func:`compile_array`, :func:`compile_bounds_array`,
the array and bounds kernels of :class:`Shape`, and the multi-expression
functions that :func:`compile_lines` builds from :func:`emit_lines`.  All of
them raise :class:`EvalDomainError` on a domain error,
:class:`EvalOverflowError` on overflow.

The rules that make a block of lanes read as a row-by-row scalar pass live
here too: :func:`lane_max` and :func:`lane_min` fold lanes as Python's
``max`` and ``min`` do, :func:`in_row_order` turns sample rows into columns
and raises the first failing row's error, and :func:`rows_in_order` does so
for a scan that stops at its first hit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ExprError):
    """Division by zero, log of a non-positive value, invalid power, overflow."""


class EvalOverflowError(EvalDomainError):
    """A result too large to represent (exp or power overflow)."""


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Abs(Expr):
    a: Expr


@dataclass(frozen=True)
class Exp(Expr):
    a: Expr


@dataclass(frozen=True)
class Log(Expr):
    a: Expr


@dataclass(frozen=True)
class Min(Expr):
    args: tuple


@dataclass(frozen=True)
class Max(Expr):
    args: tuple


# The functions of the grammar by name: what the parser calls and render writes.
_CALLS = {"abs": Abs, "exp": Exp, "log": Log, "min": Min, "max": Max}
_NAMES = {kind: name for name, kind in _CALLS.items()}
# The binary operators as render writes them, with their precedence.
_PREC_ADD, _PREC_MUL, _PREC_ATOM = 1, 2, 4
_BINARY = {Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD),
           Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}

# The parser takes a few Python frames per level, so a level past this bound is
# a ParseError rather than a RecursionError.
NESTING_MAX = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character '{text[bad]}'", bad + 1)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num") + 1))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed_vars: Iterable[str]):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.allowed = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", offset)
        return self.advance()

    def group(self, offset: int, several: bool) -> List[Expr]:
        """The expressions (``several``: comma-separated) after the '(' at
        ``offset``, through its ')': one more level of nesting."""
        if self.depth == NESTING_MAX:
            raise ParseError(f"parentheses nested deeper than {NESTING_MAX} levels", offset)
        self.depth += 1
        args = [self.expr()]
        while several and self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        self.depth -= 1
        return args

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token '{value}'", offset)
        return node

    def expr(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node: Expr = Sub(Const(0.0), self.term())
        else:
            node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "num":
                raise ParseError("expected numeric exponent", offset)
            self.advance()
            node = Pow(node, float(value))
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            call = _CALLS.get(value)
            if call is not None:
                args = self.group(self.expect_op("(")[2], True)
                if call is Min or call is Max:
                    return call(tuple(args))
                if len(args) != 1:
                    raise ParseError(f"{value}() takes exactly one argument", offset)
                return call(args[0])
            if value not in self.allowed:
                raise UnknownIdentifierError(value, offset)
            return Var(value)
        if kind == "op" and value == "(":
            return self.group(offset, False)[0]
        shown = "end of input" if kind == "end" else f"'{value}'"
        raise ParseError(f"expected expression, found {shown}", offset)


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse ``text`` into an expression tree over the given variable names."""
    return _Parser(text, allowed_vars).parse()


def children(node: Expr) -> tuple:
    """The subtrees of ``node``, left to right."""
    kind = type(node)
    if kind in (Add, Sub, Mul, Div):
        return node.a, node.b
    if kind in (Abs, Exp, Log):
        return node.a,
    if kind is Pow:
        return node.base,
    if kind in (Min, Max):
        return node.args
    return ()


def _postorder(expr: Expr, leaf: Optional[Callable[[Expr], bool]] = None) -> list:
    """``(node, arity)`` of each node of ``expr``, children first, left to right,
    leaving out the children of a ``leaf`` node: a pass that stacks its results
    finds a node's children's as the last ``arity`` entries."""
    preorder, stack = [], [expr]
    while stack:  # reversed right-first preorder is left-first post-order
        node = stack.pop()
        kids = () if leaf is not None and leaf(node) else children(node)
        preorder.append((node, len(kids)))
        stack.extend(kids)
    preorder.reverse()
    return preorder


def free_vars(expr: Expr) -> frozenset:
    names, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            names.add(node.name)
        else:
            stack.extend(children(node))
    return frozenset(names)


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by subtrees; realizes function composition."""
    done: list = []
    for node, arity in _postorder(expr):
        kind = type(node)
        if arity:
            kids = done[-arity:]
            del done[-arity:]
            node = Pow(kids[0], node.exponent) if kind is Pow else \
                kind(tuple(kids)) if kind is Min or kind is Max else kind(*kids)
        elif kind is Var:
            node = mapping.get(node.name, node)
        done.append(node)
    return done[0]


# ---------------------------------------------------------------------------
# code generation: one backend for values and directional bounds

_TIE_TOL = 1e-12  # relative tolerance for a tie between abs/min/max branches

# Per node type: the value text, then the directional-bound (chain-rule) lines.
# The value text holds {A} {B} for its children's texts, and {args} for all of
# them; a binary node's is parenthesised, so nested texts keep the tree's
# grouping.  In the chain rule v{j} l{j} h{j} are node j's value and bounds and
# {a} {b} number its children; c m n{j} are scratch.  k{k} is the node's
# constant and e{k} its exponent, {i} its variable index.  {args} and {parts}
# end in a comma, so one argument makes a tuple.  ``scale``, ``abs_bounds`` and
# ``band`` take floats or lanes by the namespace.  ``bad`` marks each lane where
# the rule branches on a tie band or could raise; a scalar function computes
# the marks and ignores them.
_RULES = {
    Const: ("k{k}", ("l{j} = h{j} = 0.0",)),
    Var: ("vals[{i}]", ("l{j} = h{j} = dirs[{i}]",)),
    Add: ("({A} + {B})", ("l{j} = l{a} + l{b}", "h{j} = h{a} + h{b}")),
    Sub: ("({A} - {B})", ("l{j} = l{a} - h{b}", "h{j} = h{a} - l{b}")),
    Mul: ("({A} * {B})", ("l{j}, h{j} = scale(v{b}, l{a}, h{a})",
                          "m{j}, n{j} = scale(v{a}, l{b}, h{b})",
                          "l{j} = l{j} + m{j}", "h{j} = h{j} + n{j}")),
    Div: ("({A} / {B})", ("c{j} = 1.0 / v{b}", "l{j}, h{j} = scale(c{j}, l{a}, h{a})",
                          "bad = bad | (v{b} * v{b} == 0.0)", "c{j} = -v{a} / (v{b} * v{b})",
                          "m{j}, n{j} = scale(c{j}, l{b}, h{b})", "l{j} = l{j} + m{j}",
                          "h{j} = h{j} + n{j}")),
    Pow: ("pow({A}, e{k})", ("if e{k} == 0.0: l{j} = h{j} = 0.0",
                             "else: c{j} = e{k} * pow(v{a}, e{k} - 1.0); "
                             "bad = bad | (c{j} != c{j}); l{j}, h{j} = scale(c{j}, l{a}, h{a})")),
    Abs: ("abs({A})", ("l{j}, h{j}, bad = abs_bounds(v{a}, l{a}, h{a}, bad)",)),
    Exp: ("exp({A})", ("l{j}, h{j} = scale(v{j}, l{a}, h{a})",)),
    Log: ("log({A})", ("c{j} = 1.0 / v{a}", "l{j}, h{j} = scale(c{j}, l{a}, h{a})")),
    Min: ("min(({args}))", ("l{j}, h{j}, bad = band(v{j}, ({parts}), bad)",)),
    Max: ("max(({args}))", ("l{j}, h{j}, bad = band(v{j}, ({parts}), bad)",)),
}


def _scale_floats(c, lo, hi):
    """``c * [lo, hi]``, endpoints ordered by the sign of c."""
    return (c * lo, c * hi) if c >= 0.0 else (c * hi, c * lo)


def _abs_floats(v, lo, hi, bad):
    """The abs chain rule: [lo, hi] by the sign of v, their hull in its tie band."""
    t = _TIE_TOL * max(1.0, abs(v))
    if v > t:
        return lo, hi, bad
    if v < -t:
        return -hi, -lo, bad
    return min(lo, -hi), max(hi, -lo), bad


def _band_floats(v, parts, bad):
    """The min/max chain rule: the hull of the bounds of the arguments in the tie
    band of ``v``; with none in it, the empty ``min`` raises."""
    t = _TIE_TOL * max(1.0, abs(v))
    near = [p for p in parts if abs(p[0] - v) <= t]
    return min([p[1] for p in near]), max([p[2] for p in near]), bad


# Every scalar generated function maps arithmetic failures to the evaluation-error
# contract, in the ``except`` clauses that close each ``translated`` block.
_TRANSLATE = ("except OverflowError as exc:",
              "    raise EvalOverflowError(f'{exc} in {render(EXPR)}') from exc",
              "except (ZeroDivisionError, ValueError) as exc:",
              "    raise EvalDomainError(f'{exc} in {render(EXPR)}') from exc")
_NAMESPACE = {"pow": math.pow, "exp": math.exp, "log": math.log, "isfinite": math.isfinite,
              "NAN": math.nan, "EvalDomainError": EvalDomainError,
              "EvalOverflowError": EvalOverflowError,
              "scale": _scale_floats, "abs_bounds": _abs_floats, "band": _band_floats}
_CODE: Dict[str, CodeType] = {}


# The lane modes run the same lines on column arrays, with the constants passed
# in (see ``Shape``).  +, -, *, / and abs are numpy's, which round as Python
# floats do; exp, log and pow stay libm's, lane by lane, because numpy's own
# differ in the last bit.  ``bad`` marks every lane where the scalar function
# could raise; those lanes are redone by it.  Their min and max are calls,
# since a comparison cannot select between arrays.  In array mode each
# temporary is deleted once its parent has read it, so a call on a large block
# holds few block-sized arrays at a time.
_NAN_MARK = "bad = bad | (v{j} != v{j})"
_MARKS = {Div: "bad = bad | (v{b} == 0.0)", Pow: _NAN_MARK, Exp: _NAN_MARK, Log: _NAN_MARK}


def _lanewise(fn: Callable) -> Callable:
    """``fn`` applied lane by lane, keeping the array's shape; a lane where it
    raises holds NaN."""
    def apply(a, *args):
        if not isinstance(a, np.ndarray):
            return fn(a, *args)
        out = []
        for v in a.ravel().tolist():
            try:
                out.append(fn(v, *args))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
        return np.array(out, dtype=float).reshape(a.shape)
    return apply


def _keep_first(builtin: Callable, better: Callable) -> Callable:
    """``builtin`` min or max over lanes: a later argument wins only if strictly better."""
    def fold(args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return builtin(args)
        out = args[0]
        for b in args[1:]:
            out = np.where(better(b, out), b, out)
        return out
    return fold


# Python's max and min over a sequence of lane arrays and floats, lane by lane:
# a NaN first value is kept and a later NaN is skipped, and of equal values the
# first wins, which decides the sign of a zero.
lane_max = _keep_first(max, np.greater)
lane_min = _keep_first(min, np.less)


def in_row_order(fn: Callable, rows: np.ndarray):
    """``fn`` on the column block of ``rows``, raising as ``fn`` row by row would.

    ``rows`` holds one sample per row, (N, width), or one scalar per row, (N,);
    ``fn`` gets their contiguous transpose, one lane per row.  A block stage
    raises the error of its own first failing lane, yet a later lane may fail
    in an earlier stage.  On an error the rows are replayed one lane at a
    time, so the first failing row's error is raised, with its class and
    message.  numpy's floating-point warnings are off: plain floats give none.
    """
    cols = rows.T.copy()
    with np.errstate(all="ignore"):
        try:
            return fn(cols)
        except Exception:  # replayed below, not swallowed
            for p in range(cols.shape[-1]):
                fn(cols[..., p:p + 1])
            raise


def rows_in_order(fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray):
    """Yield ``(0, fn(rows))``, or, if that raises, ``(p, fn(rows[p:p + 1]))``
    for each row p in turn.

    A scan that stops at its first hit thus meets only the errors that a
    row-by-row scan would: an error past the hit never surfaces, and one
    before it is raised again by its own row, with the same class and message.
    """
    try:
        values = fn(rows)
    except Exception:  # replayed below, not swallowed
        for p in range(len(rows)):
            yield p, fn(rows[p:p + 1])
        return
    yield 0, values


def _scale_lanes(c, lo, hi):
    """``scale`` lane by lane: ``c * [lo, hi]``, endpoints ordered by the sign of c."""
    pos = c >= 0.0
    return np.where(pos, c * lo, c * hi), np.where(pos, c * hi, c * lo)


def _abs_lanes(v, lo, hi, bad):
    """The abs chain rule off its tie band; lanes inside the band (or NaN) are marked."""
    t = _TIE_TOL * np.maximum(1.0, np.abs(v))
    pos, neg = v > t, v < -t
    return np.where(pos, lo, -hi), np.where(pos, hi, -lo), bad | ~(pos | neg)


def _band_lanes(v, parts, bad):
    """The min/max chain rule where exactly one argument lies in the tie band of ``v``;
    every other lane (a tie, or none in the band) is marked."""
    t = _TIE_TOL * np.maximum(1.0, np.abs(v))
    near = [np.abs(p - v) <= t for p, _l, _h in parts]
    lo = np.select(near, [np.broadcast_to(l, np.shape(v)) for _p, l, _h in parts], 0.0)
    hi = np.select(near, [np.broadcast_to(h, np.shape(v)) for _p, _l, h in parts], 0.0)
    return lo, hi, bad | (sum(near) != 1)


_ARRAY_NAMESPACE = {**_NAMESPACE, "pow": _lanewise(math.pow), "exp": _lanewise(math.exp),
                    "log": _lanewise(math.log), "min": lane_min, "max": lane_max,
                    "isfinite": np.isfinite,
                    "scale": _scale_lanes, "abs_bounds": _abs_lanes, "band": _band_lanes}


# Of the nodes that value mode writes inline, only the ones in _RAISES can raise
# on floats.  A text nested deeper than _NESTING is computed into its
# temporary: Python's tokenizer allows 200 nested parentheses.
_RAISES = {Div, Pow, Exp, Log}
_NESTING = 50


def emit_lines(expr: Expr, mode: str, lines: List[str], consts: Dict[str, float],
               index: Optional[Mapping[str, int]] = None,
               var_ids: Optional[Mapping[str, str]] = None, tag: str = "",
               memo: Optional[Dict[int, list]] = None) -> str:
    """Append the rule lines of ``expr`` to ``lines``, in post-order; return the id
    of the root, whose value is then in the local ``v{id}``.

    One walk serves every mode, so the arithmetic is the tree's, in the tree's
    order.  Node n's temporaries are ``v``, ``l``, ``h`` ... followed by its id
    ``{tag}{n}``.  A variable reads ``vals[index[name]]``, or with ``var_ids``
    emits no line and its id is ``var_ids[name]``, naming a local the caller
    binds.  Constants (``k``) and exponents (``e``) are numbered into ``consts``
    together.

    Value mode writes arithmetic inline, each node as its rule's value text with
    its children's texts in place: a node gets a line of its own only as a
    min/max fold (with each argument after the first that is not a plain name),
    as the root, past ``_NESTING``, or in ``memo``.  Before a fold, and before
    any other line that evaluates something that can raise, every pending text
    that can raise is computed into its temporary, oldest first, so the
    evaluation stays in post-order and the first error is the one a line per
    node raises.  The other modes compute every node into its temporary; on
    lanes its mark follows (see ``_MARKS``), in ``array`` mode the ``del`` of its
    children, in ``bounds`` and ``bounds_array`` its chain rule.
    ``memo`` maps the ``id`` of each node to share to its structure's cell: a
    node whose cell holds an id is read from ``v{id}``, and one whose cell holds
    ``None`` is computed into its temporary and its id is written into the cell
    (see :func:`repeated_subtrees`).
    """
    inline = mode == "value"
    shared = memo if memo is not None else {}
    # a subtree computed before this walk is not walked into
    order = _postorder(expr, (lambda node: shared.get(id(node), (None,))[0] is not None)
                       if shared else None)
    # (id, text, nesting, raises) of each finished subtree not yet read by its
    # parent; a text of nesting 0 is a plain name
    temps: list = []

    def flush():
        for p, (jid, text, _nesting, raises) in enumerate(temps):
            if raises:
                lines.append(f"v{jid} = {text}")
                temps[p] = (jid, f"v{jid}", 0, False)

    def compute(jid: str, text: str, raises: bool) -> tuple:
        if raises:
            flush()
        lines.append(f"v{jid} = {text}")
        return jid, f"v{jid}", 0, False

    for n, (node, arity) in enumerate(order):
        j = f"{tag}{n}"
        split = len(temps) - arity
        kids, temps[split:] = temps[split:], []
        cell = shared.get(id(node))
        known = None if cell is None else cell[0]  # computed before, maybe in this walk
        if known is not None:
            temps.append((known, f"v{known}", 0, False))
            continue
        kind = type(node)
        fields, nesting, raises = {"j": j}, 0, kind in _RAISES
        for ab, AB, (jid, text, depth, fails) in zip("ab", "AB", kids):
            fields[ab], fields[AB], raises = jid, text, raises or fails
            if depth >= nesting:
                nesting = depth + 1
        if kind is Const:
            fields["k"] = len(consts)
            consts[f"k{len(consts)}"] = node.value
        elif kind is Pow:
            fields["k"] = len(consts)
            consts[f"e{len(consts)}"] = node.exponent
        elif kind is Var:
            if var_ids is not None:
                vid = var_ids[node.name]
                temps.append((vid, f"v{vid}", 0, False))
                continue
            fields["i"] = index[node.name]
        value, chain = _RULES[kind]
        if (kind is Min or kind is Max) and inline:
            # the builtin's own fold: a later argument wins only if strictly better
            better = "<" if kind is Min else ">"
            flush()
            entry = compute(j, kids[0][1], kids[0][3])
            for jid, text, depth, fails in kids[1:]:
                name = text if depth == 0 else compute(jid, text, fails)[1]
                lines.append(f"if {name} {better} v{j}: v{j} = {name}")
        else:
            if kind is Min or kind is Max:
                fields["args"] = "".join(f"{kid[1]}, " for kid in kids)
                fields["parts"] = "".join(f"(v{kid[0]}, l{kid[0]}, h{kid[0]}), " for kid in kids)
            entry = (j, value.format_map(fields), nesting, raises)
        if (not inline or cell is not None or entry[2] > _NESTING) and entry[1] != f"v{j}":
            entry = compute(j, entry[1], entry[3])
        if not inline:
            if mode != "bounds" and kind in _MARKS:
                lines.append(_MARKS[kind].format_map(fields))
            if mode == "array" and kids:  # only the parent reads a child's lanes
                lines.append("del " + ", ".join(f"v{kid[0]}" for kid in kids))
            if mode != "array":
                lines.extend(rule.format_map(fields) for rule in chain)
        if cell is not None:
            cell[0] = entry[0]
        temps.append(entry)
    jid, text, _nesting, _raises = temps[0]
    if text != f"v{jid}":
        lines.append(f"v{jid} = {text}")
    return jid


def _label(node: Expr, arity: int) -> str:
    """The type of ``node`` and what it holds besides its ``arity`` children: a
    constant's or an exponent's ``repr``, a name, or the number of children."""
    kind = type(node)
    if kind is Const:
        return f"k{node.value!r}"
    if kind is Var:
        return f"v{node.name}"
    if kind is Pow:
        return f"^{node.exponent!r}"
    return f"{kind.__name__}{arity}"


def tree_key(expr: Expr) -> str:
    """A key that two trees share only if they compute the same values, up to
    the sign of a NaN: ``Const(0.0) == Const(-0.0)``, but their keys differ.

    It is the labels of the nodes in pre-order, right to left (see
    :func:`_label`), which read back as exactly one tree: a label gives its
    node's number of children.
    """
    labels, stack = [], [expr]
    while stack:
        node = stack.pop()
        kids = children(node)
        labels.append(_label(node, len(kids)))
        stack.extend(kids)
    return " ".join(labels)


def repeated_subtrees(trees: Sequence[Expr]) -> Dict[int, list]:
    """The ``memo`` of :func:`emit_lines` that computes once each subtree other
    than a variable met again in ``trees``, in order.  What lies inside a
    repeat is not visited again.

    One bottom-up pass numbers the structures: two nodes share a number exactly
    when they share a :func:`tree_key`.  The memo maps the ``id`` of every node
    of a repeated structure to that structure's one cell, ``[None]``, so it
    holds while ``trees`` live.
    """
    number: Dict[int, int] = {}  # id(node) -> its structure
    structures: Dict[tuple, int] = {}
    for tree in trees:
        done: list = []
        for node, arity in _postorder(tree, lambda node: id(node) in number):
            key = (_label(node, arity), *done[len(done) - arity:])
            del done[len(done) - arity:]
            if id(node) not in number:
                number[id(node)] = structures.setdefault(key, len(structures))
            done.append(number[id(node)])
    seen, cells = set(), {}
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if type(node) is not Var:
                s = number[id(node)]
                if s in seen:
                    cells[s] = [None]
                else:
                    seen.add(s)
                    stack.extend(children(node))
    return {i: cells[s] for i, s in number.items() if s in cells}


def _define(params: str, lines: Sequence[str], namespace: dict) -> Callable:
    """The function ``f(params)`` with body ``lines``, run in ``namespace``."""
    source = f"def f({params}):\n" + "".join(f"    {line}\n" for line in lines)
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<hsgt expression>", "exec")
    exec(code, namespace)
    return namespace["f"]


def translated(body: Sequence[str]) -> List[str]:
    """``body`` in a ``try`` block whose arithmetic failures raise
    :class:`EvalOverflowError` or :class:`EvalDomainError`."""
    return ["try:", *(f"    {line}" for line in body), *_TRANSLATE]


def compile_lines(params: str, lines: Sequence[str], names: Mapping[str, object],
                  where: str) -> Callable:
    """The function ``f(params)`` running ``lines``, whose value-mode parts (built
    by :func:`emit_lines`) sit in :func:`translated` blocks with messages naming
    ``where``.  ``names`` (the constants among them) are globals."""
    return _define(params, lines, {**_NAMESPACE, **names, "EXPR": where, "render": str})


def _mixes_nans(expr: Expr) -> bool:
    """Whether ``expr`` applies +, -, * or / anywhere.

    Of two NaN operands CPython's float arithmetic returns one or the other,
    depending on whether it has specialized the operation yet, so the sign of
    such a NaN can change from one call to the next.  Generated functions of
    these trees return the one NaN ``NAN`` for every NaN value.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) in _BINARY:
            return True
        stack.extend(children(node))
    return False


def _generate(expr: Expr, var_order: Sequence[str],
              mode: str) -> Tuple[List[str], Dict[str, float]]:
    """The body of ``expr``'s function in ``mode`` and its constants and exponents
    by name.

    ``mode`` is ``value``, ``bounds`` (adds the chain rule), ``array`` (the value
    on lanes, with their marks) or ``bounds_array`` (the chain rule on lanes).
    """
    index = {name: i for i, name in enumerate(var_order)}
    missing = free_vars(expr) - set(index)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    consts: Dict[str, float] = {}
    lines: List[str] = []
    root = emit_lines(expr, mode, lines, consts, index)
    if _mixes_nans(expr):  # a NaN result is redone by the scalar code, which returns NAN
        if mode in ("array", "bounds_array"):
            lines.append(_NAN_MARK.format(j=root))
        else:
            lines.append(f"if v{root} != v{root}: v{root} = NAN")
    if mode == "bounds":
        lines += [f"if not (isfinite(l{root}) and isfinite(h{root})):",
                  "    raise EvalDomainError('non-finite gradient estimate in ' + render(EXPR))",
                  f"return v{root}, l{root}, h{root}"]
    elif mode == "bounds_array":
        lines += [f"bad = bad | ~(isfinite(l{root}) & isfinite(h{root}))",
                  f"return v{root}, l{root}, h{root}, bad"]
    else:
        lines.append(f"return v{root}, bad" if mode == "array" else f"return v{root}")
    if mode == "value":
        return translated(lines), consts
    if mode == "array":  # the first mark starts the mask: False | lanes is a slow loop
        first = next((i for i, line in enumerate(lines) if line.startswith("bad = bad | ")), None)
        if first is not None:
            lines[first] = "bad = " + lines[first][len("bad = bad | "):]
            return lines, consts
    lines = ["bad = False", *lines]
    return (translated(lines) if mode == "bounds" else lines), consts


def _bind(expr: Expr, lines: List[str], consts: Dict[str, float], params: str,
          namespace: dict) -> Callable:
    """The function of ``lines`` from :func:`_generate`.  Constants and exponents are
    bound by name, so no config text reaches ``compile`` and trees of one shape
    share a code object."""
    return _define(params, lines, {**namespace, **consts, "EXPR": expr, "render": render})


def compile_expr(expr: Expr, var_order: Sequence[str]) -> Callable:
    """Value function of ``expr`` over a positional sequence ordered as ``var_order``.

    A NaN value of a tree with +, -, * or / is ``math.nan``, bit for bit.
    """
    return compile_shaped(expr, var_order)[0]


def compile_shaped(expr: Expr, var_order: Sequence[str]) -> Tuple[Callable, "Shape", tuple]:
    """:func:`compile_expr`'s function, with the :class:`Shape` of ``expr`` and
    the values of its constants in the order its kernel takes them.  One emit
    gives all three."""
    lines, consts = _generate(expr, var_order, "value")
    shape = Shape("\n".join(lines), tuple(v for k, v in consts.items() if k[0] == "e"),
                  expr, tuple(var_order))
    return (_bind(expr, lines, consts, "vals", _NAMESPACE), shape,
            tuple(v for k, v in consts.items() if k[0] == "k"))


@dataclass(frozen=True)
class Shape:
    """An expression tree with its ``Const`` values taken out.

    Trees of one shape share one array kernel ``f(vals, k0, k1, ...)`` and one
    bounds kernel ``f(vals, dirs, k0, k1, ...)``: each passes its own
    constants.  ``Pow`` exponents stay part of the shape, because ``pow`` runs
    lane by lane through libm.  A shape is its value-mode source and exponents;
    ``tree`` is any one of its trees, from which each kernel is generated on
    first use and then kept by that source.
    """

    source: str
    exponents: tuple
    tree: Expr = field(compare=False, repr=False)
    var_order: tuple = field(compare=False, repr=False)

    def lanes(self, vals, consts: Sequence, out: np.ndarray, dirs=None):
        """Write the kernel's values on the columns ``vals`` into ``out`` and
        return the mask of lanes to redo, broadcastable to ``out``'s lanes.

        With ``dirs``, the bounds kernel writes the value, lo and hi at the
        directions ``dirs`` into ``out[0]``, ``out[1]`` and ``out[2]``.  Lane p
        is the scalar function's bit for bit unless it is marked; every lane
        where that function could raise, or return NaN, is marked, and a
        failure of the whole call (a constant subtree failed) marks them all.
        ``consts`` are floats, or (rows, 1) columns that give each row of a
        (rows, width) block its own tree of this shape.
        """
        mode, args = ("array", (vals,)) if dirs is None else ("bounds_array", (vals, dirs))
        kernel = _KERNELS.get((self, mode))
        if kernel is None:
            lines, consts_of_tree = _generate(self.tree, self.var_order, mode)
            params = ["vals", "dirs"][:len(args)] + [k for k in consts_of_tree if k[0] == "k"]
            exponents = {k: v for k, v in consts_of_tree.items() if k[0] == "e"}
            kernel = _KERNELS[self, mode] = _define(", ".join(params), lines,
                                                    {**_ARRAY_NAMESPACE, **exponents})
        try:
            with np.errstate(all="ignore"):
                *results, bad = kernel(*args, *consts)
        except (ArithmeticError, ValueError):
            results, bad = (math.nan,) * 3, True
        for part, result in zip(out if dirs is not None else (out,), results):
            part[...] = result  # a constant tree gives one float for every lane
        return bad

    def array(self, vals, consts: Sequence, scalar: Callable, dirs=None) -> np.ndarray:
        """:meth:`lanes` on 1-D columns, each marked lane redone in lane order by
        ``scalar`` on that lane's values (and directions); the first lane where
        it raises raises.  With ``dirs`` the result is (3, lanes)."""
        width = len(vals[0])
        out = np.empty(width if dirs is None else (3, width))
        bad = self.lanes(vals, consts, out, dirs)
        if np.any(bad):
            for p in np.flatnonzero(np.broadcast_to(bad, (width,))).tolist():
                lane = [float(v[p]) for v in vals]
                out[..., p] = scalar(lane) if dirs is None else \
                    scalar(lane, [float(d[p]) for d in dirs])
        return out


# The array and bounds kernels of each shape in use, by (shape, mode), each
# generated on first use.
_KERNELS: Dict[Tuple[Shape, str], Callable] = {}


def compile_array(expr: Expr, var_order: Sequence[str]) -> Callable:
    """Array function of ``expr``: ``fn(vals)`` maps columns ``vals[i]`` to values.

    The columns are equal-length float arrays ordered as ``var_order``.  Lane p
    equals the :func:`compile_expr` value at ``[vals[i][p] for i]`` bit for bit;
    if that function raises on some lane, ``fn`` raises the first such lane's
    error, with the same class and message.
    """
    scalar, shape, consts = compile_shaped(expr, var_order)
    return lambda vals: shape.array(vals, consts, scalar)


def compile_bounds(expr: Expr, var_order: Sequence[str]) -> Callable:
    """Bounds function ``fn(vals, dirs) -> (value, lo, hi)`` of ``expr``.

    ``[lo, hi]`` encloses the generalized gradient's inner products with
    ``dirs`` and collapses to the chain-rule derivative where every
    abs/min/max branch is unambiguous.
    """
    return _bind(expr, *_generate(expr, var_order, "bounds"), "vals, dirs", _NAMESPACE)


def compile_bounds_array(expr: Expr, var_order: Sequence[str]) -> Callable:
    """Array mode of :func:`compile_bounds`: ``fn(vals, dirs)`` gives the value,
    lo and hi on columns, as the rows of one (3, lanes) array.

    Lane p equals the scalar bounds at ``[vals[i][p] for i]`` and
    ``[dirs[i][p] for i]`` bit for bit, under :func:`compile_array`'s error
    contract: lanes near an abs/min/max tie band, or with a non-finite result,
    are redone by the scalar bounds function.  Compiled on the first call.
    """
    built = None

    def call(vals, dirs):
        nonlocal built
        if built is None:
            built = (*compile_shaped(expr, var_order)[1:], compile_bounds(expr, var_order))
        shape, consts, scalar = built
        return shape.array(vals, consts, scalar, dirs)
    return call


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """:func:`compile_expr` at a full binding of the free variables, given by name."""
    names = tuple(env)
    return compile_expr(expr, names)([env[n] for n in names])


def directional_bounds(expr: Expr, env: Mapping[str, float], seed: Mapping[str, float]):
    """:func:`compile_bounds` at a point and direction given by name (unnamed: 0)."""
    names = tuple(env)
    return compile_bounds(expr, names)([env[n] for n in names],
                                       [seed.get(n, 0.0) for n in names])


def render(expr: Expr) -> str:
    """Pretty-print; re-parsing the result is evaluation-preserving.

    A pre-order walk over tokens: each node carries the precedence its position
    requires and is parenthesised where its own is lower.
    """
    out, stack = [], [(expr, 0)]
    while stack:  # tokens are pushed last first
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, prec = item
        kind = type(node)
        if kind is Const:
            out.append(repr(node.value))
        elif kind is Var:
            out.append(node.name)
        elif kind is Pow:
            stack += [f"^{node.exponent!r}", (node.base, _PREC_ATOM)]
        elif kind in _NAMES:
            args = [part for arg in reversed(children(node)) for part in ((arg, 0), ", ")]
            stack += [")", *args[:-1], f"{_NAMES[kind]}("]
        else:
            op, own = _BINARY[kind]
            if kind is Sub and type(node.a) is Const and node.a.value == 0.0:
                parts = [(node.b, _PREC_MUL), "-"]
            else:
                parts = [(node.b, own + 1), op, (node.a, own)]
            stack += [")", *parts, "("] if prec > own else parts
    return "".join(out)
