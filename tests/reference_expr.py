"""The former code generator of ``hsgt.expr``, kept as a test oracle.

``_RULES``, ``_MARKS``, ``_ARRAY_CHAIN``, ``_MINMAX`` and ``_scale`` are the
former rule tables, verbatim: a scalar chain rule per node written out in
lines, and a lane chain rule beside it.  ``emit_lines`` is the former emitter,
verbatim but for the module prefix: one temporary per node, each node's rule
lines in post-order.  ``_generate`` is the former body builder.  On them,
``compile_expr``, ``compile_array``, ``compile_bounds`` and
``compile_bounds_array`` build the former functions, each with the
lane-redo rule that ``hsgt.expr`` wrapped around its kernels.

``evaluate``, ``free_vars``, ``substitute``, ``render`` (with ``_render``) and
``repeated_subtrees`` are the former recursive tree walks, verbatim but for the
module prefix; ``repeated_subtrees`` keys subtrees by their ``repr``, as the
former ``tree_key`` did.  ``evaluate`` is the former reference interpreter.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from hsgt import expr as ex
from hsgt.expr import (Abs, Add, Const, Div, EvalDomainError, EvalOverflowError, Exp, Expr,
                       Log, Max, Min, Mul, Pow, Sub, UnboundVariableError, Var)


def _scale(c: str, lo: str, hi: str, out: str = "l{j}, h{j}") -> str:
    """Line setting ``out`` to ``c * [lo, hi]``, endpoints ordered by the sign of c."""
    return f"{out} = ({c} * {lo}, {c} * {hi}) if {c} >= 0.0 else ({c} * {hi}, {c} * {lo})"


# Per node type: the value line, then the directional-bound (chain-rule) lines.
# v{j} l{j} h{j} are node j's value and bounds, {a} {b} number its children,
# k{k} is its constant and e{k} its exponent, {i} its variable index; c m n t w{j}
# are scratch.  {args} and {parts} end in a comma, so one argument makes a tuple.
_MINMAX = ("t{j} = TIE_TOL * max(1.0, abs(v{j}))",
           "w{j} = [p for p in ({parts}) if abs(p[0] - v{j}) <= t{j}]",
           "l{j} = min([p[1] for p in w{j}])", "h{j} = max([p[2] for p in w{j}])")
_RULES = {
    Const: ("v{j} = k{k}", ("l{j} = h{j} = 0.0",)),
    Var: ("v{j} = vals[{i}]", ("l{j} = h{j} = dirs[{i}]",)),
    Add: ("v{j} = v{a} + v{b}", ("l{j} = l{a} + l{b}", "h{j} = h{a} + h{b}")),
    Sub: ("v{j} = v{a} - v{b}", ("l{j} = l{a} - h{b}", "h{j} = h{a} - l{b}")),
    Mul: ("v{j} = v{a} * v{b}", (_scale("v{b}", "l{a}", "h{a}"),
                                 _scale("v{a}", "l{b}", "h{b}", "m{j}, n{j}"),
                                 "l{j} = l{j} + m{j}", "h{j} = h{j} + n{j}")),
    Div: ("v{j} = v{a} / v{b}", ("c{j} = 1.0 / v{b}", _scale("c{j}", "l{a}", "h{a}"),
                                 "c{j} = -v{a} / (v{b} * v{b})",
                                 _scale("c{j}", "l{b}", "h{b}", "m{j}, n{j}"),
                                 "l{j} = l{j} + m{j}", "h{j} = h{j} + n{j}")),
    Pow: ("v{j} = pow(v{a}, e{k})", ("if e{k} == 0.0: l{j} = h{j} = 0.0",
                                     "else: c{j} = e{k} * pow(v{a}, e{k} - 1.0); "
                                     + _scale("c{j}", "l{a}", "h{a}"))),
    Abs: ("v{j} = abs(v{a})", ("t{j} = TIE_TOL * max(1.0, abs(v{a}))",
                               "if v{a} > t{j}: l{j} = l{a}; h{j} = h{a}",
                               "elif v{a} < -t{j}: l{j} = -h{a}; h{j} = -l{a}",
                               "else: l{j} = min(l{a}, -h{a}); h{j} = max(h{a}, -l{a})")),
    Exp: ("v{j} = exp(v{a})", (_scale("v{j}", "l{a}", "h{a}"),)),
    Log: ("v{j} = log(v{a})", ("c{j} = 1.0 / v{a}", _scale("c{j}", "l{a}", "h{a}"))),
    Min: ("v{j} = min(({args}))", _MINMAX),
    Max: ("v{j} = max(({args}))", _MINMAX),
}

_NAN_MARK = "bad = bad | (v{j} != v{j})"
_MARKS = {Div: "bad = bad | (v{b} == 0.0)", Pow: _NAN_MARK, Exp: _NAN_MARK, Log: _NAN_MARK}

# Array bounds mode: the chain rule on lanes.  Where the scalar rule branches on
# a tie band, or could raise, the lane is marked and redone by the scalar rule.
_ARRAY_CHAIN = {
    Mul: ("l{j}, h{j} = scale(v{b}, l{a}, h{a})", "m{j}, n{j} = scale(v{a}, l{b}, h{b})",
          "l{j} = l{j} + m{j}", "h{j} = h{j} + n{j}"),
    Div: ("c{j} = 1.0 / v{b}", "l{j}, h{j} = scale(c{j}, l{a}, h{a})",
          "bad = bad | (v{b} * v{b} == 0.0)", "c{j} = -v{a} / (v{b} * v{b})",
          "m{j}, n{j} = scale(c{j}, l{b}, h{b})", "l{j} = l{j} + m{j}", "h{j} = h{j} + n{j}"),
    Pow: ("if e{k} == 0.0: l{j} = h{j} = 0.0",
          "else: c{j} = e{k} * pow(v{a}, e{k} - 1.0); bad = bad | (c{j} != c{j}); "
          "l{j}, h{j} = scale(c{j}, l{a}, h{a})"),
    Abs: ("l{j}, h{j}, bad = abs_bounds(v{a}, l{a}, h{a}, bad)",),
    Exp: ("l{j}, h{j} = scale(v{j}, l{a}, h{a})",),
    Log: ("c{j} = 1.0 / v{a}", "l{j}, h{j} = scale(c{j}, l{a}, h{a})"),
    Min: ("l{j}, h{j}, bad = band(v{j}, ({parts}), bad)",),
    Max: ("l{j}, h{j}, bad = band(v{j}, ({parts}), bad)",),
}

# the former scalar namespace, which the scalar chain rule's TIE_TOL reads
_NAMESPACE = {**ex._NAMESPACE, "TIE_TOL": ex._TIE_TOL}


def emit_lines(expr: Expr, mode: str, lines: List[str], consts: Dict[str, float],
               index: Optional[Mapping[str, int]] = None,
               var_ids: Optional[Mapping[str, str]] = None, tag: str = "") -> str:
    """Append the rule lines of ``expr`` to ``lines``, in post-order; return the root's id.

    One walk emits each node's rule lines, so the arithmetic is the tree's, in
    the tree's order.  Node n's temporaries are ``v``, ``l``, ``h`` ... followed
    by its id ``{tag}{n}``.  A variable reads ``vals[index[name]]``, or with
    ``var_ids`` emits no line and its id is ``var_ids[name]``, naming a local the
    caller binds.  Constants (``k``) and exponents (``e``) are numbered into
    ``consts`` together.
    """
    preorder, stack = [], [expr]
    while stack:  # reversed right-first preorder is left-first post-order
        node = stack.pop()
        kids = ex.children(node)
        preorder.append((node, len(kids)))
        stack.extend(kids)
    temps: List[str] = []
    for n, (node, arity) in enumerate(reversed(preorder)):
        j = f"{tag}{n}"
        split = len(temps) - arity
        kids, temps[split:] = temps[split:], [j]
        fields = dict(zip("ab", kids), j=j)
        if isinstance(node, Const):
            fields["k"] = len(consts)
            consts[f"k{len(consts)}"] = node.value
        elif isinstance(node, Pow):
            fields["k"] = len(consts)
            consts[f"e{len(consts)}"] = node.exponent
        elif isinstance(node, Var):
            if var_ids is not None:
                temps[-1] = var_ids[node.name]
                continue
            fields["i"] = index[node.name]
        elif isinstance(node, (Min, Max)):
            fields["args"] = "".join(f"v{kid}, " for kid in kids)
            fields["parts"] = "".join(f"(v{kid}, l{kid}, h{kid}), " for kid in kids)
        value, chain = _RULES[type(node)]
        if mode == "value" and isinstance(node, (Min, Max)):
            # the builtin's own fold: a later argument wins only if strictly better
            better = "<" if isinstance(node, Min) else ">"
            lines.append(f"v{j} = v{kids[0]}")
            lines.extend(f"if v{kid} {better} v{j}: v{j} = v{kid}" for kid in kids[1:])
            continue
        lines.append(value.format(**fields))
        if mode in ("array", "bounds_array") and type(node) in _MARKS:
            lines.append(_MARKS[type(node)].format(**fields))
        if mode == "array" and kids:  # only the parent reads a child's lanes
            lines.append("del " + ", ".join(f"v{kid}" for kid in kids))
        if mode == "bounds_array":
            chain = _ARRAY_CHAIN.get(type(node), chain)
        if mode in ("bounds", "bounds_array"):
            lines.extend(rule.format(**fields) for rule in chain)
    return temps[0]


def _generate(expr: Expr, var_order: Sequence[str],
              mode: str) -> Tuple[List[str], Dict[str, float]]:
    """The former body of ``expr``'s function in ``mode`` (one temporary per node)
    and its constants and exponents by name."""
    index = {name: i for i, name in enumerate(var_order)}
    missing = ex.free_vars(expr) - set(index)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    consts: Dict[str, float] = {}
    lines: List[str] = []
    root = emit_lines(expr, mode, lines, consts, index)
    if ex._mixes_nans(expr):  # a NaN result is redone by the scalar code, which returns NAN
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
    if mode in ("value", "bounds"):
        return ex.translated(lines), consts
    if mode == "array":  # the first mark starts the mask: False | lanes is a slow loop
        first = next((i for i, line in enumerate(lines) if line.startswith("bad = bad | ")), None)
        if first is not None:
            lines[first] = "bad = " + lines[first][len("bad = bad | "):]
            return lines, consts
    return ["bad = False", *lines], consts


def compile_expr(expr: Expr, var_order: Sequence[str]) -> Callable:
    """The former value function of ``expr``: one temporary per node."""
    return ex._bind(expr, *_generate(expr, var_order, "value"), "vals", _NAMESPACE)


def compile_bounds(expr: Expr, var_order: Sequence[str]) -> Callable:
    """The former scalar bounds function: the chain rule written out in lines."""
    return ex._bind(expr, *_generate(expr, var_order, "bounds"), "vals, dirs", _NAMESPACE)


def compile_array(expr: Expr, var_order: Sequence[str]) -> Callable:
    """The former array function: the array kernel on columns, each lane it marks
    redone in lane order by the former value function."""
    kernel = ex._bind(expr, *_generate(expr, var_order, "array"), "vals", ex._ARRAY_NAMESPACE)
    scalar = compile_expr(expr, var_order)

    def fn(vals):
        out = np.empty(len(vals[0]))
        try:
            with np.errstate(all="ignore"):
                value, bad = kernel(vals)
        except (ArithmeticError, ValueError):
            value, bad = math.nan, True
        out[...] = value  # a constant tree gives one float for every lane
        if np.any(bad):
            for p in np.flatnonzero(np.broadcast_to(bad, out.shape)).tolist():
                out[p] = scalar([float(v[p]) for v in vals])
        return out
    return fn


def compile_bounds_array(expr: Expr, var_order: Sequence[str]) -> Callable:
    """The former array bounds function: value, lo and hi on columns."""
    return _lanes_or_scalar(
        ex._bind(expr, *_generate(expr, var_order, "bounds_array"), "vals, dirs",
                 ex._ARRAY_NAMESPACE),
        compile_bounds(expr, var_order))


def _lanes_or_scalar(lanes_fn: Callable, scalar: Callable) -> Callable:
    """Run the bounds kernel ``lanes_fn`` on columns and redo each lane it marks
    with the scalar bounds function ``scalar``.

    ``lanes_fn`` returns the value, lo and hi and the mark; a failure of the
    whole call (a constant subtree failed) marks every lane.
    """
    def fn(vals, dirs):
        lanes = len(vals[0])
        try:
            with np.errstate(all="ignore"):
                *results, bad = lanes_fn(vals, dirs)
        except (ArithmeticError, ValueError):
            results, bad = [math.nan] * 3, True
        outs = [np.empty(lanes) for _ in range(3)]
        for out, result in zip(outs, results):
            out[...] = result  # a constant tree gives one float for every lane
        for p in np.flatnonzero(np.broadcast_to(bad, (lanes,))).tolist():
            redone = scalar([float(v[p]) for v in vals], [float(d[p]) for d in dirs])
            for out, value in zip(outs, redone):
                out[p] = value
        return tuple(outs)
    return fn


# ---------------------------------------------------------------------------
# the former recursive tree walks


def free_vars(expr: Expr) -> frozenset:
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return free_vars(expr.a) | free_vars(expr.b)
    if isinstance(expr, Pow):
        return free_vars(expr.base)
    if isinstance(expr, (Abs, Exp, Log)):
        return free_vars(expr.a)
    return frozenset().union(*(free_vars(a) for a in expr.args)) if expr.args else frozenset()


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by subtrees; realizes function composition."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Add):
        return Add(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Sub):
        return Sub(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Mul):
        return Mul(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Div):
        return Div(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Pow):
        return Pow(substitute(expr.base, mapping), expr.exponent)
    if isinstance(expr, Abs):
        return Abs(substitute(expr.a, mapping))
    if isinstance(expr, Exp):
        return Exp(substitute(expr.a, mapping))
    if isinstance(expr, Log):
        return Log(substitute(expr.a, mapping))
    if isinstance(expr, Min):
        return Min(tuple(substitute(a, mapping) for a in expr.args))
    return Max(tuple(substitute(a, mapping) for a in expr.args))


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate at a full binding of the free variables (the reference interpreter)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    try:
        if isinstance(expr, Add):
            return evaluate(expr.a, env) + evaluate(expr.b, env)
        if isinstance(expr, Sub):
            return evaluate(expr.a, env) - evaluate(expr.b, env)
        if isinstance(expr, Mul):
            return evaluate(expr.a, env) * evaluate(expr.b, env)
        if isinstance(expr, Div):
            num, denom = evaluate(expr.a, env), evaluate(expr.b, env)
            if denom == 0.0:
                raise EvalDomainError("division by zero")
            return num / denom
        if isinstance(expr, Pow):
            base = evaluate(expr.base, env)
            try:
                return math.pow(base, expr.exponent)
            except ValueError as exc:
                raise EvalDomainError(f"invalid power {base!r}^{expr.exponent!r}") from exc
        if isinstance(expr, Abs):
            return abs(evaluate(expr.a, env))
        if isinstance(expr, Exp):
            return math.exp(evaluate(expr.a, env))
        if isinstance(expr, Log):
            v = evaluate(expr.a, env)
            if v <= 0.0:
                raise EvalDomainError(f"log of non-positive value {v!r}")
            return math.log(v)
        if isinstance(expr, Min):
            return min(evaluate(a, env) for a in expr.args)
        if isinstance(expr, Max):
            return max(evaluate(a, env) for a in expr.args)
    except OverflowError as exc:
        raise EvalOverflowError("overflow during evaluation") from exc
    raise TypeError(f"unknown node {expr!r}")


def repeated_subtrees(trees: Sequence[Expr]) -> Dict[str, None]:
    """The ``memo`` of :func:`emit_lines` that computes once each subtree other
    than a variable met again in ``trees``, in order: their keys, each mapped
    to None.  What lies inside a repeat is not visited again."""
    seen, memo = set(), {}
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                continue
            key = repr(node)
            if key in seen:
                memo[key] = None
            else:
                seen.add(key)
                stack.extend(ex.children(node))
    return memo


_PREC_ADD, _PREC_MUL, _PREC_ATOM = 1, 2, 4


def render(expr: Expr) -> str:
    """Pretty-print; re-parsing the result is evaluation-preserving."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Sub) and expr.a == Const(0.0):
        text = "-" + _render(expr.b, _PREC_MUL)
        return f"({text})" if parent_prec > _PREC_ADD else text
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        text = f"{_render(expr.a, _PREC_ADD)} {op} {_render(expr.b, _PREC_ADD + 1)}"
        return f"({text})" if parent_prec > _PREC_ADD else text
    if isinstance(expr, (Mul, Div)):
        op = "*" if isinstance(expr, Mul) else "/"
        text = f"{_render(expr.a, _PREC_MUL)}{op}{_render(expr.b, _PREC_MUL + 1)}"
        return f"({text})" if parent_prec > _PREC_MUL else text
    if isinstance(expr, Pow):
        return f"{_render(expr.base, _PREC_ATOM)}^{repr(expr.exponent)}"
    if isinstance(expr, Abs):
        return f"abs({_render(expr.a, 0)})"
    if isinstance(expr, Exp):
        return f"exp({_render(expr.a, 0)})"
    if isinstance(expr, Log):
        return f"log({_render(expr.a, 0)})"
    if isinstance(expr, Min):
        return "min(" + ", ".join(_render(a, 0) for a in expr.args) + ")"
    if isinstance(expr, Max):
        return "max(" + ", ".join(_render(a, 0) for a in expr.args) + ")"
    raise TypeError(f"unknown node {expr!r}")
