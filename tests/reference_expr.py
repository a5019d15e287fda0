"""The former value-mode code generator of ``hsgt.expr``, kept as a test oracle.

``emit_lines`` is the former emitter, verbatim but for the module prefix: one
temporary per node, each node's rule line in post-order.  ``compile_expr``
builds the former value function on it, with the body, NaN normalisation and
error translation that ``hsgt.expr.compile_expr`` wraps around the emit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from hsgt import expr as ex
from hsgt.expr import Const, Expr, Max, Min, Pow, Var


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
        value, chain = ex._RULES[type(node)]
        if mode == "value" and isinstance(node, (Min, Max)):
            # the builtin's own fold: a later argument wins only if strictly better
            better = "<" if isinstance(node, Min) else ">"
            lines.append(f"v{j} = v{kids[0]}")
            lines.extend(f"if v{kid} {better} v{j}: v{j} = v{kid}" for kid in kids[1:])
            continue
        lines.append(value.format(**fields))
        if mode in ("array", "bounds_array") and type(node) in ex._MARKS:
            lines.append(ex._MARKS[type(node)].format(**fields))
        if mode == "array" and kids:  # only the parent reads a child's lanes
            lines.append("del " + ", ".join(f"v{kid}" for kid in kids))
        if mode == "bounds_array":
            chain = ex._ARRAY_CHAIN.get(type(node), chain)
        if mode in ("bounds", "bounds_array"):
            lines.extend(rule.format(**fields) for rule in chain)
    return temps[0]


def compile_expr(expr: Expr, var_order: Sequence[str]) -> Callable:
    """The former value function of ``expr``: one temporary per node."""
    index = {name: i for i, name in enumerate(var_order)}
    consts: Dict[str, float] = {}
    lines: List[str] = []
    root = emit_lines(expr, "value", lines, consts, index)
    if ex._mixes_nans(expr):
        lines.append(f"if v{root} != v{root}: v{root} = NAN")
    lines.append(f"return v{root}")
    return ex._bind(expr, ex.translated(lines), consts, "vals", ex._NAMESPACE)
