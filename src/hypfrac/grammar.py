"""Textual grammar for function expressions.

The CLI accepts function strings such as::

    1
    pow(x,2.5)
    cosh(1.0*x)
    exp(2*x)+0.5*sinh(x)
    2*cosh(3*(x-0.25))-1.5

Grammar: the single variable is ``x``; numeric literals are ints or floats;
operators are ``+ - * /`` (division only by a constant) and ``**`` with a
constant exponent; functions are ``exp``, ``cosh``, ``sinh`` and
``pow(expr, constant)``; parentheses group.  A constant is any expression
without ``x`` (``2**2``, ``exp(1)``), evaluated once as it is parsed; it
must be finite.  Parsing goes through Python's ``ast`` module, so no code
is ever executed.

A string holds at most ``MAX_NODES`` syntax nodes (as ``ast.walk`` counts
them), counted as they are converted: the second derivative grows cubically
with the factors of a product or the depth of a nest, and a deep tree would
exhaust the converter's recursion.

``to_grammar`` renders a tree back to a string that re-parses to an
equivalent function.
"""

from __future__ import annotations

import ast

import numpy as np

from .expressions import (
    Affine,
    Constant,
    Cosh,
    DomainError,
    Exp,
    FuncExpr,
    Identity,
    Power,
    Product,
    Scaled,
    Sinh,
    Sum,
    add,
    constant,
    power_of,
    product,
    scaled,
)


class GrammarError(ValueError):
    """A function string could not be parsed."""


_UNARY_FUNCS = {"exp": Exp, "cosh": Cosh, "sinh": Sinh}

# generated functions have at most 46; on 2 CPUs classify --grid-n 1001 takes
# up to 1.8 s on a 49-deep nest (150 nodes), 3.2 s on a 66-deep one (200)
MAX_NODES = 150
# ast nodes per converted node: with a name's context, an operator, a callee
_AST_SIZE = {ast.Name: 2, ast.UnaryOp: 2, ast.BinOp: 2, ast.Call: 3}


def parse_function(text: str) -> FuncExpr:
    """Parse a function string into an expression tree."""
    if not isinstance(text, str) or not text.strip():
        raise GrammarError("empty function string")
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise GrammarError(f"cannot parse function {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own depth limits
        raise GrammarError("function string nests too deeply") from None
    return _convert(tree.body, text, [MAX_NODES])


def _convert(node, text: str, budget: list) -> FuncExpr:
    budget[0] -= _AST_SIZE.get(type(node), 1)
    if budget[0] < 0:
        raise GrammarError(f"function string has more than {MAX_NODES} "
                           "syntax nodes")
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise GrammarError(f"unsupported literal {node.value!r}")
        return constant(float(node.value))
    if isinstance(node, ast.Name):
        if node.id == "x":
            return Identity()
        raise GrammarError(f"unknown symbol {node.id!r} (the only variable is 'x')")
    if isinstance(node, ast.UnaryOp):
        inner = _convert(node.operand, text, budget)
        if isinstance(node.op, ast.USub):
            return scaled(-1.0, inner)
        if isinstance(node.op, ast.UAdd):
            return inner
        raise GrammarError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        left = _convert(node.left, text, budget)
        right = _convert(node.right, text, budget)
        if isinstance(node.op, ast.Add):
            return add(left, right)
        if isinstance(node.op, ast.Sub):
            return add(left, scaled(-1.0, right))
        if isinstance(node.op, ast.Mult):
            return product(left, right)
        if isinstance(node.op, ast.Div):
            divisor = _constant_value(right, node.right,
                                      "division is only supported by a constant")
            if divisor == 0.0:
                raise GrammarError("division by zero")
            return scaled(1.0 / divisor, left)
        if isinstance(node.op, ast.Pow):
            return power_of(left, _constant_value(
                right, node.right, "exponent must be a constant"))
        raise GrammarError("unsupported operator")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise GrammarError("unsupported call syntax")
        name = node.func.id
        if name in _UNARY_FUNCS:
            if len(node.args) != 1:
                raise GrammarError(f"{name}() takes exactly one argument")
            return _UNARY_FUNCS[name](_convert(node.args[0], text, budget))
        if name == "pow":
            if len(node.args) != 2:
                raise GrammarError("pow() takes exactly two arguments")
            base = _convert(node.args[0], text, budget)
            expo = _convert(node.args[1], text, budget)
            return power_of(base, _constant_value(
                expo, node.args[1], "pow() exponent must be a constant"))
        raise GrammarError(
            f"unknown function {name!r} (supported: exp, cosh, sinh, pow)"
        )
    raise GrammarError(f"unsupported syntax in function string {text!r}")


def _constant_value(tree: FuncExpr, node, error: str) -> float:
    """The value of ``tree``, converted from ``node``, where the grammar
    wants a constant: a constant, or a subtree without ``x`` evaluated once
    (which must be finite).  A subtree with ``x`` raises ``error``."""
    if isinstance(tree, Constant):
        return tree.value
    if any(isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(node)):
        raise GrammarError(error)
    try:
        with np.errstate(all="ignore"):
            value = tree.eval(0.0)
    except DomainError as exc:
        raise GrammarError(f"{ast.unparse(node)}: {exc}") from None
    if not np.isfinite(value):
        raise GrammarError(f"{ast.unparse(node)} = {value!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# rendering

def _num(v: float) -> str:
    return repr(float(v))


def _affine_var(scale: float, shift: float, var: str) -> str:
    if scale == 1.0:
        base = var
    else:
        base = f"{_num(scale)}*{var}"
    if shift == 0.0:
        out = base
    elif shift > 0:
        out = f"{base}+{_num(shift)}"
    else:
        out = f"{base}-{_num(-shift)}"
    if out is not var:
        out = f"({out})"
    return out


def _render(f: FuncExpr, var: str) -> str:
    if isinstance(f, Constant):
        return _num(f.value)
    if isinstance(f, Identity):
        return var
    if isinstance(f, Sum):
        parts = [_render(t, var) for t in f.terms]
        out = parts[0]
        for s in parts[1:]:
            out += s if s.startswith("-") else "+" + s
        return out
    if isinstance(f, Scaled):
        return f"{_num(f.coef)}*{_wrap(f.child, var)}"
    if isinstance(f, Product):
        return "*".join(_wrap(g, var) for g in f.factors)
    if isinstance(f, Power):
        return f"pow({_render(f.child, var)},{_num(f.exponent)})"
    if isinstance(f, Exp):
        return f"exp({_render(f.child, var)})"
    if isinstance(f, Cosh):
        return f"cosh({_render(f.child, var)})"
    if isinstance(f, Sinh):
        return f"sinh({_render(f.child, var)})"
    if isinstance(f, Affine):
        return _render(f.child, _affine_var(f.scale, f.shift, var))
    raise TypeError(f"cannot render {type(f).__name__}")


def _wrap(f: FuncExpr, var: str) -> str:
    s = _render(f, var)
    if isinstance(f, (Sum, Scaled)) or s.startswith("-"):
        return f"({s})"
    return s


def to_grammar(f: FuncExpr) -> str:
    """Render a tree to a string the parser accepts back."""
    return _render(f, "x")
