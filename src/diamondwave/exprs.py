"""Small arithmetic expression grammar for the potential of a config file.

Expressions use numbers, +, -, *, /, ^ (or **), the one-argument functions
sin, cos, exp, sqrt and the variables t, x1..xn.  Python's parser reads the
text, each node of the syntax tree is checked against this grammar, and the
checked tree is compiled once and evaluated with numpy and no builtins.
"""

from __future__ import annotations

import ast

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_NAMESPACE = {"__builtins__": {}, **_FUNCS}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)


class ExpressionError(ValueError):
    pass


def coordinate_names(n: int):
    return ["t"] + [f"x{i}" for i in range(1, n + 1)]


def _check(tree, names, source):
    """Raise ExpressionError at the first piece outside the grammar.  Int
    literals become floats (OverflowError if too large), so no constant
    builds a huge exact integer, except literal exponents (the right operand
    of ** or its negation): x^2 keeps numpy's integer power."""
    stack = [(tree.body, False)]
    while stack:
        node, exponent = stack.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            stack += [(node.left, False),
                      (node.right, isinstance(node.op, ast.Pow))]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            stack.append((node.operand,
                          exponent and isinstance(node.op, ast.USub)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCS and len(node.args) == 1
              and not node.keywords):
            stack += [(arg, False) for arg in node.args]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            if not exponent:
                node.value = float(node.value)
        elif not (isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Constant)
                  and type(node.value) is float):
            raise ExpressionError(f"{ast.get_source_segment(source, node)!r} "
                                  f"is outside the grammar of {source!r}")


def parse_expression(text: str, n: int):
    """Check one scalar expression in t, x1..xn and return it compiled."""
    names = coordinate_names(n)
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    # one trial evaluation: on numpy-float variables only constant arithmetic
    # such as 1/0 can raise or give a complex value, and it would do so at
    # every point
    try:
        _check(tree, names, source)
        code = compile(tree, "<expression>", "eval")
        with np.errstate(all="ignore"):
            trial = eval(code, _NAMESPACE,
                         dict.fromkeys(names, np.float64(0.0)))
    except (ArithmeticError, RecursionError) as exc:
        raise ExpressionError(f"cannot evaluate expression {text!r}: {exc}") from None
    if np.iscomplexobj(trial):
        raise ExpressionError(f"expression {text!r} has a complex value")
    return code


class ScalarField:
    """Callable scalar field of (t, x') from a compiled expression.

    Accepts points of shape (1+n,) or batched (..., 1+n).  `time_dependent`
    tells whether t occurs in the expression.
    """

    def __init__(self, expr, n: int):
        self._code = expr
        self._names = coordinate_names(n)
        self.time_dependent = "t" in expr.co_names

    @classmethod
    def from_text(cls, text: str, n: int) -> "ScalarField":
        return cls(parse_expression(text, n), n)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        cols = {name: x[..., i] for i, name in enumerate(self._names)}
        out = eval(self._code, _NAMESPACE, cols)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1]).copy()
