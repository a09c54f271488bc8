"""Small arithmetic expression grammar for the potential of a config file.

Expressions use +, -, *, /, ^, sin, cos, exp, sqrt and the variables
t, x1..xn.  They are parsed with sympy in a restricted namespace and
evaluated as numpy functions.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

_ALLOWED_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "sqrt": sp.sqrt}


class ExpressionError(ValueError):
    pass


def coordinate_symbols(n: int):
    return sp.symbols(" ".join(["t"] + [f"x{i}" for i in range(1, n + 1)]))


def parse_expression(text: str, n: int) -> sp.Expr:
    """Parse one scalar expression in the variables t, x1..xn."""
    syms = coordinate_symbols(n)
    if isinstance(syms, sp.Symbol):
        syms = (syms,)
    ns = {s.name: s for s in syms}
    ns.update(_ALLOWED_FUNCS)
    try:
        expr = sp.sympify(text.replace("^", "**"), locals=ns, rational=False)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    bad = [str(s) for s in expr.free_symbols if s not in syms]
    if bad:
        raise ExpressionError(f"unknown variables {bad} in expression {text!r}")
    return expr


class ScalarField:
    """Callable scalar field of (t, x') parsed from an expression.

    Accepts points of shape (1+n,) or batched (..., 1+n).  `time_dependent`
    tells whether t occurs in the expression.
    """

    def __init__(self, expr: sp.Expr, n: int):
        self.n = n
        self.expr = expr
        syms = coordinate_symbols(n)
        if isinstance(syms, sp.Symbol):
            syms = (syms,)
        self._f = sp.lambdify(syms, expr, modules="numpy")
        self.time_dependent = syms[0] in expr.free_symbols

    @classmethod
    def from_text(cls, text: str, n: int) -> "ScalarField":
        return cls(parse_expression(text, n), n)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._f(*(x[..., i] for i in range(self.n + 1)))
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1]).copy()
