"""Small arithmetic expression grammar for the potential of a config file.

Expressions use numbers, +, -, *, /, ^ (or **), the one-argument functions
sin, cos, exp, sqrt and the variables t, x1..xn.  Python's parser reads the
text, each node of the syntax tree is checked against this grammar, and the
checked tree is compiled once.  A `ScalarField` runs the compiled code once
on stand-ins for the variables, which records the numpy ufunc calls that
evaluating it on arrays makes (`_Tape`); each evaluation replays them into
reused buffers.
"""

from __future__ import annotations

import ast
import math
import threading

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_NAMESPACE = {"__builtins__": {}, **_FUNCS}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)
# floats (8 MiB) that a thread's reused buffer keeps at most (`thread_buffer`)
BUFFER_CAP = 1 << 20


class ExpressionError(ValueError):
    pass


def thread_buffer(local, size):
    """`size` floats of the buffer kept in the `threading.local` `local`,
    grown when too small and reused across calls: block-sized arrays
    allocated afresh on every call cost more in the allocator (freed heap
    returned to the system and faulted back) than the arithmetic on them.
    A request above `BUFFER_CAP` gets a fresh array that is not kept, so no
    call leaves a larger buffer behind for the rest of the process, or for
    a process forked from it."""
    if size > BUFFER_CAP:
        return np.empty(size)
    buf = getattr(local, "buf", None)
    if buf is None or len(buf) < size:
        buf = local.buf = np.empty(size)
    return buf[:size]


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


def _operators(ufunc):
    """The operator and its reflection, recording `ufunc`."""
    return (lambda a, b: a.tape.record(ufunc, a, b),
            lambda a, b: a.tape.record(ufunc, b, a))


class _Value:
    """Stand-in for an array value of the expression while its code runs
    once: each operator records, on the tape, the ufunc that it calls on a
    float array."""

    __array_ufunc__ = None      # numpy scalars defer to these operators

    def __init__(self, tape, slot):
        self.tape, self.slot = tape, slot

    __add__, __radd__ = _operators(np.add)
    __sub__, __rsub__ = _operators(np.subtract)
    __mul__, __rmul__ = _operators(np.multiply)
    __truediv__, __rtruediv__ = _operators(np.true_divide)
    __rpow__ = _operators(np.power)[1]

    def __pow__(self, other):
        # numpy's ** calls square, reciprocal or sqrt for these exponents
        if type(other) is int and other in (2, -1) \
                or type(other) is float and other == 0.5:
            ufunc = {2: np.square, -1: np.reciprocal, 0.5: np.sqrt}[other]
            return self.tape.record(ufunc, self)
        return self.tape.record(np.power, self, other)

    def __neg__(self):
        return self.tape.record(np.negative, self)

    def __pos__(self):
        return self.tape.record(np.positive, self)


def _recording(func):
    def call(a):
        return a.tape.record(func, a) if isinstance(a, _Value) else func(a)
    return call


_RECORDING = {"__builtins__": {},
              **{name: _recording(f) for name, f in _FUNCS.items()}}


def _copy(src, out):
    np.copyto(out, src)


class _Tape:
    """The ufunc calls that evaluate compiled code on float arrays.

    The code runs once with a `_Value` for each variable.  Python evaluates
    the constant parts itself, as it does in every evaluation, and each
    operation on a `_Value` appends a step (ufunc, input slots, output
    slot).  A replay reads the slots from one list: the variables' columns,
    the output, the registers, then the constants, which count from the
    end.  A register whose value has been read is reused, so the steps
    need few of them.  The last step writes the output; an expression that
    is a bare variable or constant is copied into it.
    """

    def __init__(self, code, names):
        self.steps, self._consts, self._free = [], [], []
        self._out = len(names)
        self.nregs = 0
        with np.errstate(all="ignore"):
            root = eval(code, _RECORDING,
                        {name: _Value(self, i) for i, name in enumerate(names)})
        if isinstance(root, _Value) and root.slot > self._out:
            ufunc, ins, _ = self.steps[-1]
            self.steps[-1] = (ufunc, ins, self._out)
        else:
            self.steps.append((_copy, [self._slot(root)], self._out))
        # the root's own register, if it took a new one, is not needed
        self.nregs = max(s for _, ins, dst in self.steps
                         for s in ins + [dst]) - self._out
        self._consts.reverse()

    def _slot(self, value):
        if not isinstance(value, _Value):
            self._consts.append(value)
            return -len(self._consts)
        if value.slot > self._out:
            self._free.append(value.slot)
        return value.slot

    def record(self, ufunc, *args):
        ins = [self._slot(a) for a in args]
        if self._free:
            dst = self._free.pop()
        else:
            self.nregs += 1
            dst = self._out + self.nregs
        self.steps.append((ufunc, ins, dst))
        return _Value(self, dst)

    def run(self, cols, out, regs):
        env = [*cols, out, *regs, *self._consts]
        for ufunc, ins, dst in self.steps:
            ufunc(*[env[i] for i in ins], out=env[dst])
        return out


class ScalarField:
    """Callable scalar field of (t, x') from a compiled expression.

    Accepts points of shape (1+n,) or batched (..., 1+n).  `time_dependent`
    tells whether t occurs in the expression.  The values are those of
    evaluating the code with numpy, bit for bit; the expression's
    intermediate arrays are registers in a per-thread `thread_buffer`.
    """

    def __init__(self, expr, n: int):
        self._names = coordinate_names(n)
        self.time_dependent = "t" in expr.co_names
        self._tape = _Tape(expr, self._names)
        self._local = threading.local()

    @classmethod
    def from_text(cls, text: str, n: int) -> "ScalarField":
        return cls(parse_expression(text, n), n)

    def __call__(self, x, out=None):
        """Values at the points x, written into `out` (shape x.shape[:-1])
        when given, and returned."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(x.shape[:-1])
        cols = [x[..., i] for i in range(len(self._names))]
        return self._tape.run(cols, out, self._registers(x.shape[:-1]))

    def _registers(self, shape):
        size = math.prod(shape)
        buf = thread_buffer(self._local, size * self._tape.nregs)
        return [buf[k * size:(k + 1) * size].reshape(shape)
                for k in range(self._tape.nregs)]
