"""Line-oriented DSL for graded-algebra specifications.

Grammar::

    spec      := "p" "=" INT NEWLINE line*
    line      := "gen" kind "deg" "=" expr ["mult" "=" expr] ["for" ranges] NEWLINE
    kind      := "poly" | "ext" | "trunc(" INT ")"
    ranges    := range ("," range)*
    range     := IDENT "=" INT ".." (INT | "inf")
    expr      := term (("+"|"-") term)* ; term := pow ("*" pow)* ; pow := atom ["^" atom]
    atom      := INT | "p" | IDENT | "(" expr ")" | "min(" expr "," expr ")"

Whitespace within a line is insignificant; blank lines are ignored.  The
canonical printer (`expr_to_text`, `spec_to_text` in `algebra`) defines the
normal form and round-trips through `parse_spec`.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from ._frozen import Frozen
from .series import ResourceLimitError

__all__ = [
    "DslError",
    "Lit",
    "Var",
    "BinOp",
    "Min",
    "DegreeExpr",
    "parse_expr",
    "expr_to_text",
    "expr_free_vars",
    "eval_expr",
    "Tokenizer",
]


class DslError(ValueError):
    """Syntax or validation error, with line/column position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class Lit(Frozen):
    __slots__ = ("value",)


class Var(Frozen):
    __slots__ = ("name",)


class BinOp(Frozen):
    __slots__ = ("op", "left", "right")  # op is one of + - * ^


class Min(Frozen):
    __slots__ = ("left", "right")


DegreeExpr = Union[Lit, Var, BinOp, Min]

# 2^20 bits (128 KiB) is far past any truncation; such a power takes <= 60 ms (Python 3.11).
MAX_POWER_BITS = 2**20

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<dots>\.\.)|(?P<punct>[-+*^(),=])|(?P<bad>\S))"
)


class Tokenizer:
    """Tokens for one logical line of the DSL."""

    def __init__(self, text: str, line_no: int = 1):
        self.text = text
        self.line_no = line_no
        self.pos = 0
        self._peeked: tuple[str, str, int] | None = None

    def _scan(self) -> tuple[str, str, int]:
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:  # only blanks are left
            return ("eof", "", len(self.text))
        kind = m.lastgroup
        start = m.start(kind)  # type: ignore[arg-type]
        value = m.group(kind)  # type: ignore[arg-type]
        if kind == "bad":
            raise DslError(f"unexpected character {value!r}", self.line_no, start + 1)
        self.pos = m.end()
        if kind == "punct" or kind == "dots":
            return (value, value, start)
        return (kind, value, start)  # type: ignore[return-value]

    def peek(self) -> tuple[str, str, int]:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self._peeked = None
        return tok

    def expect(self, kind: str) -> str:
        tok_kind, value, col = self.next()
        if tok_kind != kind:
            raise DslError(
                f"expected {kind!r}, found {value or 'end of line'!r}",
                self.line_no,
                col + 1,
            )
        return value

    def error(self, message: str) -> DslError:
        _, _, col = self.peek()
        return DslError(message, self.line_no, col + 1)


def parse_expr(tok: Tokenizer) -> DegreeExpr:
    expr = _parse_term(tok)
    while tok.peek()[0] in ("+", "-"):
        op = tok.next()[0]
        expr = BinOp(op, expr, _parse_term(tok))
    return expr


def _parse_term(tok: Tokenizer) -> DegreeExpr:
    expr = _parse_pow(tok)
    while tok.peek()[0] == "*":
        tok.next()
        expr = BinOp("*", expr, _parse_pow(tok))
    return expr


def _parse_pow(tok: Tokenizer) -> DegreeExpr:
    base = _parse_atom(tok)
    if tok.peek()[0] == "^":
        tok.next()
        return BinOp("^", base, _parse_atom(tok))
    return base


def _parse_atom(tok: Tokenizer) -> DegreeExpr:
    kind, value, _ = tok.peek()
    if kind == "int":
        tok.next()
        return Lit(int(value))
    if kind == "ident":
        tok.next()
        if value == "min":
            tok.expect("(")
            left = parse_expr(tok)
            tok.expect(",")
            right = parse_expr(tok)
            tok.expect(")")
            return Min(left, right)
        return Var(value)
    if kind == "(":
        tok.next()
        expr = parse_expr(tok)
        tok.expect(")")
        return expr
    raise tok.error(f"expected expression, found {value or 'end of line'!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "^": 3}


def expr_to_text(expr: DegreeExpr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Min):
        return f"min({expr_to_text(expr.left)}, {expr_to_text(expr.right)})"
    prec = _PRECEDENCE[expr.op]
    # +,-,* are printed left-associative; ^ is non-associative in the grammar,
    # so both sides of ^ must be atoms.
    if expr.op == "^":
        left = expr_to_text(expr.left, prec + 1)
        right = expr_to_text(expr.right, prec + 1)
        text = f"{left}^{right}"
    else:
        left = expr_to_text(expr.left, prec)
        right = expr_to_text(expr.right, prec + 1, True)
        text = f"{left} {expr.op} {right}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def expr_free_vars(expr: DegreeExpr) -> frozenset[str]:
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return expr_free_vars(expr.left) | expr_free_vars(expr.right)


def eval_expr(expr: DegreeExpr, env: Mapping[str, int]) -> int:
    """Exact integer evaluation; ^ requires a nonnegative integer exponent, and
    a power of more than MAX_POWER_BITS bits raises ResourceLimitError unbuilt."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise DslError(f"unknown identifier {expr.name!r}") from None
    if isinstance(expr, Min):
        return min(eval_expr(expr.left, env), eval_expr(expr.right, env))
    left = eval_expr(expr.left, env)
    right = eval_expr(expr.right, env)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if right < 0:
        raise DslError(f"negative exponent {right} in degree expression")
    if abs(left) > 1 and right * abs(left).bit_length() > MAX_POWER_BITS:
        raise ResourceLimitError(
            f"a power in a degree expression would exceed the budget of {MAX_POWER_BITS} bits"
        )
    return left**right
