"""Negation normal formulas over named atoms.

Surface syntax: atoms are identifiers, `~` negates, `!` and `?` are the
branching-repetition pair, `&` and `|` the binaries, `F -> G` elaborates
to `~F | G`.  Prefix operators bind tightest, then `&`, then `|`, then `->`;
binaries associate to the left.  Negation is stored on atoms only.
Formulas nest at most `MAX_DEPTH` levels: operators above a literal, and
parentheses and `!`/`?` around one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .reader import MAX_DEPTH, Reader, is_name


@dataclass(frozen=True)
class PosLiteral:
    atom: str


@dataclass(frozen=True)
class NegLiteral:
    atom: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Brec:
    """Resource that the opponent may branch into arbitrarily many copies."""

    body: "Formula"


@dataclass(frozen=True)
class Cobrec:
    body: "Formula"


Formula = Union[PosLiteral, NegLiteral, And, Or, Brec, Cobrec]


class FormulaError(ValueError):
    pass


def negate(f: Formula) -> Formula:
    """Dual formula: swaps literal signs, and/or, and the two repetitions."""
    if isinstance(f, PosLiteral):
        return NegLiteral(f.atom)
    if isinstance(f, NegLiteral):
        return PosLiteral(f.atom)
    if isinstance(f, And):
        return Or(negate(f.left), negate(f.right))
    if isinstance(f, Or):
        return And(negate(f.left), negate(f.right))
    if isinstance(f, Brec):
        return Cobrec(negate(f.body))
    if isinstance(f, Cobrec):
        return Brec(negate(f.body))
    raise TypeError(f"not a formula: {f!r}")


# The parsers below return each formula with its height: the most operators
# on a path from its root down to a literal.  `d` counts the parentheses and
# `!`/`?` around the text being read; both stay within MAX_DEPTH.


def _above(h: int) -> int:
    """The height of a node over a part of height h."""
    if h >= MAX_DEPTH:
        raise FormulaError(f"formula nested deeper than {MAX_DEPTH} levels")
    return h + 1


# Binary operators: how tightly each binds and what it builds.
_BINARY = {"->": (0, lambda f, g: Or(negate(f), g)), "|": (1, Or), "&": (2, And)}


def _binary(r: Reader, d: int, floor: int = 0) -> tuple[Formula, int]:
    """A formula whose operators outside parentheses bind at least as
    tightly as `floor`; each associates to the left."""
    f, h = _prefixed(r, d)
    while True:
        op = _BINARY.get(r.peek())
        if op is None or op[0] < floor:
            return f, h
        r.take()
        g, k = _binary(r, d, op[0] + 1)
        f, h = op[1](f, g), _above(max(h, k))


def _prefixed(r: Reader, d: int) -> tuple[Formula, int]:
    negated = False
    tok = r.take()
    while tok == "~":
        negated = not negated
        tok = r.take()
    if tok == "!" or tok == "?":
        f, h = _prefixed(r, _above(d))
        f, h = Brec(f) if tok == "!" else Cobrec(f), _above(h)
    elif tok == "(":
        f, h = _binary(r, _above(d))
        r.take(")")
    elif is_name(tok):
        f, h = PosLiteral(tok), 0
    else:
        raise FormulaError(f"unexpected token {tok!r}")
    return (negate(f) if negated else f), h


def _quoted(text: str) -> str:
    """`text` for an error message, cut after 40 characters."""
    return repr(text[:40]) + ("…" if len(text) > 40 else "")


def parse_formula(text: str) -> Formula:
    if "#" in text:
        raise FormulaError(f"formulas have no comments: {_quoted(text)}")
    r = Reader(text, FormulaError)
    try:
        f, _ = _binary(r, 0)
        r.end()
    except FormulaError as e:
        raise FormulaError(f"{e} in {_quoted(text)}") from None
    return f


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses (left association implied)."""
    if isinstance(f, PosLiteral):
        return f.atom
    if isinstance(f, NegLiteral):
        return "~" + f.atom
    if isinstance(f, (Brec, Cobrec)):
        op = "!" if isinstance(f, Brec) else "?"
        body = format_formula(f.body)
        if _prec(f.body) < 3:
            body = "(" + body + ")"
        return op + body
    op, mine = ("&", 2) if isinstance(f, And) else ("|", 1)
    lt = format_formula(f.left)
    rt = format_formula(f.right)
    if _prec(f.left) < mine:
        lt = "(" + lt + ")"
    if _prec(f.right) <= mine:
        rt = "(" + rt + ")"
    return f"{lt} {op} {rt}"


def atoms_of(f: Formula) -> set[str]:
    if isinstance(f, (PosLiteral, NegLiteral)):
        return {f.atom}
    if isinstance(f, (Brec, Cobrec)):
        return atoms_of(f.body)
    return atoms_of(f.left) | atoms_of(f.right)
