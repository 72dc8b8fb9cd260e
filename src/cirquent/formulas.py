"""Negation normal formulas over named atoms.

Surface syntax: atoms are identifiers, `~` negates, `!` and `?` are the
branching-repetition pair, `&` and `|` the binaries, `F -> G` elaborates
to `~F | G`.  Prefix operators bind tightest, then `&`, then `|`, then `->`;
binaries associate to the left.  Negation is stored on atoms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .reader import Reader


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


def _implication(r: Reader) -> Formula:
    f = _disjunction(r)
    while r.peek() == "->":
        r.take()
        f = Or(negate(f), _disjunction(r))
    return f


def _disjunction(r: Reader) -> Formula:
    f = _conjunction(r)
    while r.peek() == "|":
        r.take()
        f = Or(f, _conjunction(r))
    return f


def _conjunction(r: Reader) -> Formula:
    f = _prefixed(r)
    while r.peek() == "&":
        r.take()
        f = And(f, _prefixed(r))
    return f


def _prefixed(r: Reader) -> Formula:
    tok, name, _, _ = r.take()
    if tok == "~":
        return negate(_prefixed(r))
    if tok == "!":
        return Brec(_prefixed(r))
    if tok == "?":
        return Cobrec(_prefixed(r))
    if tok == "(":
        f = _implication(r)
        r.take(")")
        return f
    if name:
        return PosLiteral(name)
    raise FormulaError(f"unexpected token {tok!r}")


def parse_formula(text: str) -> Formula:
    if "#" in text:
        raise FormulaError(f"formulas have no comments: {text!r}")
    r = Reader(text, FormulaError)
    try:
        f = _implication(r)
        r.end()
    except FormulaError as e:
        raise FormulaError(f"{e} in {text!r}") from None
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


def subformula_paths(f: Formula) -> list[tuple[str, Formula]]:
    """Preorder listing of (path, node); path steps are '0', '1', 'b'."""
    out: list[tuple[str, Formula]] = []

    def walk(node: Formula, path: str) -> None:
        out.append((path, node))
        if isinstance(node, (And, Or)):
            walk(node.left, path + "0")
            walk(node.right, path + "1")
        elif isinstance(node, (Brec, Cobrec)):
            walk(node.body, path + "b")

    walk(f, "")
    return out


def atoms_of(f: Formula) -> set[str]:
    return {
        node.atom
        for _, node in subformula_paths(f)
        if isinstance(node, (PosLiteral, NegLiteral))
    }
