"""Frozen oracle: the list and record readers of `cirquent.reader`,
`cirquent.cirquents` and `cirquent.rules` that the one-loop readers
replaced, with only their imports made absolute.

Every list here is read one item at a time through `Reader.items`, every
integer through `Reader.integer` and every record token through `take`; the
readers of the package must give the same value or raise the same error
class with the same message.  Tokenising, `take`, `integer`, `_expect` and
`end` are the package's own.  Do not edit.
"""

from __future__ import annotations

from typing import get_type_hints

from cirquent import formulas as fm
from cirquent import rules as rl
from cirquent.cirquents import Cirquent, CirquentError, validate_cirquent
from cirquent.reader import Reader, is_string


class OracleReader(Reader):
    def items(self, item) -> list:
        """`[ x , ... ]`, possibly empty, each x read by `item()`."""
        toks = self.toks
        self.take("[")
        out = [] if toks[self.pos] == "]" else [item()]
        while toks[self.pos] == ",":
            self.pos += 1
            out.append(item())
        self.take("]")
        return out

    def field(self, names: tuple[str, ...], i: int) -> None:
        """`{ name :` for i == 0, else `; name :`, with name `names[i]`: the
        start of field i of a record whose fields are `names`, in order."""
        self.take(";" if i else "{")
        self._expect(names, i)
        self.take(":")

    def close(self, names: tuple[str, ...]) -> None:
        """A record's end: one optional `;`, then `}`."""
        if self.peek() == ";":
            self.pos += 1
        self._expect(names, len(names))


def read_formulas(r: OracleReader) -> tuple[fm.Formula, ...]:
    """`[ "text", ... ]`, each text looked up in or added to `r.memo`."""
    def one() -> fm.Formula:
        tok = r.take()
        if not is_string(tok):
            raise r.error(f"expected a quoted formula, got {tok!r}")
        f = r.memo.get(tok)
        if f is None:
            f = r.memo[tok] = fm.parse_formula(tok[1:-1])
        return f

    return tuple(r.items(one))


_FIELDS = ("oformulas", "under", "over")


def read_body(r: OracleReader) -> Cirquent:
    """`{ oformulas: ...; under: ...; over: ... }`, in that order; errors are
    CirquentErrors (FormulaErrors in oformula text), whatever `r` raises
    elsewhere."""
    outer, r.error = r.error, CirquentError

    def group() -> frozenset[int]:
        return frozenset(r.items(r.integer))

    r.field(_FIELDS, 0)
    ofs = read_formulas(r)
    r.field(_FIELDS, 1)
    under = tuple(r.items(group))
    r.field(_FIELDS, 2)
    over = tuple(r.items(group))
    r.close(_FIELDS)
    r.error = outer
    c = Cirquent(ofs, under, over)
    validate_cirquent(c)
    return c


def parse_cirquent(text: str) -> Cirquent:
    r = OracleReader(text, CirquentError)
    r.take("cirquent")
    c = read_body(r)
    r.end()
    return c


_READ = {
    int: OracleReader.integer,
    frozenset[int]: lambda r: frozenset(r.items(r.integer)),
    tuple[fm.Formula, ...]: read_formulas,
}


def read_app(r: OracleReader, name: str) -> rl.RuleApp:
    """The rule named `name`, its params record read from `r` in declaration
    order."""
    cls = rl.RULES_BY_NAME.get(name)
    if cls is None:
        raise rl.RuleError(f"unknown rule name {name!r}")
    hints = get_type_hints(cls)
    names = tuple(hints)
    args = []
    try:
        for i, t in enumerate(hints.values()):
            r.field(names, i)
            args.append(_READ[t](r))
    except fm.FormulaError as e:
        raise rl.RuleError(f"bad params for {name}: {e}") from e
    r.close(names)
    return cls(*args)


_STEP_FIELDS = ("rule", "params", "cirquent")


def parse_proof(text: str) -> rl.Proof:
    """Steps in the grammar's order.  Errors in a cirquent body are
    CirquentErrors (FormulaErrors in its oformula text), all others
    RuleErrors."""
    r = OracleReader(text, rl.RuleError)
    steps: list[rl.Step] = []
    while r.peek() is not None:
        r.take("step")
        num = r.integer()
        if num != len(steps) + 1:
            raise rl.RuleError(f"expected step {len(steps) + 1}, found {num}")
        r.field(_STEP_FIELDS, 0)
        name = r.take()
        r.field(_STEP_FIELDS, 1)
        app = read_app(r, name)
        r.field(_STEP_FIELDS, 2)
        steps.append(rl.Step(app, read_body(r)))
        r.close(_STEP_FIELDS)
    if not steps:
        raise rl.RuleError("no steps found")
    return tuple(steps)
