"""The one tokenizer and token reader behind every text format.

Formulas, atom game libraries, cirquents and proofs share one token set:
identifiers, integers, double-quoted strings (no newline inside), `->`, and
single characters.  `#` outside a quoted string starts a comment that runs
to the end of the line; formula text has no comments.  Each grammar lives in
its own module and reads tokens through `Reader`, which raises that
module's own error class.  `Reader` also reads the pieces that cirquent and
proof text share: integer tokens, `[ , ]` lists and `{ name: value; ... }`
records whose fields come in one fixed order.
"""

from __future__ import annotations

import re

# One match per token; findall returns (text, name, int, string) tuples in
# which at most one of the last three is set.  Comments and stray characters
# are tokens too, so that every non-blank character is matched in order.
_TOKEN = re.compile(
    r"""\s*(
        ([A-Za-z_][A-Za-z0-9_]*)
      | (-?[0-9]+)
      | ("[^"\n]*")
      | ->
      | \#[^\n]*
      | \S
    )""",
    re.VERBOSE,
)

Token = tuple[str, str, str, str]

# The deepest nesting any grammar reads: formula operators and parentheses,
# moves down a game tree.  Deeper input is an error of that grammar, so the
# recursive functions over formulas and games stay far from Python's limit.
MAX_DEPTH = 100

# Closes every token list, so that looking ahead needs no bounds check.
_END = (None, "", "", "")


class Reader:
    """Tokens of `text`, comments dropped, read front to back.  `error` is
    the class raised; a grammar may switch it while it reads a nested record.
    """

    def __init__(self, text: str, error: type[Exception]):
        toks = _TOKEN.findall(text)
        if "#" in text:
            toks = [t for t in toks if t[0][0] != "#"]
        toks.append(_END)
        self.toks = toks
        self.pos = 0
        self.error = error

    def peek(self) -> str | None:
        """The next token's text, None at the end."""
        return self.toks[self.pos][0]

    def take(self, expected: str | None = None) -> Token:
        """The next token; with `expected`, its text must be that."""
        tok = self.toks[self.pos]
        if tok is _END:
            raise self.error("unexpected end of input")
        self.pos += 1
        if expected is not None and tok[0] != expected:
            raise self.error(f"expected {expected!r}, got {tok[0]!r}")
        return tok

    def end(self) -> None:
        """Fail unless every token has been read."""
        if self.toks[self.pos] is not _END:
            rest = " ".join(t[0] for t in self.toks[self.pos:-1][:5])
            raise self.error(f"trailing tokens: {rest!r}")

    def integer(self) -> int:
        tok, _, num, _ = self.take()
        if not num:
            raise self.error(f"expected an integer, got {tok!r}")
        try:
            return int(num)
        except ValueError:  # more digits than int() converts
            raise self.error("integer too long") from None

    def items(self, item) -> list:
        """`[ x , ... ]`, possibly empty, each x read by `item()`."""
        toks = self.toks
        self.take("[")
        out = [] if toks[self.pos][0] == "]" else [item()]
        while toks[self.pos][0] == ",":
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

    def _expect(self, names: tuple[str, ...], i: int) -> None:
        """Field name i of `names`, or `}` for i == len(names)."""
        tok, name, _, _ = self.take()
        want = names[i] if i < len(names) else "}"
        if tok == want:
            return
        if name in names[:i]:
            raise self.error(f"field {name!r} given twice")
        if name and name not in names:
            raise self.error(f"unknown field {name!r}")
        raise self.error(f"expected {want!r}, got {tok!r}")
