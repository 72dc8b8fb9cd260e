"""The one tokenizer and token reader behind every text format.

Formulas, atom game libraries, cirquents and proofs share one token set:
identifiers, integers, double-quoted strings (no newline inside), `->`, and
single characters.  `#` outside a quoted string starts a comment that runs
to the end of the line; formula text has no comments.  Each grammar lives in
its own module and reads tokens through `Reader`, which raises that
module's own error class.
"""

from __future__ import annotations

import re

# One match per token; findall returns (text, name, int, string) tuples in
# which at most one of the last three is set.  Comments and stray characters
# are tokens too, so that every non-blank character is matched in order.
_TOKEN = re.compile(
    r"""\s*(
        ([A-Za-z_][A-Za-z0-9_]*)
      | (-?\d+)
      | ("[^"\n]*")
      | ->
      | \#[^\n]*
      | \S
    )""",
    re.VERBOSE,
)

Token = tuple[str, str, str, str]

# Closes every token list, so that looking ahead needs no bounds check.
_END = (None, "", "", "")


class Reader:
    """Tokens of `text`, comments dropped, read front to back."""

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
