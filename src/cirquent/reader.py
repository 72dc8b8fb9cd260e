"""The one tokenizer and token reader behind every text format.

Formulas, atom game libraries, cirquents and proofs share one token set:
names, integers, double-quoted strings (no newline inside), `->`, and
single characters; a token is its text.  `#` outside a quoted string starts
a comment that runs to the end of the line; formula text has no comments.
Each grammar lives in its own module and reads tokens through `Reader`,
which raises that module's own error class.  `Reader` also reads the pieces
that cirquent and proof text share: integer tokens, `[ , ]` lists, each item
read by a function the caller passes, and `{ name: value; ... }` records
whose fields come in one fixed order.  A `,` between items, or the `;`
that may end a record, is skipped after `peek`; every other token is read
through `take`, `integer` or `_expect`, which raise every error.

Proof text has one more reader in front of this one.  `rules.parse_proof`
reads each step in one regex match, built from the pieces below, when the
step has no comment and is written as `docs/grammar.md` says: its fields in
order, integers of plain ASCII digits, at most `SAFE_DIGITS` of them, and
values that convert and validate.  From the first step that is not, the
rest of the text goes to `Reader`, which raises every error.
"""

from __future__ import annotations

import re

# One match per token, whose first character tells its kind.  Comments and
# stray characters are tokens too, so that every non-blank character is
# matched in order.  The commonest kinds, punctuation and digit runs, come
# first; neither starts any other kind of token.
_TOKEN = re.compile(
    r'[\[\],;:{}()~!?&|]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|"[^"\n]*"|->|#[^\n]*|\S')
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The deepest nesting any grammar reads: formula operators and parentheses,
# moves down a game tree.  Deeper input is an error of that grammar, so the
# recursive functions over formulas and games stay far from Python's limit.
MAX_DEPTH = 100

# The longest digit run `INT` matches: the lowest limit that
# sys.set_int_max_str_digits accepts, so int() never raises on such a run.
SAFE_DIGITS = 640


# Regex pieces of the one-match step reader (`rules.parse_proof`).  Each
# matches only text that `_TOKEN` reads as the same tokens, with `\s*`
# wherever `_TOKEN` skips blanks, and none matches a comment.  Every item
# is followed by its blanks and every list is delimited, so no quantifier
# can match one stretch of text two ways and a failed match takes time
# linear in the text it scanned.
INT = rf"[0-9]{{1,{SAFE_DIGITS}}}"
STRING = r'"[^"\n]*"'


def _list_of(*items: str) -> str:
    """`[ item , ... ]`, possibly empty, its items all of one of `items`."""
    runs = "|".join(rf"{item}\s*(?:,\s*{item}\s*)*" for item in items)
    return rf"\[\s*(?:{runs})?\]"


INTS = _list_of(INT)
STRINGS = _list_of(STRING)
LIST = _list_of(INT, STRING)
GROUPS = _list_of(INTS)

_DIGITS = re.compile("[0-9]+")
_INNER = re.compile(r"\[([^\[\]]*)\]")


def int_set(text: str) -> frozenset[int]:
    """The integers of a `LIST` match; ValueError for a string list or an
    integer."""
    if text[0] != "[" or '"' in text:
        raise ValueError(f"not an integer list: {text!r}")
    return frozenset(map(int, _DIGITS.findall(text)))


def int_groups(text: str, memo: dict) -> tuple[frozenset[int], ...]:
    """The integer sets of a `GROUPS` match, each looked up in or added to
    `memo` by the text between its brackets."""
    out = []
    for inner in _INNER.findall(text):
        group = memo.get(inner)
        if group is None:
            group = memo[inner] = frozenset(map(int, _DIGITS.findall(inner)))
        out.append(group)
    return tuple(out)


def is_name(tok: str) -> bool:
    return tok[0] in _NAME_START


def is_string(tok: str) -> bool:
    """A quoted string, quotes included; a lone `"` is a stray character."""
    return tok[0] == '"' and len(tok) > 1


class Reader:
    """Tokens of `text`, comments dropped, then None, read front to back.
    `error` is the class raised; a grammar may switch it while it reads a
    nested record.  `memo` keeps the text's quoted formulas once parsed.
    """

    def __init__(self, text: str, error: type[Exception]):
        toks: list[str | None] = _TOKEN.findall(text)
        if "#" in text:
            toks = [t for t in toks if t[0] != "#"]
        toks.append(None)
        self.toks = toks
        self.pos = 0
        self.error = error
        self.memo: dict = {}

    def peek(self) -> str | None:
        """The next token, None at the end."""
        return self.toks[self.pos]

    def take(self, expected: str | None = None) -> str:
        """The next token; with `expected`, it must be that."""
        tok = self.toks[self.pos]
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {tok!r}")
        return tok

    def end(self) -> None:
        """Fail unless every token has been read."""
        if self.toks[self.pos] is not None:
            rest = " ".join(self.toks[self.pos:-1][:5])
            raise self.error(f"trailing tokens: {rest!r}")

    def integer(self) -> int:
        tok = self.take()
        digit = tok[1:2] if tok[0] == "-" else tok[0]
        if not "0" <= digit <= "9":
            raise self.error(f"expected an integer, got {tok!r}")
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise self.error("integer too long") from None

    def items(self, item) -> list:
        """`[ x , ... ]`, possibly empty, each x read by `item()`."""
        self.take("[")
        out = [] if self.peek() == "]" else [item()]
        while self.peek() == ",":
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
        tok = self.take()
        want = names[i] if i < len(names) else "}"
        if tok == want:
            return
        if tok in names[:i]:
            raise self.error(f"field {tok!r} given twice")
        if is_name(tok) and tok not in names:
            raise self.error(f"unknown field {tok!r}")
        raise self.error(f"expected {want!r}, got {tok!r}")
