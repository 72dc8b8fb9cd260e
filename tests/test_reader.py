"""The shared tokenizer, held to the four-group regex it replaced, and every
reader fuzzed with broken text: each returns a value or raises its own
error class, never another exception.
"""

import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cirquent.cirquents import CirquentError
from cirquent.formulas import FormulaError, parse_formula
from cirquent.games import GameError, parse_game_library
from cirquent.reader import Reader, is_name, is_string
from cirquent.rules import RuleError, check_proof, parse_proof

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROOFS = [p.read_text() for p in sorted(CORPUS.glob("*/proof.cl15"))]
LIBRARIES = [p.read_text() for p in sorted(CORPUS.glob("**/*.game"))]

# The tokenizer when a token was a (text, name, integer, string) tuple with
# at most one of the last three set.
REFERENCE = re.compile(
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

# Pieces of text that sit on the edges of the token kinds: non-ASCII
# letters and digits, a lone quote, minus signs, comments and newlines.
PIECES = ["١", "é", '"', "-", "-5", "->", "-x", "# note\n", "#", "\n", " ", "\t",
          "a", "_b9", "T", "7", "12", '"q r"', '""', "~", "!", "?", "&", "|", "(", ")",
          "{", "}", "[", "]", ";", ":", ",", "=", "0.q"]
pieces = st.sampled_from(PIECES) | st.text(max_size=3)
texts = st.lists(pieces, max_size=30).map("".join)


def takes_integer(tok: str) -> bool:
    r = Reader(tok, ValueError)
    try:
        r.integer()
    except ValueError as e:
        return str(e) == "integer too long"
    return True


@given(texts)
@settings(max_examples=500)
def test_tokens_match_the_reference(text):
    ref = [t for t in REFERENCE.findall(text) if t[0][0] != "#"]
    toks = Reader(text, ValueError).toks
    assert toks == [t[0] for t in ref] + [None]
    for tok, (_, name, num, string) in zip(toks, ref):
        assert is_name(tok) == bool(name)
        assert is_string(tok) == bool(string)
        assert takes_integer(tok) == bool(num)


def mutated(originals: list[str]):
    """One of `originals` with up to four spans of at most 8 characters each
    replaced by a piece, or with its tail cut off."""

    @st.composite
    def draw(draw):
        text = draw(st.sampled_from(originals))
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            text = text[:i] + (draw(pieces) if draw(st.booleans()) else "") + text[j:]
        if draw(st.integers(0, 9)) == 0:
            text = text[: draw(st.integers(0, len(text)))]
        return text

    return draw()


@given(mutated(PROOFS))
@settings(max_examples=300)
def test_proof_reader_raises_only_its_own_errors(text):
    try:
        proof = parse_proof(text)
    except (RuleError, CirquentError, FormulaError):
        return
    check_proof(proof)


@given(mutated(LIBRARIES))
@settings(max_examples=300)
def test_library_reader_raises_only_its_own_errors(text):
    try:
        parse_game_library(text)
    except GameError:
        pass


@given(texts)
@settings(max_examples=500)
def test_formula_reader_raises_only_its_own_errors(text):
    try:
        parse_formula(text)
    except FormulaError:
        pass
