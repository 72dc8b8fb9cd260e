"""The shared tokenizer, held to the four-group regex it replaced; the list
and record readers, held to the item-at-a-time readers they replaced
(`reader_oracle`); and every reader fuzzed with broken text: each returns a
value or raises its own error class, never another exception.
"""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_oracle as oracle
from cirquent.cirquents import CirquentError, format_cirquent, parse_cirquent
from cirquent.formulas import FormulaError, parse_formula
from cirquent.games import GameError, parse_game_library
from cirquent.reader import SAFE_DIGITS, Reader, is_name, is_string
from cirquent.rules import RuleError, _format_params, _read_app, check_proof, parse_proof

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROOFS = [p.read_text() for p in sorted(CORPUS.glob("*/proof.cl15"))]
LIBRARIES = [p.read_text() for p in sorted(CORPUS.glob("**/*.game"))]
STEPS = [step for text in PROOFS for step in parse_proof(text)]
CIRQUENTS = sorted({format_cirquent(step.cirquent) for step in STEPS})
# a rule name and its params record, as a proof step writes them
PARAMS = sorted({f"{type(step.app).__name__} {_format_params(step.app)}" for step in STEPS})

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
          "{", "}", "[", "]", ";", ":", ",", "=", "0.q", "[[", "]]", ",,", "[]", "-1",
          "9" * 700]
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


def outcome(parse, text: str):
    """`parse(text)`, or the class and message of the error it raised."""
    try:
        return parse(text)
    except (RuleError, CirquentError, FormulaError) as e:
        return type(e), str(e)


def params_reader(reader: type[Reader], read_app):
    """A reader of a rule name and its params record, as a step writes them."""
    def read(text: str):
        r = reader(text, RuleError)
        app = read_app(r, r.take())
        r.end()
        return app

    return read


# Per kind of text: the package's reader, the oracle's, the originals that
# the fuzzed texts mutate, and one text whose records end in the optional `;`.
KINDS = {
    "proof": (parse_proof, oracle.parse_proof, PROOFS,
              'step 1 { rule: Axiom; params: { formulas: ["F"]; }; '
              'cirquent: { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]]; }; }'),
    "cirquent": (parse_cirquent, oracle.parse_cirquent, CIRQUENTS,
                 'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2], [2]]; }'),
    "params": (params_reader(Reader, _read_app),
               params_reader(oracle.OracleReader, oracle.read_app), PARAMS,
               "Merging { pos: 1; left: [1, 2]; right: [3]; }"),
}


@pytest.mark.parametrize("kind", list(KINDS))
@given(data=st.data())
@settings(max_examples=300)
def test_lists_read_as_the_oracle_reads_them(kind, data):
    new, old, originals, _ = KINDS[kind]
    text = data.draw(mutated(originals))
    assert outcome(new, text) == outcome(old, text)


# What the neighbours of a text put in place of, or next to, one token.
EDGE_TOKENS = ["[", "]", ",", ";", ":", "{", "}", "-1", "0", "x", '"F"', "9" * 700]


def neighbours(text: str):
    """`text` with one token dropped or replaced by an edge token, or with an
    edge token inserted anywhere."""
    toks = Reader(text, ValueError).toks[:-1]
    for k in range(len(toks) + 1):
        yield toks[:k] + toks[k + 1:]
        for tok in EDGE_TOKENS:
            yield toks[:k] + [tok] + toks[k:]
            yield toks[:k] + [tok] + toks[k + 1:]


@pytest.mark.parametrize("kind", list(KINDS))
def test_one_token_edits_read_as_the_oracle_reads_them(kind):
    new, old, _, text = KINDS[kind]
    for toks in neighbours(text):
        edited = " ".join(toks)
        assert outcome(new, edited) == outcome(old, edited), edited


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit before Python 3.10.7")
def test_a_list_index_over_the_lowest_digit_limit_is_too_long():
    text = 'cirquent { oformulas: ["F"]; under: [[%s]]; over: [[1]] }'
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(SAFE_DIGITS)
    try:
        for digits in ("7" * 700, "0" * (SAFE_DIGITS + 1)):
            assert outcome(parse_cirquent, text % digits) == (CirquentError, "integer too long")
        # a run at the limit is read in place, as int() reads it
        message = f"undergroup [{'7' * SAFE_DIGITS}] references a bad index"
        assert outcome(parse_cirquent, text % ("7" * SAFE_DIGITS)) == (CirquentError, message)
    finally:
        sys.set_int_max_str_digits(limit)
