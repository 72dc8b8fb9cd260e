"""The shared tokenizer, held to the four-group regex it replaced; the list
and record readers, held to the frozen copy of them in `reader_oracle`; the
one-match step reader of `parse_proof`, held to the same oracle on
well-formed steps with edited values, names and field order, and pinned to
read every text of the benchmark's `check` workload to the same verdicts
with no step handed over; and every reader fuzzed with broken text: each
returns a value or raises its own error class, never another exception.
"""

import copy
import hashlib
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_oracle as oracle
from cirquent import rules
from cirquent.cirquents import CirquentError, format_cirquent, parse_cirquent
from cirquent.formulas import FormulaError, format_formula, parse_formula
from cirquent.games import GameError, parse_game_library
from cirquent.reader import SAFE_DIGITS, Reader, is_name, is_string
from cirquent.rules import (
    _PARAM_NAMES,
    _PARAMS,
    RULES_BY_NAME,
    RuleError,
    _format_params,
    _list,
    _read_app,
    check_proof,
    format_proof,
    parse_proof,
)

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
        # a run at the limit is an index, which int() converts
        message = f"undergroup [{'7' * SAFE_DIGITS}] references a bad index"
        assert outcome(parse_cirquent, text % ("7" * SAFE_DIGITS)) == (CirquentError, message)
    finally:
        sys.set_int_max_str_digits(limit)


# --------------------------------------------------- the one-match step reader
#
# `parse_proof` reads each well-formed step in one regex match and hands the
# text from the first other step on to the token reader.  The tests below
# reach that hand-off: texts made of steps that are well formed apart from
# their values, names and field order, each read as the oracle reads it.

def handed_over(monkeypatch) -> list[list[str]]:
    """The tokens of each text that `parse_proof` hands to the token reader
    from now on."""
    handed = []

    class Recording(Reader):
        def __init__(self, text, error):
            super().__init__(text, error)
            handed.append(self.toks[:-1])

    monkeypatch.setattr(rules, "Reader", Recording)
    return handed


FORMATTED = [format_proof(parse_proof(text)) for text in PROOFS]


@pytest.mark.parametrize("text", PROOFS + FORMATTED)
def test_corpus_proofs_hand_no_step_to_the_token_reader(text, monkeypatch):
    handed = handed_over(monkeypatch)
    assert parse_proof(text) == oracle.parse_proof(text)
    assert not any(handed)


# SHA-256 of the verdicts on the benchmark's `check` inputs, one update per
# input with `repr((ok, step, message))`.
CHECK_VERDICTS = "4774f819bac582a1d18ceba81a1da27c1e53f1ff25ad631086c91a5e1affa34e"


def test_check_inputs_hand_no_step_over_and_keep_their_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import workloads

    inputs = workloads.check_inputs()
    assert len(inputs) == 964
    handed = handed_over(monkeypatch)
    digest = hashlib.sha256()
    for text, _ in inputs:
        verdict = check_proof(parse_proof(text))
        digest.update(repr((verdict.ok, verdict.step, verdict.message)).encode())
    assert not any(handed)
    assert digest.hexdigest() == CHECK_VERDICTS


def spliced(text: str, k: int, edit) -> str:
    """`text` with `edit` applied to the text of its step k."""
    starts = [m.start() for m in re.finditer(r"^step ", text, re.M)] + [len(text)]
    return text[: starts[k - 1]] + edit(text[starts[k - 1]: starts[k]]) + text[starts[k]:]


HAND_OFFS = {
    "comment": lambda step: step.replace("\n", "  # a note {\n", 1),
    "error": lambda step: step.replace(";", "", 1),
}


@pytest.mark.parametrize("kind", list(HAND_OFFS))
@pytest.mark.parametrize("text", PROOFS)
def test_a_comment_or_an_error_in_step_k_hands_off_there(text, kind, monkeypatch):
    handed = handed_over(monkeypatch)
    for k in range(1, len(parse_proof(text)) + 1):
        edited = spliced(text, k, HAND_OFFS[kind])
        handed.clear()
        assert outcome(parse_proof, edited) == outcome(oracle.parse_proof, edited), (k, edited)
        assert handed[0][:2] == ["step", str(k)]


# What a mutation puts in place of a name, an integer, a list or a formula.
NAMES = sorted({*RULES_BY_NAME, *(n for names in _PARAM_NAMES.values() for n in names),
                "step", "rule", "params", "cirquent", "oformulas", "under", "over", "x"})
INTS = ["0", "1", "2", "3", "01", "-1", "١", "9" * (SAFE_DIGITS + 1), "1" * SAFE_DIGITS]
VALUES = INTS + ["[]", "[ ]", "[1]", "[1, 2]", "[2, 1]", "[[1, 2]]", "[[]]", "[1,]", "[-1]",
                 "[١]", f"[{'7' * (SAFE_DIGITS + 1)}]", '["F"]', '[""]', '"1"']
FORMULAS = ['"F"', '"~F"', '"F | ~F"', '"?F"', '"!G & F"', '""', '"F # G"', '"F |"', '"١"',
            '"G"', '"((F))"', '"F\n"']
BLANKS = ["", " ", "\n", "\t", "  \n ", "\u3000", "\xa0", "\x1c", "\r\n"]


def groups_text(groups) -> str:
    return _list(_list(str(n) for n in sorted(g)) for g in groups)


def records(proof) -> list[list]:
    """Each step of `proof` as [number, fields], its fields and those of its
    params and cirquent records [name, value] pairs, a cirquent's oformulas
    a list of quoted texts."""
    out = []
    for i, step in enumerate(proof, start=1):
        app, c = step.app, step.cirquent
        params = [[name, fmt(getattr(app, name))] for name, fmt, _, _ in _PARAMS[type(app)]]
        body = [["oformulas", [f'"{format_formula(f)}"' for f in c.oformulas]],
                ["under", groups_text(c.undergroups)], ["over", groups_text(c.overgroups)]]
        out.append([str(i), [["rule", type(app).__name__], ["params", params],
                             ["cirquent", body]]])
    return out


def render(steps: list[list], blank: str, semis: bool) -> str:
    def value(v) -> str:
        if isinstance(v, str):
            return v
        if v and isinstance(v[0], str):  # oformulas
            return "[" + ("," + blank).join(v) + "]"
        fields = (name + blank + ":" + blank + value(item) for name, item in v)
        return "{" + blank + (";" + blank).join(fields) + (";" if semis else "") + blank + "}"

    return "".join(f"step{blank or ' '}{num}{blank}{value(fields)}\n" for num, fields in steps)


@st.composite
def well_formed_steps(draw) -> str:
    """A corpus proof as `records` with one to three values, names or field
    orders changed, rendered with one choice of blanks."""
    steps = records(parse_proof(draw(st.sampled_from(PROOFS))))
    # each step's records, held before any field moves
    parts = [(fields, fields[1][1], fields[2][1], fields[2][1][0][1]) for _, fields in steps]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(steps) - 1))
        fields, params, body, ofs = parts[k]
        record = draw(st.sampled_from([fields, params, body]))
        what = draw(st.sampled_from(["number", "name", "order", "value", "formula"]))
        if what == "number":
            steps[k][0] = draw(st.sampled_from(INTS))
        elif what == "name":
            draw(st.sampled_from(record))[0] = draw(st.sampled_from(NAMES))
        elif what == "order" and len(record) > 1:
            i = draw(st.integers(0, len(record) - 2))
            record[i], record[i + 1] = record[i + 1], record[i]
        elif what == "value":
            field = draw(st.sampled_from(params + [f for f in body if f[1] is not ofs]))
            field[1] = draw(st.sampled_from(VALUES))
        elif what == "formula":
            ofs[draw(st.integers(0, len(ofs) - 1))] = draw(st.sampled_from(FORMULAS))
    return render(steps, draw(st.sampled_from(BLANKS)), draw(st.booleans()))


def edge_cases(fields: list, path=()):
    """Each place in the fields of a `records` step, by its path, with the
    edge cases that may replace what is there."""
    for i, (_, value) in enumerate(fields):
        yield path + (i, 0), NAMES
        if isinstance(value, str):
            yield path + (i, 1), VALUES + NAMES
        elif isinstance(value[0], str):  # oformulas
            yield path + (i, 1), VALUES
            for j in range(len(value)):
                yield path + (i, 1, j), FORMULAS
        else:
            yield from edge_cases(value, path + (i, 1))


# one step of each rule, as the corpus writes it
ONE_OF_EACH = list({type(step.app): [step] for step in STEPS}.values())


@pytest.mark.parametrize("proof", ONE_OF_EACH, ids=lambda p: type(p[0].app).__name__)
def test_each_edge_case_in_each_place_reads_as_the_oracle_reads_it(proof):
    [[_, fields]] = records(proof)
    texts = [render([[num, fields]], " ", False) for num in INTS]
    for path, cases in edge_cases(fields):
        for case in cases:
            edited = copy.deepcopy(fields)
            place = edited
            for i in path[:-1]:
                place = place[i]
            place[path[-1]] = case
            texts.append(render([["1", edited]], " ", False))
    for text in texts:
        assert outcome(parse_proof, text) == outcome(oracle.parse_proof, text), text


@given(well_formed_steps())
@settings(max_examples=300)
def test_well_formed_steps_read_as_the_oracle_reads_them(text):
    assert outcome(parse_proof, text) == outcome(oracle.parse_proof, text)


def test_a_long_broken_step_is_rejected_in_linear_time():
    head = ('step 1 { rule: Axiom; params: { formulas: ["F"] }; '
            'cirquent: { oformulas: ["~F", "F"]; under: ')
    tail = "; over: [[1, 2]] }; }"
    for broken in ("[[" + "1, " * 66_000 + "]]", "[[1" + " " * 200_000 + "x]]",
                   "[" + "[1], " * 40_000 + "]"):
        text = head + broken + tail
        start = time.perf_counter()
        got = outcome(parse_proof, text)
        assert time.perf_counter() - start < 1.0
        assert got == outcome(oracle.parse_proof, text)
        assert got[0] is CirquentError
