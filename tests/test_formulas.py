import pytest
from hypothesis import given
from hypothesis import strategies as st

from cirquent.formulas import (
    And,
    Brec,
    Cobrec,
    FormulaError,
    NegLiteral,
    Or,
    PosLiteral,
    atoms_of,
    format_formula,
    negate,
    parse_formula,
)
from cirquent.reader import MAX_DEPTH

atoms = st.sampled_from(["E", "F", "G", "H", "p0", "long_name"])

formulas = st.recursive(
    atoms.map(PosLiteral) | atoms.map(NegLiteral),
    lambda sub: st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Brec, sub)
    | st.builds(Cobrec, sub),
    max_leaves=12,
)


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas)
def test_negate_is_an_involution(f):
    assert negate(negate(f)) == f


@given(formulas, formulas)
def test_negate_structure(f, g):
    assert negate(And(f, g)) == Or(negate(f), negate(g))
    assert negate(Or(f, g)) == And(negate(f), negate(g))
    assert negate(Brec(f)) == Cobrec(negate(f))
    assert negate(Cobrec(f)) == Brec(negate(f))
    assert negate(PosLiteral("F")) == NegLiteral("F")


def test_precedence():
    f = parse_formula("~F & G | H")
    assert f == Or(And(NegLiteral("F"), PosLiteral("G")), PosLiteral("H"))
    assert parse_formula("!F & G") == And(Brec(PosLiteral("F")), PosLiteral("G"))
    assert parse_formula("?F | G") == Or(Cobrec(PosLiteral("F")), PosLiteral("G"))
    assert parse_formula("!?F") == Brec(Cobrec(PosLiteral("F")))


def test_binary_operators_associate_left():
    assert parse_formula("E | F | G") == parse_formula("(E | F) | G")
    assert parse_formula("E & F & G") == parse_formula("(E & F) & G")


def test_arrow_elaborates_to_negation_normal_form():
    assert parse_formula("F -> G") == parse_formula("~F | G")
    assert parse_formula("!F -> F") == parse_formula("?~F | F")
    assert parse_formula("E & F -> G") == parse_formula("(~E | ~F) | G")
    # left associative like the other binaries
    assert parse_formula("E -> F -> G") == parse_formula("(E & ~F) | G")


def test_negation_pushes_inward_at_parse_time():
    assert parse_formula("~(E & F)") == parse_formula("~E | ~F")
    assert parse_formula("~!F") == parse_formula("?~F")
    assert parse_formula("~~F") == parse_formula("F")


def test_minimal_parentheses():
    assert format_formula(parse_formula("(E | F) & G")) == "(E | F) & G"
    assert format_formula(parse_formula("E | (F & G)")) == "E | F & G"
    assert format_formula(parse_formula("!(E | F)")) == "!(E | F)"
    assert format_formula(parse_formula("E | (F | G)")) == "E | (F | G)"


def test_parse_errors():
    for bad in ("", "F |", "| F", "(F", "F)", "F G", "&", "~", "F ~ G", "F # c"):
        with pytest.raises(FormulaError):
            parse_formula(bad)


def test_nesting_is_at_most_max_depth_levels():
    n = MAX_DEPTH
    at_bound = [
        "(" * n + "F" + ")" * n,
        "!" * n + "F",
        "?" * (n - 1) + "~(E | F)",
        " | ".join(["F"] * (n + 1)),
        "F & (" * (n - 1) + "F & F" + ")" * (n - 1),
        "~" * 5000 + "F",  # negations are not levels
    ]
    for text in at_bound:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f
    over = [
        "(" * (n + 1) + "F" + ")" * (n + 1),
        "!" * (n + 1) + "F",
        " | ".join(["F"] * (n + 2)),
        "F & (" * n + "F & F" + ")" * n,
        "~(" + " | ".join(["F"] * 3000) + ")",
        " | ".join(["F"] * (n + 1)) + " -> F",
    ]
    for text in over:
        with pytest.raises(FormulaError, match="deeper than"):
            parse_formula(text)


def test_atoms_of():
    assert atoms_of(parse_formula("!(E | ~F) & E")) == {"E", "F"}
