"""Rule applications, read in both directions.

`premise_of` reconstructs a step's premise from its conclusion (that is what
checking needs); `conclusion_of` pushes a premise forward. The two were
written against the rule definitions separately, so the round-trip tests over
the corpus proofs and over generated cirquents cross-validate them.
"""

import importlib.util
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirquent import rules as R
from cirquent.cirquents import Cirquent, CirquentError, club, validate_cirquent
from cirquent.formulas import Formula, FormulaError, parse_formula
from cirquent.reader import Reader
import rules_oracle
from test_acceptance import _perturbed_apps, _toggled_cirquents
from test_cirquents import FORMULA_POOL, valid_cirquents

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CASES = sorted(p.name for p in CORPUS.iterdir() if (p / "proof.cl15").exists())


def load(name: str) -> R.Proof:
    return R.parse_proof((CORPUS / name / "proof.cl15").read_text())


def read_params(name: str, text: str) -> R.RuleApp:
    """The rule `name` with the params record `text`, as a proof step
    reads them."""
    r = Reader(text, R.RuleError)
    app = R._read_app(r, name)
    r.end()
    return app


def cq(oformulas, under, over) -> Cirquent:
    c = Cirquent(
        tuple(parse_formula(s) for s in oformulas),
        tuple(frozenset(g) for g in under),
        tuple(frozenset(g) for g in over),
    )
    validate_cirquent(c)
    return c


def test_corpus_is_present():
    assert len(CASES) == 7


@pytest.mark.parametrize("name", CASES)
def test_corpus_proofs_check(name):
    proof = load(name)
    verdict = R.check_proof(proof)
    assert verdict, f"step {verdict.step}: {verdict.message}"


def _criterion_1_mutants(proof: R.Proof):
    """Criterion 1's single-perturbation mutants, checked or not."""
    for k, step in enumerate(proof):
        for app in _perturbed_apps(step.app):
            yield proof[:k] + (R.Step(app, step.cirquent),) + proof[k + 1:]
        for cand in _toggled_cirquents(step.cirquent):
            yield proof[:k] + (R.Step(step.app, cand),) + proof[k + 1:]
    for k in range(1, len(proof) - 1):
        yield proof[:k] + proof[k + 1:]


@pytest.mark.parametrize("name", CASES)
def test_proof_text_round_trip(name):
    proof = load(name)
    assert R.parse_proof(R.format_proof(proof)) == proof
    # parse_proof shares one parse per formula text across a proof's steps
    for mutant in _criterion_1_mutants(proof):
        assert R.parse_proof(R.format_proof(mutant)) == mutant


@pytest.mark.parametrize("name", CASES)
def test_premise_and_conclusion_agree(name):
    proof = load(name)
    intro_weakenings = 0
    for prev, step in zip(proof, proof[1:]):
        assert R.premise_of(step.cirquent, step.app) == prev.cirquent
        try:
            forward = R.conclusion_of(prev.cirquent, step.app)
        except R.RuleError:
            # weakening that introduces an oformula: the conclusion holds
            # strictly more than the rule parameters, so only the checking
            # direction can rebuild it
            assert isinstance(step.app, R.Weakening)
            intro_weakenings += 1
            continue
        assert forward == step.cirquent
    assert intro_weakenings <= 1


# The oformulas the splitting and modality rules take apart, and a bystander.
ROUND_TRIP_POOL = tuple(parse_formula(s) for s in ("F", "?F", "!F", "F | G", "F & G"))


def _is_valid(c: Cirquent) -> bool:
    try:
        validate_cirquent(c)
    except CirquentError:
        return False
    return True


@st.composite
def wired_cirquents(draw):
    """Cirquents of 1-5 oformulas from ROUND_TRIP_POOL with 1-5 random
    non-empty groups on each side (drawn whole, then kept if valid)."""
    k = draw(st.integers(1, 5))
    ofs = tuple(draw(st.lists(st.sampled_from(ROUND_TRIP_POOL), min_size=k, max_size=k)))
    groups = st.lists(st.frozensets(st.integers(1, k), min_size=1), min_size=1, max_size=5)
    return Cirquent(ofs, tuple(draw(groups)), tuple(draw(groups)))


def round_trip_apps(c: Cirquent):
    """Every application of the splitting, duplication and modality rules
    whose params name oformulas and groups of `c`, or one group past them."""
    overs = range(1, len(c.overgroups) + 1)
    for a in range(1, c.width + 1):
        yield from (R.Contraction(a), R.DisjIntro(a), R.ConjIntro(a))
        yield from (R.RecIntro(a, j) for j in range(1, len(c.overgroups) + 2))
        for n in range(len(overs) + 1):
            yield from (R.CorecIntro(a, frozenset(s)) for s in combinations(overs, n))
    yield from (R.UnderDuplication(pos) for pos in range(1, len(c.undergroups) + 1))
    yield from (R.OverDuplication(pos) for pos in range(1, len(c.overgroups) + 1))


@given(wired_cirquents().filter(_is_valid))
@settings(max_examples=300)
def test_each_direction_undoes_the_other(c):
    for app in round_trip_apps(c):
        try:
            forward = R.conclusion_of(c, app)
        except (R.RuleError, CirquentError):
            pass
        else:
            assert R.premise_of(forward, app) == c, app
        try:
            back = R.premise_of(c, app)
        except (R.RuleError, CirquentError):
            pass
        else:
            assert R.conclusion_of(back, app) == c, app


def test_forward_splitting_needs_two_oformulas_of_the_premise():
    # a negative index used to slip past the range check of disjunction and
    # conjunction introduction: IndexError on one oformula, CirquentError on two
    for c in (cq(["F | G"], [{1}], [{1}]), cq(["?F", "?F"], [{1, 2}], [{1, 2}])):
        for a in (-1, 0, c.width):
            for rule in (R.Contraction, R.DisjIntro, R.ConjIntro):
                with pytest.raises(R.RuleError):
                    R.conclusion_of(c, rule(a))


@pytest.mark.parametrize("direction", [R.premise_of, R.conclusion_of])
@pytest.mark.parametrize("pos", [0, 2])
def test_oformula_exchange_names_a_position_out_of_range(direction, pos):
    c = cq(["~F", "F"], [{1, 2}], [{1, 2}])
    with pytest.raises(R.RuleError, match=f"^cannot swap oformulas at position {pos} of 2$"):
        direction(c, R.OformulaExchange(pos))


def test_axiom_shape():
    got = R.axiom_conclusion((parse_formula("E"), parse_formula("F")))
    assert got == cq(["~E", "E", "~F", "F"], [{1, 2}, {3, 4}], [{1, 2}, {3, 4}])


def test_axiom_negates_structurally():
    got = R.axiom_conclusion((parse_formula("!(E | F)"),))
    assert got.oformulas[0] == parse_formula("?(~E & ~F)")


def test_weakening_deletes_arc_only():
    c = cq(["~F", "F", "F"], [{1, 2, 3}], [{1, 2, 3}])
    got = R.premise_of(c, R.Weakening(undergroup=1, oformula=2))
    assert got == cq(["~F", "F"], [{1, 2}], [{1, 2}])


def test_weakening_cascade_drops_orphaned_overgroups():
    c = cq(["F", "G"], [{1}, {1, 2}], [{1}, {2}, {1, 2}])
    got = R.premise_of(c, R.Weakening(undergroup=2, oformula=2))
    assert got == cq(["F"], [{1}, {1}], [{1}, {1}])


def test_weakening_requires_company():
    # an undergroup must keep at least one member
    c = cq(["~F", "F"], [{1}, {2}], [{1, 2}])
    with pytest.raises(R.RuleError):
        R.premise_of(c, R.Weakening(undergroup=1, oformula=1))


def test_contraction_needs_identical_wiring():
    c = cq(["?F", "G"], [{1, 2}], [{1, 2}])
    got = R.premise_of(c, R.Contraction(1))
    assert got == cq(["?F", "?F", "G"], [{1, 2, 3}], [{1, 2, 3}])
    with pytest.raises(R.RuleError):
        R.premise_of(cq(["F", "G"], [{1, 2}], [{1, 2}]), R.Contraction(1))


def test_conj_intro_splits_every_undergroup_through_the_pair():
    c = cq(["~F", "F & G"], [{1, 2}], [{1, 2}])
    got = R.premise_of(c, R.ConjIntro(2))
    assert got == cq(["~F", "F", "G"], [{1, 2}, {1, 3}], [{1, 2, 3}])


def test_rec_intro_restores_a_singleton_overgroup():
    c = cq(["!F"], [{1}], [{1}])
    got = R.premise_of(c, R.RecIntro(oformula=1, overgroup=1))
    assert got == cq(["F"], [{1}], [{1}, {1}])
    wide = cq(["!F", "G"], [{1, 2}], [{1, 2}])
    got = R.premise_of(wide, R.RecIntro(oformula=1, overgroup=2))
    assert got == cq(["F", "G"], [{1, 2}], [{1, 2}, {1}])
    with pytest.raises(R.RuleError):
        R.premise_of(wide, R.RecIntro(oformula=2, overgroup=1))


def test_corec_intro_restores_the_dropped_memberships():
    # the premise holds the oformula in the added overgroups; the conclusion
    # wraps it in '?' and withdraws those arcs
    c = cq(["?F", "G"], [{1, 2}], [{1, 2}, {2}])
    got = R.premise_of(c, R.CorecIntro(oformula=1, added=frozenset({2})))
    assert got == cq(["F", "G"], [{1, 2}], [{1, 2}, {1, 2}])
    with pytest.raises(R.RuleError):
        # overgroup 1 already holds oformula 1
        R.premise_of(c, R.CorecIntro(oformula=1, added=frozenset({1})))


def test_merging_checks_the_recorded_split():
    c = cq(["~F", "F"], [{1, 2}], [{1, 2}])
    app = R.Merging(1, frozenset({1}), frozenset({2}))
    assert R.premise_of(c, app) == cq(["~F", "F"], [{1, 2}], [{1}, {2}])
    # overlapping premise groups are fine, but their union must come out right
    bad = R.Merging(1, frozenset({1}), frozenset({1}))
    with pytest.raises(R.RuleError):
        R.premise_of(c, bad)


def test_check_rejects_a_tampered_step():
    proof = load("brec_split")
    steps = list(proof)
    # swap one contraction target; everything downstream stops lining up
    broken = steps[:4] + steps[5:]
    renumbered = tuple(R.Step(s.app, s.cirquent) for s in broken)
    assert not R.check_proof(renumbered)


def test_check_rejects_axiom_after_the_first_step():
    proof = load("brec_elim")
    extra = proof + (R.Step(R.Axiom((parse_formula("F"),)), proof[0].cirquent),)
    assert not R.check_proof(extra)


def test_check_validates_a_hand_built_step_cirquent():
    # parse_proof validates every cirquent it reads, but a proof built in
    # code is checked as given: this step's own cirquent leaves oformula 1
    # in no overgroup, though its premise is the valid axiom cirquent
    axiom = R.Step(R.Axiom((parse_formula("F"),)), cq(["~F", "F"], [{1, 2}], [{1, 2}]))
    app = R.CorecIntro(1, frozenset({1}))
    broken = Cirquent((parse_formula("?~F"), parse_formula("F")),
                      (frozenset({1, 2}),), (frozenset({2}),))
    assert R.premise_of(broken, app) == axiom.cirquent
    assert R.check_proof((axiom, R.Step(app, broken))) == R.Verdict(
        False, 2, "oformula 1 is in no overgroup")


@pytest.mark.parametrize("name", CASES)
def test_check_gives_the_oracle_verdict_on_every_criterion_1_mutant(name):
    for mutant in _criterion_1_mutants(load(name)):
        assert R.check_proof(mutant) == rules_oracle.check_proof(mutant)


def is_valid(c: Cirquent) -> bool:
    try:
        validate_cirquent(c)
    except CirquentError:
        return False
    return True


@st.composite
def broken_cirquents(draw, c: Cirquent):
    """`c` with one group emptied, one group given the index past the width,
    or one oformula taken out of every group of one kind."""
    kind = draw(st.sampled_from(("undergroups", "overgroups")))
    groups = getattr(c, kind)
    how = draw(st.sampled_from(("emptied", "past the width", "in no group")))
    if how == "in no group":
        a = draw(st.integers(1, c.width))
        groups = tuple(g - {a} for g in groups)
    else:
        j = draw(st.integers(0, len(groups) - 1))
        g = frozenset() if how == "emptied" else groups[j] | {c.width + 1}
        groups = groups[:j] + (g,) + groups[j + 1:]
    return replace(c, **{kind: groups})


PROOFS = [load(name) for name in CASES]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_check_agrees_with_the_oracle_on_a_replaced_step_cirquent(data):
    """The check validates only the last step's cirquent; an invalid one
    before it fails the check at its step or later, as the argument in
    `check_proof`'s docstring says.  A prefix of a corpus proof is a proof
    too, so any step, the axiom among them, can be the last."""
    proof = data.draw(st.sampled_from(PROOFS))
    proof = proof[:data.draw(st.integers(1, len(proof)), label="steps")]
    k = data.draw(st.integers(0, len(proof) - 1), label="step index")
    c = data.draw(st.one_of(valid_cirquents(), broken_cirquents(proof[k].cirquent)))
    mutant = proof[:k] + (R.Step(proof[k].app, c),) + proof[k + 1:]
    verdict = R.check_proof(mutant)
    want = rules_oracle.check_proof(mutant)
    if is_valid(c) or k == len(proof) - 1:
        assert verdict == want
    else:
        assert not want and want.step == k + 1
        assert not verdict and verdict.step >= want.step


def test_check_requires_an_axiom_start():
    proof = load("brec_elim")
    assert not R.check_proof(proof[1:])


def test_parse_proof_rejects_bad_numbering():
    text = R.format_proof(load("brec_elim"))
    with pytest.raises(R.RuleError):
        R.parse_proof(text.replace("step 2", "step 7", 1))


def test_parse_proof_rejects_repeated_and_unknown_fields():
    text = R.format_proof(load("brec_elim"))
    for old, new, error in (
        ("rule: CorecIntro;", "rule: CorecIntro; rule: DisjIntro;", R.RuleError),
        ("rule: CorecIntro;", "rule: CorecIntro; colour: 3;", R.RuleError),
        ("added: []", "added: []; added: [1]", R.RuleError),
        ("added: []", "added: []; colour: 3", R.RuleError),
        ('oformulas: ["?~F", "F"];', 'oformulas: ["?~F", "F"]; oformulas: ["F"];',
         CirquentError),
        ("over: [[1]] }", "over: [[1]]; colour: 3 }", CirquentError),
    ):
        assert old in text
        with pytest.raises(error, match="given twice|unknown field"):
            R.parse_proof(text.replace(old, new, 1))
    with pytest.raises(R.RuleError, match="unknown field"):
        read_params("Contraction", "{ oformula: 1; colour: 3 }")


def test_axiom_formulas_share_the_formula_memo(monkeypatch):
    text = R.format_proof(load("brec_elim"))
    calls = []
    parse = R.fm.parse_formula
    monkeypatch.setattr(R.fm, "parse_formula", lambda s: calls.append(s) or parse(s))
    R.parse_proof(text)
    # the axiom's "F" is parsed once, and the cirquents reuse it
    assert sorted(calls) == sorted(set(calls))
    assert "F" in calls


def test_repeated_oformula_text_is_checked_in_every_step():
    text = R.format_proof(load("brec_elim"))
    second = ', "F"]'  # the last oformula of steps 1 and 2
    assert text.count(second) == 2
    # a bad formula restated by two steps, or only by the later one
    with pytest.raises(FormulaError):
        R.parse_proof(text.replace(second, ', "F &"]'))
    last = text.rindex(second)
    for entry, error in (('"F &"', FormulaError), ("3", CirquentError),
                         ("[F]", CirquentError), ("{ a: 1 }", CirquentError)):
        with pytest.raises(error):
            R.parse_proof(f"{text[:last]}, {entry}]{text[last + len(second):]}")


# one instance of every rule, with its params as the proof format writes them
PARAMS_TEXT = [
    (R.Axiom((parse_formula("E"), parse_formula("F | G"))), '{ formulas: ["E", "F | G"] }'),
    (R.UnderExchange(1), "{ pos: 1 }"),
    (R.OformulaExchange(2), "{ pos: 2 }"),
    (R.OverExchange(3), "{ pos: 3 }"),
    (R.Weakening(1, 2), "{ undergroup: 1; oformula: 2 }"),
    (R.Contraction(1), "{ oformula: 1 }"),
    (R.UnderDuplication(1), "{ pos: 1 }"),
    (R.OverDuplication(2), "{ pos: 2 }"),
    (R.Merging(1, frozenset({3, 1}), frozenset({2})), "{ pos: 1; left: [1, 3]; right: [2] }"),
    (R.DisjIntro(2), "{ oformula: 2 }"),
    (R.ConjIntro(1), "{ oformula: 1 }"),
    (R.RecIntro(1, 2), "{ oformula: 1; overgroup: 2 }"),
    (R.CorecIntro(1, frozenset({2, 1})), "{ oformula: 1; added: [1, 2] }"),
]


def test_params_text_of_every_rule_round_trips():
    assert {type(app) for app, _ in PARAMS_TEXT} == set(R.RULES_BY_NAME.values())
    for app, text in PARAMS_TEXT:
        assert R._format_params(app) == text
        assert read_params(type(app).__name__, text) == app


def test_bad_params_raise_rule_error():
    for name, text in (
        ("Weakening", "{ undergroup: 1 }"),
        ("Merging", "{ pos: 1; left: [1]; right: 2 }"),
        ("RecIntro", '{ oformula: "x"; overgroup: 1 }'),
        ("CorecIntro", '{ oformula: 1; added: ["x"] }'),
        ("Axiom", '{ formulas: ["F &"] }'),
        ("Axiom", "{ }"),
        ("Contraction", "[]"),
        ("Nope", "{ pos: 1 }"),
        # params are integer tokens and lists of them, never quoted digits
        ("UnderExchange", '{ pos: "3" }'),
        ("CorecIntro", '{ oformula: 1; added: "12" }'),
        ("Merging", '{ pos: 1; left: ["1"]; right: [2] }'),
        ("Axiom", '{ formulas: "F" }'),
    ):
        with pytest.raises(R.RuleError):
            read_params(name, text)


# Every field type of the rule table, as values that parse but need not check.
FIELD_VALUES = {
    int: st.integers(-3, 40),
    frozenset[int]: st.frozensets(st.integers(0, 9), max_size=4),
    tuple[Formula, ...]: st.lists(st.sampled_from(FORMULA_POOL), min_size=1, max_size=3).map(tuple),
}


@st.composite
def rule_apps(draw):
    cls = draw(st.sampled_from(sorted(R.RULES_BY_NAME.values(), key=lambda c: c.__name__)))
    return cls(*(draw(FIELD_VALUES[t]) for t in get_type_hints(cls).values()))


@given(st.lists(st.tuples(rule_apps(), valid_cirquents()), min_size=1, max_size=3))
@settings(max_examples=300)
def test_step_text_round_trip_property(steps):
    proof = tuple(R.Step(app, c) for app, c in steps)
    assert R.parse_proof(R.format_proof(proof)) == proof
    for app, _ in steps:
        assert read_params(type(app).__name__, R._format_params(app)) == app


TWO_STEPS = """\
step 1 {
  rule: Axiom;
  params: { formulas: ["F"] };
  cirquent: { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] };
}
step 2 {
  rule: Merging;
  params: { pos: 1; left: [1, 2]; right: [2] };
  cirquent: { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }
}
"""

# One fault in one record of TWO_STEPS, and the error class of that record.
RULE_STEP = "rule: Merging;\n  params: { pos: 1; left: [1, 2]; right: [2] };"
PARAMS = "{ pos: 1; left: [1, 2]; right: [2] }"
BODY = '{ oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }\n}'
REJECTED = [
    # a field out of order
    (RULE_STEP, "params: { pos: 1; left: [1, 2]; right: [2] }; rule: Merging;", R.RuleError),
    (PARAMS, "{ left: [1, 2]; pos: 1; right: [2] }", R.RuleError),
    (PARAMS, "{ pos: 1; right: [2]; left: [1, 2] }", R.RuleError),
    (BODY, '{ under: [[1, 2]]; oformulas: ["~F", "F"]; over: [[1, 2]] }\n}', CirquentError),
    # a repeated field
    (RULE_STEP, "rule: Merging; rule: Merging;", R.RuleError),
    (PARAMS, "{ pos: 1; pos: 1; left: [1, 2]; right: [2] }", R.RuleError),
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]]; over: [[1]] }\n}',
     CirquentError),
    # a missing `;`
    (RULE_STEP, "rule: Merging\n  params: { pos: 1; left: [1, 2]; right: [2] };", R.RuleError),
    (PARAMS, "{ pos: 1 left: [1, 2]; right: [2] }", R.RuleError),
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1, 2]] over: [[1, 2]] }\n}', CirquentError),
    # a missing `,`
    (PARAMS, "{ pos: 1; left: [1 2]; right: [2] }", R.RuleError),
    ('params: { formulas: ["F"] }', 'params: { formulas: ["F" "G"] }', R.RuleError),
    (BODY, '{ oformulas: ["~F" "F"]; under: [[1, 2]]; over: [[1, 2]] }\n}', CirquentError),
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1], [2]]; over: [[1] [2]] }\n}', CirquentError),
    # a stray token before `}`
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }\n  3\n}', R.RuleError),
    (PARAMS, "{ pos: 1; left: [1, 2]; right: [2] x }", R.RuleError),
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] x }\n}', CirquentError),
    (BODY, '{ oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]];; }\n}', CirquentError),
]


def test_step_text_follows_the_grammar_order():
    assert len(R.parse_proof(TWO_STEPS)) == 2
    for old, new, error in REJECTED:
        assert TWO_STEPS.count(old) == 1, old
        with pytest.raises(error):
            R.parse_proof(TWO_STEPS.replace(old, new))


def test_conclusion_formula_requires_a_club():
    proof = load("and_elim")
    assert R.conclusion_formula(proof) == parse_formula("(~F | ~F) | F")
    with pytest.raises(R.RuleError):
        R.conclusion_formula(proof[:-1])


def test_build_corpus_reproduces_the_committed_corpus(tmp_path, monkeypatch):
    # format_proof output feeds the corpus, so a change to the proof text
    # (a rule name, a parameter layout) shows up here as drift
    script = CORPUS.parent / "scripts" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", script)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    monkeypatch.setattr(build_corpus, "CORPUS", tmp_path)
    build_corpus.main()
    built = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    committed = sorted(p.relative_to(CORPUS) for p in CORPUS.rglob("*") if p.is_file())
    assert built == committed
    for rel in built:
        assert (tmp_path / rel).read_bytes() == (CORPUS / rel).read_bytes(), rel
