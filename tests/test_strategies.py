"""Proof-to-strategy compilation.

Most behavioral coverage runs through the harness tests and the acceptance
suite; here we pin down the transducer contracts the compiler builds on.
"""

import json
from pathlib import Path

import pytest

from cirquent import rules as R
from cirquent.cirquents import club
from cirquent.formulas import parse_formula
from cirquent.games import Labmove, parse_run
from cirquent.games import BOT, TOP
from cirquent.strategies import (
    AxiomCopycat,
    ClubToRep,
    RepToPlain,
    Transducer,
    cirquent_strategy_factories,
    compile_proof,
    transform,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name: str) -> R.Proof:
    return R.parse_proof((CORPUS / name / "proof.cl15").read_text())


class Parrot(Transducer):
    """Inner stand-in that emits a scripted block per step call."""

    def __init__(self, *blocks: list[str]):
        self.blocks = list(blocks)
        self.calls: list[tuple] = []

    def step(self, observed):
        self.calls.append(observed)
        return self.blocks.pop(0) if self.blocks else []


def test_copycat_mirrors_between_diamond_halves():
    t = AxiomCopycat(diamonds=2)
    assert t.step(parse_run("B:1;,.q")) == ["2;,.q"]
    assert t.step(parse_run("B:1;,.q,T:2;,.q,B:4;,0.x")) == ["3;,0.x"]
    # already-answered moves are not re-echoed
    assert t.step(parse_run("B:1;,.q,T:2;,.q,B:4;,0.x,T:3;,0.x")) == []


def test_copycat_ignores_junk_and_top_moves():
    t = AxiomCopycat(diamonds=1)
    assert t.step(parse_run("B:junk,T:1;.m,B:0;.m,B:9;.m")) == []


def test_swapped_copycat_emits_nonsense_indices():
    t = AxiomCopycat(diamonds=1, pairing="swapped")
    assert t.step(parse_run("B:1;.q")) == ["0;.q"]


def test_club_to_rep_bridges_addresses():
    inner = Parrot(["1;01.r"])
    t = ClubToRep(inner)
    assert t.step((Labmove(BOT, "0.q"),)) == ["01.r"]
    assert inner.calls[-1] == (Labmove(BOT, "1;0.q"),)


def test_rep_to_plain_broadcasts_and_filters():
    inner = Parrot(["00.a", "1.b"], [".c"])
    t = RepToPlain(inner)
    # machine moves surface only from the all-zeros copy
    assert t.step((Labmove(BOT, "q"),)) == ["a"]
    assert inner.calls[-1] == (Labmove(BOT, ".q"),)
    assert t.step((Labmove(BOT, "q"), Labmove(TOP, "a"), Labmove(BOT, "r"))) == ["c"]


def test_transform_checks_the_rule_against_the_conclusion():
    with pytest.raises(R.RuleError):
        transform(R.DisjIntro(1), club(parse_formula("F & G")))


def test_factories_cover_every_step():
    proof = load("brec_split")
    pairs = cirquent_strategy_factories(proof)
    assert len(pairs) == len(proof)
    for step, (c, factory) in zip(proof, pairs):
        assert c == step.cirquent
        fresh = factory()
        assert isinstance(fresh, Transducer)
        assert factory() is not fresh


def test_compiled_bundle_is_deterministic_and_interpretation_free():
    proof = load("blass")
    one, two = compile_proof(proof), compile_proof(proof)
    assert one.bundle == two.bundle
    data = json.loads(one.bundle)
    assert data["formula"] == "(~E | ~F) & (~G | ~H) | (E | G) & (F | H)"
    assert len(data["steps"]) == len(proof)
    # nothing about any atom game's moves or shape leaks into the bundle
    for needle in ("relay", "ladder", "winner", "node"):
        assert needle not in one.bundle


def test_fresh_strategies_are_independent():
    compiled = compile_proof(load("brec_elim"))
    a, b = compiled.fresh(), compiled.fresh()
    r = parse_run("B:1.q")
    assert a.step(r) == b.step(r) == ["0..q"]
    assert a.step(r + (Labmove(TOP, "0..q"),)) == []


def test_compile_rejects_unchecked_proofs():
    proof = load("brec_elim")
    with pytest.raises(R.RuleError):
        compile_proof(proof[:1] + proof[2:])
