"""Proof-to-strategy compilation.

Most behavioral coverage runs through the harness tests and the acceptance
suite; here we pin down the transducer contracts the compiler builds on.
"""

import json
from functools import partial, reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies_oracle as oracle
from cirquent import rules as R
from cirquent import strategies
from cirquent.cirquents import Cirquent, CirquentError, CirquentMove, club, format_move
from cirquent.formulas import And, Or, atoms_of, parse_formula
from cirquent.fusion import fusions
from cirquent.games import Labmove, of_formula, parse_run
from cirquent.games import BOT, TOP
from cirquent.harness import (
    CirquentArena,
    FormulaArena,
    RandomEnv,
    exhaustive_env_check,
    play,
)
from cirquent.strategies import (
    AxiomCopycat,
    FormulaBridge,
    Transducer,
    Translated,
    _CorecFocus,
    _Relabel,
    cirquent_strategy_factories,
    compile_proof,
    transform,
)
from test_acceptance import CASES, STANDARD, _game_candidates
from test_cli import cli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name: str) -> R.Proof:
    return R.parse_proof((CORPUS / name / "proof.cl15").read_text())


class Parrot(Transducer):
    """Inner stand-in that returns a scripted block per advance call."""

    def __init__(self, *blocks: list[CirquentMove]):
        self.blocks = list(blocks)
        self.calls: list[list[CirquentMove]] = []

    def advance(self, moves):
        self.calls.append(moves)
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


def test_copycat_drops_an_index_too_long_for_int():
    # more digits than int() converts: a malformed move, not an error
    assert AxiomCopycat(diamonds=1).step((Labmove(BOT, "1" * 5000 + ";.q"),)) == []


def _bridge_move(slot: str, inner: str) -> CirquentMove:
    return CirquentMove(1, (slot,), inner)


def test_club_to_rep_bridges_addresses():
    mv = _bridge_move
    inner = Parrot([mv("0", "r"), mv("01", "s"), CirquentMove(2, ("",), "t")])
    t = FormulaBridge(inner, [], 1)
    # the bare game's move enters the club's only oformula with an empty address
    assert t.step((Labmove(BOT, "0.q"),)) == ["r"]
    assert inner.calls[-1] == [mv("", "0.q")]


def test_rep_to_plain_broadcasts_and_filters():
    mv = _bridge_move
    inner = Parrot([mv("01", "r")], [mv("00", "a"), mv("1", "b")], [mv("", "c")])
    t = FormulaBridge(inner, [], 1)
    # every opponent move is broadcast to all copies of the club's '!'
    assert t.step((Labmove(BOT, "0.q"),)) == []
    assert inner.calls[-1] == [mv("", "0.q")]
    # machine moves surface only from the all-zeros copy
    run = (Labmove(BOT, "0.q"), Labmove(BOT, "q"))
    assert t.step(run) == ["a"]
    assert inner.calls[-1] == [mv("", "q")]
    run += (Labmove(TOP, "a"), Labmove(BOT, "r"))
    assert t.step(run) == ["c"]
    assert inner.calls[-1] == [mv("", "r")]


def layer_of(app: R.RuleApp, conclusion: Cirquent):
    """The layer `transform` builds for `app` concluding `conclusion`."""
    return transform(app, R.premise_of(conclusion, app), conclusion)


def test_layers_pass_only_new_moves():
    inner = Parrot([CirquentMove(2, ("",), "m")])
    t = Translated(inner, [layer_of(R.DisjIntro(1), club(parse_formula("F | G")))], 1)
    assert t.step(parse_run("B:1;.0.q,B:junk")) == ["1;.1.m"]
    assert inner.calls[-1] == [CirquentMove(1, ("",), "q")]
    assert t.step(parse_run("B:1;.0.q,B:junk,T:1;.1.m,B:1;.1.x")) == []
    assert inner.calls[-1] == [CirquentMove(2, ("",), "x")]


def test_identity_rules_add_no_layer():
    proof = load("blass")
    pairs = cirquent_strategy_factories(proof)
    shared = set()
    for premise, step, prev, cur in zip(proof, proof[1:], pairs, pairs[1:]):
        identity = transform(step.app, premise.cirquent, step.cirquent) is None
        assert (cur[1] is prev[1]) == identity
        if identity:
            shared.add(type(step.app))
    assert shared == {R.UnderExchange, R.Weakening}


def test_compile_checks_each_rule_against_its_conclusion():
    """`transform` trusts the checked step it gets; a `DisjIntro(1)` step
    that concludes a conjunction fails the check before any layer is built."""
    f = parse_formula("F")
    axiom = R.Step(R.Axiom((f,)), R.axiom_conclusion((f,)))
    disj = club(parse_formula("~F | F"))
    assert compile_proof((axiom, R.Step(R.DisjIntro(1), disj))).formula == disj.oformulas[0]
    with pytest.raises(R.RuleError):
        compile_proof((axiom, R.Step(R.DisjIntro(1), club(parse_formula("~F & F")))))


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


def _swap_weaken_proof() -> R.Proof:
    """Axiom(F, G), OverExchange(1), then a Weakening that adds H to
    undergroup 1 in its own singleton overgroup.  No corpus proof has such
    steps, and only they build a `_Relabel` that permutes slots and one
    that hides a slot."""
    f, g, h = (parse_formula(x) for x in "FGH")
    axiom = R.axiom_conclusion((f, g))
    swapped = R.conclusion_of(axiom, R.OverExchange(1))
    weakened = Cirquent(swapped.oformulas + (h,),
                        (swapped.undergroups[0] | {5}, swapped.undergroups[1]),
                        swapped.overgroups + (frozenset({5}),))
    return (R.Step(R.Axiom((f, g)), axiom), R.Step(R.OverExchange(1), swapped),
            R.Step(R.Weakening(1, 5), weakened))


def test_over_swap_and_weakening_drop_keep_winning():
    proof = _swap_weaken_proof()
    assert R.check_proof(proof)
    swap, weaken = [transform(step.app, premise.cirquent, step.cirquent)
                    for premise, step in zip(proof, proof[1:])]
    [composed] = cirquent_strategy_factories(proof)[2][1]().layers
    assert composed == weaken.then(swap)
    assert swap.slots == (1, 0) and swap.over == 2
    # real slot 2, the singleton overgroup, is the one no premise slot reads
    assert weaken.slots == (0, 1) and weaken.over == 3
    assert composed.slots == (1, 0) and composed.over == 3
    interp = {"F": STANDARD["relay"], "G": STANDARD["choice"], "H": STANDARD["ladder"]}
    for k, (c, factory) in enumerate(cirquent_strategy_factories(proof), 1):
        arena = CirquentArena(c, interp)
        for seed in range(20):
            result = play(factory(), RandomEnv(seed, max_moves=4), arena, budget=48)
            assert result.won, (k, seed, result.run)
        ok, witness = exhaustive_env_check(factory, arena, env_depth=2)
        assert ok, (k, witness)


def _long_proof(exchanges: int = 1500) -> R.Proof:
    """Axiom(F), `exchanges` OformulaExchange steps, then DisjIntro: a stack
    of more layers than Python's recursion limit has frames."""
    f = parse_formula("F")
    c = R.axiom_conclusion((f,))
    proof = [R.Step(R.Axiom((f,)), c)]
    for app in [R.OformulaExchange(1)] * exchanges + [R.DisjIntro(1)]:
        c = R.conclusion_of(c, app)
        proof.append(R.Step(app, c))
    return tuple(proof)


def test_a_long_proof_compiles_and_plays(tmp_path):
    proof = _long_proof()
    assert len(proof) == 1502
    compiled, pairs = compile_proof(proof).fresh(), cirquent_strategy_factories(proof)
    last = pairs[-1][1]()
    # the 1,501 renaming layers compose into one
    assert [type(layer) for layer in compiled.layers] == [_Relabel]
    assert [type(layer) for layer in last.layers] == [_Relabel]
    assert compiled.step(parse_run("B:1.q")) == ["0.q"]
    assert [c for c, _ in pairs] == [step.cirquent for step in proof]
    assert last.step(parse_run("B:1;.1.q")) == ["1;.0.q"]
    path = tmp_path / "long.cl15"
    path.write_text(R.format_proof(proof))
    r = cli("play", str(path), "--atoms", str(CORPUS / "brec_elim" / "atoms.game"),
            "--moves", "1.q")
    assert r.returncode == 0, r.stderr
    assert "winner: T" in r.stdout


# ------------------------------------------------ composing renaming layers

# A small conclusion to take apart: nested '|' and '&', and oformulas that
# weakening can delete, oformula 4 with its own overgroup, which it hides.
RENAMED = Cirquent(
    tuple(map(parse_formula, ["(E | F) & G", "G & H", "E", "F | (G & E)"])),
    (frozenset({1, 2, 3}), frozenset({3, 4})),
    (frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({2, 4})),
)
PREFIXED = st.builds(lambda prefixes, leaf: "".join(prefixes) + leaf,
                     st.lists(st.sampled_from(["0.", "1."]), max_size=4),
                     st.sampled_from(["q", "", "x.y", "0", "1"]))


def renaming_chain(data, conclusion: Cirquent):
    """Two to six renaming rules read backwards from `conclusion`, those that
    apply: (rule, conclusion, premise, layer) for each that adds a layer,
    outermost first, and the last premise."""
    steps = []
    for _ in range(data.draw(st.integers(2, 6))):
        c = conclusion
        rule = data.draw(st.sampled_from(["oformula", "over", "weaken", "disj", "conj"]))
        if rule == "oformula":
            app = R.OformulaExchange(data.draw(st.integers(1, max(c.width - 1, 1))))
        elif rule == "over":
            app = R.OverExchange(data.draw(st.integers(1, max(len(c.overgroups) - 1, 1))))
        elif rule == "weaken":
            i = data.draw(st.integers(1, len(c.undergroups)))
            app = R.Weakening(i, data.draw(st.sampled_from(sorted(c.undergroups[i - 1]))))
        else:
            kind, cls = (Or, R.DisjIntro) if rule == "disj" else (And, R.ConjIntro)
            apart = [a for a, f in enumerate(c.oformulas, 1) if isinstance(f, kind)]
            if not apart:
                continue
            app = cls(data.draw(st.sampled_from(apart)))
        try:
            premise = R.premise_of(c, app)
        except (R.RuleError, CirquentError):
            continue
        layer = transform(app, premise, c)
        if layer is not None:
            steps.append((app, c, premise, layer))
        conclusion = premise
    return steps, conclusion


def moves_on(data, c: Cirquent, lowest: int = 0) -> list[CirquentMove]:
    """Moves on `c` with indices from `lowest` to two past its width,
    addresses in any slot, prefixed inner moves and junk."""
    move = st.builds(CirquentMove, st.integers(lowest, c.width + 2),
                     st.tuples(*[st.sampled_from(["", "", "0", "1", "01"])] * len(c.overgroups)),
                     st.one_of(PREFIXED, JUNK))
    return data.draw(st.lists(move, min_size=1, max_size=8))


def through(layers, mv: CirquentMove, down: bool) -> list[CirquentMove]:
    moves = [mv]
    for layer in layers if down else reversed(layers):
        moves = [m for x in moves for m in (layer.env_to_sim(x) if down else layer.sim_to_real(x))]
    return moves


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_composed_relabel_answers_as_its_chain(data):
    """`a.then(b)` answers every move, down and up, as `a` then `b` do, and
    as the per-rule layers they compose do one after another."""
    steps, premise = renaming_chain(data, RENAMED)
    layers = [layer for *_, layer in steps]
    assume(len(layers) >= 2)
    k = data.draw(st.integers(1, len(layers) - 1))
    a, b = reduce(_Relabel.then, layers[:k]), reduce(_Relabel.then, layers[k:])
    composed = a.then(b)
    for mv in moves_on(data, RENAMED):
        want = through(layers, mv, down=True)
        assert through([a, b], mv, down=True) == want, mv
        assert composed.env_to_sim(mv) == want, mv
    for mv in moves_on(data, premise):
        want = through(layers, mv, down=False)
        assert through([a, b], mv, down=False) == want, mv
        assert composed.sim_to_real(mv) == want, mv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_each_relabel_answers_as_the_oracle_rule(data):
    """Each rule's `_Relabel` maps every move, down and up, to the string
    the oracle's own layer for that rule gives (indices from 1: the oracle
    reads strings, and index 0 does not parse)."""
    steps, _ = renaming_chain(data, RENAMED)
    for app, conclusion, premise, layer in steps:
        cls, args = oracle.transform(app, conclusion)
        old = cls(None, *args)
        for mv in moves_on(data, conclusion, lowest=1):
            got = [format_move(m) for m in layer.env_to_sim(mv)]
            assert got == old.env_to_sim(format_move(mv)), (app, mv)
        for mv in moves_on(data, premise, lowest=1):
            got = [format_move(m) for m in layer.sim_to_real(mv)]
            assert got == old.sim_to_real(format_move(mv)), (app, mv)


# ------------------------------------------- the string-protocol stack as oracle

PROOFS = {name: load(name) for name in CASES}
# criterion 7's interpretation
GRID_INTERP = {
    "E": STANDARD["relay"], "F": STANDARD["ladder"],
    "G": STANDARD["choice"], "H": STANDARD["relay"],
}
BITS = st.text("01", max_size=10)
LEAVES = st.sampled_from(["q", "a", "s", "p", "t", "l", "r", "x", "y", ""])
# criterion 4's junk, plus arbitrary and non-ASCII text
JUNK = st.one_of(
    st.sampled_from(["zz", "0.zz", ".q", "1.", "x.q", "", "é.q", "0;.q", "١;.q"]),
    st.text(max_size=6),
)
# formula-game moves: up to four address or choice components and a leaf
SHAPED = st.builds(
    lambda parts, leaf: ".".join(parts + [leaf]),
    st.lists(st.one_of(BITS, st.sampled_from(["0", "1"])), max_size=4),
    LEAVES,
)


def cirquent_moves(width: int, n: int):
    """`a;u1,...,un.rest` with index 0 and out-of-range indices, the wrong
    arity either way, and addresses up to 10 bits."""
    return st.builds(
        lambda a, slots, inner: f"{a};{','.join(slots)}.{inner}",
        st.integers(0, width + 2),
        st.lists(BITS, min_size=max(n - 1, 0), max_size=n + 1),
        st.one_of(SHAPED, JUNK),
    )


# Address words one `step` call may fuse, summed over its layers.  Long
# addresses fan out through nested recurrences (the fusion fan-out defect):
# without a bound, one move of 10-bit addresses keeps either stack busy for
# minutes.  Both stacks fuse the same words in the same order, so both reach
# the bound on the same call.
FANOUT_BUDGET = 4096


class FanoutBudget(Exception):
    pass


def step_or_raise(t, run):
    """`t.step(run)`, or the class of what it raised."""
    fused = 0

    def budgeted(parts):
        nonlocal fused
        words = fusions(parts)
        fused += len(words)
        if fused > FANOUT_BUDGET:
            raise FanoutBudget
        return words

    try:
        with mock.patch.object(strategies, "fusions", budgeted), \
                mock.patch.object(oracle, "fusions", budgeted):
            return t.step(run)
    except Exception as e:  # noqa: BLE001 - the class is what gets compared
        return type(e)


def draw_block(data, offered, synthetic):
    """Up to three opponent moves, each one of `offered` or a synthetic string."""
    move = st.one_of(st.sampled_from(offered), synthetic) if offered else synthetic
    return tuple(Labmove(BOT, m) for m in data.draw(st.lists(move, max_size=3)))


def assert_same_blocks(data, new, old, candidates, synthetic, rounds=6):
    """Feed both stacks the same opponent moves, round by round: a move the
    position offers (`candidates(run)`) or a synthetic string.  Each round
    must give the same real block, or raise the same exception class."""
    run = ()
    for _ in range(rounds):
        run += draw_block(data, candidates(run), synthetic)
        got, want = step_or_raise(new, run), step_or_raise(old, run)
        assert got == want, (run, got, want)
        if not isinstance(got, list):
            return
        run += tuple(Labmove(TOP, m) for m in got)


def test_bundles_match_the_oracle():
    for proof in PROOFS.values():
        assert compile_proof(proof).bundle == oracle.compile_proof(proof).bundle


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(sorted(STANDARD)), st.data())
def test_compiled_stack_matches_the_oracle(name, game_name, data):
    new, old = compile_proof(PROOFS[name]), oracle.compile_proof(PROOFS[name])
    formula = new.formula
    game = of_formula(formula, {a: STANDARD[game_name] for a in atoms_of(formula)})
    assert_same_blocks(
        data, new.fresh(), old.fresh(),
        lambda run: sorted(_game_candidates(game, run, BOT, 2)),
        st.one_of(SHAPED, JUNK),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_step_strategies_match_the_oracle(name, data):
    proof = PROOFS[name]
    pairs = cirquent_strategy_factories(proof)
    old_pairs = oracle.cirquent_strategy_factories(proof)
    i = data.draw(st.integers(0, len(proof) - 1))
    c, factory = pairs[i]
    arena = CirquentArena(c, GRID_INTERP)
    assert_same_blocks(
        data, factory(), old_pairs[i][1](),
        lambda run: arena.frontier(run, BOT, 2),
        st.one_of(cirquent_moves(c.width, len(c.overgroups)), JUNK),
    )


# --------------------------------------------------- a fork against a replay


def _compiled_subject(name: str, game_name: str):
    compiled = compile_proof(PROOFS[name])
    formula = compiled.formula
    game = of_formula(formula, {a: STANDARD[game_name] for a in atoms_of(formula)})
    return compiled.factory, FormulaArena(game), st.one_of(SHAPED, JUNK)


def _step_subject(name: str, i: int):
    c, factory = cirquent_strategy_factories(PROOFS[name])[i]
    synthetic = st.one_of(cirquent_moves(c.width, len(c.overgroups)), JUNK)
    return factory, CirquentArena(c, GRID_INTERP), synthetic


def _swapped_subject(game_name: str):
    axiom = R.axiom_conclusion((parse_formula("F"),))
    synthetic = st.one_of(cirquent_moves(axiom.width, 1), JUNK)
    return (partial(AxiomCopycat, 1, "swapped"),
            CirquentArena(axiom, {"F": STANDARD[game_name]}), synthetic)


# (factory, arena, synthetic moves): every corpus strategy on the formula
# game, every step strategy of criterion 7's grid, and criterion 8's
# swapped copycat
FORK_SUBJECTS = st.one_of(
    st.builds(_compiled_subject, st.sampled_from(CASES), st.sampled_from(sorted(STANDARD))),
    st.sampled_from([(name, i) for name in CASES for i in range(len(PROOFS[name]))])
    .map(lambda pair: _step_subject(*pair)),
    st.builds(_swapped_subject, st.sampled_from(["choice", "ladder", "relay"])),
)


@settings(max_examples=300, deadline=None)
@given(FORK_SUBJECTS, st.data())
def test_a_fork_answers_as_a_replay_would(subject, data):
    """Play random opponent blocks and fork at a random round; the fork then
    plays on.  A fresh strategy replayed from the root answers every block
    as the original and then the fork did, and the original, stepped after
    the fork, answers the fork's rounds as the fork did."""
    factory, arena, synthetic = subject
    rounds = data.draw(st.integers(1, 6))
    at = data.draw(st.integers(0, rounds - 1))
    run, played = (), []  # (run presented to step, what it answered)
    original = current = factory()
    split = rounds
    for r in range(rounds):
        if r == at:
            current, split = original.fork(), len(played)
        run += draw_block(data, arena.frontier(run, BOT, 2), synthetic)
        got = step_or_raise(current, run)
        played.append((run, got))
        if not isinstance(got, list):
            break
        run += tuple(Labmove(TOP, m) for m in got)
    replayed = factory()
    for r, got in played:
        assert step_or_raise(replayed, r) == got, (r, got)
    for r, got in played[split:]:
        assert step_or_raise(original, r) == got, (r, got)


def test_a_fork_records_corec_focus_addresses_apart_from_its_original():
    """A fork shares the core and the layers without play state, and copies
    each `_CorecFocus`, so the addresses one of the two records after the
    fork never reach the other's `used`."""
    axiom = R.axiom_conclusion((parse_formula("F"),))
    swap = layer_of(R.OformulaExchange(1), R.conclusion_of(axiom, R.OformulaExchange(1)))
    focus = _CorecFocus(2)  # real oformula 1 is the focus's '?'
    original = Translated(AxiomCopycat(1), [swap, focus], 1)
    twin = original.fork()
    assert twin.core is original.core and twin.layers[0] is swap
    assert original.advance([CirquentMove(1, ("",), "0.q")]) == [CirquentMove(2, ("",), "q")]
    assert focus.used == {"0"} and twin.layers[1].used == frozenset()
    # the machine's move in the '?' dodges only the addresses its own play recorded
    answer = [CirquentMove(2, ("",), "r")]
    assert original.advance(answer) == [CirquentMove(1, ("",), "0.r")]
    assert twin.advance(answer) == [CirquentMove(1, ("",), ".r")]
    assert focus.used == {"0"} and twin.layers[1].used == {""}


def _rounds(t, env, arena, budget=64):
    """`play`'s rounds, one per `next`; the run is the generator's value."""
    run = []
    while True:
        env_moves = env.next_moves(arena, tuple(run)) if len(run) < budget else []
        run += [Labmove(BOT, m) for m in env_moves[:budget - len(run)]]
        block = t.step(tuple(run))
        over = len(run) + len(block) > budget
        run += [Labmove(TOP, m) for m in block[:budget - len(run)]]
        if over or not (env_moves or block):
            return tuple(run)
        yield


def test_fresh_strategies_share_every_layer_but_corec_focus_and_play_apart():
    """Two fresh strategies of `brec_elim` share the core and every layer
    but the `_CorecFocus` ones; played a round at a time each, turn about,
    on different seeds, each plays the run it plays alone."""
    compiled = compile_proof(load("brec_elim"))
    game = of_formula(compiled.formula, {a: STANDARD["relay"] for a in atoms_of(compiled.formula)})
    arena = FormulaArena(game)
    a, b = compiled.fresh(), compiled.fresh()
    assert a.core is b.core and len(a.layers) == len(b.layers)
    assert any(type(layer) is _CorecFocus for layer in a.layers)
    for x, y in zip(a.layers, b.layers):
        assert (x is y) is (type(x) is not _CorecFocus), x
    for seeds in [(0, 1), (2, 3), (4, 5), (6, 7)]:
        alone = [play(compiled.fresh(), RandomEnv(s), arena).run for s in seeds]
        assert alone[0] != alone[1]
        plays = [_rounds(compiled.fresh(), RandomEnv(s), arena) for s in seeds]
        runs = [None, None]
        while None in runs:
            for i, g in enumerate(plays):
                if runs[i] is None:
                    try:
                        next(g)
                    except StopIteration as done:
                        runs[i] = done.value
        assert runs == alone, seeds
