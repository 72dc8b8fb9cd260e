import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from cirquent import harness
from cirquent import rules as R
from cirquent.formulas import And, Brec, Cobrec, Or, atoms_of, parse_formula
from cirquent.games import BOT, TOP, Labmove, Tree, is_static, of_formula, parse_game
from cirquent.harness import (
    JUNK_MOVE,
    CapExceeded,
    FormulaArena,
    CirquentArena,
    EnvPolicy,
    RandomEnv,
    ScriptedEnv,
    SpoilerEnv,
    exhaustive_env_check,
    play,
    run_corpus,
)
from cirquent.strategies import (
    AxiomCopycat,
    Transducer,
    cirquent_strategy_factories,
    compile_proof,
)
from referee_oracle import replay_env_check, winnability
from test_acceptance import CASES, STANDARD, compiled_for, load_proof
from test_games import shallow_trees

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
RELAY = parse_game('node winner=T { B"q" -> node winner=B { T"a" -> node winner=T {} } }')
PITFALL = parse_game("node winner=B {}")
INTERP = {"F": RELAY, "P": PITFALL}


def arena_for(text: str) -> FormulaArena:
    return FormulaArena(of_formula(parse_formula(text), INTERP))


class Silent(Transducer):
    def step(self, observed):
        return []


class Answerer(Transducer):
    """Answers q with a in the bare relay game."""

    def __init__(self):
        self._seen = 0

    def step(self, observed):
        out = []
        for lm in observed[self._seen:]:
            if lm.label is BOT and lm.move == "q":
                out.append("a")
        self._seen = len(observed) + len(out)
        return out


class Spammer(Transducer):
    """Plays `width` moves on every step."""

    def __init__(self, width=10):
        self.width = width

    def step(self, observed):
        return ["q"] * self.width


def test_play_scripted():
    result = play(Answerer(), ScriptedEnv(["q"]), FormulaArena(Tree(RELAY)))
    assert result.won
    assert result.run == (Labmove(BOT, "q"), Labmove(TOP, "a"))


def test_play_scripted_pass_keeps_the_game_open():
    result = play(Answerer(), ScriptedEnv([None, "q"]), FormulaArena(Tree(RELAY)))
    assert result.won


def test_play_budget_truncation_is_inconclusive():
    result = play(Spammer(), ScriptedEnv([]), FormulaArena(Tree(RELAY)), budget=8)
    assert result.inconclusive
    assert not result.won
    assert len(result.run) == 8


class CountingEnv(EnvPolicy):
    """Plays `width` moves on every turn and counts the turns."""

    def __init__(self, width):
        self.width, self.asked = width, 0

    def next_moves(self, arena, run):
        self.asked += 1
        return ["q"] * self.width


@pytest.mark.parametrize("budget", range(6))
@pytest.mark.parametrize("env_width, machine_width", [(1, 1), (1, 3), (3, 1)])
def test_play_asks_the_environment_at_most_budget_plus_one_times(budget, env_width,
                                                                 machine_width):
    env = CountingEnv(env_width)
    result = play(Spammer(machine_width), env, FormulaArena(Tree(RELAY)), budget=budget)
    assert result.inconclusive
    assert len(result.run) == budget
    assert env.asked <= budget + 1


def test_frontier_is_legal_and_sorted():
    arena = arena_for("F | F")
    assert arena.frontier((), BOT, 2) == ["0.q", "1.q"]
    assert arena.frontier((), TOP, 2) == []
    run = (Labmove(BOT, "0.q"),)
    assert arena.frontier(run, TOP, 2) == ["0.a"]


def test_random_env_is_seed_deterministic():
    arena = arena_for("!F")

    def rollout(seed: int):
        env = RandomEnv(seed=seed, max_moves=4)
        moves = []
        run = ()
        for _ in range(6):
            block = env.next_moves(arena, run)
            moves.extend(block)
            run = run + tuple(Labmove(BOT, m) for m in block)
        return moves

    assert rollout(3) == rollout(3)
    trails = {tuple(rollout(s)) for s in range(12)}
    assert len(trails) > 1
    assert JUNK_MOVE in rollout(3)


def test_spoiler_punishes_silence():
    result = play(Silent(), SpoilerEnv(), FormulaArena(Tree(RELAY)))
    assert result.winner is BOT
    assert result.run == (Labmove(BOT, "q"),)


def test_spoiler_cannot_beat_an_answerer():
    result = play(Answerer(), SpoilerEnv(), FormulaArena(Tree(RELAY)))
    assert result.won


def test_exhaustive_check_finds_the_losing_line():
    ok, witness = exhaustive_env_check(Silent, FormulaArena(Tree(RELAY)))
    assert not ok
    assert witness == (Labmove(BOT, "q"),)
    ok, witness = exhaustive_env_check(Answerer, FormulaArena(Tree(RELAY)))
    assert ok and witness is None


def copycat_arena(game_name: str) -> CirquentArena:
    """Criterion 8's arena: the axiom cirquent of F under a library game."""
    return CirquentArena(R.axiom_conclusion((parse_formula("F"),)),
                         {"F": STANDARD[game_name]})


SWEEPS = {
    **{f"{pairing} copycat on {game} at depth {depth}":
       (partial(AxiomCopycat, 1, pairing), partial(copycat_arena, game), depth)
       for pairing in ("swapped", "standard")
       for game in ("choice", "ladder", "relay")
       for depth in (2, 3)},
    **{f"{t.__name__} at depth {depth}": (t, lambda: FormulaArena(Tree(RELAY)), depth)
       for t in (Silent, Answerer) for depth in (2, 3)},
}


@pytest.mark.parametrize("factory, arena, depth", SWEEPS.values(), ids=list(SWEEPS))
def test_exhaustive_check_matches_the_replay_oracle(factory, arena, depth):
    assert (exhaustive_env_check(factory, arena(), env_depth=depth)
            == replay_env_check(factory, arena(), env_depth=depth))


def test_exhaustive_check_builds_one_strategy():
    built = []

    def factory():
        built.append(AxiomCopycat(1))
        return built[-1]

    ok, witness = exhaustive_env_check(factory, copycat_arena("choice"), env_depth=3)
    assert ok, witness
    assert len(built) == 1


def test_exhaustive_check_rejects_a_babbling_machine():
    with pytest.raises(CapExceeded, match="to 20 labmoves, over the budget of 16$"):
        exhaustive_env_check(Spammer, FormulaArena(Tree(RELAY)), budget=16)


def test_exhaustive_check_rejects_a_machine_that_never_goes_quiet():
    steps = harness.QUIESCE_STEPS
    with pytest.raises(CapExceeded, match=f"would not quiesce within {steps} steps$"):
        exhaustive_env_check(partial(Spammer, 1), FormulaArena(Tree(RELAY)), budget=64)


def test_winnability_frozen():
    assert winnability(arena_for("F"), max_moves=4)
    assert winnability(arena_for("F | ~F"), max_moves=4)
    assert not winnability(arena_for("F & ~F"), max_moves=4)
    assert not winnability(arena_for("P"), max_moves=4)
    assert winnability(arena_for("~P"), max_moves=4)
    assert not winnability(arena_for("P | P"), max_moves=4)
    assert winnability(arena_for("P -> P"), max_moves=4)


def test_winnability_through_replication():
    assert winnability(arena_for("!F"), max_moves=4, limit=1)
    assert not winnability(arena_for("?P"), max_moves=4, limit=1)


def test_cirquent_arena_calls_an_index_too_long_for_int_illegal():
    arena = CirquentArena(R.axiom_conclusion((parse_formula("F"),)), INTERP)
    run = (Labmove(BOT, "1" * 5000 + ";.q"),)
    assert arena.offender(run) is BOT
    assert arena.winner(run) is TOP


def test_cirquent_arena_plays_step_strategies():
    proof = R.parse_proof((CORPUS / "brec_split" / "proof.cl15").read_text())
    pairs = cirquent_strategy_factories(proof)
    for c, factory in pairs[:3]:
        arena = CirquentArena(c, INTERP)
        for seed in range(5):
            result = play(factory(), RandomEnv(seed=seed, max_moves=3), arena)
            assert result.won, (c, seed, result.run)


def test_run_corpus_all_pass():
    reports = run_corpus(CORPUS)
    assert len(reports) == 7
    for r in reports:
        assert r.ok, r.line()
        assert r.wins > 0 and r.losses == 0 and r.inconclusive == 0
        assert "PASS" in r.line()


def test_run_case_passes_a_zero_budget_on(monkeypatch):
    budgets = []
    real_play = harness.play

    def spy(t, env, arena, budget=64):
        budgets.append(budget)
        return real_play(t, env, arena, budget)

    monkeypatch.setattr(harness, "play", spy)
    harness.run_case(CORPUS / "brec_elim", budget=0)
    assert budgets and set(budgets) == {0}
    budgets.clear()
    harness.run_case(CORPUS / "brec_elim")
    assert budgets and set(budgets) == {64}


def test_compiled_strategy_survives_junk_probes():
    proof = R.parse_proof((CORPUS / "brec_elim" / "proof.cl15").read_text())
    compiled = compile_proof(proof)
    arena = arena_for("?~F | F")
    result = play(compiled.fresh(), ScriptedEnv([JUNK_MOVE] * 3), arena)
    assert result.won  # junk makes the environment the first offender
    assert result.offender is BOT


def test_the_plays_digest_of_playhash_is_pinned():
    """`scripts/playhash.py`'s 2,125 plays: the rollout pairs against
    RandomEnv and SpoilerEnv, and the grid steps against RandomEnv; and the
    14,909 runs its 35 depth-2 sweeps judge.  A change to the referee, the
    environments or the strategies that plays any of them differently
    changes a digest.  Its frontier digest is not pinned: a change may ask
    for fewer frontiers and play alike."""
    out = subprocess.run([sys.executable, str(CORPUS.parent / "scripts" / "playhash.py")],
                         capture_output=True, text=True, check=True).stdout
    plays, _frontiers, sweeps = out.splitlines()
    assert plays == "2125 plays 01d5d4ceaba9b216bf39cb06178e7345c7347eb4a4c49e79e7c24e24b1020b33"
    assert sweeps == (
        "14909 sweep runs b2a8a752a2edcf2115a4040dc51415a3bc8ffe6c8d7b9ad022c450df00719ccc")


# ------------------------------------------- random static interpretations

# the paper's guarantee: a compiled strategy wins whatever static games the
# atoms are, each atom its own
static_trees = shallow_trees.filter(lambda node: is_static(Tree(node)))
COMPILED = {name: compiled_for(name) for name in CASES}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_corpus_strategies_win_under_random_static_interpretations(data):
    for name, compiled in COMPILED.items():
        interp = {a: data.draw(static_trees, label=a) for a in sorted(atoms_of(compiled.formula))}
        arena = FormulaArena(of_formula(compiled.formula, interp))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        res = play(compiled.fresh(), RandomEnv(seed=seed), arena, budget=64)
        assert res.won and not res.inconclusive, (name, res.run)


def test_the_swapped_copycat_loses_under_a_drawn_static_tree():
    """The negative control of criterion 8 under the same generator: a
    generator too weak to catch the swapped copycat could not catch a
    broken strategy either."""
    axiom = R.axiom_conclusion((parse_formula("F"),))

    def sweep(pairing, node):
        arena = CirquentArena(axiom, {"F": node})
        return exhaustive_env_check(lambda: AxiomCopycat(1, pairing=pairing), arena,
                                    env_depth=1, limit=2)

    node = find(static_trees, lambda node: not sweep("swapped", node)[0],
                settings=settings(database=None))
    assert sweep("standard", node)[0]


GRID = {name: cirquent_strategy_factories(load_proof(name)) for name in CASES}


def grid_play(factory, c, interp, seed, budget=48):
    """One play of criterion 7's grid: `RandomEnv(seed, max_moves=4)` on the
    arena of the cirquent `c`."""
    return play(factory(), RandomEnv(seed, max_moves=4), CirquentArena(c, interp), budget)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_grid_strategies_win_under_random_static_interpretations(data):
    """Criterion 7's grid, each of the 69 per-step strategies on its own
    step's cirquent, under one drawn tree per atom of its case.  A play
    that fills criterion 7's budget of 48 labmoves must be won under a
    larger one: the strategies send a move into one copy per fusion of
    the copy addresses, and on `brec_nest` steps 4-7 such a fan-out can
    outgrow 48 labmoves (see the test after this one)."""
    assert sum(map(len, GRID.values())) == 69
    for name, pairs in GRID.items():
        interp = {a: data.draw(static_trees, label=a)
                  for a in sorted(atoms_of(COMPILED[name].formula))}
        for k, (c, factory) in enumerate(pairs, start=1):
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            res = grid_play(factory, c, interp, seed)
            if res.inconclusive:
                res = grid_play(factory, c, interp, seed, budget=512)
            assert res.won and not res.inconclusive, (name, k, res.run)


@pytest.mark.xfail(strict=True, reason="fusion fan-out: the strategy answers one environment "
                   "move with a move in every copy of a fused address")
def test_a_grid_play_under_a_two_node_tree_ends_within_the_grid_budget():
    """A minimised draw of the property above: on `brec_nest` step 4 (an
    overgroup duplication over a corecurrence), with F the two-node static
    tree, the play of seed 272074 is won only after 116 labmoves."""
    c, factory = GRID["brec_nest"][3]
    res = grid_play(factory, c, {"F": parse_game('node winner=T { B"a" -> node winner=T {} }')},
                    272074)
    assert res.won and not res.inconclusive


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_corpus_strategies_pass_a_depth_1_sweep_under_random_static_interpretations(data):
    for name, compiled in COMPILED.items():
        interp = {a: data.draw(static_trees, label=a) for a in sorted(atoms_of(compiled.formula))}
        arena = FormulaArena(of_formula(compiled.formula, interp))
        ok, witness = exhaustive_env_check(compiled.fresh, arena, env_depth=1, limit=2,
                                           budget=64)
        assert ok, (name, witness)


def leaf_addresses(f) -> list[str]:
    """The move prefix of each literal of `f`'s game, each recurrence entered
    at the copy addresses `0` and `1`."""
    if isinstance(f, (And, Or)):
        return [f"{i}.{a}" for i, sub in enumerate((f.left, f.right)) for a in leaf_addresses(sub)]
    if isinstance(f, (Brec, Cobrec)):
        return [f"{w}.{a}" for w in "01" for a in leaf_addresses(f.body)]
    return [""]


# per case, the environment's moves `a` then `b` at each literal of its game
SCRIPTS = {name: [a + m for a in leaf_addresses(compiled.formula) for m in "ab"]
           for name, compiled in COMPILED.items()}


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_corpus_strategies_answer_a_script_alike_under_two_static_interpretations(data):
    """A compiled strategy never looks at the atoms' games: compiled once per
    drawn per-atom interpretation, each corpus strategy has the same bundle
    bytes and answers one move script with the same moves."""
    for name in CASES:
        seen = []
        for copy in ("first", "second"):
            compiled = compile_proof(load_proof(name))
            interp = {a: data.draw(static_trees, label=f"{copy} {a}")
                      for a in sorted(atoms_of(compiled.formula))}
            arena = FormulaArena(of_formula(compiled.formula, interp))
            res = play(compiled.fresh(), ScriptedEnv(SCRIPTS[name]), arena)
            seen.append((compiled.bundle.encode(), res.run))
        assert seen[0] == seen[1], name
        assert any(lm.label is TOP for lm in seen[0][1]), name
