"""Differential tests: the position referee against the whole-run referee it
replaced.

`referee_oracle` holds the frozen whole-run walkers of the game referee.
The cirquent oracles below judge every run whole, on top of them, never
extending a run already known to be legal; they are the slow reference the
positions and the arenas must agree with.
"""

import random
from functools import cache, partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referee_oracle as ro
from cirquent import cirquents as cq
from cirquent import games as gm
from cirquent import harness
from cirquent.games import BOT, TOP, Labmove
from cirquent.harness import CirquentArena, FormulaArena, RandomEnv, SpoilerEnv, play
from cirquent.strategies import cirquent_strategy_factories
from test_acceptance import (
    CASES,
    STANDARD,
    _game_candidates,
    _random_game,
    _random_run,
    compiled_for,
    load_proof,
    uniform_interp,
)
from test_cirquents import valid_cirquents

# criterion 7's interpretation
GRID_INTERP = {
    "E": STANDARD["relay"], "F": STANDARD["ladder"],
    "G": STANDARD["choice"], "H": STANDARD["relay"],
}
JUNK = ["zz", "0.zz", ".q", "1.", "x.q", ""]


# ------------------------------------------------------------ formula games


def oracle_first_offender(g, run):
    for i in range(len(run)):
        if not ro.legal(g, run[: i + 1]):
            return run[i].label
    return None


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_legal_extension_matches_whole_run_legality(seed):
    """`advance` judges one more move as the whole-run walker judges the
    extended run, and the positions it builds score runs as it does."""
    rng = random.Random(seed)
    g = _random_game(rng, rng.randrange(1, 4))
    run = _random_run(rng, g)
    pos = gm.start(g)
    for i in range(len(run) + 1):
        prefix = run[:i]
        if not ro.legal(g, prefix):
            break
        assert pos.winner() is ro.winner(g, prefix), (g, prefix)
        for player in (TOP, BOT):
            for m in sorted(_game_candidates(g, prefix, player, limit=2)) + JUNK:
                lm = Labmove(player, m)
                assert (pos.advance(lm) is not None) == ro.legal(g, prefix + (lm,)), (
                    g, prefix, lm)
        if i < len(run):
            pos = pos.advance(run[i])


def oracle_legal_moves(g, run, player, limit):
    """The candidate filter that judges `run + (lm,)` whole for each move."""
    return sorted(
        m for m in _game_candidates(g, run, player, limit)
        if ro.legal(g, run + (Labmove(player, m),))
    )


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_formula_frontier_matches_candidate_filter(seed):
    rng = random.Random(seed)
    g = _random_game(rng, rng.randrange(1, 4))
    arena = FormulaArena(g)
    run = _random_run(rng, g)
    for i in range(len(run) + 1):
        prefix = run[:i]
        legal = ro.legal(g, prefix)
        for player, limit in product((TOP, BOT), (1, 2)):
            got = arena.frontier(prefix, player, limit)
            if not legal:
                assert got == [], (g, prefix, player, limit)
                continue
            want = oracle_legal_moves(g, prefix, player, limit)
            assert sorted(ro.legal_moves(g, prefix, player, limit)) == want, (
                g, prefix, player, limit)
            assert got == want, (g, prefix, player, limit)


def test_first_offender_matches_prefix_scan():
    rng = random.Random(20261018)
    for _ in range(3000):
        g = _random_game(rng, rng.randrange(1, 4))
        run = _random_run(rng, g)
        assert gm.first_offender(g, run) == oracle_first_offender(g, run), (g, run)
        assert gm.legal(g, run) == ro.legal(g, run), (g, run)
        assert gm.winner(g, run) is ro.winner(g, run), (g, run)


# ---------------------------------------------------------------- cirquents


def oracle_cirquent_legal(c, interp, run, cap=100_000):
    """Every member on every class vector of every overgroup's addresses."""
    n = len(c.overgroups)
    parsed = [cq.parse_move(n, lm.move) for lm in run]
    if any(mv is None or not cq.respects_membership(c, mv) for mv in parsed):
        return False
    used = [{mv.slots[j] for mv in parsed} for j in range(n)]
    vectors = list(product(*(gm.thread_classes(u) for u in used)))
    assert len(vectors) <= cap
    games = [gm.of_formula(f, interp) for f in c.oformulas]
    return all(
        ro.legal(games[a - 1], cq.project_member(c, run, a, vec))
        for a in range(1, c.width + 1)
        for vec in vectors
    )


def oracle_candidates(c, interp, run, player, limit=1):
    games = [gm.of_formula(f, interp) for f in c.oformulas]
    cands = set()
    for a in range(1, c.width + 1):
        options = [gm.addresses(limit) if a in group else [""] for group in c.overgroups]
        for slots in product(*options):
            proj = cq.project_member(c, run, a, slots)
            for m in _game_candidates(games[a - 1], proj, player, limit):
                cands.add(cq.format_move(cq.CirquentMove(a, slots, m)))
    return sorted(cands)


def oracle_frontier(c, interp, run, player, limit=1):
    """The candidate filter that judges `run + (lm,)` whole for each move."""
    return [
        m for m in oracle_candidates(c, interp, run, player, limit)
        if oracle_cirquent_legal(c, interp, run + (Labmove(player, m),))
    ]


def oracle_cirquent_offender(c, interp, run):
    for i in range(len(run)):
        if not oracle_cirquent_legal(c, interp, run[: i + 1]):
            return run[i].label
    return None


def oracle_cirquent_winner(c, interp, run):
    off = oracle_cirquent_offender(c, interp, run)
    if off is not None:
        return off.other
    n = len(c.overgroups)
    parsed = [cq.parse_move(n, lm.move) for lm in run]
    used = [{mv.slots[j] for mv in parsed} for j in range(n)]
    games = [gm.of_formula(f, interp) for f in c.oformulas]
    for group in c.undergroups:
        for vec in product(*(gm.thread_classes(u) for u in used)):
            if not any(
                ro.winner(games[a - 1], cq.project_member(c, run, a, vec)) is TOP
                for a in group
            ):
                return BOT
    return TOP


@cache
def _grid_plays(seeds=2):
    """(step, cirquent, run) for criterion 7's plays on every proof step of
    the corpus."""
    out = []
    for name in CASES:
        pairs = cirquent_strategy_factories(load_proof(name))
        for k, (c, factory) in enumerate(pairs, start=1):
            arena = CirquentArena(c, GRID_INTERP)
            for seed in range(seeds):
                env = RandomEnv(seed=seed, max_moves=4)
                out.append(((name, k), c, play(factory(), env, arena, budget=48).run))
    return out


def test_cirquent_frontier_matches_whole_run_filter():
    steps, checked = set(), 0
    for step, c, run in _grid_plays():
        steps.add(step)
        arena = CirquentArena(c, GRID_INTERP)
        for i in range(len(run) + 1):
            prefix = run[:i]
            legal = oracle_cirquent_legal(c, GRID_INTERP, prefix)
            assert cq.legal(c, GRID_INTERP, prefix) == legal, (c, prefix)
            for player in (TOP, BOT):
                want = oracle_frontier(c, GRID_INTERP, prefix, player)
                assert arena.frontier(prefix, player, 1) == want, (c, prefix, player)
                checked += bool(want)
    assert len(steps) == 69
    assert checked > 1000


def test_cirquent_offender_and_winner_match_whole_run_oracles():
    rng = random.Random(7)
    for _, c, run in _grid_plays():
        arena = CirquentArena(c, GRID_INTERP)
        runs = [run]
        if run:
            # the same run with one move handed to the other player
            i = rng.randrange(len(run))
            runs.append(run[:i] + (Labmove(run[i].label.other, run[i].move),) + run[i + 1:])
        for r in runs:
            for i in range(len(r) + 1):
                prefix = r[:i]
                assert arena.offender(prefix) == oracle_cirquent_offender(
                    c, GRID_INTERP, prefix), (c, prefix)
                assert arena.winner(prefix) == oracle_cirquent_winner(
                    c, GRID_INTERP, prefix), (c, prefix)
                assert cq.winner(c, GRID_INTERP, prefix) is arena.winner(prefix), (c, prefix)


@st.composite
def scored_plays(draw):
    """A cirquent with at least two undergroups, a standard game for each
    atom, and a run of up to 4 moves, each from its player's 1-bit frontier
    (shorter only when that frontier is empty)."""
    c = draw(valid_cirquents().filter(lambda c: len(c.undergroups) >= 2))
    interp = {a: STANDARD[draw(st.sampled_from(sorted(STANDARD)))] for a in "EFG"}
    arena = CirquentArena(c, interp)
    run = ()
    for _ in range(4):
        player = draw(st.sampled_from((TOP, BOT)))
        moves = arena.frontier(run, player, 1)
        if not moves:
            break
        run += (Labmove(player, draw(st.sampled_from(moves))),)
    return c, interp, run


@settings(max_examples=500, deadline=None)
@given(scored_plays())
def test_each_undergroup_scored_over_its_own_overgroups_matches_the_oracle(drawn):
    """The oracle scores every undergroup over all the overgroups."""
    c, interp, run = drawn
    arena = CirquentArena(c, interp)
    for i in range(len(run) + 1):
        assert arena.winner(run[:i]) is oracle_cirquent_winner(c, interp, run[:i]), (
            c, run[:i])


# ------------------------------------------------------------ arena cache


def _queries(runs, rng):
    """Every (prefix, question) over `runs`, shuffled: the order no play
    would ask them in, so the arena's path is cut and regrown everywhere."""
    out = [(r[:i], q) for r in runs for i in range(len(r) + 1)
           for q in ("offender", "winner", "frontier1", "frontier2")]
    rng.shuffle(out)
    return out


def _ask(arena, run, question):
    if question == "offender":
        return arena.offender(run)
    if question == "winner":
        return arena.winner(run)
    player = BOT if len(run) % 2 else TOP
    return arena.frontier(run, player, int(question[-1]))


def _same_answers(make_arena, runs, rng):
    kept = make_arena()
    for run, question in _queries(runs, rng):
        assert _ask(kept, run, question) == _ask(make_arena(), run, question), (
            run, question)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_arena_path_answers_as_a_fresh_arena_on_formula_games(seed):
    rng = random.Random(seed)
    g = _random_game(rng, rng.randrange(1, 4))
    runs = [_random_run(rng, g) for _ in range(4)]
    # two runs that share a prefix and then part
    runs.append(runs[0][:2] + runs[1][2:])
    _same_answers(lambda: FormulaArena(g), runs, rng)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_arena_path_answers_as_a_fresh_arena_on_the_grid(seed):
    rng = random.Random(seed)
    plays = _grid_plays()
    step, c, _ = rng.choice(plays)
    runs = [r for s, _, r in plays if s == step]
    runs.append(rng.choice(plays)[2])  # mostly some other cirquent's: illegal here
    if runs[0]:
        i = rng.randrange(len(runs[0]))
        runs.append(runs[0][:i] + (Labmove(runs[0][i].label.other, runs[0][i].move),))
    _same_answers(lambda: CirquentArena(c, GRID_INTERP), runs, rng)


# ------------------------------------------------------------- position memo


def _interleaved(a, b):
    """The prefixes of two runs, alternately: each query leaves the path of
    the other run, so a shared arena answers it after a cut."""
    out = []
    for i in range(max(len(a), len(b)) + 1):
        out += [r[:i] for r in (a, b) if i <= len(r)]
    return out


def _memo_answers_as_fresh_and_oracle(make_arena, runs, frontier, winner):
    """On one arena shared by both runs, each prefix's frontiers for both
    players at limits 1 and 2, and its winner, equal those of a fresh arena
    and of the oracles `frontier(run, player, limit)` and `winner(run)`."""
    shared = make_arena()
    for run in _interleaved(*runs):
        legal = shared.offender(run) is None
        for player, limit in product((TOP, BOT), (1, 2)):
            got = shared.frontier(run, player, limit)
            assert got == make_arena().frontier(run, player, limit), (run, player, limit)
            assert got == (frontier(run, player, limit) if legal else []), (
                run, player, limit)
        assert shared.winner(run) is make_arena().winner(run) is winner(run), run


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memo_answers_as_a_fresh_arena_and_the_oracle_on_formula_games(seed):
    rng = random.Random(seed)
    g = _random_game(rng, rng.randrange(1, 4))
    runs = (_random_run(rng, g), _random_run(rng, g))
    _memo_answers_as_fresh_and_oracle(
        lambda: FormulaArena(g), runs,
        lambda run, player, limit: oracle_legal_moves(g, run, player, limit),
        lambda run: ro.winner(g, run))


@cache
def _grid_oracle_frontier(c, run, player, limit):
    """`oracle_frontier` under the grid interpretation, each prefix judged
    once however many examples ask for it."""
    return oracle_frontier(c, GRID_INTERP, run, player, limit)


@cache
def _memo_triples():
    """20 (cirquent, run, other run of its step) triples of the grid plays,
    drawn once with a fixed seed, so that every run of the suite asks the
    oracle the same questions."""
    rng = random.Random(0)
    plays = _grid_plays()
    out = []
    for _ in range(20):
        step, c, run = rng.choice(plays)
        out.append((c, run, rng.choice([r for s, _, r in plays if s == step])))
    return out


@pytest.mark.parametrize("k", range(20))
def test_memo_answers_as_a_fresh_arena_and_the_oracle_on_the_grid(k):
    c, run, other = _memo_triples()[k]
    _memo_answers_as_fresh_and_oracle(
        lambda: CirquentArena(c, GRID_INTERP), (run, other),
        lambda run, player, limit: _grid_oracle_frontier(c, run, player, limit),
        lambda run: oracle_cirquent_winner(c, GRID_INTERP, run))


def _counting(monkeypatch, cls, name):
    """Count the calls of `cls.name` from now on."""
    calls = []
    inner = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: gm.start(gm.Rep(gm.Conj(gm.Tree(STANDARD["relay"]), gm.Tree(STANDARD["ladder"])))),
    lambda: cq.start(cq.parse_cirquent(
        'cirquent { oformulas: ["E", "!F"]; under: [[1, 2]]; over: [[1, 2], [2]] }'),
        GRID_INTERP),
], ids=["recurrence", "cirquent"])
def test_a_position_computes_its_frontier_and_score_once(monkeypatch, make):
    pos = make()
    moves = _counting(monkeypatch, type(pos), "_moves")
    wins = _counting(monkeypatch, type(pos), "_winner")
    first = pos.moves(BOT, 2)
    assert type(first) is frozenset and first
    assert pos.moves(BOT, 2) is first
    assert pos.moves(BOT, 1) <= first and pos.moves(TOP, 2) == pos.moves(TOP, 2)
    assert moves == [(BOT, 2), (BOT, 1), (TOP, 2)]
    assert pos.winner() is pos.winner()
    assert len(wins) == 1
    # a child keeps its parent's memo apart
    child = pos.advance(Labmove(BOT, sorted(first)[0]))
    assert child.moves(BOT, 2) is not first
    assert moves[-1] == (BOT, 2)


def test_an_arena_answers_the_opening_frontier_of_every_play_from_one_computation(monkeypatch):
    c, run = next((c, run) for _, c, run in _grid_plays() if len(c.oformulas) > 1 and run)
    arena = CirquentArena(c, GRID_INTERP)
    moves = _counting(monkeypatch, cq.Position, "_moves")
    opening = arena.frontier((), BOT, 2)
    arena.frontier(run, BOT, 2)
    asked = len(moves)
    assert arena.frontier((), BOT, 2) == opening
    assert len(moves) == asked


# ---------------------------------------------------------- copy frontier


def _tables_in(pos, out):
    """Every `games.Copies` table in `pos`, itself included, and in its
    parts and members, into `out`, keyed by identity."""
    if isinstance(pos, gm.Copies):
        if id(pos) in out:
            return
        out[id(pos)] = pos
        for positions in pos.members:
            for sub in positions.values():
                _tables_in(sub, out)
    elif isinstance(pos, gm._Parallel):
        for sub in pos.parts:
            _tables_in(sub, out)


def _open(moves, pos, player, limit):
    """The triples `moves(pos, player, limit)` yields, or its CapExceeded
    message."""
    try:
        return list(moves(pos, player, limit))
    except gm.CapExceeded as e:
        return str(e)


def _same_open_moves(pos):
    """The grouped frontier yields each (member, slots) once and the same
    triples as the per-slot-tuple one, for both players at limits 1 and 2;
    returns how many triples it yielded."""
    total = 0
    for player, limit in product((TOP, BOT), (1, 2)):
        got = _open(gm.Copies.open_moves, pos, player, limit)
        want = _open(ro.open_moves, pos, player, limit)
        if isinstance(want, str):
            assert got == want, (pos, player, limit)
            continue
        assert len({(a, slots) for a, slots, _ in got}) == len(got), (pos, player, limit)
        assert set(got) == set(want), (pos, player, limit)
        total += len(got)
    return total


@cache
def _reached_tables():
    """Every copy table the 345 plays of the benchmark's grid (every proof
    step, RandomEnv seeds 0-4) and one rollout pass (every corpus case
    under every standard game, RandomEnv seeds 0-19 and a SpoilerEnv)
    judge, with the tables nested in them."""
    judged = {}  # every position on an arena's path, by identity
    judge = harness.Arena._judge

    def recording(self, run):
        found = judge(self, run)
        judged.update((id(pos), pos) for pos in self._path)
        return found

    harness.Arena._judge = recording
    try:
        for name in CASES:
            for c, factory in cirquent_strategy_factories(load_proof(name)):
                arena = CirquentArena(c, GRID_INTERP)
                for seed in range(5):
                    play(factory(), RandomEnv(seed, max_moves=4), arena, budget=48)
            compiled = compiled_for(name)
            for game in sorted(STANDARD):
                arena = FormulaArena(gm.of_formula(
                    compiled.formula, uniform_interp(compiled.formula, STANDARD[game])))
                for env in [RandomEnv(seed) for seed in range(20)] + [SpoilerEnv(depth=2)]:
                    play(compiled.fresh(), env, arena, budget=64)
    finally:
        harness.Arena._judge = judge
    tables = {}
    for pos in judged.values():
        _tables_in(pos, tables)
    return list(tables.values())


def test_grouped_frontier_matches_per_slot_tuples_on_the_grid_and_rollouts():
    tables = _reached_tables()
    assert sum(isinstance(t, cq.Position) for t in tables) > 500
    assert len(tables) > 3000
    assert sum(map(_same_open_moves, tables)) > 50_000


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_frontier_matches_per_slot_tuples_on_random_positions(data):
    """Random cirquents played from their 2-bit frontiers, and random
    formula games along random runs."""
    c = data.draw(valid_cirquents())
    interp = {a: STANDARD[data.draw(st.sampled_from(sorted(STANDARD)))] for a in "EFG"}
    pos = cq.start(c, interp)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = _random_game(rng, rng.randrange(1, 4))
    games = [gm.start(g)]
    for lm in _random_run(rng, g):
        nxt = games[-1].advance(lm)
        if nxt is None:
            break
        games.append(nxt)
    tables = {}
    _tables_in(pos, tables)
    for _ in range(4):
        player = data.draw(st.sampled_from((TOP, BOT)))
        moves = sorted(pos.moves(player, 2))
        if not moves:
            break
        pos = pos.advance(Labmove(player, data.draw(st.sampled_from(moves))))
        _tables_in(pos, tables)
    for p in games:
        _tables_in(p, tables)
    for table in tables.values():
        _same_open_moves(table)


def test_a_kept_frontier_answers_as_a_fresh_sort_whatever_its_caller_does():
    """On every prefix of the 345 grid plays (every proof step, RandomEnv
    seeds 0-4), `Arena.frontier` is the sorted frontier of a position built
    apart from the arena, and a caller that changes the list it got leaves
    the arena's next answer as it was."""
    checked = 0
    for _, c, run in _grid_plays(seeds=5):
        arena = CirquentArena(c, GRID_INTERP)
        pos = cq.start(c, GRID_INTERP)
        for i in range(len(run) + 1):
            if i and pos is not None:
                pos = pos.advance(run[i - 1])
            for player, limit in product((TOP, BOT), (1, 2)):
                want = [] if pos is None else sorted(pos.moves(player, limit))
                got = arena.frontier(run[:i], player, limit)
                assert got == want, (c, run[:i], player, limit)
                got.reverse()
                got.append("zz")
                assert arena.frontier(run[:i], player, limit) == want, (c, run[:i])
                checked += bool(want)
    assert checked > 3000


# ------------------------------------------------------------- spoiler


class _AskBoth:
    """Plays `SpoilerEnv(depth)` after checking, on every turn, that the
    oracle's arg-min spoiler, on an arena of its own, answers alike."""

    def __init__(self, depth, oracle_arena):
        self.fast, self.slow = SpoilerEnv(depth), ro.ArgMinSpoilerEnv(depth)
        self.oracle_arena, self.moves = oracle_arena, 0

    def next_moves(self, arena, run):
        got = self.fast.next_moves(arena, run)
        assert got == self.slow.next_moves(self.oracle_arena, run), run
        self.moves += len(got)
        return got


def _spoiler_plays_as_the_oracle(factory, make_arena, depth, budget) -> int:
    """Checks that the spoiler and the oracle's answer alike on every turn
    of a play, and that the whole plays are equal; the spoiler's moves."""
    env = _AskBoth(depth, make_arena())
    got = play(factory(), env, make_arena(), budget)
    assert got == play(factory(), ro.ArgMinSpoilerEnv(depth), make_arena(), budget)
    return env.moves


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_spoiler_plays_as_the_arg_min_oracle_on_the_corpus(depth):
    moves = 0
    for name in CASES:
        compiled = compiled_for(name)
        for game in sorted(STANDARD):
            g = gm.of_formula(compiled.formula,
                              uniform_interp(compiled.formula, STANDARD[game]))
            moves += _spoiler_plays_as_the_oracle(
                compiled.fresh, partial(FormulaArena, g), depth, 64)
    assert moves > 50


def test_spoiler_plays_as_the_arg_min_oracle_on_the_grid():
    moves = 0
    for name in CASES:
        for c, factory in cirquent_strategy_factories(load_proof(name)):
            moves += _spoiler_plays_as_the_oracle(
                factory, partial(CirquentArena, c, GRID_INTERP), 2, 48)
    assert moves > 100
