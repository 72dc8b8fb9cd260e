"""Playing strategies against environments and measuring who wins.

An arena referees a game (formula-level or cirquent-level) from its start
position: winner, offender, and a finitized frontier of legal moves for a
player, with copy addresses capped at a given length.  Environment policies
draw opponent moves; play() alternates environment and machine blocks until
both go quiet or the labmove budget runs out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import cirquents as cq
from . import formulas as fm
from . import games as gm
from .games import BOT, TOP, CapExceeded, Labmove, Player, Run, _labmove
from .rules import RuleError, parse_proof
from .strategies import CompiledStrategy, Transducer, compile_proof

JUNK_MOVE = "?!junk"
NODE_CAP = 500_000  # positions an exhaustive check visits
CORPUS_SEEDS = 30  # plays against RandomEnv per corpus case
CORPUS_ENV_MOVES = 6  # environment moves in each of them
QUIESCE_STEPS = 16  # machine steps after each environment move in that check
PASS_RATE = 0.2  # how often RandomEnv passes
JUNK_RATE = 0.05  # how often RandomEnv plays JUNK_MOVE


class CorpusError(ValueError):
    """A corpus case file that cannot be read or parsed, an expect.json not
    exactly `{"formula": "<conclusion>"}`, or an atoms.game without a game
    for an atom of its proof; the message starts with the file's path."""


class Arena:
    """A referee over positions (`games.Position` or `cirquents.Position`);
    a subclass only says how to build the start position.

    It keeps the positions after each prefix of the last run it judged.  The
    runs of one play, one spoiler probe or one sweep extend one another, so
    a query cuts that path where its run leaves the last one and judges only
    the moves after the cut.  A position computes its frontier and its score
    once, and sorts the frontier once, so the kept positions, the start
    position above all, carry them from one play to the next.
    """

    _run: Run = ()  # the legal run the path holds the positions of
    _path: list | None = None  # built on the first query

    def start(self):
        """The position of the empty run."""
        raise NotImplementedError

    def _judge(self, run: Run) -> tuple:
        """The position after the longest legal prefix of `run`, and the
        first offender (None when the whole run is legal)."""
        if self._path is None:
            self._path = [self.start()]
        known, path = self._run, self._path
        n = len(known)
        if run[:n] != known:
            n = 0
            while n < len(run) and run[n] == known[n]:
                n += 1
            del path[n + 1:]
        try:
            for lm in run[n:]:
                pos = path[-1].advance(lm)
                if pos is None:
                    return path[-1], lm.label
                path.append(pos)
            return path[-1], None
        finally:  # also when a cap is hit
            self._run = run[:len(path) - 1]

    def winner(self, run: Run) -> Player:
        pos, off = self._judge(run)
        return pos.winner() if off is None else off.other

    def offender(self, run: Run) -> Player | None:
        return self._judge(run)[1]

    def frontier(self, run: Run, player: Player, limit: int) -> list[str]:
        """Sorted legal moves for `player` after `run`, with copy addresses
        of at most `limit` bits; none if the run is illegal.  The position
        keeps the sorted frontier (`sorted_moves`), and each call hands out a
        new list of it, which the caller may change."""
        pos, off = self._judge(run)
        if off is not None:
            return []
        return list(pos.sorted_moves(player, limit))


@dataclass
class FormulaArena(Arena):
    game: gm.Game

    def start(self) -> gm.Position:
        return gm.start(self.game)


@dataclass
class CirquentArena(Arena):
    cirquent: cq.Cirquent
    interp: Mapping[str, gm.GameNode]

    def start(self) -> cq.Position:
        return cq.start(self.cirquent, self.interp)


# ------------------------------------------------------------ environments


class EnvPolicy:
    def next_moves(self, arena, run: Run) -> list[str]:
        raise NotImplementedError


class RandomEnv(EnvPolicy):
    """Seeded random opponent: passes sometimes, occasionally probes with an
    ill-formed move, otherwise samples the 2-bit legal frontier."""

    def __init__(self, seed: int, max_moves: int = 6):
        self.rng = random.Random(seed)
        self.left = max_moves

    def next_moves(self, arena, run: Run) -> list[str]:
        if self.left <= 0:
            return []
        roll = self.rng.random()
        if roll < PASS_RATE:
            return []
        self.left -= 1
        if roll < PASS_RATE + JUNK_RATE:
            return [JUNK_MOVE]
        cands = arena.frontier(run, BOT, 2)
        if not cands:
            return []
        return [self.rng.choice(cands)]


class ScriptedEnv(EnvPolicy):
    """Plays a fixed move list, one per turn; None entries pass a turn."""

    def __init__(self, moves: Sequence[str | None]):
        self.moves = list(moves)
        self.at = 0

    def next_moves(self, arena, run: Run) -> list[str]:
        if self.at >= len(self.moves):
            return []
        m = self.moves[self.at]
        self.at += 1
        return [] if m is None else [m]


class SpoilerEnv(EnvPolicy):
    """Adversarial opponent: for at most 6 moves, bounded lookahead over the
    first 48 moves of its 1-bit frontier, toward positions the machine loses.

    A candidate's probe reads 0 when some line of at most `depth` - 1 more
    environment moves from it, each among the first 48 of its frontier and
    the machine silent, reaches a run the machine does not win, and 1
    otherwise.  The spoiler plays the first
    candidate whose probe reads 0, or the first candidate when none does.
    That is the least `(probe, move)` pair over the candidates: they are
    sorted and distinct and a probe reads 0 or 1, so the least pair is the
    first one with a 0, or else the least move, and no later probe can
    change it, so none is run.
    """

    def __init__(self, depth: int = 2):
        self.depth = depth
        self.left = 6

    def _probe(self, arena, run: Run, d: int) -> int:
        score = 1 if arena.winner(run) is TOP else 0
        if score == 0 or d <= 0:
            return score
        for m in arena.frontier(run, BOT, 1)[:48]:
            score = min(score, self._probe(arena, run + (_labmove((BOT, m)),), d - 1))
            if score == 0:
                break
        return score

    def next_moves(self, arena, run: Run) -> list[str]:
        if self.left <= 0:
            return []
        cands = arena.frontier(run, BOT, 1)[:48]
        if not cands:
            return []
        self.left -= 1
        for m in cands:
            if not self._probe(arena, run + (_labmove((BOT, m)),), self.depth - 1):
                return [m]
        return [cands[0]]


# ------------------------------------------------------------------- play


@dataclass
class PlayResult:
    run: Run
    winner: Player
    offender: Player | None
    inconclusive: bool

    @property
    def won(self) -> bool:
        return self.winner is TOP and not self.inconclusive


def play(t: Transducer, env: EnvPolicy, arena, budget: int = 64) -> PlayResult:
    """Rounds of the environment's moves, then the machine's block, until both
    pass; the play is inconclusive when a block takes the run over `budget`
    labmoves, and the run keeps only the moves up to it."""
    run: list[Labmove] = []
    while True:
        env_moves = env.next_moves(arena, tuple(run)) if len(run) < budget else []
        for m in env_moves[:budget - len(run)]:
            run.append(_labmove((BOT, m)))
        block = t.step(tuple(run))
        inconclusive = len(run) + len(block) > budget
        for m in block[:budget - len(run)]:
            run.append(_labmove((TOP, m)))
        if inconclusive or not (env_moves or block):
            break
    final = tuple(run)
    return PlayResult(final, arena.winner(final), arena.offender(final), inconclusive)


def exhaustive_env_check(
    factory,
    arena,
    env_depth: int = 2,
    limit: int = 2,
    budget: int = 64,
) -> tuple[bool, Run | None]:
    """Play the strategy against every legal environment line (with passes)
    up to env_depth opponent moves, forking it at each environment move;
    returns (all positions won, witness)."""
    nodes = 0

    def poll(t: Transducer, run: Run) -> Run:
        for _ in range(QUIESCE_STEPS):
            block = t.step(run)
            if not block:
                return run
            run = run + tuple(_labmove((TOP, m)) for m in block)
            if len(run) > budget:
                raise CapExceeded(f"machine took the run to {len(run)} labmoves, "
                                  f"over the budget of {budget}")
        raise CapExceeded(f"machine would not quiesce within {QUIESCE_STEPS} steps")

    def rec(t: Transducer, run: Run, depth: int) -> Run | None:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded(f"exhaustive check exceeded {NODE_CAP} nodes")
        run = poll(t, run)
        if arena.winner(run) is not TOP:
            return run
        if depth < env_depth:
            for m in arena.frontier(run, BOT, limit):
                witness = rec(t.fork(), run + (_labmove((BOT, m)),), depth + 1)
                if witness is not None:
                    return witness
        return None

    witness = rec(factory(), (), 0)
    return witness is None, witness


# ------------------------------------------------------------------ corpus


@dataclass
class CaseReport:
    """What `run_case` found: `message` says why a case failed before its
    plays, and the counts tell how they went otherwise."""

    name: str
    ok: bool
    formula: str = ""
    wins: int = 0
    losses: int = 0
    inconclusive: int = 0
    message: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        detail = self.message or (
            f"{self.wins} won, {self.losses} lost, {self.inconclusive} inconclusive"
        )
        return f"{mark} {self.name}: {detail}"


def _read(path: Path, parse):
    """`parse` of the text of the file at `path`; any error names the file."""
    try:
        return parse(path.read_text())
    except OSError as e:
        raise CorpusError(f"{path}: {e.strerror}") from None
    except ValueError as e:  # not UTF-8, or malformed text
        raise CorpusError(f"{path}: {e}") from None


def _recorded(text: str) -> tuple[str, fm.Formula]:
    """The formula of an expect.json, as written and as parsed."""
    expect = json.loads(text)
    if not (isinstance(expect, dict) and set(expect) == {"formula"}
            and isinstance(expect["formula"], str)):
        raise ValueError('expected {"formula": "<conclusion>"} and nothing else')
    return expect["formula"], fm.parse_formula(expect["formula"])


def run_case(case_dir: Path, budget: int = 64) -> CaseReport:
    """The case passes when its proof checks, concludes the formula that
    its expect.json, `{"formula": "<conclusion>"}`, records, and wins all
    CORPUS_SEEDS plays against `RandomEnv(seed, CORPUS_ENV_MOVES)` under
    its atoms.game, each within `budget` labmoves."""
    name = case_dir.name
    recorded, want = _read(case_dir / "expect.json", _recorded)
    proof = _read(case_dir / "proof.cl15", parse_proof)
    try:
        compiled = compile_proof(proof)
    except RuleError as e:
        return CaseReport(name, False, message=str(e))
    shown = fm.format_formula(compiled.formula)
    if compiled.formula != want:
        return CaseReport(name, False, shown, message=(
            f"concludes {shown}, but expect.json records {recorded}"))

    arena = FormulaArena(_read(case_dir / "atoms.game",
                               lambda t: gm.of_formula(compiled.formula, gm.parse_game_library(t))))
    wins = losses = inconclusive = 0
    for seed in range(CORPUS_SEEDS):
        result = play(compiled.fresh(), RandomEnv(seed, CORPUS_ENV_MOVES), arena, budget)
        if result.inconclusive:
            inconclusive += 1
        elif result.winner is TOP:
            wins += 1
        else:
            losses += 1
    return CaseReport(name, losses == 0 and inconclusive == 0, shown,
                      wins, losses, inconclusive)


def run_corpus(root: Path, budget: int = 64) -> list[CaseReport]:
    reports = []
    for case_dir in sorted(p for p in root.iterdir() if (p / "proof.cl15").exists()):
        reports.append(run_case(case_dir, budget))
    return reports
