"""Frozen oracle: the whole-run referee of `cirquent.games` that the
position referee replaced, with only its imports made absolute.

Every function here re-projects the whole run on every query; positions
must give the same answers.  Do not edit.

`winnability` is a bounded game search over an arena that only the tests
use; it moved here from `cirquent.harness`.  `replay_env_check` is the
exhaustive environment sweep as it was before strategies could fork: it
builds a fresh strategy and replays the whole line at every node, the
reference for `harness.exhaustive_env_check`.  `open_moves`, after the
whole-run walkers, is the frontier of a `games.Copies` table as it was
computed before it went by class groups: one intersection per slot tuple,
the reference for `games.Copies.open_moves`.  `ArgMinSpoilerEnv`, after
the sweep, is `harness.SpoilerEnv` as it was before it stopped at its
first losing candidate: it probes every candidate and plays the least
`(probe, move)` pair, the reference for the spoiler's choice.

At the end, `is_delay_of` is the delay relation as a test of two runs, the
reference for `_delays`, which builds the delays directly.  `_delays` and
`_legal_runs` are the walkers of the bounded static check that
`games.is_static` replaced; they and `is_delay_of` moved here from
`cirquent.games`.  `first_breach`, built on `_delays`, is the static check
by brute force over the runs up to a length, the reference for
`games.is_static`.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable

from cirquent.games import (
    BOT,
    FRONTIER_CAP,
    TOP,
    Conj,
    Corep,
    Disj,
    Game,
    GameNode,
    Labmove,
    Neg,
    Player,
    Rep,
    Run,
    Tree,
    addresses,
    class_of,
    covers,
    split_address,
    thread_classes,
    through_classes,
)
from cirquent.harness import NODE_CAP, QUIESCE_STEPS, CapExceeded
from cirquent.strategies import Transducer


def negate_run(run: Run) -> Run:
    return tuple(Labmove(lm.label.other, lm.move) for lm in run)


def walk(node: GameNode, run: Run) -> GameNode | None:
    for lm in run:
        node = node.child(lm.label, lm.move)
        if node is None:
            return None
    return node


def project_prefix(run: Run, prefix: str) -> Run:
    """Keep moves starting with the literal prefix, stripped of it."""
    return tuple(
        Labmove(lm.label, lm.move[len(prefix):])
        for lm in run
        if lm.move.startswith(prefix)
    )


def project_thread(run: Run, stem: str) -> Run:
    out = []
    for lm in run:
        parts = split_address(lm.move)
        if parts is not None and covers(stem, parts[0]):
            out.append(Labmove(lm.label, parts[1]))
    return tuple(out)


def threads_through(used: Iterable[str], w: str) -> list[str]:
    """One stem per class of the copies whose addresses extend w.

    Those copies all contain the used addresses that are prefixes of w, so
    they differ only in the used addresses that extend w.
    """
    n = len(w)
    below = [u[n:] for u in used if len(u) > n and u.startswith(w)]
    return [w + stem for stem in thread_classes(below)]


def _structure_ok(g: Game, run: Run) -> bool:
    """Full-run shape and projection check at this level and below."""
    if isinstance(g, Tree):
        return walk(g.root, run) is not None
    if isinstance(g, Neg):
        return _structure_ok(g.sub, negate_run(run))
    if isinstance(g, (Conj, Disj)):
        for lm in run:
            if len(lm.move) < 2 or lm.move[0] not in "01" or lm.move[1] != ".":
                return False
        return _structure_ok(g.left, project_prefix(run, "0.")) and _structure_ok(
            g.right, project_prefix(run, "1.")
        )
    if isinstance(g, (Rep, Corep)):
        used = []
        for lm in run:
            parts = split_address(lm.move)
            if parts is None:
                return False
            used.append(parts[0])
        return all(
            _structure_ok(g.sub, project_thread(run, stem))
            for stem in thread_classes(used)
        )
    raise TypeError(f"not a game: {g!r}")


def legal(g: Game, run: Run) -> bool:
    return _structure_ok(g, run)


def legal_extension(g: Game, run: Run, lm: Labmove) -> bool:
    """`legal(g, run + (lm,))` for a run already known to be legal.

    Only the subgames the new move reaches are judged again: one side of a
    parallel connective, and the thread classes covering a copy address.
    """
    if isinstance(g, Tree):
        node = walk(g.root, run)
        return node is not None and node.child(lm.label, lm.move) is not None
    if isinstance(g, Neg):
        return legal_extension(g.sub, negate_run(run), Labmove(lm.label.other, lm.move))
    if isinstance(g, (Conj, Disj)):
        m = lm.move
        if len(m) < 2 or m[0] not in "01" or m[1] != ".":
            return False
        side = g.left if m[0] == "0" else g.right
        return legal_extension(side, project_prefix(run, m[:2]), Labmove(lm.label, m[2:]))
    if isinstance(g, (Rep, Corep)):
        parts = split_address(lm.move)
        if parts is None:
            return False
        w, rest = parts
        used = [split_address(x.move)[0] for x in run]
        inner = Labmove(lm.label, rest)
        return all(
            legal_extension(g.sub, project_thread(run, stem), inner)
            for stem in threads_through(used, w)
        )
    raise TypeError(f"not a game: {g!r}")


def legal_moves(g: Game, run: Run, player: Player, limit: int) -> set[str]:
    """The moves `player` can add to the legal `run`, with copy addresses of
    at most `limit` bits at every level."""
    if isinstance(g, Tree):
        node = walk(g.root, run)
        return {m for lab, m, _ in node.edges if lab is player}
    if isinstance(g, Neg):
        return legal_moves(g.sub, negate_run(run), player.other, limit)
    if isinstance(g, (Conj, Disj)):
        left = legal_moves(g.left, project_prefix(run, "0."), player, limit)
        right = legal_moves(g.right, project_prefix(run, "1."), player, limit)
        return {"0." + m for m in left} | {"1." + m for m in right}
    if isinstance(g, (Rep, Corep)):
        used = [split_address(lm.move)[0] for lm in run]
        memo: dict[Run, set[str]] = {}

        def thread_moves(stem: str) -> set[str]:
            proj = project_thread(run, stem)
            if proj not in memo:
                memo[proj] = legal_moves(g.sub, proj, player, limit)
            return memo[proj]

        out: set[str] = set()
        for w in addresses(limit):
            # the copy w000... is one thread through w; the others are
            # looked up only when it leaves some move to check
            moves = thread_moves(w)
            if moves:
                for stem in threads_through(used, w):
                    moves = moves & thread_moves(stem)
                out.update(w + "." + m for m in moves)
        return out
    raise TypeError(f"not a game: {g!r}")


def first_offender(g: Game, run: Run) -> Player | None:
    """Label of the last move of the shortest illegal prefix, if any."""
    if _structure_ok(g, run):  # one whole-run check settles the common case
        return None
    for i, lm in enumerate(run):
        if not legal_extension(g, run[:i], lm):
            return lm.label
    raise AssertionError("empty run must be legal")


def _winner_of_legal(g: Game, run: Run) -> Player:
    if isinstance(g, Tree):
        node = walk(g.root, run)
        assert node is not None
        return node.winner
    if isinstance(g, Neg):
        return _winner_of_legal(g.sub, negate_run(run)).other
    if isinstance(g, Conj):
        if _winner_of_legal(g.left, project_prefix(run, "0.")) is BOT:
            return BOT
        return _winner_of_legal(g.right, project_prefix(run, "1."))
    if isinstance(g, Disj):
        if _winner_of_legal(g.left, project_prefix(run, "0.")) is TOP:
            return TOP
        return _winner_of_legal(g.right, project_prefix(run, "1."))
    if isinstance(g, (Rep, Corep)):
        used = [split_address(lm.move)[0] for lm in run]
        good = TOP if isinstance(g, Corep) else BOT
        # Rep: TOP must win every copy; Corep: some copy suffices.
        for stem in thread_classes(used):
            if _winner_of_legal(g.sub, project_thread(run, stem)) is good:
                return good
        return good.other
    raise TypeError(f"not a game: {g!r}")


def winner(g: Game, run: Run) -> Player:
    off = first_offender(g, run)
    if off is not None:
        return off.other
    return _winner_of_legal(g, run)


# ---------------------------------------------------------- copy frontier


def open_moves(pos, player: Player, limit: int):
    """`pos.open_moves(player, limit)` for a `games.Copies` table `pos`,
    one slot tuple at a time: (member, slots, moves) for each member and
    slots of at most `limit` bits in its dimensions ("" in others) where
    `player` has moves.  CapExceeded fires when one member's slots make
    more than `FRONTIER_CAP` tuples, moves or none."""
    used, n = pos.used, len(pos.used)
    ws = addresses(limit)
    named = [[class_of(u, w) for w in ws] for u in used]
    through: dict[tuple[int, str], list[str | None]] = {}
    for a, dims in enumerate(pos.own):
        tuples = len(ws) ** len(dims)
        if tuples > FRONTIER_CAP:
            raise CapExceeded(f"{tuples} slot tuples of one member exceed cap {FRONTIER_CAP}")
        positions = pos.members[a]
        for at, vec in zip(product(ws, repeat=len(dims)),
                           product(*[named[j] for j in dims])):
            # start from the copy the slots name; the other vectors
            # through them are looked up only while moves remain
            found = positions[vec].moves(player, limit)
            if not found:
                continue
            lines = []
            for j, w in zip(dims, at):
                line = through.get((j, w))
                if line is None:
                    line = through[j, w] = through_classes(used[j], pos.classes[j], w)
                lines.append(line)
            for vec in product(*lines):
                found = found & positions[vec].moves(player, limit)
                if not found:
                    break
            if found:
                yield a, tuple(at[dims.index(j)] if j in dims else "" for j in range(n)), found


# ------------------------------------------------------------- winnability


def winnability(arena, max_moves: int, limit: int = 2) -> bool:
    """Bounded double-sided search: can the machine force a won position
    within the move budget, letting either side pass?"""
    nodes = 0

    def bump() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded(f"winnability search exceeded {NODE_CAP} nodes")

    def top_turn(run: Run, k: int) -> bool:
        bump()
        if k > 0:
            for m in arena.frontier(run, TOP, limit):
                if bot_turn(run + (Labmove(TOP, m),), k - 1, False):
                    return True
        return bot_turn(run, k, True)

    def bot_turn(run: Run, k: int, top_passed: bool) -> bool:
        bump()
        if k > 0:
            for m in arena.frontier(run, BOT, limit):
                if not top_turn(run + (Labmove(BOT, m),), k - 1):
                    return False
        if top_passed:
            return arena.winner(run) is TOP
        return top_turn(run, k)

    return top_turn((), max_moves)


def replay_env_check(
    factory,
    arena,
    env_depth: int = 2,
    limit: int = 2,
    budget: int = 64,
) -> tuple[bool, Run | None]:
    """Replay the strategy against every legal environment line (with passes)
    up to env_depth opponent moves; returns (all positions won, witness)."""
    nodes = 0

    def poll(t: Transducer, run: Run) -> Run:
        for _ in range(QUIESCE_STEPS):
            block = t.step(run)
            if not block:
                return run
            run = run + tuple(Labmove(TOP, m) for m in block)
            if len(run) > budget:
                raise CapExceeded(f"machine took the run to {len(run)} labmoves, "
                                  f"over the budget of {budget}")
        raise CapExceeded(f"machine would not quiesce within {QUIESCE_STEPS} steps")

    def replay(schedule: list[str]) -> Run:
        t = factory()
        run = poll(t, ())
        for m in schedule:
            run = run + (Labmove(BOT, m),)
            run = poll(t, run)
        return run

    def rec(schedule: list[str]) -> Run | None:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded(f"exhaustive check exceeded {NODE_CAP} nodes")
        run = replay(schedule)
        if arena.winner(run) is not TOP:
            return run
        if len(schedule) < env_depth:
            for m in arena.frontier(run, BOT, limit):
                witness = rec(schedule + [m])
                if witness is not None:
                    return witness
        return None

    witness = rec([])
    return witness is None, witness


class ArgMinSpoilerEnv:
    """For at most 6 moves, bounded lookahead over the first 48 moves of its
    1-bit frontier, toward positions the machine loses."""

    def __init__(self, depth: int = 2):
        self.depth = depth
        self.left = 6

    def _probe(self, arena, run: Run, d: int) -> int:
        score = 1 if arena.winner(run) is TOP else 0
        if score == 0 or d <= 0:
            return score
        for m in arena.frontier(run, BOT, 1)[:48]:
            score = min(score, self._probe(arena, run + (Labmove(BOT, m),), d - 1))
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
        best = min(
            cands,
            key=lambda m: (self._probe(arena, run + (Labmove(BOT, m),), self.depth - 1), m),
        )
        return [best]


# ------------------------------------------------------------------ delays


def _subsequence(run: Run, player: Player) -> tuple[str, ...]:
    return tuple(lm.move for lm in run if lm.label is player)


def is_delay_of(pi: Player, gamma: Run, upsilon: Run) -> bool:
    """upsilon postpones pi's moves in gamma without reordering either side."""
    if _subsequence(gamma, pi) != _subsequence(upsilon, pi):
        return False
    if _subsequence(gamma, pi.other) != _subsequence(upsilon, pi.other):
        return False

    def opponents_before(run: Run) -> list[int]:
        # for the n'th pi move, how many opponent moves precede it
        k, out = 0, []
        for lm in run:
            if lm.label is pi:
                out.append(k)
            else:
                k += 1
        return out

    # an opponent move before the n'th pi move in gamma must stay before it
    return all(
        k_u >= k_g
        for k_g, k_u in zip(opponents_before(gamma), opponents_before(upsilon))
    )


def _delays(pi: Player, gamma: Run) -> list[Run]:
    """Every pi-delay of gamma: each merge of its pi moves and its opponent
    moves, both in order, that keeps every pi move after the opponent moves
    it follows in gamma; merges placing pi's moves earlier come first."""
    mine = [lm for lm in gamma if lm.label is pi]
    theirs = [lm for lm in gamma if lm.label is not pi]
    # the i'th pi move, at place k in gamma, follows k - i opponent moves
    need = [k - i for i, k in enumerate(k for k, lm in enumerate(gamma) if lm.label is pi)]
    out: list[Run] = []

    def build(acc: Run, i: int, j: int) -> None:
        if i == len(mine) and j == len(theirs):
            out.append(acc)
            return
        if i < len(mine) and j >= need[i]:
            build(acc + (mine[i],), i + 1, j)
        if j < len(theirs):
            build(acc + (theirs[j],), i, j + 1)

    build((), 0, 0)
    return out


def _legal_runs(root: GameNode, maxlen: int) -> list[Run]:
    """The runs of at most maxlen moves down the tree at root, shortest
    first, those of one length ordered by move, T before B."""
    out: list[Run] = [()]
    frontier: list[tuple[Run, GameNode]] = [((), root)]
    for _ in range(maxlen):
        frontier = [(run + (Labmove(lab, m),), child)
                    for run, node in frontier
                    for lab, m, child in sorted(node.edges, key=lambda e: (e[1], e[0] is BOT))]
        out.extend(run for run, _ in frontier)
    return out


def first_breach(node: GameNode, maxlen: int) -> tuple[Player, Run, Run] | None:
    """The first (pi, gamma, delta) that shows the tree at node is not
    static, over every run gamma of at most maxlen moves, shortest first,
    on the tree's moves and one junk move, and every pi-delay delta of it:
    gamma legal and pi delta's offender, or pi winning gamma and not delta.
    None when there is none."""
    moves = sorted(node.moves())
    junk = "#" * (1 + max(map(len, moves), default=0))  # longer than every move
    labmoves = [Labmove(label, m) for m in moves + [junk] for label in (TOP, BOT)]

    @cache
    def outcome(run: Run) -> tuple[Player | None, Player]:
        """(first offender, winner) of run."""
        at = node
        for lm in run:
            at = at.child(lm.label, lm.move)
            if at is None:
                return lm.label, lm.label.other
        return None, at.winner

    for n in range(maxlen + 1):
        for gamma in product(labmoves, repeat=n):
            off, won = outcome(gamma)
            for pi in (TOP, BOT):
                if off is pi:
                    continue  # gamma is not pi-legal; nothing to preserve
                for delta in _delays(pi, gamma):
                    off_d, won_d = outcome(delta)
                    if (off is None and off_d is pi) or (won is pi and won_d is not pi):
                        return pi, gamma, delta
    return None
