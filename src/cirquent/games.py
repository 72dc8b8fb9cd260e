"""Two-player games over finite runs.

A run is a finite sequence of labeled moves; moves are strings.  Atom games
are finite rooted trees whose nodes carry the winner of the run ending there.
Compound games are built with negation, the two parallel connectives, and the
two branching-repetition operations, where a move prefixed with a bitstring
acts in every copy whose address extends that bitstring.
Legality is prefix-closed, and a new move changes only the threads whose
addresses it covers, so `legal_extension` re-judges just those threads.
For the same reason a move at copy address w is legal exactly when it is
legal in every thread through w, so `legal_moves` finds the whole frontier
in one walk, intersecting the moves of those threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Union

from . import formulas as fm
from .reader import Reader


class Player(Enum):
    TOP = "T"
    BOT = "B"

    @property
    def other(self) -> "Player":
        return BOT if self is TOP else TOP

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


TOP = Player.TOP
BOT = Player.BOT


class GameError(ValueError):
    """Malformed run literal or game text."""


class Labmove(NamedTuple):
    label: Player
    move: str


Run = tuple[Labmove, ...]


def negate_run(run: Run) -> Run:
    return tuple(Labmove(lm.label.other, lm.move) for lm in run)


def parse_run(text: str) -> Run:
    """Run literal: comma-separated `T:move` / `B:move` items (also ⊤/⊥)."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in re.split(r",(?=[TB⊤⊥]:)", text):
        if len(item) < 2 or item[0] not in "TB⊤⊥" or item[1] != ":":
            raise GameError(f"bad run item {item!r}; expected T:move or B:move")
        out.append(Labmove(TOP if item[0] in "T⊤" else BOT, item[2:]))
    return tuple(out)


def format_run(run: Run) -> str:
    return ",".join(f"{lm.label.value}:{lm.move}" for lm in run)


# ---------------------------------------------------------------- atom trees


@dataclass(frozen=True)
class GameNode:
    winner: Player
    edges: tuple[tuple[Player, str, "GameNode"], ...] = ()

    def child(self, label: Player, move: str) -> "GameNode | None":
        for lab, m, node in self.edges:
            if lab is label and m == move:
                return node
        return None

    def depth(self) -> int:
        if not self.edges:
            return 0
        return 1 + max(n.depth() for _, _, n in self.edges)

    def moves(self) -> set[str]:
        out = {m for _, m, _ in self.edges}
        for _, _, node in self.edges:
            out |= node.moves()
        return out


def walk(node: GameNode, run: Run) -> GameNode | None:
    for lm in run:
        node = node.child(lm.label, lm.move)
        if node is None:
            return None
    return node


def _parse_player(tok: str) -> Player:
    if tok in ("⊤", "T"):
        return TOP
    if tok in ("⊥", "B"):
        return BOT
    raise GameError(f"expected a player label, got {tok!r}")


def _node(r: Reader) -> GameNode:
    r.take("node")
    r.take("winner")
    r.take("=")
    winner = _parse_player(r.take()[0])
    r.take("{")
    edges = []
    seen = set()
    while r.peek() != "}":
        label = _parse_player(r.take()[0])
        tok, _, _, string = r.take()
        if not string:
            raise GameError(f"expected a quoted move, got {tok!r}")
        move = string[1:-1]
        if not move:
            raise GameError("empty move string in game tree")
        if (label, move) in seen:
            raise GameError(f"duplicate edge {label.value}:{move!r}")
        seen.add((label, move))
        r.take("->")
        edges.append((label, move, _node(r)))
    r.take("}")
    return GameNode(winner, tuple(edges))


def parse_game(text: str) -> GameNode:
    r = Reader(text, GameError)
    node = _node(r)
    r.end()
    return node


def parse_game_library(text: str) -> dict[str, GameNode]:
    """A library is a sequence of `game NAME = node ...` entries."""
    r = Reader(text, GameError)
    lib: dict[str, GameNode] = {}
    while r.peek() is not None:
        r.take("game")
        tok, name, _, _ = r.take()
        if not name:
            raise GameError(f"bad game name {tok!r}")
        if name in lib:
            raise GameError(f"duplicate game name {name!r}")
        r.take("=")
        lib[name] = _node(r)
    return lib


def format_game(node: GameNode, indent: int = 0) -> str:
    pad = "  " * indent
    head = f"node winner={node.winner.value} {{"
    if not node.edges:
        return head + "}"
    lines = [head]
    for label, move, sub in node.edges:
        lines.append(f'{pad}  {label.value}"{move}" -> {format_game(sub, indent + 1)}')
    lines.append(pad + "}")
    return "\n".join(lines)


def format_game_library(lib: Mapping[str, GameNode]) -> str:
    return "\n\n".join(f"game {name} = {format_game(node)}" for name, node in lib.items()) + "\n"


# ----------------------------------------------------------- compound games


@dataclass(frozen=True)
class Tree:
    root: GameNode


@dataclass(frozen=True)
class Neg:
    sub: "Game"


@dataclass(frozen=True)
class Conj:
    left: "Game"
    right: "Game"


@dataclass(frozen=True)
class Disj:
    left: "Game"
    right: "Game"


@dataclass(frozen=True)
class Rep:
    """Opponent may split play into copies; the machine must win all of them."""

    sub: "Game"


@dataclass(frozen=True)
class Corep:
    sub: "Game"


Game = Union[Tree, Neg, Conj, Disj, Rep, Corep]


def of_formula(f, interp: Mapping[str, GameNode]) -> Game:
    if isinstance(f, fm.PosLiteral):
        if f.atom not in interp:
            raise KeyError(f"no game assigned to atom {f.atom!r}")
        return Tree(interp[f.atom])
    if isinstance(f, fm.NegLiteral):
        if f.atom not in interp:
            raise KeyError(f"no game assigned to atom {f.atom!r}")
        return Neg(Tree(interp[f.atom]))
    if isinstance(f, fm.And):
        return Conj(of_formula(f.left, interp), of_formula(f.right, interp))
    if isinstance(f, fm.Or):
        return Disj(of_formula(f.left, interp), of_formula(f.right, interp))
    if isinstance(f, fm.Brec):
        return Rep(of_formula(f.body, interp))
    if isinstance(f, fm.Cobrec):
        return Corep(of_formula(f.body, interp))
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------- projections, threads


def project_prefix(run: Run, prefix: str) -> Run:
    """Keep moves starting with the literal prefix, stripped of it."""
    return tuple(
        Labmove(lm.label, lm.move[len(prefix):])
        for lm in run
        if lm.move.startswith(prefix)
    )


def split_address(move: str) -> tuple[str, str] | None:
    """Split `w.rest` at the first dot when w is a (possibly empty) bitstring."""
    i = move.find(".")
    if i < 0:
        return None
    w = move[:i]
    if w.strip("01"):
        return None
    return w, move[i + 1:]


def covers(stem: str, u: str) -> bool:
    """True when u addresses the copy stem followed by all zeros."""
    if len(u) <= len(stem):
        return stem.startswith(u)
    return u.startswith(stem) and not u[len(stem):].strip("0")


def project_thread(run: Run, stem: str) -> Run:
    out = []
    for lm in run:
        parts = split_address(lm.move)
        if parts is not None and covers(stem, parts[0]):
            out.append(Labmove(lm.label, parts[1]))
    return tuple(out)


def thread_classes(used: Iterable[str]) -> list[str]:
    """Finitely many copy addresses that jointly exhaust all behaviors.

    Two infinite addresses are interchangeable when the same used bitstrings
    lie on them; each returned stem denotes the address stem000..., and the
    stems cover every such class exactly once.
    """
    return list(_thread_classes(tuple(sorted(set(used)))))


def threads_through(used: Iterable[str], w: str) -> list[str]:
    """One stem per class of the copies whose addresses extend w.

    Those copies all contain the used addresses that are prefixes of w, so
    they differ only in the used addresses that extend w.
    """
    n = len(w)
    below = [u[n:] for u in used if len(u) > n and u.startswith(w)]
    return [w + stem for stem in thread_classes(below)]


@lru_cache(maxsize=65536)
def _thread_classes(used: tuple[str, ...]) -> tuple[str, ...]:
    closure = {""}
    for u in used:
        for i in range(len(u) + 1):
            closure.add(u[:i])
    cands = {""}
    for v in closure:
        for b in "01":
            if v + b not in closure:
                cands.add(v + b)

    def chain(stem: str) -> frozenset[str]:
        return frozenset(u for u in used if covers(stem, u))

    reps: dict[frozenset[str], str] = {}
    for stem in sorted(cands, key=lambda s: (len(s), s)):
        reps.setdefault(chain(stem), stem)
    return tuple(sorted(reps.values(), key=lambda s: (len(s), s)))


# ----------------------------------------------------- legality and winners


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


def addresses(limit: int) -> list[str]:
    """Every bitstring of at most `limit` bits, shortest first."""
    out = [""]
    frontier = [""]
    for _ in range(limit):
        frontier = [w + b for w in frontier for b in "01"]
        out.extend(frontier)
    return out


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


# ------------------------------------------------------------- static check


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


@dataclass
class StaticReport:
    ok: bool
    player: Player | None = None
    original: Run = ()
    delayed: Run = ()

    def __bool__(self) -> bool:
        return self.ok


def _delays(pi: Player, gamma: Run) -> list[Run]:
    """All interleavings of gamma's two subsequences that pi-delay gamma."""
    mine = [lm for lm in gamma if lm.label is pi]
    theirs = [lm for lm in gamma if lm.label is not pi]
    out: list[Run] = []

    def build(acc: list[Labmove], i: int, j: int) -> None:
        if i == len(mine) and j == len(theirs):
            cand = tuple(acc)
            if is_delay_of(pi, gamma, cand):
                out.append(cand)
            return
        if i < len(mine):
            build(acc + [mine[i]], i + 1, j)
        if j < len(theirs):
            build(acc + [theirs[j]], i, j + 1)

    build([], 0, 0)
    return out


def _legal_runs(g: Game, alphabet: list[str], maxlen: int) -> list[Run]:
    out: list[Run] = [()]
    frontier: list[Run] = [()]
    for _ in range(maxlen):
        nxt = []
        for run in frontier:
            for m in alphabet:
                for lab in (TOP, BOT):
                    lm = Labmove(lab, m)
                    if legal_extension(g, run, lm):
                        nxt.append(run + (lm,))
        out.extend(nxt)
        frontier = nxt
    return out


def is_static_bounded(
    g: Game,
    maxlen: int,
    alphabet: list[str] | None = None,
    samples: int = 300,
    seed: int = 0,
) -> StaticReport:
    """Check the delay conditions over all legal runs up to maxlen, plus a
    sample of runs wandering into illegal territory."""
    import random as _random

    if alphabet is None:
        if not isinstance(g, Tree):
            raise ValueError("alphabet required for non-tree games")
        alphabet = sorted(g.root.moves()) + ["zz"]

    def violates(gamma: Run) -> StaticReport | None:
        for pi in (TOP, BOT):
            off = first_offender(g, gamma)
            if off is pi:
                continue  # gamma is not pi-legal; nothing to preserve
            for ups in _delays(pi, gamma):
                if off is None and first_offender(g, ups) is pi:
                    return StaticReport(False, pi, gamma, ups)
                if winner(g, gamma) is pi and winner(g, ups) is not pi:
                    return StaticReport(False, pi, gamma, ups)
        return None

    for gamma in _legal_runs(g, alphabet, maxlen):
        bad = violates(gamma)
        if bad is not None:
            return bad

    rng = _random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, maxlen)
        gamma = tuple(
            Labmove(rng.choice((TOP, BOT)), rng.choice(alphabet)) for _ in range(n)
        )
        bad = violates(gamma)
        if bad is not None:
            return bad
    return StaticReport(True)
