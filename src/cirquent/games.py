"""Two-player games over finite runs.

A run is a finite sequence of labeled moves; moves are strings.  Atom games
are finite rooted trees whose nodes carry the winner of the run ending there.
Compound games are built with negation, the two parallel connectives, and the
two branching-repetition operations, where a move prefixed with a bitstring
acts in every copy whose address extends that bitstring.
Legality is prefix-closed, so a referee judges a run one move at a time.
`start(g)` is the position of the empty run.  A position is immutable:
`advance(lm)` returns the next one (None when the move is illegal),
`moves(player, limit)` the frontier and `winner()` the score of the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
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

    def moves(self) -> set[str]:
        out = {m for _, m, _ in self.edges}
        for _, _, node in self.edges:
            out |= node.moves()
        return out


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


# ------------------------------------------------------------ copy addresses


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


def thread_classes(used: Iterable[str]) -> list[str]:
    """Finitely many copy addresses that jointly exhaust all behaviors.

    Two infinite addresses are interchangeable when the same used bitstrings
    lie on them; each returned stem denotes the address stem000..., and the
    stems cover every such class exactly once.
    """
    return list(_thread_classes(tuple(sorted(set(used)))))


Chain = frozenset  # the used addresses on the copies of one class


def chain_of(used: Iterable[str], stem: str) -> Chain:
    """The used addresses on the copy stem000...: its class's chain."""
    return frozenset(u for u in used if covers(stem, u))


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
    reps: dict[Chain, str] = {}
    for stem in sorted(cands, key=lambda s: (len(s), s)):
        reps.setdefault(chain_of(used, stem), stem)
    return tuple(sorted(reps.values(), key=lambda s: (len(s), s)))


def split_classes(used: frozenset[str], chains: Iterable[Chain], w: str
                  ) -> list[tuple[Chain, Chain, bool]]:
    """The classes once a move at w is played, given the addresses `used` so
    far and their classes' `chains`: one (chain, chain of the class it comes
    from, whether its copies go through w) per class."""
    if w in used:
        return [(c, c, w in c) for c in chains]
    after = used | {w}
    return [(c, c - {w}, w in c) for c in (chain_of(after, s) for s in thread_classes(after))]


def through_classes(used: frozenset[str], chains: Iterable[Chain], w: str) -> list[Chain]:
    """The chains, among `chains` of `used`, of the classes with copies
    through w: what `split_classes` marks through, without splitting, so a
    frontier query fills the class cache only with addresses below w."""
    if w in used:
        return [c for c in chains if w in c]
    # those copies differ only in the used addresses that extend w
    below = [u[len(w):] for u in used if len(u) > len(w) and u.startswith(w)]
    return [chain_of(used, w + stem) for stem in thread_classes(below)]


def addresses(limit: int) -> list[str]:
    """Every bitstring of at most `limit` bits, shortest first."""
    return ["".join(bits) for n in range(limit + 1) for bits in product("01", repeat=n)]


# ---------------------------------------------------------------- positions


class Position:
    """What a legal run has settled in a game, never changed once built.

    `advance(lm)` is the position one move later, or None when the move is
    illegal there; `moves(player, limit)` is the set of moves `player` can
    add, with copy addresses of at most `limit` bits at every level; and
    `winner()` scores the run as it stands.
    """

    __slots__ = ()


class _Node(Position):
    """A node of an atom's tree; `flip` swaps the players' roles, for an atom
    under an odd number of negations."""

    __slots__ = ("node", "flip")

    def __init__(self, node: GameNode, flip: bool):
        self.node, self.flip = node, flip

    def advance(self, lm: Labmove) -> Position | None:
        child = self.node.child(lm.label.other if self.flip else lm.label, lm.move)
        return None if child is None else _Node(child, self.flip)

    def moves(self, player: Player, limit: int) -> set[str]:
        player = player.other if self.flip else player
        return {m for lab, m, _ in self.node.edges if lab is player}

    def winner(self) -> Player:
        return self.node.winner.other if self.flip else self.node.winner


class _Parallel(Position):
    """Conj or Disj: a move `0.m` or `1.m` is `m` in the left or right part;
    `decisive` wins the whole game by winning one part."""

    __slots__ = ("decisive", "parts")

    def __init__(self, decisive: Player, parts: tuple[Position, Position]):
        self.decisive, self.parts = decisive, parts

    def advance(self, lm: Labmove) -> Position | None:
        m = lm.move
        if len(m) < 2 or m[1] != "." or m[0] not in "01":
            return None
        i = int(m[0])
        sub = self.parts[i].advance(Labmove(lm.label, m[2:]))
        if sub is None:
            return None
        return _Parallel(self.decisive, (sub, self.parts[1]) if i == 0 else (self.parts[0], sub))

    def moves(self, player: Player, limit: int) -> set[str]:
        return {f"{i}.{m}" for i, p in enumerate(self.parts) for m in p.moves(player, limit)}

    def winner(self) -> Player:
        left = self.parts[0].winner()
        return left if left is self.decisive else self.parts[1].winner()


class _Copies(Position):
    """Rep or Corep: one sub-position per thread class.

    A move `w.m` is `m` in every copy whose infinite address extends w.  Two
    copies carrying the same used addresses have seen the same moves, so a
    class of them needs one sub-position, keyed by its chain: the used
    addresses on its copies.  A move at a new address w splits each class in
    two, the copies through w and the rest (`split_classes` lists the parts
    that are not empty).  Both parts saw the same moves so far, so both start
    from the class's position, and only the part through w takes the move.
    The move is legal when it is legal in every class through w, which is
    also why the moves open at w are those open in every one of them.
    `decisive` is the player who wins by winning one copy.
    """

    __slots__ = ("decisive", "used", "threads")

    def __init__(self, decisive: Player, used: frozenset[str], threads: dict[Chain, Position]):
        self.decisive, self.used, self.threads = decisive, used, threads

    def advance(self, lm: Labmove) -> Position | None:
        parts = split_address(lm.move)
        if parts is None:
            return None
        w, rest = parts
        inner = Labmove(lm.label, rest)
        threads = {}
        for chain, old, through in split_classes(self.used, self.threads, w):
            pos = self.threads[old].advance(inner) if through else self.threads[old]
            if pos is None:
                return None
            threads[chain] = pos
        return _Copies(self.decisive, self.used | {w}, threads)

    def moves(self, player: Player, limit: int) -> set[str]:
        memo: dict[Chain, set[str]] = {}

        def thread_moves(chain: Chain) -> set[str]:
            if chain not in memo:
                memo[chain] = self.threads[chain].moves(player, limit)
            return memo[chain]

        out: set[str] = set()
        for w in addresses(limit):
            # the copy w000... is one class through w; the others are
            # looked up only when it leaves some move to check
            found = thread_moves(chain_of(self.used, w))
            for chain in through_classes(self.used, self.threads, w) if found else ():
                found = found & thread_moves(chain)
                if not found:
                    break
            out.update(f"{w}.{m}" for m in found)
        return out

    def winner(self) -> Player:
        d = self.decisive
        return d if any(p.winner() is d for p in self.threads.values()) else d.other


def start(g: Game) -> Position:
    """The position of the empty run."""
    return _start(g, False)


def _start(g: Game, flip: bool) -> Position:
    """`start` of `Neg(g)` when `flip` is set: negation is pushed down to the
    atoms by De Morgan's laws."""
    if isinstance(g, Tree):
        return _Node(g.root, flip)
    if isinstance(g, Neg):
        return _start(g.sub, not flip)
    # a conjunction, or Rep, is lost by losing one part or copy; negation
    # turns it into a disjunction, or Corep, which is won by winning one
    decisive = BOT if isinstance(g, (Conj, Rep)) else TOP
    decisive = decisive.other if flip else decisive
    if isinstance(g, (Conj, Disj)):
        return _Parallel(decisive, (_start(g.left, flip), _start(g.right, flip)))
    if isinstance(g, (Rep, Corep)):
        return _Copies(decisive, frozenset(), {frozenset(): _start(g.sub, flip)})
    raise TypeError(f"not a game: {g!r}")


def judge(pos, run: Run):
    """`run` played from `pos`, game or cirquent: the position after its
    longest legal prefix and the first offender (None if the run is legal)."""
    for lm in run:
        nxt = pos.advance(lm)
        if nxt is None:
            return pos, lm.label
        pos = nxt
    return pos, None


def legal(g: Game, run: Run) -> bool:
    return judge(start(g), run)[1] is None


def first_offender(g: Game, run: Run) -> Player | None:
    """Label of the last move of the shortest illegal prefix, if any."""
    return judge(start(g), run)[1]


def winner(g: Game, run: Run) -> Player:
    pos, off = judge(start(g), run)
    return pos.winner() if off is None else off.other


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
    frontier: list[tuple[Run, Position]] = [((), start(g))]
    for _ in range(maxlen):
        nxt = []
        for run, pos in frontier:
            for m in alphabet:
                for lab in (TOP, BOT):
                    lm = Labmove(lab, m)
                    after = pos.advance(lm)
                    if after is not None:
                        nxt.append((run + (lm,), after))
        out.extend(run for run, _ in nxt)
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
