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
Each position computes its frontier and its score once and keeps them, so
a part or a copy a move leaves alone answers from its memo, and so does a
position that a referee keeps across plays.  A frontier of more than
`FRONTIER_CAP` moves raises `CapExceeded`.
`Copies` is the one table of copy classes, each named by the longest used
address on its copies: Rep and Corep use it with one dimension, and
`cirquents.Position` with one per overgroup.  A move there first splits the
classes its new addresses refine, if it has any, then plays in the classes
it reaches.  Its frontier is computed once per group of addresses that
reach the same classes, not once per address.
`is_static(g)` decides whether an atom tree is a static game, the paper's
condition on the atoms: one exact search over a run and its delays.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, partial
from itertools import accumulate, islice, product
from math import inf, prod
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import formulas as fm
from .reader import MAX_DEPTH, Reader, is_name, is_string


class Player(Enum):
    TOP = "T"
    BOT = "B"

    @property
    def other(self) -> "Player":
        return BOT if self is TOP else TOP

    # a member is its one instance: hashing by identity stays in C, where
    # Enum's own hash of the name is a Python call on every dict lookup
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


TOP = Player.TOP
BOT = Player.BOT


class GameError(ValueError):
    """Malformed run literal, game text or fusion input, or an atom that an
    interpretation assigns no game."""


class CapExceeded(RuntimeError):
    """A resource cap was hit; the message names it and the count over it."""


FRONTIER_CAP = 200_000  # moves in one frontier, or slot tuples of one member


class Labmove(NamedTuple):
    label: Player
    move: str


# `Labmove(label, move)` without the Python-level `__new__` that NamedTuple
# generates: the referee builds each move it passes down through this.
_labmove = partial(tuple.__new__, Labmove)

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

    @cached_property
    def positions(self) -> tuple["_Node", "_Node"]:
        """The position at this node, as played and flipped, built once, so
        that every copy at this node shares one position and its memo."""
        return _Node(self, False), _Node(self, True)

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


def _node(r: Reader, depth: int = 0) -> GameNode:
    if depth > MAX_DEPTH:
        raise GameError(f"game tree deeper than {MAX_DEPTH} moves")
    r.take("node")
    r.take("winner")
    r.take("=")
    winner = _parse_player(r.take())
    r.take("{")
    edges = []
    seen = set()
    while r.peek() != "}":
        label = _parse_player(r.take())
        tok = r.take()
        if not is_string(tok):
            raise GameError(f"expected a quoted move, got {tok!r}")
        move = tok[1:-1]
        if not move:
            raise GameError("empty move string in game tree")
        if (label, move) in seen:
            raise GameError(f"duplicate edge {label.value}:{move!r}")
        seen.add((label, move))
        r.take("->")
        edges.append((label, move, _node(r, depth + 1)))
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
        name = r.take()
        if not is_name(name):
            raise GameError(f"bad game name {name!r}")
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
    missing = fm.atoms_of(f) - set(interp)
    if missing:
        raise GameError(f"no game assigned to atoms {', '.join(sorted(missing))}")
    return _of_formula(f, interp)


def _of_formula(f, interp: Mapping[str, GameNode]) -> Game:
    if isinstance(f, fm.PosLiteral):
        return Tree(interp[f.atom])
    if isinstance(f, fm.NegLiteral):
        return Neg(Tree(interp[f.atom]))
    if isinstance(f, fm.And):
        return Conj(_of_formula(f.left, interp), _of_formula(f.right, interp))
    if isinstance(f, fm.Or):
        return Disj(_of_formula(f.left, interp), _of_formula(f.right, interp))
    if isinstance(f, fm.Brec):
        return Rep(_of_formula(f.body, interp))
    if isinstance(f, fm.Cobrec):
        return Corep(_of_formula(f.body, interp))
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
    used = set(used)
    closure = {""}
    for u in used:
        for i in range(len(u) + 1):
            closure.add(u[:i])
    cands = {""}
    for v in closure:
        for b in "01":
            if v + b not in closure:
                cands.add(v + b)
    reps: dict[str | None, str] = {}
    for stem in sorted(cands, key=lambda s: (len(s), s)):
        reps.setdefault(class_of(used, stem), stem)
    return sorted(reps.values(), key=lambda s: (len(s), s))


def class_of(used: Iterable[str], stem: str) -> str | None:
    """The key of the class of the copy stem000...: the longest used address
    on it, None when there is none.  The used addresses on a copy are
    prefixes of it, so they form a chain, and the longest determines the rest.
    """
    key = None
    for u in used:
        if covers(stem, u) and (key is None or len(u) > len(key)):
            key = u
    return key


def _prefix_class(used: Iterable[str], w: str) -> str | None:
    """The longest used prefix of w, None when there is none."""
    key = None
    for u in used:
        if w.startswith(u) and (key is None or len(u) > len(key)):
            key = u
    return key


def _covered(v: str, exts: list[str]) -> bool:
    """True when the addresses `exts`, at least one, each extending v, lie on
    every copy through v.  The shortest of them are prefix-free, and
    prefix-free addresses cover those copies exactly when their Kraft sum
    relative to v is 1."""
    if len(exts) == 1:  # one address covers them when it is v itself
        return exts[0] == v
    tops: list[str] = []
    for u in sorted(exts):  # an address sorts right before its extensions
        if not tops or not u.startswith(tops[-1]):
            tops.append(u)
    n = max(map(len, tops))
    return sum(1 << (n - len(u)) for u in tops) == 1 << (n - len(v))


def split_classes(used: frozenset[str], classes: Iterable[str | None], w: str
                  ) -> list[tuple[str | None, str | None]]:
    """The classes once w, an address not in `used`, is used too, given the
    keys of the classes of `used`, `classes`: one (key, key of the class it
    comes from) per class.  A used address splits nothing, since the classes
    depend on `used` alone.

    Let p be the longest used prefix of w.  Another class keeps its key.
    Only p's class splits: its copies through w become class w, unless the
    used extensions of w cover them, and the rest keep p, unless w and the
    used strict extensions of p cover them.
    """
    p = _prefix_class(used, w)
    out = []
    for k in classes:
        if k != p:
            out.append((k, k))
            continue
        below = [u for u in used if u.startswith(w)]
        if not below or not _covered(w, below):
            out.append((w, p))
        v = p or ""
        if not _covered(v, [w] + [u for u in used if u != v and u.startswith(v)]):
            out.append((p, p))
    return out


def through_classes(used: frozenset[str], classes: Iterable[str | None], w: str
                    ) -> list[str | None]:
    """The keys, among `classes` of `used`, of the classes with copies
    through w.  When w is used, they are the keys that extend it; otherwise
    p's class, of w's longest used prefix p, is one of them unless the used
    extensions of w cover every copy through w."""
    out = [k for k in classes if k is not None and k.startswith(w)]
    if w not in used:
        below = [u for u in used if u.startswith(w)]
        if not below or not _covered(w, below):
            out.append(_prefix_class(used, w))
    return out


@cache
def addresses(limit: int) -> tuple[str, ...]:
    """Every bitstring of at most `limit` bits, shortest first, built once."""
    return tuple("".join(bits) for n in range(limit + 1) for bits in product("01", repeat=n))


def through_groups(used: frozenset[str], classes: tuple[str | None, ...], limit: int
                   ) -> list[tuple[tuple[str | None, ...], Sequence[str]]]:
    """The addresses of at most `limit` bits grouped by the keys, among
    `classes` of `used`, of the classes through them: (keys, addresses) per
    group, one group when there is one class."""
    if len(classes) == 1:
        return [(classes, addresses(limit))]
    groups: dict[tuple[str | None, ...], list[str]] = {}
    for w in addresses(limit):
        groups.setdefault(tuple(through_classes(used, classes, w)), []).append(w)
    return list(groups.items())


# ---------------------------------------------------------------- positions


class Position:
    """What a legal run has settled in a game, never changed once built.

    `advance(lm)` is the position one move later, or None when the move is
    illegal there; `moves(player, limit)` is the set of moves `player` can
    add, with copy addresses of at most `limit` bits at every level; and
    `winner()` scores the run as it stands.  Both are computed once, by the
    subclass's `_moves`, which yields each move once, and `_winner`, and kept
    in `_memo`, keyed by (player, limit) and by None for the winner; a
    subclass starts each position with an empty `_memo`.  `sorted_moves`
    is the same frontier as a sorted tuple, sorted once and kept under
    (player, limit, "sorted").  A `CapExceeded` is raised again on every
    call, never kept.
    """

    __slots__ = ("_memo",)

    def moves(self, player: Player, limit: int) -> frozenset[str]:
        key = (player, limit)
        found = self._memo.get(key)
        if found is None:
            more = iter(self._moves(player, limit))
            # copied from a set, the kept frozenset's table is sized to fit
            found = frozenset(set(islice(more, FRONTIER_CAP)))
            if next(more, None) is not None:
                raise CapExceeded(f"frontier exceeds cap of {FRONTIER_CAP} moves")
            self._memo[key] = found
        return found

    def sorted_moves(self, player: Player, limit: int) -> tuple[str, ...]:
        key = (player, limit, "sorted")
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = tuple(sorted(self.moves(player, limit)))
        return found

    def winner(self) -> Player:
        won = self._memo.get(None)
        if won is None:
            won = self._memo[None] = self._winner()
        return won


class _Node(Position):
    """A node of an atom's tree; `flip` swaps the players' roles, for an atom
    under an odd number of negations.  Each tree node has one per flip,
    `GameNode.positions`, which every copy at that node shares."""

    __slots__ = ("node", "flip")

    def __init__(self, node: GameNode, flip: bool):
        self.node, self.flip, self._memo = node, flip, {}

    def advance(self, lm: Labmove) -> Position | None:
        child = self.node.child(lm.label.other if self.flip else lm.label, lm.move)
        return None if child is None else child.positions[self.flip]

    def _moves(self, player: Player, limit: int) -> set[str]:
        player = player.other if self.flip else player
        return {m for lab, m, _ in self.node.edges if lab is player}

    def _winner(self) -> Player:
        return self.node.winner.other if self.flip else self.node.winner


class _Parallel(Position):
    """Conj or Disj: a move `0.m` or `1.m` is `m` in the left or right part;
    `decisive` wins the whole game by winning one part."""

    __slots__ = ("decisive", "parts")

    def __init__(self, decisive: Player, parts: tuple[Position, Position]):
        self.decisive, self.parts, self._memo = decisive, parts, {}

    def advance(self, lm: Labmove) -> Position | None:
        m = lm.move
        if len(m) < 2 or m[1] != "." or m[0] not in "01":
            return None
        i = int(m[0])
        sub = self.parts[i].advance(_labmove((lm.label, m[2:])))
        if sub is None:
            return None
        return _Parallel(self.decisive, (sub, self.parts[1]) if i == 0 else (self.parts[0], sub))

    def _moves(self, player: Player, limit: int) -> Iterable[str]:
        return (f"{i}.{m}" for i, p in enumerate(self.parts) for m in p.moves(player, limit))

    def _winner(self) -> Player:
        left = self.parts[0].winner()
        return left if left is self.decisive else self.parts[1].winner()


class Copies(Position):
    """Members played in copy dimensions that the opponent splits by address:
    Rep or Corep is one member in one dimension, a cirquent its oformulas in
    its overgroups.

    Per dimension j the table holds the used addresses `used[j]` and the keys
    of their classes `classes[j]`.  Per member a it holds one position per
    class vector of its dimensions `own[a]`: the copies on one vector have
    seen the same moves.  A move of a at slots w splits, then advances: each
    new address of w splits its dimension's classes, both parts of a split
    vector keeping its position, and then a's vectors through w take the
    move, which must be legal on each; so the moves open at w are those open
    on every vector through w, and addresses with the same classes through
    them have the same moves: the frontier intersects them once per group
    of such addresses.  A move whose addresses are all used splits nothing
    and leaves the other members' dicts as they are.  A subclass parses and
    formats moves, scores the run in `_winner` and provides `own`, the
    class attribute `cap` and `_next(used, classes, members)`, the table
    with those contents.  The members a move leaves alone keep their
    positions, so they answer `moves` and `winner` from their memos.
    """

    __slots__ = ("used", "classes", "members")
    own: tuple[tuple[int, ...], ...]
    cap: float

    def _check_cap(self, total: int) -> None:
        if total > self.cap:
            raise CapExceeded(f"{total} copy-class vectors exceed cap {self.cap}")

    def advance_at(self, a: int, slots: tuple[str, ...], inner: Labmove) -> Copies | None:
        """The table once member a plays `inner` at `slots`, one address per
        dimension; None when the move is illegal on a vector through them.
        The split pass runs first, so CapExceeded fires, legal move or
        not, when it gives a member more than `cap` vectors; a frontier goes
        through some of a member's vectors only.  A move whose addresses are
        all used splits nothing, and changes member a's positions alone."""
        own, used, classes = self.own, self.used, self.classes
        members = list(self.members)
        split = {}  # dimension j where w is new: the parent key of each class
        for j in own[a]:
            w = slots[j]
            if w not in used[j]:
                keys, split[j] = zip(*split_classes(used[j], classes[j], w))
                used = (*used[:j], used[j] | {w}, *used[j + 1:])
                classes = (*classes[:j], keys, *classes[j + 1:])
        if split:
            # a's dimensions split, so its dict is a new one too
            for b, dims in enumerate(own):
                if split.keys().isdisjoint(dims):
                    continue
                before = [split.get(j, classes[j]) for j in dims]
                self._check_cap(prod(map(len, before)))
                vecs = product(*[classes[j] for j in dims])
                members[b] = dict(zip(vecs, map(members[b].__getitem__, product(*before))))
            positions = members[a]
        else:
            positions = members[a] = dict(members[a])
        for vec in product(*[through_classes(used[j], classes[j], slots[j]) for j in own[a]]):
            pos = positions[vec].advance(inner)
            if pos is None:
                return None
            positions[vec] = pos
        return self._next(used, classes, tuple(members))

    def open_moves(self, player: Player, limit: int):
        """(member, slots, moves) for each member and slots of at most `limit`
        bits in its dimensions ("" in others) where `player` has moves.
        The moves open at slots are those open on every vector of classes
        through them, so they are computed once per class group: slots
        whose addresses lie, dimension by dimension, in the same group
        (`through_groups`) have the same moves.  CapExceeded fires when one
        member's slots make more than `FRONTIER_CAP` tuples, moves or none."""
        n, size = len(self.used), len(addresses(limit))
        groups: dict[int, list] = {}
        for a, dims in enumerate(self.own):
            tuples = size ** len(dims)
            if tuples > FRONTIER_CAP:
                raise CapExceeded(f"{tuples} slot tuples of one member exceed cap {FRONTIER_CAP}")
            positions = self.members[a]
            if not any(p.moves(player, limit) for p in positions.values()):
                continue  # no moves to intersect, so no groups to build
            for j in dims:
                if j not in groups:
                    groups[j] = through_groups(self.used[j], self.classes[j], limit)
            for combo in product(*[groups[j] for j in dims]):
                vecs = product(*[keys for keys, _ in combo])
                found = positions[next(vecs)].moves(player, limit)
                for vec in vecs:
                    if not found:
                        break
                    found = found & positions[vec].moves(player, limit)
                if found:
                    spots = [("",)] * n
                    for j, (_, ws) in zip(dims, combo):
                        spots[j] = ws
                    for slots in product(*spots):
                        yield a, slots, found


class _Recurrence(Copies):
    """Rep or Corep: one member in one dimension, no cap on its class
    vectors.  A move `w.m` is `m` in every copy whose address extends w.
    `decisive` is the player who wins by winning one copy."""

    __slots__ = ("decisive",)
    own = ((0,),)
    cap = inf

    def __init__(self, decisive: Player, used, classes, members):
        self.decisive, self._memo = decisive, {}
        self.used, self.classes, self.members = used, classes, members

    def _next(self, used, classes, members) -> _Recurrence:
        return _Recurrence(self.decisive, used, classes, members)

    def advance(self, lm: Labmove) -> Position | None:
        parts = split_address(lm.move)
        if parts is None:
            return None
        return self.advance_at(0, (parts[0],), _labmove((lm.label, parts[1])))

    def _moves(self, player: Player, limit: int) -> Iterable[str]:
        return (f"{slots[0]}.{m}" for _, slots, found in self.open_moves(player, limit)
                for m in found)

    def _winner(self) -> Player:
        d = self.decisive
        return d if any(p.winner() is d for p in self.members[0].values()) else d.other


def start(g: Game) -> Position:
    """The position of the empty run."""
    return _start(g, False)


def _start(g: Game, flip: bool) -> Position:
    """`start` of `Neg(g)` when `flip` is set: negation is pushed down to the
    atoms by De Morgan's laws."""
    if isinstance(g, Tree):
        return g.root.positions[flip]
    if isinstance(g, Neg):
        return _start(g.sub, not flip)
    # a conjunction, or Rep, is lost by losing one part or copy; negation
    # turns it into a disjunction, or Corep, which is won by winning one
    decisive = BOT if isinstance(g, (Conj, Rep)) else TOP
    decisive = decisive.other if flip else decisive
    if isinstance(g, (Conj, Disj)):
        return _Parallel(decisive, (_start(g.left, flip), _start(g.right, flip)))
    if isinstance(g, (Rep, Corep)):
        return _Recurrence(decisive, (frozenset(),), ((None,),),
                           ({(None,): _start(g.sub, flip)},))
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


@dataclass
class StaticReport:
    """The verdict of `is_static`: true, or a breach by `player`."""

    player: Player | None = None
    original: Run = ()
    delayed: Run = ()

    def __bool__(self) -> bool:
        return self.player is None


def _then(state: Position | Player, lm: Labmove) -> Position | Player:
    """A run's state once lm is added: its position, or its offender once
    the run is decided, which no later move changes."""
    nxt = state if isinstance(state, Player) else state.advance(lm)
    return lm.label if nxt is None else nxt


def _won(state: Position | Player) -> Player:
    return state.other if isinstance(state, Player) else state.winner()


def is_static(g: Game) -> StaticReport:
    """Decide whether the atom game g is static; if not, report a breach of
    least length: a run Γ and a pi-delay Δ, which postpones some pi moves
    past later opponent moves, where Γ is legal and pi is Δ's offender, or
    pi wins Γ and not Δ.

    The search runs breadth first over states (pi, Γ's state, Δ's state,
    owed): a run's state is its position, or its offender once it is
    decided, and `owed` the pi moves Γ has played and Δ not yet.  Γ adds a
    move of the tree or one junk move, which stands for every move not in
    it.  A pi move joins `owed`; before an opponent move Δ plays a prefix of
    `owed`; where Γ ends Δ plays the rest.  That gives exactly the delays.
    It ends, as a state keeps only Δ's states along `owed` up to the first
    decided one: a decided run keeps its outcome, and Δ is decided by its
    first illegal move, at most one more than the height of Δ's node.
    """
    if not isinstance(g, Tree):
        raise ValueError("the static check takes an atom game")
    moves = sorted(g.root.moves())
    moves.append(max(moves, default="") + "_")  # sorts after, so differs from, every move
    labmoves = [Labmove(label, m) for m in moves for label in (TOP, BOT)]
    seen = set()
    queue = deque((pi, start(g), start(g), (), (), ()) for pi in (TOP, BOT))
    while queue:
        pi, gs, ds, owed, gamma, delta = queue.popleft()
        # Δ's state once it plays each prefix of owed; a decided one repeats
        # to the end, and is kept once
        path = tuple(dict.fromkeys(accumulate(owed, _then, initial=ds)))
        if (pi, gs, path) in seen:
            continue
        seen.add((pi, gs, path))
        if (not isinstance(gs, Player) and path[-1] is pi
                or _won(gs) is pi and _won(path[-1]) is not pi):
            return StaticReport(pi, gamma, delta + owed)
        for lm in labmoves:
            after = _then(gs, lm)
            if lm.label is pi:
                queue.append((pi, after, ds, owed + (lm,), gamma + (lm,), delta))
                continue
            for k, played in enumerate(path):  # Δ plays owed[:k], then lm
                queue.append((pi, after, _then(played, lm), owed[k:], gamma + (lm,),
                              delta + owed[:k] + (lm,)))
    return StaticReport()
