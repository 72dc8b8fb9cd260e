"""Cirquents: sequences of oformulas wired to undergroups and overgroups.

A cirquent is played like the parallel composition of its oformulas, except
that every overgroup spans a branching-copy dimension shared by its members.
A move has the form `a;u1,...,un.rest`: oformula index, one address bitstring
per overgroup, and a move of the indexed oformula's game.  Bitstrings for
overgroups not containing the oformula must be empty.
A referee judges a run one move at a time from `start(c, interp)`, with
the position protocol of `games`: `advance`, `moves` and `winner`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Mapping, NamedTuple

from . import formulas as fm
from . import games as gm
from .games import BOT, TOP, Labmove, Player, Run
from .reader import Reader


class CirquentError(ValueError):
    pass


class ClassCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Cirquent:
    oformulas: tuple[fm.Formula, ...]
    undergroups: tuple[frozenset[int], ...]
    overgroups: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return len(self.oformulas)


def validate_cirquent(c: Cirquent) -> None:
    k = len(c.oformulas)
    if k < 1:
        raise CirquentError("a cirquent needs at least one oformula")
    if not c.undergroups or not c.overgroups:
        raise CirquentError("a cirquent needs at least one group of each kind")
    indices = set(range(1, k + 1))
    for kind, groups in (("undergroup", c.undergroups), ("overgroup", c.overgroups)):
        for g in groups:
            if not g:
                raise CirquentError(f"empty {kind}")
            if not g <= indices:
                raise CirquentError(f"{kind} {sorted(g)} references a bad index")
    bare_under = indices.difference(*c.undergroups)
    bare_over = indices.difference(*c.overgroups)
    if bare_under or bare_over:
        i = min(bare_under | bare_over)
        kind = "undergroup" if i in bare_under else "overgroup"
        raise CirquentError(f"oformula {i} is in no {kind}")


def club(f: fm.Formula) -> Cirquent:
    """The one-oformula cirquent with a single group on each side."""
    return Cirquent((f,), (frozenset({1}),), (frozenset({1}),))


# ------------------------------------------------------------- text format
#
# cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }
#
# `value` and `mapping_body` also read the proof file format, so they handle
# nested blocks, lists, strings, integers, and bare words generically.


def value(r: Reader):
    """A list, a `{ ... }` mapping, a string, an integer or a bare word."""
    toks = r.toks
    tok, name, num, string = toks[r.pos]
    if tok is None:
        r.take()  # raises: the input ended
    r.pos += 1
    if tok == "[":
        items = []
        while toks[r.pos][0] != "]":
            items.append(value(r))
            if toks[r.pos][0] == ",":
                r.pos += 1
        r.take("]")
        return items
    if tok == "{":
        return mapping_body(r)
    if string:
        return string[1:-1]
    if num:
        return int(num)
    if name:
        return name
    raise CirquentError(f"unexpected token {tok!r}")


class Block(dict):
    """A `{ key: value; ... }` mapping as `mapping_body` read it.  A key given
    more than once keeps its last value and is listed in `repeated`."""

    repeated: tuple[str, ...] = ()


def mapping_body(r: Reader) -> Block:
    """`key: value; ...` up to and including the closing brace."""
    toks = r.toks
    out = Block()
    while toks[r.pos][0] != "}":
        tok, key, _, _ = r.take()
        if not key:
            raise CirquentError(f"expected a field name, got {tok!r}")
        r.take(":")
        if key in out:
            out.repeated += (key,)
        out[key] = value(r)
        if toks[r.pos][0] == ";":
            r.pos += 1
    r.take("}")
    return out


def bad_key(fields: dict, allowed: frozenset[str]) -> str | None:
    """What is wrong with the keys of a block that may hold only `allowed`:
    a repeated or an unknown key.  None when nothing is."""
    repeated = getattr(fields, "repeated", ())
    if not repeated and fields.keys() <= allowed:
        return None
    if repeated:
        return f"field {repeated[0]!r} given twice"
    return f"unknown field {next(k for k in fields if k not in allowed)!r}"


def memo_formulas(texts: list, formulas: dict[str, fm.Formula]) -> list[fm.Formula]:
    """`texts` parsed, each looked up in or added to the memo `formulas`; a
    non-string entry, hashable or not, goes on to parse_formula's error."""
    out = []
    for s in texts:
        f = formulas.get(s) if type(s) is str else None
        if f is None:
            f = formulas[s] = fm.parse_formula(s)
        out.append(f)
    return out


_CIRQUENT_FIELDS = frozenset({"oformulas", "under", "over"})


def _cirquent_from_fields(fields: dict, formulas: dict[str, fm.Formula]) -> Cirquent:
    """`formulas` maps oformula text to its parse; texts missing from it are
    parsed and added, so a caller reading many cirquents parses each once."""
    bad = bad_key(fields, _CIRQUENT_FIELDS)
    if bad:
        raise CirquentError(f"cirquent: {bad}")
    try:
        ofs = memo_formulas(fields["oformulas"], formulas)
        under = tuple(frozenset(g) for g in fields["under"])
        over = tuple(frozenset(g) for g in fields["over"])
    except (KeyError, TypeError) as e:
        raise CirquentError(f"malformed cirquent fields: {e}") from e
    if not all(type(i) is int for g in under + over for i in g):
        raise CirquentError("groups must list oformula indices")
    c = Cirquent(tuple(ofs), under, over)
    validate_cirquent(c)
    return c


def parse_cirquent(text: str) -> Cirquent:
    r = Reader(text, CirquentError)
    r.take("cirquent")
    r.take("{")
    c = _cirquent_from_fields(mapping_body(r), {})
    r.end()
    return c


def format_cirquent(c: Cirquent) -> str:
    ofs = ", ".join(f'"{fm.format_formula(f)}"' for f in c.oformulas)
    under = ", ".join("[" + ", ".join(map(str, sorted(g))) + "]" for g in c.undergroups)
    over = ", ".join("[" + ", ".join(map(str, sorted(g))) + "]" for g in c.overgroups)
    return f"cirquent {{ oformulas: [{ofs}]; under: [{under}]; over: [{over}] }}"


# ------------------------------------------------------------------- moves


class CirquentMove(NamedTuple):
    index: int
    slots: tuple[str, ...]
    inner: str


_MOVE = re.compile(r"(\d+);([01,]*)\.(.*)", re.DOTALL)


def parse_move(n_overgroups: int, move: str) -> CirquentMove | None:
    """Shape-only parse; None when the string is not of the right form."""
    m = _MOVE.fullmatch(move)
    if m is None:
        return None
    try:
        index = int(m.group(1))
    except ValueError:  # more digits than int() converts
        return None
    if index < 1:
        return None
    slots = tuple(m.group(2).split(","))
    if len(slots) != n_overgroups:
        return None
    return CirquentMove(index, slots, m.group(3))


def format_move(mv: CirquentMove) -> str:
    return f"{mv.index};{','.join(mv.slots)}.{mv.inner}"


def respects_membership(c: Cirquent, mv: CirquentMove) -> bool:
    """Overgroups not containing the oformula must get empty addresses."""
    if not 1 <= mv.index <= c.width:
        return False
    return all(
        mv.slots[j] == ""
        for j, group in enumerate(c.overgroups)
        if mv.index not in group
    )


def project_member(c: Cirquent, run: Run, index: int, stems: tuple[str, ...]) -> Run:
    """The run seen by oformula `index` on the copy addressed by `stems`."""
    n = len(c.overgroups)
    out = []
    for lm in run:
        mv = parse_move(n, lm.move)
        if mv is not None and mv.index == index and all(map(gm.covers, stems, mv.slots)):
            out.append(Labmove(lm.label, mv.inner))
    return tuple(out)


# -------------------------------------------------------- legality, winner


def _capped(total: int, cap: int) -> None:
    if total > cap:
        raise ClassCapExceeded(f"{total} copy-address classes exceed cap {cap}")


@dataclass(frozen=True)
class _Shape:
    cirquent: Cirquent
    own: tuple[tuple[int, ...], ...]  # per oformula, the overgroups holding it
    cap: int


class Position:
    """What a legal run of a cirquent has settled, never changed once built.

    Per overgroup j it holds the used addresses `used[j]` and the chains of
    their classes `classes[j]`, as `games.split_classes` keeps them.  Per
    oformula it holds one game position per class vector of the overgroups
    holding it: the copies on one vector have seen the same moves.  A move of
    oformula a at slots w refines the classes of every overgroup that gets a
    new address, and with them the vectors of every member of those
    overgroups; both parts of a split vector start from its position, and
    only a's vectors through w take the move.  The protocol is the one of
    `games.Position`.  ClassCapExceeded fires when an oformula's vectors, or
    the vectors a move or a frontier address goes through, exceed `cap`.
    """

    __slots__ = ("shape", "used", "classes", "members")

    def __init__(self, shape: _Shape, used, classes, members):
        self.shape, self.used, self.classes, self.members = shape, used, classes, members

    def advance(self, lm: Labmove) -> Position | None:
        shape = self.shape
        mv = parse_move(len(self.used), lm.move)
        if mv is None or not respects_membership(shape.cirquent, mv):
            return None
        mine = shape.own[mv.index - 1]
        # per overgroup of the mover: (chain, chain before, through the slot)
        lineage = {j: gm.split_classes(self.used[j], self.classes[j], mv.slots[j])
                   for j in mine}
        changed = {j for j in mine if mv.slots[j] not in self.used[j]}
        used, classes = list(self.used), list(self.classes)
        for j in changed:
            used[j] = used[j] | {mv.slots[j]}
            classes[j] = tuple(chain for chain, _, _ in lineage[j])
        inner = Labmove(lm.label, mv.inner)
        members = list(self.members)
        for b, own in enumerate(shape.own, 1):
            mover = b == mv.index
            if not mover and changed.isdisjoint(own):
                continue
            lines = [lineage[j] if j in lineage else [(cl, cl, False) for cl in classes[j]]
                     for j in own]
            _capped(prod(map(len, lines)), shape.cap)
            out = {}
            for combo in product(*lines):
                pos = self.members[b - 1][tuple(old for _, old, _ in combo)]
                if mover and all(through for _, _, through in combo):
                    pos = pos.advance(inner)
                    if pos is None:
                        return None
                out[tuple(chain for chain, _, _ in combo)] = pos
            members[b - 1] = out
        return Position(shape, tuple(used), tuple(classes), tuple(members))

    def moves(self, player: Player, limit: int) -> set[str]:
        shape, used, n = self.shape, self.used, len(self.used)
        addresses = gm.addresses(limit)
        # per overgroup and address: the class of the copy it names
        named = [[(w, gm.chain_of(u, w)) for w in addresses] for u in used]
        through: dict[tuple[int, str], list[frozenset[str]]] = {}
        out: set[str] = set()
        for a, own in enumerate(shape.own, 1):
            positions = self.members[a - 1]
            memo: dict[tuple, set[str]] = {}
            for combo in product(*(named[j] for j in own)):
                # as in games: start from the copy the slots name
                vec = tuple(chain for _, chain in combo)
                found = memo.get(vec)
                if found is None:
                    found = memo[vec] = positions[vec].moves(player, limit)
                if not found:
                    continue
                lines = []
                for j, (w, _) in zip(own, combo):
                    if (j, w) not in through:
                        through[j, w] = gm.through_classes(used[j], self.classes[j], w)
                    lines.append(through[j, w])
                _capped(prod(map(len, lines)), shape.cap)
                for vec in product(*lines):
                    if vec not in memo:
                        memo[vec] = positions[vec].moves(player, limit)
                    found = found & memo[vec]
                    if not found:
                        break
                if found:
                    slots = [""] * n
                    for j, (w, _) in zip(own, combo):
                        slots[j] = w
                    head = f"{a};{','.join(slots)}."
                    out.update(head + m for m in found)
        return out

    def winner(self) -> Player:
        shape = self.shape
        _capped(prod(map(len, self.classes)), shape.cap)
        memo: dict[tuple, Player] = {}

        def member_winner(a: int, vec: tuple) -> Player:
            # oformula a sees only the classes of its own overgroups
            key = (a, tuple(vec[j] for j in shape.own[a - 1]))
            if key not in memo:
                memo[key] = self.members[a - 1][key[1]].winner()
            return memo[key]

        for group in shape.cirquent.undergroups:
            for vec in product(*self.classes):
                if not any(member_winner(a, vec) is TOP for a in group):
                    return BOT
        return TOP


def start(c: Cirquent, interp: Mapping[str, gm.GameNode], cap: int = 100_000) -> Position:
    """The position of the empty run."""
    own = tuple(
        tuple(j for j, group in enumerate(c.overgroups) if a in group)
        for a in range(1, c.width + 1)
    )
    none = frozenset()
    return Position(
        _Shape(c, own, cap),
        tuple(none for _ in c.overgroups),
        tuple((none,) for _ in c.overgroups),
        tuple({tuple(none for _ in js): gm.start(gm.of_formula(f, interp))}
              for js, f in zip(own, c.oformulas)),
    )


def legal(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run,
          cap: int = 100_000) -> bool:
    return first_offender(c, interp, run, cap) is None


def first_offender(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run,
                   cap: int = 100_000) -> Player | None:
    return gm.judge(start(c, interp, cap), run)[1]


def winner(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run,
           cap: int = 100_000) -> Player:
    pos, off = gm.judge(start(c, interp, cap), run)
    return pos.winner() if off is None else off.other


# ----------------------------------------------------------------- diagram


def diagram(c: Cirquent) -> str:
    """Three-row picture: overgroup bullets, oformulas, undergroup bullets."""
    labels = [fm.format_formula(f) for f in c.oformulas]
    centers = []
    col = 0
    for text in labels:
        centers.append(col + len(text) // 2)
        col += len(text) + 3
    width = max(col - 3, 1)
    label_row = (" " * 3).join(labels)

    def bullet_rows(groups: tuple[frozenset[int], ...], above: bool) -> list[str]:
        bullets = []
        taken: set[int] = set()
        for g in groups:
            pos = sum(centers[i - 1] for i in g) // len(g)
            while pos in taken:
                pos += 2
            taken.add(pos)
            bullets.append((pos, g))
        brow = [" "] * (max((p for p, _ in bullets), default=0) + 1)
        arow = [" "] * max(width, len(brow))
        for pos, g in bullets:
            brow[pos] = "*"
            for i in g:
                cm = centers[i - 1]
                mid = (cm + pos) // 2
                if cm == pos:
                    ch = "|"
                elif (cm > pos) == above:
                    ch = "\\"
                else:
                    ch = "/"
                if mid >= len(arow):
                    arow.extend(" " * (mid - len(arow) + 1))
                arow[mid] = ch
        rows = ["".join(brow).rstrip(), "".join(arow).rstrip()]
        return rows if above else rows[::-1]

    out = bullet_rows(c.overgroups, True) + [label_row] + bullet_rows(c.undergroups, False)
    return "\n".join(r for r in out)
