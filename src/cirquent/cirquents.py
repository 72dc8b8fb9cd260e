"""Cirquents: sequences of oformulas wired to undergroups and overgroups.

A cirquent is played like the parallel composition of its oformulas, except
that every overgroup spans a branching-copy dimension shared by its members.
A move has the form `a;u1,...,un.rest`: oformula index, one address bitstring
per overgroup, and a move of the indexed oformula's game.  Bitstrings for
overgroups not containing the oformula must be empty.
A referee judges a run one move at a time from `start(c, interp)`, a
`games.Copies` table with the position protocol of `games`: `advance`,
`moves` and `winner`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import prod
from typing import Iterator, Mapping, NamedTuple

from . import formulas as fm
from . import games as gm
from .games import BOT, TOP, Labmove, Player, Run, _labmove
from .reader import GROUPS, STRING, STRINGS, Reader, int_groups, is_string


class CirquentError(ValueError):
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
# The body after the keyword is also the `cirquent` field of a proof step.


def read_formulas(r: Reader) -> tuple[fm.Formula, ...]:
    """`[ "text", ... ]`, possibly empty, each text looked up in or added to
    `r.memo`."""
    def one() -> fm.Formula:
        tok = r.take()
        if not is_string(tok):
            raise r.error(f"expected a quoted formula, got {tok!r}")
        f = r.memo.get(tok)
        if f is None:
            f = r.memo[tok] = fm.parse_formula(tok[1:-1])
        return f

    return tuple(r.items(one))


_FIELDS = ("oformulas", "under", "over")


def read_body(r: Reader) -> Cirquent:
    """`{ oformulas: ...; under: ...; over: ... }`, in that order; errors are
    CirquentErrors (FormulaErrors in oformula text), whatever `r` raises
    elsewhere."""
    outer, r.error = r.error, CirquentError

    def group() -> frozenset[int]:
        return frozenset(r.items(r.integer))

    r.field(_FIELDS, 0)
    ofs = read_formulas(r)
    r.field(_FIELDS, 1)
    under = tuple(r.items(group))
    r.field(_FIELDS, 2)
    over = tuple(r.items(group))
    r.close(_FIELDS)
    r.error = outer
    c = Cirquent(ofs, under, over)
    validate_cirquent(c)
    return c


# A body as one regex piece (see `reader.INT`), its three lists captured.
BODY = (rf"\{{\s*oformulas\s*:\s*({STRINGS})\s*;\s*under\s*:\s*({GROUPS})\s*;"
        rf"\s*over\s*:\s*({GROUPS})\s*(?:;\s*)?\}}")
_STRING = re.compile(STRING)


def formula_list(text: str, memo: dict) -> tuple[fm.Formula, ...]:
    """The formulas of a string `reader.LIST` match, each quoted text looked
    up in or added to `memo` as `read_formulas` does; ValueError for an
    integer or a non-list."""
    out = []
    for tok in _STRING.findall(text):
        f = memo.get(tok)
        if f is None:
            f = memo[tok] = fm.parse_formula(tok[1:-1])
        out.append(f)
    if not out and text[1:].strip() != "]":
        raise ValueError(f"not a string list: {text!r}")
    return tuple(out)


def body_of(ofs: str, under: str, over: str, memo: dict, lists: dict) -> Cirquent:
    """The valid cirquent whose lists are the three `BODY` groups, each list
    and each group looked up in or added to `lists` by its text; ValueError
    (a CirquentError or FormulaError among them) if there is none."""
    o = lists.get(ofs)
    if o is None:
        o = lists[ofs] = formula_list(ofs, memo)
    u = lists.get(under)
    if u is None:
        u = lists[under] = int_groups(under, lists)
    v = lists.get(over)
    if v is None:
        v = lists[over] = int_groups(over, lists)
    c = Cirquent(o, u, v)
    validate_cirquent(c)
    return c


def parse_cirquent(text: str) -> Cirquent:
    r = Reader(text, CirquentError)
    r.take("cirquent")
    c = read_body(r)
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


# `CirquentMove(index, slots, inner)` without the Python-level `__new__` that
# NamedTuple generates: the referee and every strategy layer build their
# moves through this.
_move = partial(tuple.__new__, CirquentMove)

_MOVE = re.compile(r"([0-9]+);([01,]*)\.(.*)", re.DOTALL)


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
    return _move((index, slots, m.group(3)))


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


class Position(gm.Copies):
    """What a legal run of a cirquent has settled, never changed once built:
    a `games.Copies` table whose members are the oformulas and whose
    dimensions are the overgroups, `own[a - 1]` holding oformula a.  The
    protocol is the one of `games.Position`; `winner()` asks each undergroup
    for a member that wins on every class vector of the overgroups its
    members belong to, and `games.CapExceeded` also fires when those vectors
    exceed `cap`.
    """

    __slots__ = ("cirquent", "own")
    cap = 100_000  # class vectors of one member, or of one undergroup's overgroups

    def __init__(self, cirquent: Cirquent, own, used, classes, members):
        self.cirquent, self.own, self._memo = cirquent, own, {}
        self.used, self.classes, self.members = used, classes, members

    def _next(self, used, classes, members) -> Position:
        return Position(self.cirquent, self.own, used, classes, members)

    def advance(self, lm: Labmove) -> Position | None:
        mv = parse_move(len(self.used), lm.move)
        if mv is None or not respects_membership(self.cirquent, mv):
            return None
        return self.advance_at(mv.index - 1, mv.slots, _labmove((lm.label, mv.inner)))

    def _moves(self, player: Player, limit: int) -> Iterator[str]:
        for a, slots, found in self.open_moves(player, limit):
            head = f"{a + 1};{','.join(slots)}."
            for m in found:
                yield head + m

    def _winner(self) -> Player:
        own, members = self.own, self.members
        for group in self.cirquent.undergroups:
            # the members see only the classes of their own overgroups, so
            # one class stands for each other overgroup
            seen = set().union(*[own[a - 1] for a in group])
            lines = [cls if j in seen else cls[:1] for j, cls in enumerate(self.classes)]
            self._check_cap(prod(map(len, lines)))
            for vec in product(*lines):
                for a in group:
                    if members[a - 1][tuple([vec[j] for j in own[a - 1]])].winner() is TOP:
                        break
                else:
                    return BOT
        return TOP


def start(c: Cirquent, interp: Mapping[str, gm.GameNode]) -> Position:
    """The position of the empty run."""
    own = tuple(
        tuple(j for j, group in enumerate(c.overgroups) if a in group)
        for a in range(1, c.width + 1)
    )
    return Position(
        c, own,
        tuple(frozenset() for _ in c.overgroups),
        tuple((None,) for _ in c.overgroups),
        tuple({(None,) * len(js): gm.start(gm.of_formula(f, interp))}
              for js, f in zip(own, c.oformulas)),
    )


def legal(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run) -> bool:
    return first_offender(c, interp, run) is None


def first_offender(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run) -> Player | None:
    return gm.judge(start(c, interp), run)[1]


def winner(c: Cirquent, interp: Mapping[str, gm.GameNode], run: Run) -> Player:
    pos, off = gm.judge(start(c, interp), run)
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
