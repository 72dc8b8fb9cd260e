"""Cirquents: sequences of oformulas wired to undergroups and overgroups.

A cirquent is played like the parallel composition of its oformulas, except
that every overgroup spans a branching-copy dimension shared by its members.
A move has the form `a;u1,...,un.rest`: oformula index, one address bitstring
per overgroup, and a move of the indexed oformula's game.  Bitstrings for
overgroups not containing the oformula must be empty.
Legality is prefix-closed, and a new move changes only its own oformula's
copies whose addresses it covers, so `first_offender` re-judges just those,
and `legal_moves` intersects the legal moves of just those copies.
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
    index = int(m.group(1))
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


def parse_moves(c: Cirquent, run: Run) -> list[CirquentMove | None]:
    """Each move of `run` parsed, or None where its shape or membership is bad."""
    n = len(c.overgroups)
    out: list[CirquentMove | None] = []
    for lm in run:
        mv = parse_move(n, lm.move)
        out.append(mv if mv is not None and respects_membership(c, mv) else None)
    return out


def project_parsed(
    run: Run, moves: list[CirquentMove | None], index: int, stems: tuple[str, ...]
) -> Run:
    """`project_member` over the moves of `run` already parsed."""
    return tuple(
        Labmove(lm.label, mv.inner)
        for lm, mv in zip(run, moves)
        if mv is not None and mv.index == index
        and all(gm.covers(s, u) for s, u in zip(stems, mv.slots))
    )


def project_member(c: Cirquent, run: Run, index: int, stems: tuple[str, ...]) -> Run:
    """The run seen by oformula `index` on the copy addressed by `stems`."""
    n = len(c.overgroups)
    return project_parsed(run, [parse_move(n, lm.move) for lm in run], index, stems)


# -------------------------------------------------------- legality, winner


def member_games(c: Cirquent, interp: Mapping[str, gm.GameNode]) -> list[gm.Game]:
    return [gm.of_formula(f, interp) for f in c.oformulas]


def _used(c: Cirquent, moves: list[CirquentMove]) -> list[set[str]]:
    used: list[set[str]] = [set() for _ in c.overgroups]
    for mv in moves:
        for j, u in enumerate(mv.slots):
            used[j].add(u)
    return used


def _capped(options: list[list[str]], cap: int) -> list[list[str]]:
    """`options`, one list per overgroup, once the vectors taking one entry
    from each are known to number at most `cap`."""
    total = prod(len(o) for o in options)
    if total > cap:
        raise ClassCapExceeded(f"{total} copy-address classes exceed cap {cap}")
    return options


def _slot_classes(used: list[set[str]], cap: int) -> list[list[str]]:
    return _capped([gm.thread_classes(u) for u in used], cap)


def _member_vectors(c: Cirquent, index: int, per_slot: list[list[str]]):
    """Class vectors that can tell apart the copies of oformula `index`; its
    address in an overgroup it is not in is always empty."""
    return product(*(
        cl if index in group else [""] for cl, group in zip(per_slot, c.overgroups)
    ))


def legal(
    c: Cirquent,
    interp: Mapping[str, gm.GameNode],
    run: Run,
    cap: int = 100_000,
    *,
    games: list[gm.Game] | None = None,
) -> bool:
    """`games` are the member games, built from `interp` when not given."""
    moves = parse_moves(c, run)
    if None in moves:
        return False
    games = games if games is not None else member_games(c, interp)
    per_slot = _slot_classes(_used(c, moves), cap)
    for a in range(1, c.width + 1):
        seen: set[Run] = set()
        for vec in _member_vectors(c, a, per_slot):
            proj = project_parsed(run, moves, a, vec)
            if proj in seen:
                continue
            seen.add(proj)
            if not gm.legal(games[a - 1], proj):
                return False
    return True


def _covering_projections(
    c: Cirquent,
    run: Run,
    moves: list[CirquentMove],
    used: list[set[str]],
    index: int,
    slots: tuple[str, ...],
    cap: int,
) -> set[Run]:
    """What oformula `index` saw of the legal `run` (parsed into `moves`,
    addresses `used`) on each copy whose addresses cover `slots`.  A move
    there can change only these runs; every other copy's run stays legal."""
    covering = [
        gm.threads_through(u, w) if index in group else [""]
        for u, w, group in zip(used, slots, c.overgroups)
    ]
    return {
        project_parsed(run, moves, index, vec)
        for vec in product(*_capped(covering, cap))
    }


def _extends(games: list[gm.Game], projections: set[Run], lm: Labmove,
             mv: CirquentMove) -> bool:
    game = games[mv.index - 1]
    inner = Labmove(lm.label, mv.inner)
    return all(gm.legal_extension(game, proj, inner) for proj in projections)


def legal_moves(
    c: Cirquent,
    interp: Mapping[str, gm.GameNode],
    run: Run,
    player: Player,
    limit: int,
    cap: int = 100_000,
    *,
    games: list[gm.Game] | None = None,
) -> set[str]:
    """The moves `player` can add to the legal `run`, with copy addresses of
    at most `limit` bits in every overgroup and inside every oformula."""
    moves = parse_moves(c, run)
    games = games if games is not None else member_games(c, interp)
    used = _used(c, moves)
    addresses = gm.addresses(limit)
    memo: dict[tuple[int, Run], set[str]] = {}

    def copy_moves(a: int, proj: Run) -> set[str]:
        if (a, proj) not in memo:
            memo[a, proj] = gm.legal_moves(games[a - 1], proj, player, limit)
        return memo[a, proj]

    out: set[str] = set()
    for a in range(1, c.width + 1):
        slot_options = [addresses if a in group else [""] for group in c.overgroups]
        for slots in product(*slot_options):
            # as in games.legal_moves: start from the copy the slots name
            found = copy_moves(a, project_parsed(run, moves, a, slots))
            if found:
                for proj in _covering_projections(c, run, moves, used, a, slots, cap):
                    found = found & copy_moves(a, proj)
                out.update(format_move(CirquentMove(a, slots, m)) for m in found)
    return out


def first_offender(
    c: Cirquent,
    interp: Mapping[str, gm.GameNode],
    run: Run,
    cap: int = 100_000,
    *,
    games: list[gm.Game] | None = None,
) -> Player | None:
    games = games if games is not None else member_games(c, interp)
    moves = parse_moves(c, run)
    used: list[set[str]] = [set() for _ in c.overgroups]
    for i, (lm, mv) in enumerate(zip(run, moves)):
        if mv is None or not _extends(
            games,
            _covering_projections(c, run[:i], moves[:i], used, mv.index, mv.slots, cap),
            lm, mv,
        ):
            return lm.label
        for u, w in zip(used, mv.slots):
            u.add(w)
    return None


def winner(
    c: Cirquent,
    interp: Mapping[str, gm.GameNode],
    run: Run,
    cap: int = 100_000,
    *,
    games: list[gm.Game] | None = None,
) -> Player:
    games = games if games is not None else member_games(c, interp)
    off = first_offender(c, interp, run, cap, games=games)
    if off is not None:
        return off.other
    moves = parse_moves(c, run)
    per_slot = _slot_classes(_used(c, moves), cap)
    members = [
        [j for j, group in enumerate(c.overgroups) if a in group]
        for a in range(1, c.width + 1)
    ]
    memo: dict[tuple[int, tuple[str, ...]], Player] = {}

    def member_winner(a: int, vec: tuple[str, ...]) -> Player:
        # oformula a sees only the addresses of its own overgroups
        key = (a, tuple(vec[j] for j in members[a - 1]))
        if key not in memo:
            proj = project_parsed(run, moves, a, vec)
            memo[key] = gm.winner(games[a - 1], proj)
        return memo[key]

    for group in c.undergroups:
        for vec in product(*per_slot):
            if not any(member_winner(a, vec) is TOP for a in group):
                return BOT
    return TOP


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
