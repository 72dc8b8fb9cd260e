"""Frozen oracle: the string-protocol strategy compiler that
`cirquent.strategies` replaced, with only its imports made absolute.

Every layer here re-parses the whole simulated run as strings; the
structured stack must return the same real blocks.  Do not edit.

Compiling proofs into winning strategies.

A Transducer is a deterministic block-move strategy: given the run observed
so far, it returns the moves it wants appended.  The axiom cirquent is won by
a copycat between dual pair members; every rule then lifts a strategy for its
premise cirquent to one for its conclusion by translating moves back and
forth, so a checked proof folds into a strategy for its final cirquent, and
two bridge wrappers turn that into a strategy for the bare formula game.

Move translation is interpretation-blind: only move shapes are inspected, so
the compiled strategy is the same whatever games the atoms denote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from cirquent import formulas as fm
from cirquent import rules as rl
from cirquent.cirquents import Cirquent, CirquentMove, format_move, parse_move
from cirquent.fusion import defusion, fusions
from cirquent.games import BOT, TOP, Labmove, Run
from cirquent.rules import RuleApp, Step


class Transducer:
    """Single-use reactive strategy; step() sees the whole run so far and
    returns a block of moves to append.  Calls must present runs that extend
    one another by the previously returned block plus opponent moves."""

    def step(self, observed: Run) -> list[str]:
        raise NotImplementedError


class AxiomCopycat(Transducer):
    """Mirrors every opponent move between the two members of its diamond.

    Pair member of index a is a+1 when a is odd, a-1 when even.  The
    `swapped` pairing inverts that parity; it is a deliberately broken
    variant kept for harness calibration.
    """

    def __init__(self, diamonds: int, pairing: str = "standard"):
        if pairing not in ("standard", "swapped"):
            raise ValueError(f"unknown pairing {pairing!r}")
        self.diamonds = diamonds
        self.pairing = pairing
        self._seen = 0

    def _partner(self, a: int) -> int:
        if self.pairing == "standard":
            return a + 1 if a % 2 == 1 else a - 1
        return a - 1 if a % 2 == 1 else a + 1

    def step(self, observed: Run) -> list[str]:
        out: list[str] = []
        for lm in observed[self._seen:]:
            if lm.label is BOT:
                mv = parse_move(self.diamonds, lm.move)
                if mv is not None and 1 <= mv.index <= 2 * self.diamonds:
                    echo = CirquentMove(self._partner(mv.index), mv.slots, mv.inner)
                    out.append(format_move(echo))
        self._seen = len(observed) + len(out)
        return out


class Translated(Transducer):
    """Plays the conclusion of a rule by simulating a premise strategy.

    Opponent moves on the real board are translated into simulated opponent
    moves; the inner strategy's responses are translated back into real
    moves.  Subclasses fill in the two translations; either may fan one move
    out into several or drop an opponent move that was already illegal.
    """

    def __init__(self, inner: Transducer):
        self.inner = inner
        self.sim: list[Labmove] = []
        self._seen = 0

    def env_to_sim(self, move: str) -> list[str]:
        return [move]

    def sim_to_real(self, move: str) -> list[str]:
        return [move]

    def note_real(self, labmove: Labmove) -> None:
        pass

    def step(self, observed: Run) -> list[str]:
        for lm in observed[self._seen:]:
            self.note_real(lm)
            if lm.label is BOT:
                for m in self.env_to_sim(lm.move):
                    self.sim.append(Labmove(BOT, m))
        block = self.inner.step(tuple(self.sim))
        out: list[str] = []
        for m in block:
            self.sim.append(Labmove(TOP, m))
            for rm in self.sim_to_real(m):
                self.note_real(Labmove(TOP, rm))
                out.append(rm)
        self._seen = len(observed) + len(out)
        return out


def _reslot(mv: CirquentMove, slots: tuple[str, ...], index: int | None = None,
            inner: str | None = None) -> str:
    return format_move(
        CirquentMove(
            mv.index if index is None else index,
            slots,
            mv.inner if inner is None else inner,
        )
    )


def _split_inner(mv: CirquentMove) -> tuple[str, str] | None:
    from cirquent.games import split_address

    return split_address(mv.inner)


class _Swap(Translated):
    """Exchanges two adjacent positions of a move; the exchange is its own
    inverse, so both directions apply `_map`."""

    def __init__(self, inner: Transducer, n: int, pos: int):
        super().__init__(inner)
        self.n, self.pos = n, pos

    def _map(self, mv: CirquentMove) -> str:
        raise NotImplementedError

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        return [] if mv is None else [self._map(mv)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        return [move] if mv is None else [self._map(mv)]


class _OformulaSwap(_Swap):
    def _map(self, mv: CirquentMove) -> str:
        a = mv.index
        b = self.pos + 1 if a == self.pos else self.pos if a == self.pos + 1 else a
        return _reslot(mv, mv.slots, index=b)


class _OverSwap(_Swap):
    def _map(self, mv: CirquentMove) -> str:
        s = list(mv.slots)
        s[self.pos - 1], s[self.pos] = s[self.pos], s[self.pos - 1]
        return _reslot(mv, tuple(s))


class _WeakeningDrop(Translated):
    """Conclusion has an extra oformula (and maybe extra overgroups) that the
    premise never heard of; moves there are ignored, other moves reindex."""

    def __init__(self, inner: Transducer, n_real: int, dropped: int,
                 dropped_slots: tuple[int, ...]):
        super().__init__(inner)
        self.n_real = n_real
        self.n_sim = n_real - len(dropped_slots)
        self.dropped = dropped
        self.dropped_slots = set(dropped_slots)  # 0-based positions in real

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n_real, move)
        if mv is None or mv.index == self.dropped:
            return []
        if any(mv.slots[j] for j in self.dropped_slots):
            return []  # addressed a copy dimension it may not touch
        slots = tuple(s for j, s in enumerate(mv.slots) if j not in self.dropped_slots)
        index = mv.index - 1 if mv.index > self.dropped else mv.index
        return [_reslot(mv, slots, index=index)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n_sim, move)
        if mv is None:
            return [move]
        slots = list(mv.slots)
        for j in sorted(self.dropped_slots):
            slots.insert(j, "")
        index = mv.index + 1 if mv.index >= self.dropped else mv.index
        return [_reslot(mv, tuple(slots), index=index)]


class _ContractionSplit(Translated):
    """One '?' oformula stands for two premise copies: address bit 0 routes
    to the first copy, bit 1 to the second, and an unaddressed move goes to
    both."""

    def __init__(self, inner: Transducer, n: int, a: int):
        super().__init__(inner)
        self.n, self.a = n, a

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return []
        a = self.a
        if mv.index < a:
            return [move]
        if mv.index > a:
            return [_reslot(mv, mv.slots, index=mv.index + 1)]
        sp = _split_inner(mv)
        if sp is None:
            return []
        v, rest = sp
        if v == "":
            return [
                _reslot(mv, mv.slots, index=a, inner="." + rest),
                _reslot(mv, mv.slots, index=a + 1, inner="." + rest),
            ]
        head, tail = v[0], v[1:]
        return [_reslot(mv, mv.slots, index=a if head == "0" else a + 1,
                        inner=tail + "." + rest)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return [move]
        a = self.a
        if mv.index < a:
            return [move]
        if mv.index > a + 1:
            return [_reslot(mv, mv.slots, index=mv.index - 1)]
        sp = _split_inner(mv)
        if sp is None:
            return [_reslot(mv, mv.slots, index=a)]
        v, rest = sp
        bit = "0" if mv.index == a else "1"
        return [_reslot(mv, mv.slots, index=a, inner=bit + v + "." + rest)]


class _OverDupJoin(Translated):
    """Two identical conclusion overgroups collapse to one premise overgroup;
    address pairs are woven together by fusion and unwoven by defusion."""

    def __init__(self, inner: Transducer, n_real: int, pos: int):
        super().__init__(inner)
        self.n_real = n_real
        self.pos = pos  # 1-based; real slots pos-1 and pos merge

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n_real, move)
        if mv is None:
            return []
        p = self.pos - 1
        u1, u2 = mv.slots[p], mv.slots[p + 1]
        out = []
        for v in fusions((u1, u2)):
            slots = mv.slots[:p] + (v,) + mv.slots[p + 2:]
            out.append(_reslot(mv, slots))
        return out

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n_real - 1, move)
        if mv is None:
            return [move]
        p = self.pos - 1
        u1, u2 = defusion(mv.slots[p], 2)
        slots = mv.slots[:p] + (u1, u2) + mv.slots[p + 1:]
        return [_reslot(mv, slots)]


class _MergeSplit(Translated):
    """A merged overgroup covers members of both halves; a member of both
    plays one address woven from its two premise addresses."""

    def __init__(self, inner: Transducer, n_real: int, pos: int,
                 left: frozenset[int], right: frozenset[int]):
        super().__init__(inner)
        self.n_real = n_real
        self.pos = pos
        self.left, self.right = left, right

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n_real, move)
        if mv is None:
            return []
        p = self.pos - 1
        u = mv.slots[p]
        in_l, in_r = mv.index in self.left, mv.index in self.right
        if in_l and in_r:
            parts = defusion(u, 2)
        elif in_l:
            parts = (u, "")
        elif in_r:
            parts = ("", u)
        else:
            if u:
                return []
            parts = ("", "")
        slots = mv.slots[:p] + parts + mv.slots[p + 1:]
        return [_reslot(mv, slots)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n_real + 1, move)
        if mv is None:
            return [move]
        p = self.pos - 1
        u1, u2 = mv.slots[p], mv.slots[p + 1]
        rest = mv.slots[:p], mv.slots[p + 2:]
        in_l, in_r = mv.index in self.left, mv.index in self.right
        if in_l and in_r:
            return [
                _reslot(mv, rest[0] + (v,) + rest[1]) for v in fusions((u1, u2))
            ]
        u = u1 if in_l else u2 if in_r else ""
        return [_reslot(mv, rest[0] + (u,) + rest[1])]


class _BinarySplit(Translated):
    """A disjunction or conjunction oformula stands for its two halves."""

    def __init__(self, inner: Transducer, n: int, a: int):
        super().__init__(inner)
        self.n, self.a = n, a

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return []
        a = self.a
        if mv.index < a:
            return [move]
        if mv.index > a:
            return [_reslot(mv, mv.slots, index=mv.index + 1)]
        if mv.inner.startswith("0."):
            return [_reslot(mv, mv.slots, index=a, inner=mv.inner[2:])]
        if mv.inner.startswith("1."):
            return [_reslot(mv, mv.slots, index=a + 1, inner=mv.inner[2:])]
        return []

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return [move]
        a = self.a
        if mv.index < a:
            return [move]
        if mv.index == a:
            return [_reslot(mv, mv.slots, index=a, inner="0." + mv.inner)]
        if mv.index == a + 1:
            return [_reslot(mv, mv.slots, index=a, inner="1." + mv.inner)]
        return [_reslot(mv, mv.slots, index=mv.index - 1)]


class _RecFold(Translated):
    """The premise's fresh copy dimension folds into the '!' move address."""

    def __init__(self, inner: Transducer, n_real: int, a: int, j: int):
        super().__init__(inner)
        self.n_real = n_real
        self.a, self.j = a, j

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n_real, move)
        if mv is None:
            return []
        p = self.j - 1
        if mv.index != self.a:
            slots = mv.slots[:p] + ("",) + mv.slots[p:]
            return [_reslot(mv, slots)]
        sp = _split_inner(mv)
        if sp is None:
            return []
        w, rest = sp
        slots = mv.slots[:p] + (w,) + mv.slots[p:]
        return [_reslot(mv, slots, inner=rest)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n_real + 1, move)
        if mv is None:
            return [move]
        p = self.j - 1
        w = mv.slots[p]
        slots = mv.slots[:p] + mv.slots[p + 1:]
        if mv.index != self.a:
            return [_reslot(mv, slots)]
        return [_reslot(mv, slots, inner=w + "." + mv.inner)]


class _CorecFocus(Translated):
    """No overgroups added: the machine plays the '?' oformula inside a
    single all-zeros copy, padded just enough to dodge addresses already
    committed by other moves there."""

    def __init__(self, inner: Transducer, n: int, a: int):
        super().__init__(inner)
        self.n, self.a = n, a
        self.used: set[str] = set()

    def note_real(self, labmove: Labmove) -> None:
        mv = parse_move(self.n, labmove.move)
        if mv is not None and mv.index == self.a:
            sp = _split_inner(mv)
            if sp is not None:
                self.used.add(sp[0])

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return []
        if mv.index != self.a:
            return [move]
        sp = _split_inner(mv)
        if sp is None:
            return []
        v, rest = sp
        if v.strip("0"):
            return []  # outside the focused copy
        return [_reslot(mv, mv.slots, inner=rest)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None or mv.index != self.a:
            return [move]
        u = ""
        while any(v != u and v.startswith(u) for v in self.used):
            u += "0"
        return [_reslot(mv, mv.slots, inner=u + "." + mv.inner)]


class _CorecWeave(Translated):
    """Overgroups added: the '?' address carries the woven addresses of the
    premise's extra copy dimensions."""

    def __init__(self, inner: Transducer, n: int, a: int, added: tuple[int, ...]):
        super().__init__(inner)
        self.n, self.a = n, a
        self.added = added  # 1-based overgroup positions, ascending

    def env_to_sim(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None:
            return []
        if mv.index != self.a:
            return [move]
        if any(mv.slots[j - 1] for j in self.added):
            return []  # conclusion forbids addressing those dimensions here
        sp = _split_inner(mv)
        if sp is None:
            return []
        u, rest = sp
        parts = defusion(u, len(self.added))
        slots = list(mv.slots)
        for j, part in zip(self.added, parts):
            slots[j - 1] = part
        return [_reslot(mv, tuple(slots), inner=rest)]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(self.n, move)
        if mv is None or mv.index != self.a:
            return [move]
        xs = [mv.slots[j - 1] for j in self.added]
        slots = list(mv.slots)
        for j in self.added:
            slots[j - 1] = ""
        return [
            _reslot(mv, tuple(slots), inner=v + "." + mv.inner)
            for v in fusions(xs)
        ]


class ClubToRep(Translated):
    """A one-oformula cirquent strategy played as a '!' game strategy."""

    def env_to_sim(self, move: str) -> list[str]:
        from cirquent.games import split_address

        sp = split_address(move)
        if sp is None:
            return []
        return [f"1;{sp[0]}.{sp[1]}"]

    def sim_to_real(self, move: str) -> list[str]:
        mv = parse_move(1, move)
        if mv is None or mv.index != 1:
            return []
        return [f"{mv.slots[0]}.{mv.inner}"]


class RepToPlain(Translated):
    """A '!' game strategy played on the bare game: opponent moves are
    broadcast to every copy, and only machine moves landing in the all-zeros
    copy surface."""

    def env_to_sim(self, move: str) -> list[str]:
        return ["." + move]

    def sim_to_real(self, move: str) -> list[str]:
        from cirquent.games import split_address

        sp = split_address(move)
        if sp is None:
            return []
        return [sp[1]] if not sp[0].strip("0") else []


# A translation layer's class and the arguments it takes after the inner strategy.
Layer = tuple[type[Translated], tuple]


def transform(app: RuleApp, conclusion: Cirquent) -> Layer:
    """The layer that lifts a strategy for the premise of `app` (checked
    against `conclusion`) to a strategy for the conclusion."""
    premise = rl.premise_of(conclusion, app)
    n = len(conclusion.overgroups)

    if isinstance(app, (rl.UnderExchange, rl.UnderDuplication)):
        return Translated, ()
    if isinstance(app, rl.OformulaExchange):
        return _OformulaSwap, (n, app.pos)
    if isinstance(app, rl.OverExchange):
        return _OverSwap, (n, app.pos)
    if isinstance(app, rl.Weakening):
        if premise.width == conclusion.width:
            return Translated, ()
        a = app.oformula
        dropped_slots = tuple(
            j for j, g in enumerate(conclusion.overgroups) if g == frozenset({a})
        )
        return _WeakeningDrop, (n, a, dropped_slots)
    if isinstance(app, rl.Contraction):
        return _ContractionSplit, (n, app.oformula)
    if isinstance(app, rl.OverDuplication):
        return _OverDupJoin, (n, app.pos)
    if isinstance(app, rl.Merging):
        return _MergeSplit, (n, app.pos, app.left, app.right)
    if isinstance(app, (rl.DisjIntro, rl.ConjIntro)):
        return _BinarySplit, (n, app.oformula)
    if isinstance(app, rl.RecIntro):
        return _RecFold, (n, app.oformula, app.overgroup)
    if isinstance(app, rl.CorecIntro):
        if not app.added:
            return _CorecFocus, (n, app.oformula)
        return _CorecWeave, (n, app.oformula, tuple(sorted(app.added)))
    raise rl.RuleError(f"no transformer for {app!r}")


# ------------------------------------------------------------- compilation


Factory = Callable[[], Transducer]


def cirquent_strategy_factories(proof: rl.Proof) -> list[tuple[Cirquent, Factory]]:
    """One fresh-strategy factory per proof step, for that step's cirquent."""
    verdict = rl.check_proof(proof)
    if not verdict:
        raise rl.RuleError(f"proof does not check: step {verdict.step}: {verdict.message}")
    first = proof[0]
    assert isinstance(first.app, rl.Axiom)
    diamonds = len(first.app.formulas)
    out: list[tuple[Cirquent, Factory]] = [
        (first.cirquent, lambda d=diamonds: AxiomCopycat(d))
    ]
    for step in proof[1:]:
        cls, args = transform(step.app, step.cirquent)

        def factory(cls=cls, args=args, pf=out[-1][1]) -> Transducer:
            return cls(pf(), *args)

        out.append((step.cirquent, factory))
    return out


@dataclass(frozen=True)
class CompiledStrategy:
    formula: fm.Formula
    factory: Factory
    bundle: str

    def fresh(self) -> Transducer:
        return self.factory()


def compile_proof(proof: rl.Proof) -> CompiledStrategy:
    """Fold a checked proof into a strategy for its conclusion formula's game.

    The result never inspects an interpretation: the bundle text and the
    move behavior depend only on the proof.
    """
    chain = cirquent_strategy_factories(proof)
    formula = rl.conclusion_formula(proof)
    final_factory = chain[-1][1]

    def factory() -> Transducer:
        return RepToPlain(ClubToRep(final_factory()))

    bundle = json.dumps(
        {
            "formula": fm.format_formula(formula),
            "steps": [
                {
                    "rule": type(s.app).__name__,
                    "params": rl._format_params(s.app),
                }
                for s in proof
            ],
            "bridges": ["formula-bridge"],
        },
        sort_keys=True,
        indent=2,
    )
    return CompiledStrategy(formula, factory, bundle)
