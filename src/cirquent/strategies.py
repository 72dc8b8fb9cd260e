"""Compiling proofs into winning strategies.

A Transducer is a deterministic block-move strategy.  The axiom cirquent is
won by a copycat between dual pair members; every rule then lifts a strategy
for its premise cirquent to one for its conclusion by translating moves back
and forth.  A checked proof is read once into one layer per rule, and the
strategy for any of its steps is one `Translated` stack: the copycat core
under those layers up to that step, adjacent renamings composed into one
`_Relabel`, driven by one loop that passes moves down through the layers
and the replies back up.  `FormulaBridge` is the whole proof's stack,
played on the bare formula game.

Inside a stack, moves are `CirquentMove` values and each call carries only
what is new: `advance` gets the opponent moves that arrived since the last
call and returns the reply block.  Strings appear at one boundary,
`Transducer.step`, run on the stack as a whole.  It parses the new opponent
moves of the observed run, drops malformed ones, and formats the replies.

Move translation is interpretation-blind: only move shapes are inspected, so
the compiled strategy is the same whatever games the atoms denote.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Union

from . import formulas as fm
from . import rules as rl
from .cirquents import Cirquent, CirquentMove, _move, format_move, parse_move
from .fusion import defusion, fusions
from .games import BOT, Run, split_address
from .rules import RuleApp


class Transducer:
    """Reactive strategy for a cirquent with `n` overgroups.

    `advance` gets the opponent moves new since its last call and returns
    the moves it wants appended; a stack drives its core through it.

    `step` is the string boundary, run on a whole strategy.  It sees the
    whole run so far; calls must present runs that extend one another by
    the previously returned block plus opponent moves.  It reads the new
    opponent moves, hands them to `advance` and writes the replies.
    """

    n: int
    _observed = 0  # labmoves of the run already read or written

    def read(self, move: str) -> CirquentMove | None:
        return parse_move(self.n, move)

    def write(self, mv: CirquentMove) -> str | None:
        return format_move(mv)

    def advance(self, moves: list[CirquentMove]) -> list[CirquentMove]:
        raise NotImplementedError

    def step(self, observed: Run) -> list[str]:
        new = [self.read(lm.move) for lm in observed[self._observed:] if lm.label is BOT]
        block = self.advance([mv for mv in new if mv is not None])
        out = [m for m in map(self.write, block) if m is not None]
        self._observed = len(observed) + len(out)
        return out

    def fork(self) -> Transducer:
        """An independent copy that answers from now on as this one would.

        A shallow copy, which is enough while the play state is immutable
        values; a subclass that keeps mutable play state overrides it."""
        return copy.copy(self)


class AxiomCopycat(Transducer):
    """Mirrors every opponent move between the two members of its diamond.

    Pair member of index a is a+1 when a is odd, a-1 when even.  The
    `swapped` pairing inverts that parity; it is a deliberately broken
    variant kept for harness calibration.
    """

    def __init__(self, diamonds: int, pairing: str = "standard"):
        if pairing not in ("standard", "swapped"):
            raise ValueError(f"unknown pairing {pairing!r}")
        self.n = diamonds
        self.pairing = pairing

    def advance(self, moves: list[CirquentMove]) -> list[CirquentMove]:
        top, up = 2 * self.n, 1 if self.pairing == "standard" else -1
        return [_move((a + up if a % 2 == 1 else a - up, slots, inner))
                for a, slots, inner in moves if 1 <= a <= top]


class Translated(Transducer):
    """Plays the conclusion of a proof step by simulating `core`, the axiom's
    copycat, through the layers of the rules up to that step, `layers`
    outermost first; adjacent renaming rules share one `_Relabel`.

    A layer lifts a strategy for its rule's premise to one for the
    conclusion with two maps: `env_to_sim` turns an opponent move on the
    conclusion into moves on the premise, dropping a move that was already
    illegal, and `sim_to_real` turns a premise move back.  Either may fan
    one move out into several.  `advance` passes the new opponent moves down
    through every layer, asks the core, and passes its replies back up, so
    each layer sees its moves in the order they are played.
    """

    def __init__(self, core: Transducer, layers: list, n: int):
        self.core, self.layers, self.n = core, layers, n

    def fork(self) -> Translated:
        """Shares the core, a copycat without play state, and every layer but
        the `_CorecFocus` ones, which `_own` copies."""
        twin = type(self)(self.core, _own(self.layers), self.n)
        twin._observed = self._observed
        return twin

    def advance(self, moves: list[CirquentMove]) -> list[CirquentMove]:
        for layer in self.layers:
            if not moves:
                break  # no layer below sees a move
            moves = [s for mv in moves for s in layer.env_to_sim(mv)]
        moves = self.core.advance(moves)
        for layer in reversed(self.layers):
            if not moves:
                break
            moves = [r for mv in moves for r in layer.sim_to_real(mv)]
        return moves


@dataclass
class _Relabel:
    """The lifting through a chain of rules that only rename moves: oformula
    or overgroup exchange, weakening, '|' or '&' introduction.

    Premise oformula i plays in real oformula `up[i - 1][0]`, its inner moves
    prefixed there by `up[i - 1][1]` (`"0."` or `"1."` per '|' or '&' taken
    apart); premise slot k reads real slot `slots[k]`; `width` and `over`
    count the real oformulas and overgroups.  A real move that no entry reads
    is dropped: one in a weakened oformula, without the prefix, or with an
    address in a real slot that no premise slot reads.  An index past either
    width shifts by the difference of the widths, as each rule shifted it.

    `_RecFold` and `_ContractionSplit` rename too, but the first moves a
    slot's content, not a fixed prefix, into the inner move, and the second
    sends an unaddressed move to both copies.
    """

    up: tuple[tuple[int, str], ...]
    slots: tuple[int, ...]
    width: int
    over: int

    @cached_property
    def _tables(self):
        """Built on first play, as most layers never play: the (prefix,
        premise oformula) entries reading each real oformula, the real slots
        no premise slot reads, and the premise slot reading each real slot."""
        down = dict.fromkeys(range(1, self.width + 1), ())
        for i, (r, prefix) in enumerate(self.up, 1):
            down[r] += ((prefix, i),)
        hidden = tuple(j for j in range(self.over) if j not in self.slots)
        if self.slots == tuple(range(self.over)):
            return down, hidden, None  # the slot tuple passes through
        place = dict(zip(self.slots, range(len(self.slots))))
        return down, hidden, tuple(map(place.get, range(self.over)))

    def then(self, inner: _Relabel) -> _Relabel:
        """One layer that answers as this one over `inner`, the layer below."""
        up = self.up
        return _Relabel(tuple((up[m - 1][0], up[m - 1][1] + rest) for m, rest in inner.up),
                        tuple(self.slots[k] for k in inner.slots), self.width, self.over)

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        (index, s, inner), (down, hidden, place) = mv, self._tables
        if hidden and any(s[j] for j in hidden):
            return []
        reads = down.get(index)
        if reads is not None:
            for prefix, i in reads:
                if inner.startswith(prefix):
                    index, inner = i, inner[len(prefix):]
                    break
            else:
                return []
        elif index > self.width:
            index += len(self.up) - self.width
        if place is not None:
            s = tuple([s[j] for j in self.slots])
        return [_move((index, s, inner))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        (index, s, inner), place = mv, self._tables[2]
        if 1 <= index <= len(self.up):
            index, prefix = self.up[index - 1]
            inner = prefix + inner
        elif index > len(self.up):
            index -= len(self.up) - self.width
        if place is not None:
            s = tuple(["" if k is None else s[k] for k in place])
        return [_move((index, s, inner))]


@dataclass
class _ContractionSplit:
    """One '?' oformula stands for two premise copies: address bit 0 routes
    to the first copy, bit 1 to the second, and an unaddressed move goes to
    both."""

    a: int

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        a, (index, slots, inner) = self.a, mv
        if index < a:
            return [mv]
        if index > a:
            return [_move((index + 1, slots, inner))]
        sp = split_address(inner)
        if sp is None:
            return []
        v, rest = sp
        if v == "":
            return [mv, _move((a + 1, slots, inner))]
        return [_move((a if v[0] == "0" else a + 1, slots, v[1:] + "." + rest))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        a, (index, slots, inner) = self.a, mv
        if index < a:
            return [mv]
        if index > a + 1:
            return [_move((index - 1, slots, inner))]
        if split_address(inner) is None:
            return [_move((a, slots, inner))]
        bit = "0" if index == a else "1"
        return [_move((a, slots, bit + inner))]


@dataclass
class _OverDupJoin:
    """Two identical conclusion overgroups collapse to one premise overgroup;
    address pairs are woven together by fusion and unwoven by defusion."""

    pos: int  # 1-based; real slots pos-1 and pos merge

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.pos - 1, mv
        return [_move((index, s[:p] + (v,) + s[p + 2:], inner))
                for v in fusions((s[p], s[p + 1]))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.pos - 1, mv
        return [_move((index, s[:p] + defusion(s[p], 2) + s[p + 1:], inner))]


@dataclass
class _MergeSplit:
    """A merged overgroup covers members of both halves; a member of both
    plays one address woven from its two premise addresses."""

    pos: int
    left: frozenset[int]
    right: frozenset[int]

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.pos - 1, mv
        u = s[p]
        in_l, in_r = index in self.left, index in self.right
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
        return [_move((index, s[:p] + parts + s[p + 1:], inner))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.pos - 1, mv
        u1, u2 = s[p], s[p + 1]
        head, tail = s[:p], s[p + 2:]
        in_l, in_r = index in self.left, index in self.right
        if in_l and in_r:
            return [_move((index, head + (v,) + tail, inner)) for v in fusions((u1, u2))]
        u = u1 if in_l else u2 if in_r else ""
        return [_move((index, head + (u,) + tail, inner))]


@dataclass
class _RecFold:
    """The premise's fresh copy dimension folds into the '!' move address."""

    a: int
    j: int

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.j - 1, mv
        if index != self.a:
            return [_move((index, s[:p] + ("",) + s[p:], inner))]
        sp = split_address(inner)
        if sp is None:
            return []
        w, rest = sp
        return [_move((index, s[:p] + (w,) + s[p:], rest))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        p, (index, s, inner) = self.j - 1, mv
        slots = s[:p] + s[p + 1:]
        if index != self.a:
            return [_move((index, slots, inner))]
        return [_move((index, slots, s[p] + "." + inner))]


@dataclass
class _CorecFocus:
    """No overgroups added: the machine plays the '?' oformula inside a
    single all-zeros copy, padded just enough to dodge addresses already
    committed by other moves there.  Both maps record the copy addresses of
    the real moves they see in `used`, a frozenset each new address replaces,
    so a shallow copy of the layer plays on independently."""

    a: int
    used: frozenset[str] = frozenset()

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        index, slots, inner = mv
        if index != self.a:
            return [mv]
        sp = split_address(inner)
        if sp is None:
            return []
        v, rest = sp
        self.used |= {v}
        if v.strip("0"):
            return []  # outside the focused copy
        return [_move((index, slots, rest))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        index, slots, inner = mv
        if index != self.a:
            return [mv]
        u = ""
        while any(v != u and v.startswith(u) for v in self.used):
            u += "0"
        self.used |= {u}
        return [_move((index, slots, u + "." + inner))]


@dataclass
class _CorecWeave:
    """Overgroups added: the '?' address carries the woven addresses of the
    premise's extra copy dimensions."""

    a: int
    added: tuple[int, ...]  # 1-based overgroup positions, ascending

    def env_to_sim(self, mv: CirquentMove) -> list[CirquentMove]:
        index, s, inner = mv
        if index != self.a:
            return [mv]
        if any(s[j - 1] for j in self.added):
            return []  # conclusion forbids addressing those dimensions here
        sp = split_address(inner)
        if sp is None:
            return []
        u, rest = sp
        slots = list(s)
        for j, part in zip(self.added, defusion(u, len(self.added))):
            slots[j - 1] = part
        return [_move((index, tuple(slots), rest))]

    def sim_to_real(self, mv: CirquentMove) -> list[CirquentMove]:
        index, s, inner = mv
        if index != self.a:
            return [mv]
        slots = list(s)
        for j in self.added:
            slots[j - 1] = ""
        slots = tuple(slots)
        return [_move((index, slots, v + "." + inner))
                for v in fusions([s[j - 1] for j in self.added])]


class FormulaBridge(Translated):
    """A stack for the one-oformula cirquent of a formula, played on the
    formula's bare game.

    Only the boundary changes; moves pass through untranslated.  An opponent
    move m is broadcast to every copy of the club's '!' as
    `_move((1, ("",), m))`, and a reply surfaces only when it lands in
    the all-zeros copy.
    """

    def read(self, move: str) -> CirquentMove:
        return _move((1, ("",), move))

    def write(self, mv: CirquentMove) -> str | None:
        if mv.index == 1 and not mv.slots[0].strip("0"):
            return mv.inner
        return None


# One of the translation layers above.
Layer = Union[_Relabel, _ContractionSplit, _OverDupJoin, _MergeSplit, _RecFold, _CorecFocus,
              _CorecWeave]


def _own(layers: Iterable[Layer]) -> list[Layer]:
    """`layers` for a strategy of its own: a copy of each `_CorecFocus`, the
    only layer that records the play, and every other layer itself, since
    none of them keeps play state.  A fresh strategy and a fork both take
    their layers through this; it composes nothing."""
    return [_CorecFocus(layer.a, layer.used) if type(layer) is _CorecFocus else layer
            for layer in layers]


def transform(app: RuleApp, premise: Cirquent, conclusion: Cirquent) -> Layer | None:
    """The layer that lifts a strategy for `premise` to one for `conclusion`
    across `app`, a checked proof step, or None when the rule leaves
    overgroups and oformulas alone, so the premise's strategy already plays
    the conclusion.  A rule that only renames moves gives a `_Relabel`."""
    if isinstance(app, (rl.UnderExchange, rl.UnderDuplication)):
        return None
    if isinstance(app, rl.Contraction):
        return _ContractionSplit(app.oformula)
    if isinstance(app, rl.OverDuplication):
        return _OverDupJoin(app.pos)
    if isinstance(app, rl.Merging):
        return _MergeSplit(app.pos, app.left, app.right)
    if isinstance(app, rl.RecIntro):
        return _RecFold(app.oformula, app.overgroup)
    if isinstance(app, rl.CorecIntro):
        if not app.added:
            return _CorecFocus(app.oformula)
        return _CorecWeave(app.oformula, tuple(sorted(app.added)))
    if isinstance(app, rl.Weakening) and premise.width == conclusion.width:
        return None
    real = list(range(1, premise.width + 1))  # the real oformula of each premise one
    prefixes = [""] * premise.width
    slots = list(range(len(conclusion.overgroups)))
    if isinstance(app, rl.OformulaExchange):
        real[app.pos - 1], real[app.pos] = app.pos + 1, app.pos
    elif isinstance(app, rl.OverExchange):
        slots[app.pos - 1], slots[app.pos] = app.pos, app.pos - 1
    elif isinstance(app, rl.Weakening):
        real = [i + (i >= app.oformula) for i in real]
        slots = [j for j, g in enumerate(conclusion.overgroups) if g != {app.oformula}]
    elif isinstance(app, (rl.DisjIntro, rl.ConjIntro)):
        real = [i - (i > app.oformula) for i in real]
        prefixes[app.oformula - 1:app.oformula + 1] = "0.", "1."
    else:
        raise rl.RuleError(f"no transformer for {app!r}")
    return _Relabel(tuple(zip(real, prefixes)), tuple(slots), conclusion.width,
                    len(conclusion.overgroups))


# ------------------------------------------------------------- compilation


Factory = Callable[[], Transducer]


def _wrap(stack: tuple[Layer, ...], layer: Layer) -> tuple[Layer, ...]:
    """`stack`, outermost first, under the layer of one more rule: a
    `_Relabel` over a `_Relabel` composes into one."""
    if type(layer) is _Relabel and stack and type(stack[0]) is _Relabel:
        return (layer.then(stack[0]),) + stack[1:]
    return (layer,) + stack


def _stacks(proof: rl.Proof, check: Callable[[rl.Proof], rl.Verdict]) -> list[tuple[Layer, ...]]:
    """Each step's stack over the axiom's copycat, once `check` passes the
    proof (else `RuleError("step N: ...")`); a rule that adds no layer keeps
    its premise's stack, the same tuple object."""
    verdict = check(proof)
    if not verdict:
        raise rl.RuleError(f"step {verdict.step}: {verdict.message}")
    stacks: list[tuple[Layer, ...]] = [()]
    for prev, step in zip(proof, proof[1:]):
        layer = transform(step.app, prev.cirquent, step.cirquent)
        stacks.append(stacks[-1] if layer is None else _wrap(stacks[-1], layer))
    return stacks


def _stack(cls: type[Translated], core: AxiomCopycat, stack: tuple[Layer, ...],
           n: int) -> Translated:
    """A fresh strategy for a cirquent with n overgroups: `core`, which keeps
    no play state inside a stack, under `stack` with its `_CorecFocus` copied."""
    return cls(core, _own(stack), n)


def cirquent_strategy_factories(proof: rl.Proof) -> list[tuple[Cirquent, Factory]]:
    """One fresh-strategy factory per step of a proof that `check_proof`
    passes, for that step's cirquent; a step whose rule adds no layer shares
    its premise's factory.  Every stack shares one copycat core; the axiom's
    copycat, played on its own, is a new one each time."""
    stacks = _stacks(proof, rl.check_proof)
    core = AxiomCopycat(len(proof[0].app.formulas))
    factory: Factory = partial(AxiomCopycat, core.n)
    out = []
    for step, stack, prev in zip(proof, stacks, stacks[:1] + stacks):
        if stack is not prev:
            factory = partial(_stack, Translated, core, stack, len(step.cirquent.overgroups))
        out.append((step.cirquent, factory))
    return out


@dataclass(frozen=True)
class CompiledStrategy:
    formula: fm.Formula
    factory: Factory
    bundle: str

    def fresh(self) -> Transducer:
        """A new strategy, from nothing played.  It shares the stack that
        `compile_proof` built once for the proof, and copies only the
        `_CorecFocus` layers (`_own`)."""
        return self.factory()


def compile_proof(proof: rl.Proof) -> CompiledStrategy:
    """Check a proof (`check_formula_proof`; `RuleError("step N: ...")` if
    it fails) and play its last stack on its conclusion formula's game.

    The result never inspects an interpretation: the bundle text and the
    move behavior depend only on the proof.
    """
    stack = _stacks(proof, rl.check_formula_proof)[-1]
    factory = partial(_stack, FormulaBridge, AxiomCopycat(len(proof[0].app.formulas)), stack, 1)
    formula = rl.conclusion_formula(proof)
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
