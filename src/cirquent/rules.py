"""The deep-inference rules, proof checking, and the proof file format.

The ten rules come in families: the axiom; exchange of adjacent undergroups,
oformulas or overgroups; weakening; duplication of an undergroup or an
overgroup; merging of adjacent overgroups; the splitting family, where one
conclusion oformula stands for two premise oformulas wired alike
(contraction: `?F` for `?F, ?F`; disjunction and conjunction introduction:
`F | G` or `F & G` for `F, G`, the conjunction's undergroups as siblings);
and the modality pair, recurrence and corecurrence introduction (`!F` or
`?F` for `F`, with the overgroups around it changed).

A proof is a sequence of steps, each carrying a rule application and the
cirquent it concludes.  Step 1 must be an axiom; for every later step, the
recorded rule applied to the recorded cirquent must reproduce the previous
step's cirquent as its premise.  `premise_of` computes conclusion -> premise
(the checking direction); `conclusion_of` computes premise -> conclusion (the
building direction); each is written independently of the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union, get_args, get_type_hints

from . import formulas as fm
from .cirquents import (
    BODY,
    Cirquent,
    CirquentError,
    body_of,
    club,
    format_cirquent,
    formula_list,
    read_body,
    read_formulas,
    validate_cirquent,
)
from .reader import INT, LIST, Reader, int_set


class RuleError(ValueError):
    pass


@dataclass(frozen=True)
class Axiom:
    formulas: tuple[fm.Formula, ...]


@dataclass(frozen=True)
class UnderExchange:
    pos: int


@dataclass(frozen=True)
class OformulaExchange:
    pos: int


@dataclass(frozen=True)
class OverExchange:
    pos: int


@dataclass(frozen=True)
class Weakening:
    undergroup: int
    oformula: int


@dataclass(frozen=True)
class Contraction:
    oformula: int


@dataclass(frozen=True)
class UnderDuplication:
    pos: int


@dataclass(frozen=True)
class OverDuplication:
    pos: int


@dataclass(frozen=True)
class Merging:
    """pos names the merged overgroup in the conclusion; left/right record how
    the premise splits it, which the conclusion alone does not determine."""

    pos: int
    left: frozenset[int]
    right: frozenset[int]


@dataclass(frozen=True)
class DisjIntro:
    oformula: int


@dataclass(frozen=True)
class ConjIntro:
    oformula: int


@dataclass(frozen=True)
class RecIntro:
    oformula: int
    overgroup: int  # where the premise's fresh singleton overgroup sits


@dataclass(frozen=True)
class CorecIntro:
    oformula: int
    added: frozenset[int]  # overgroups gaining the oformula in the premise


RuleApp = Union[
    Axiom,
    UnderExchange,
    OformulaExchange,
    OverExchange,
    Weakening,
    Contraction,
    UnderDuplication,
    OverDuplication,
    Merging,
    DisjIntro,
    ConjIntro,
    RecIntro,
    CorecIntro,
]

RULES_BY_NAME = {cls.__name__: cls for cls in get_args(RuleApp)}


def axiom_conclusion(formulas: tuple[fm.Formula, ...]) -> Cirquent:
    """n diamonds: dual pairs, each its own undergroup and overgroup."""
    if not formulas:
        raise RuleError("an axiom needs at least one formula")
    ofs: list[fm.Formula] = []
    for f in formulas:
        ofs.extend((fm.negate(f), f))
    groups = tuple(frozenset({2 * i + 1, 2 * i + 2}) for i in range(len(formulas)))
    return Cirquent(tuple(ofs), groups, groups)


# -------------------------------------------------------- index bookkeeping


def _swap(seq: tuple, pos: int, what: str) -> tuple:
    if not 1 <= pos <= len(seq) - 1:
        raise RuleError(f"cannot swap {what} at position {pos} of {len(seq)}")
    lst = list(seq)
    lst[pos - 1], lst[pos] = lst[pos], lst[pos - 1]
    return tuple(lst)


def _shift_up(group: frozenset[int], at: int) -> frozenset[int]:
    """Renumber after inserting a new oformula slot at index `at`."""
    return frozenset(i + 1 if i >= at else i for i in group)


def _shift_down(group: frozenset[int], removed: int) -> frozenset[int]:
    """Renumber after deleting the oformula at index `removed`."""
    return frozenset(i - 1 if i > removed else i for i in group)


def _expand(group: frozenset[int], a: int) -> frozenset[int]:
    """Renumber after oformula `a` becomes the two oformulas `a`, `a + 1`,
    both in every group that held `a`."""
    base = _shift_up(group, a + 1)
    return base | {a, a + 1} if a in group else base


def _oformula(c: Cirquent, a: int) -> fm.Formula:
    if not 1 <= a <= c.width:
        raise RuleError(f"oformula index {a} out of range 1..{c.width}")
    return c.oformulas[a - 1]


def _overgroup(c: Cirquent, pos: int) -> frozenset[int]:
    if not 1 <= pos <= len(c.overgroups):
        raise RuleError(f"overgroup position {pos} out of range")
    return c.overgroups[pos - 1]


# ----------------------------------------------------- conclusion -> premise

# The oformula kind each rule takes apart, read from conclusion to premise,
# and what it says when the oformula is of another kind.
_TAKES_APART = {
    Contraction: (fm.Cobrec, "contraction needs a '?' oformula"),
    DisjIntro: (fm.Or, "disjunction introduction needs a '|' oformula"),
    ConjIntro: (fm.And, "conjunction introduction needs a '&' oformula"),
    RecIntro: (fm.Brec, "recurrence introduction needs a '!' oformula"),
    CorecIntro: (fm.Cobrec, "corecurrence introduction needs a '?' oformula"),
}


def _undup(groups: tuple, pos: int, kind: str) -> tuple:
    """`groups` without group `pos + 1`, which must repeat group `pos`."""
    if not 1 <= pos <= len(groups) - 1:
        raise RuleError(f"{kind} position {pos} out of range for duplication")
    if groups[pos - 1] != groups[pos]:
        raise RuleError(f"{kind}s {pos} and {pos + 1} differ")
    return groups[: pos - 1] + groups[pos:]


def premise_of(conclusion: Cirquent, app: RuleApp) -> Cirquent:
    c = conclusion
    if isinstance(app, Axiom):
        raise RuleError("axioms have no premise")

    if isinstance(app, UnderExchange):
        p = Cirquent(c.oformulas, _swap(c.undergroups, app.pos, "undergroups"), c.overgroups)
    elif isinstance(app, OverExchange):
        p = Cirquent(c.oformulas, c.undergroups, _swap(c.overgroups, app.pos, "overgroups"))
    elif isinstance(app, OformulaExchange):
        a = app.pos
        perm = {a: a + 1, a + 1: a}
        p = Cirquent(
            _swap(c.oformulas, a, "oformulas"),
            tuple(frozenset(perm.get(i, i) for i in g) for g in c.undergroups),
            tuple(frozenset(perm.get(i, i) for i in g) for g in c.overgroups),
        )

    elif isinstance(app, Weakening):
        i, a = app.undergroup, app.oformula
        if not 1 <= i <= len(c.undergroups):
            raise RuleError(f"undergroup position {i} out of range")
        group = c.undergroups[i - 1]
        if a not in group:
            raise RuleError(f"no arc between undergroup {i} and oformula {a}")
        if len(group) < 2:
            raise RuleError("cannot delete the only arc of an undergroup")
        under = list(c.undergroups)
        under[i - 1] = group - {a}
        if any(a in g for g in under):
            p = Cirquent(c.oformulas, tuple(under), c.overgroups)
        else:
            # the oformula loses its last undergroup arc and disappears,
            # along with any overgroups that held only it
            ofs = c.oformulas[: a - 1] + c.oformulas[a:]
            new_under = tuple(_shift_down(g, a) for g in under)
            new_over = tuple(
                _shift_down(g - {a}, a) for g in c.overgroups if g != frozenset({a})
            )
            if not new_over:
                raise RuleError("deleting the oformula would leave no overgroups")
            p = Cirquent(ofs, new_under, new_over)

    elif isinstance(app, UnderDuplication):
        p = Cirquent(c.oformulas, _undup(c.undergroups, app.pos, "undergroup"), c.overgroups)
    elif isinstance(app, OverDuplication):
        p = Cirquent(c.oformulas, c.undergroups, _undup(c.overgroups, app.pos, "overgroup"))

    elif isinstance(app, Merging):
        merged = _overgroup(c, app.pos)
        if not app.left or not app.right:
            raise RuleError("merging parts must be nonempty")
        if app.left | app.right != merged:
            raise RuleError(
                f"split {sorted(app.left)} + {sorted(app.right)} does not "
                f"reassemble overgroup {sorted(merged)}"
            )
        p = Cirquent(
            c.oformulas,
            c.undergroups,
            c.overgroups[: app.pos - 1]
            + (app.left, app.right)
            + c.overgroups[app.pos :],
        )

    elif isinstance(app, (Contraction, DisjIntro, ConjIntro)):
        # oformula a becomes the two oformulas a, a + 1, both in every group
        # that held a, except that conjunction introduction splits each
        # undergroup through a into two siblings, one per conjunct
        a = app.oformula
        f = _oformula(c, a)
        kind, need = _TAKES_APART[type(app)]
        if not isinstance(f, kind):
            raise RuleError(f"{need} at {a}")
        parts = (f, f) if isinstance(app, Contraction) else (f.left, f.right)
        under: list[frozenset[int]] = []
        for g in c.undergroups:
            if isinstance(app, ConjIntro) and a in g:
                base = _shift_up(g - {a}, a + 1)
                under += (base | {a}, base | {a + 1})
            else:
                under.append(_expand(g, a))
        p = Cirquent(
            c.oformulas[: a - 1] + parts + c.oformulas[a:],
            tuple(under),
            tuple(_expand(g, a) for g in c.overgroups),
        )

    elif isinstance(app, (RecIntro, CorecIntro)):
        # oformula a loses its modality and joins overgroups: recurrence
        # introduction's fresh singleton, corecurrence introduction's added
        a = app.oformula
        f = _oformula(c, a)
        kind, need = _TAKES_APART[type(app)]
        if not isinstance(f, kind):
            raise RuleError(f"{need} at {a}")
        over = list(c.overgroups)
        if isinstance(app, RecIntro):
            j = app.overgroup
            if not 1 <= j <= len(over) + 1:
                raise RuleError(f"overgroup insertion position {j} out of range")
            over.insert(j - 1, frozenset({a}))
        else:
            for j in sorted(app.added):
                if not 1 <= j <= len(over):
                    raise RuleError(f"overgroup position {j} out of range")
                if a in over[j - 1]:
                    raise RuleError(
                        f"oformula {a} is already in overgroup {j}; additions must be new"
                    )
                over[j - 1] = over[j - 1] | {a}
        ofs = c.oformulas[: a - 1] + (f.body,) + c.oformulas[a:]
        p = Cirquent(ofs, c.undergroups, tuple(over))

    else:
        raise RuleError(f"unknown rule application {app!r}")

    validate_cirquent(p)
    return p


# ----------------------------------------------------- premise -> conclusion


def _dup(groups: tuple, pos: int, kind: str) -> tuple:
    """`groups` with group `pos` repeated right after itself."""
    if not 1 <= pos <= len(groups):
        raise RuleError(f"{kind} position {pos} out of range")
    return groups[:pos] + (groups[pos - 1],) + groups[pos:]


def conclusion_of(premise: Cirquent, app: RuleApp) -> Cirquent:
    """Forward application, written independently of premise_of."""
    p = premise
    if isinstance(app, Axiom):
        raise RuleError("axioms are introduced, not applied")

    if isinstance(app, UnderExchange):
        c = Cirquent(p.oformulas, _swap(p.undergroups, app.pos, "undergroups"), p.overgroups)
    elif isinstance(app, OverExchange):
        c = Cirquent(p.oformulas, p.undergroups, _swap(p.overgroups, app.pos, "overgroups"))
    elif isinstance(app, OformulaExchange):
        a = app.pos
        perm = {a: a + 1, a + 1: a}
        c = Cirquent(
            _swap(p.oformulas, a, "oformulas"),
            tuple(frozenset(perm.get(i, i) for i in g) for g in p.undergroups),
            tuple(frozenset(perm.get(i, i) for i in g) for g in p.overgroups),
        )

    elif isinstance(app, Weakening):
        # forward weakening only adds an arc to an existing oformula
        i, a = app.undergroup, app.oformula
        if not 1 <= i <= len(p.undergroups):
            raise RuleError(f"undergroup position {i} out of range")
        if not 1 <= a <= p.width:
            raise RuleError(f"oformula index {a} out of range")
        if a in p.undergroups[i - 1]:
            raise RuleError(f"arc between undergroup {i} and oformula {a} already there")
        under = list(p.undergroups)
        under[i - 1] = under[i - 1] | {a}
        c = Cirquent(p.oformulas, tuple(under), p.overgroups)

    elif isinstance(app, UnderDuplication):
        c = Cirquent(p.oformulas, _dup(p.undergroups, app.pos, "undergroup"), p.overgroups)
    elif isinstance(app, OverDuplication):
        c = Cirquent(p.oformulas, p.undergroups, _dup(p.overgroups, app.pos, "overgroup"))

    elif isinstance(app, Merging):
        pos = app.pos
        if not 1 <= pos <= len(p.overgroups) - 1:
            raise RuleError(f"overgroup position {pos} out of range for merging")
        if p.overgroups[pos - 1] != app.left or p.overgroups[pos] != app.right:
            raise RuleError("recorded split does not match the premise overgroups")
        c = Cirquent(
            p.oformulas,
            p.undergroups,
            p.overgroups[: pos - 1]
            + (app.left | app.right,)
            + p.overgroups[pos + 1 :],
        )

    elif isinstance(app, (Contraction, DisjIntro, ConjIntro)):
        # oformulas a and a + 1 become one oformula a, in every group that
        # held them; they must be grouped alike, except that in conjunction
        # introduction each undergroup through a comes with a sibling
        # through a + 1 that agrees everywhere else, and the two collapse
        a = app.oformula
        if not 1 <= a < p.width:
            raise RuleError(f"need two oformulas at {a}, {a + 1}")
        f, g = p.oformulas[a - 1], p.oformulas[a]
        if isinstance(app, Contraction):
            if f != g or not isinstance(f, fm.Cobrec):
                raise RuleError(f"contraction needs adjacent equal '?' oformulas at {a}")
            joined = f
        else:
            joined = (fm.Or if isinstance(app, DisjIntro) else fm.And)(f, g)
        alike = p.overgroups if isinstance(app, ConjIntro) else p.undergroups + p.overgroups
        if any((a in grp) != (a + 1 in grp) for grp in alike):
            raise RuleError(f"oformulas {a} and {a + 1} are not grouped alike")
        under = []
        i = 0
        while i < len(p.undergroups):
            grp = p.undergroups[i]
            i += 1
            if isinstance(app, ConjIntro) and (a in grp or a + 1 in grp):
                if a not in grp or a + 1 in grp:
                    raise RuleError(f"undergroup {i} should hold {a} without {a + 1}")
                if p.undergroups[i : i + 1] != ((grp - {a}) | {a + 1},):
                    raise RuleError(f"undergroups {i} and {i + 1} are not siblings")
                i += 1
            under.append(_shift_down(grp - {a + 1}, a + 1))
        c = Cirquent(
            p.oformulas[: a - 1] + (joined,) + p.oformulas[a + 1 :],
            tuple(under),
            tuple(_shift_down(grp - {a + 1}, a + 1) for grp in p.overgroups),
        )

    elif isinstance(app, (RecIntro, CorecIntro)):
        # oformula a gains the modality and leaves overgroups: recurrence
        # introduction's singleton, corecurrence introduction's added
        a = app.oformula
        body = _oformula(p, a)
        over = list(p.overgroups)
        if isinstance(app, RecIntro):
            j = app.overgroup
            if not 1 <= j <= len(over):
                raise RuleError(f"overgroup position {j} out of range")
            if over.pop(j - 1) != frozenset({a}):
                raise RuleError(f"overgroup {j} must contain exactly oformula {a}")
        else:
            for j in sorted(app.added):
                if not 1 <= j <= len(over):
                    raise RuleError(f"overgroup position {j} out of range")
                if a not in over[j - 1]:
                    raise RuleError(f"oformula {a} not in overgroup {j} to withdraw from")
                over[j - 1] = over[j - 1] - {a}
        wrapped = (fm.Brec if isinstance(app, RecIntro) else fm.Cobrec)(body)
        ofs = p.oformulas[: a - 1] + (wrapped,) + p.oformulas[a:]
        c = Cirquent(ofs, p.undergroups, tuple(over))

    else:
        raise RuleError(f"unknown rule application {app!r}")

    validate_cirquent(c)
    return c


# ------------------------------------------------------------ proof objects


@dataclass(frozen=True)
class Step:
    app: RuleApp
    cirquent: Cirquent


Proof = tuple[Step, ...]


@dataclass
class Verdict:
    ok: bool
    step: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_proof(proof: Proof) -> Verdict:
    """The verdict on `proof`, naming the first step that breaks it.

    Only the last step's cirquent is validated: every earlier one must
    equal the next step's premise, which `premise_of` validates (step 1's
    also equals `axiom_conclusion(...)`), so an invalid one fails at its
    step or later.  The last is validated before its rule is read back, so
    its verdict is the one a check of every step's cirquent would give."""
    if not proof:
        return Verdict(False, None, "empty proof")
    for idx, step in enumerate(proof):
        if isinstance(step.app, Axiom) != (idx == 0):
            return Verdict(False, idx + 1, "axiom allowed only at step 1" if idx
                           else "step 1 must be an axiom")
        try:
            if idx == len(proof) - 1:
                validate_cirquent(step.cirquent)
            if idx == 0:
                if step.cirquent != axiom_conclusion(step.app.formulas):
                    return Verdict(False, 1, "step 1 does not match its axiom")
            elif premise_of(step.cirquent, step.app) != proof[idx - 1].cirquent:
                return Verdict(False, idx + 1,
                               f"premise of step {idx + 1} is not the step {idx} cirquent")
        except (CirquentError, RuleError) as e:
            return Verdict(False, idx + 1, str(e))
    return Verdict(True, None, f"{len(proof)} steps check")


# ------------------------------------------------------------- file format


def _list(items) -> str:
    return "[" + ", ".join(items) + "]"


# How each type of rule field prints in, and reads back from, the proof
# format: a reader takes the Reader of `parse_proof`, a converter the text of
# a `reader.INT` or `reader.LIST` match and the per-proof formula memo, and
# raises ValueError where the reader would raise an error.
_FIELD_TEXT = {
    int: (str, Reader.integer, lambda text, memo: int(text)),
    frozenset[int]: (
        lambda s: _list(str(i) for i in sorted(s)),
        lambda r: frozenset(r.items(r.integer)),
        lambda text, memo: int_set(text),
    ),
    tuple[fm.Formula, ...]: (
        lambda fs: _list(f'"{fm.format_formula(f)}"' for f in fs),
        read_formulas,
        formula_list,
    ),
}

# Per rule, its params in declaration order: (field name, format, read,
# convert).
_PARAMS = {
    cls: [(name, *_FIELD_TEXT[t]) for name, t in get_type_hints(cls).items()]
    for cls in get_args(RuleApp)
}

_PARAM_NAMES = {cls: tuple(name for name, *_ in params) for cls, params in _PARAMS.items()}
_STEP_FIELDS = ("rule", "params", "cirquent")


def _format_params(app: RuleApp) -> str:
    if type(app) not in _PARAMS:
        raise RuleError(f"unknown rule application {app!r}")
    fields = (f"{name}: {fmt(getattr(app, name))}" for name, fmt, _, _ in _PARAMS[type(app)])
    return "{ " + "; ".join(fields) + " }"


def _read_app(r: Reader, name: str) -> RuleApp:
    """The rule named `name`, its params record read from `r` in `_PARAMS`
    order."""
    cls = RULES_BY_NAME.get(name)
    if cls is None:
        raise RuleError(f"unknown rule name {name!r}")
    names = _PARAM_NAMES[cls]
    args = []
    try:
        for i, (_, _, read, _) in enumerate(_PARAMS[cls]):
            r.field(names, i)
            args.append(read(r))
    except fm.FormulaError as e:
        raise RuleError(f"bad params for {name}: {e}") from e
    r.close(names)
    return cls(*args)


def format_proof(proof: Proof) -> str:
    lines = []
    for i, step in enumerate(proof, start=1):
        name = type(step.app).__name__
        lines.append(f"step {i} {{")
        lines.append(f"  rule: {name};")
        lines.append(f"  params: {_format_params(step.app)};")
        lines.append(f"  cirquent: {format_cirquent(step.cirquent)[len('cirquent '):]};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# One step record as one regex: its number, rule name, each params field's
# name and value text (the last fields absent for a rule with fewer), and
# its body's three lists.  Field names and their order are checked after
# the match, against `_PARAM_NAMES`.
_MAX_PARAMS = max(map(len, _PARAMS.values()))
_PARAM = rf"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*({INT}|{LIST})\s*"
_STEP = re.compile(
    rf"\s*step\s+({INT})\s*\{{\s*rule\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*;\s*params\s*:\s*\{{\s*"
    + _PARAM + rf"(?:;\s*{_PARAM}" * (_MAX_PARAMS - 1) + ")?" * (_MAX_PARAMS - 1)
    + rf"(?:;\s*)?\}}\s*;\s*cirquent\s*:\s*{BODY}\s*(?:;\s*)?\}}\s*"
)


def _step_of(m: re.Match, number: int, memo: dict, lists: dict) -> Step | None:
    """The step that the token reader reads from the text of `m`, a match
    of `_STEP` that should be step `number`; None where it would raise."""
    num, rule, *fields, ofs, under, over = m.groups()
    cls = RULES_BY_NAME.get(rule)
    if cls is None or int(num) != number or tuple(filter(None, fields[::2])) != _PARAM_NAMES[cls]:
        return None
    try:
        args = [convert(text, memo) for (_, _, _, convert), text in zip(_PARAMS[cls], fields[1::2])]
        return Step(cls(*args), body_of(ofs, under, over, memo, lists))
    except ValueError:  # RuleError, CirquentError and FormulaError among them
        return None


def parse_proof(text: str) -> Proof:
    """Steps in the grammar's order.  Errors in a cirquent body are
    CirquentErrors (FormulaErrors in its oformula text), all others
    RuleErrors.

    A step is read in one match of `_STEP` when it has no comment, its
    number is the next one, its rule and field names are right and in
    order, and its values convert and its cirquent validates; the token
    reader would read it to the same `Step`.  The text from the first other
    step on goes to the token reader, which keeps the step count and the
    formula memo and raises every error."""
    steps: list[Step] = []
    memo: dict = {}
    lists: dict = {}
    pos, end = 0, len(text)
    while pos < end:
        m = _STEP.match(text, pos)
        step = m and _step_of(m, len(steps) + 1, memo, lists)
        if step is None:
            break
        steps.append(step)
        pos = m.end()
    r = Reader(text[pos:], RuleError)
    r.memo = memo
    while r.peek() is not None:
        r.take("step")
        num = r.integer()
        if num != len(steps) + 1:
            raise RuleError(f"expected step {len(steps) + 1}, found {num}")
        r.field(_STEP_FIELDS, 0)
        name = r.take()
        r.field(_STEP_FIELDS, 1)
        app = _read_app(r, name)
        r.field(_STEP_FIELDS, 2)
        steps.append(Step(app, read_body(r)))
        r.close(_STEP_FIELDS)
    if not steps:
        raise RuleError("no steps found")
    return tuple(steps)


_NOT_A_FORMULA = "the final cirquent does not collapse to a single formula"


def _is_club(c: Cirquent) -> bool:
    return c == club(c.oformulas[0])


def check_formula_proof(proof: Proof) -> Verdict:
    """`check_proof`, and then the final cirquent must be club-shaped: the
    verdict on a proof of `conclusion_formula(proof)`."""
    verdict = check_proof(proof)
    if verdict and not _is_club(proof[-1].cirquent):
        return Verdict(False, len(proof), _NOT_A_FORMULA)
    return verdict


def conclusion_formula(proof: Proof) -> fm.Formula:
    """The single oformula of a club-shaped final cirquent."""
    last = proof[-1].cirquent
    if not _is_club(last):
        raise RuleError(_NOT_A_FORMULA)
    return last.oformulas[0]
