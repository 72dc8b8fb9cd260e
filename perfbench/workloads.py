"""The benchmark's workloads: set-up, seeded op passes and correctness gates.

Every op is a zero-argument callable that returns True when the program's
output is correct. A pass is one seeded, shuffled round over a workload's
whole op multiset, so any two passes do the same kinds of work in the same
proportions. The seed picks the order and, in `rollout`, the random
environments' seeds.

All calls into the program go through module attributes (`harness.play`,
`rules.parse_proof`, ...), so the tracer's patches see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from cirquent import cirquents, formulas, games, harness, rules, strategies

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

Op = Callable[[], bool]

# Criterion 7's interpretation for the per-rule preservation grid.
GRID_INTERP = {"E": "relay", "F": "ladder", "G": "choice", "H": "relay"}


@dataclass
class Setup:
    """What every op reads: checked and compiled corpus, library, arenas."""

    library: dict[str, games.GameNode]
    compiled: dict[str, strategies.CompiledStrategy]
    # (case, game) -> arena of the case's conclusion with every atom = game
    formula_arenas: dict[tuple[str, str], harness.FormulaArena]
    # (case, step number, rule, arena, fresh-strategy factory), one per proof step
    grid: list[tuple[str, int, str, harness.CirquentArena, Callable]]


def corpus_cases() -> list[str]:
    return sorted(p.name for p in CORPUS.iterdir() if (p / "proof.cl15").exists())


def build_setup() -> Setup:
    """Parse, check and compile the corpus, load the library, build arenas."""
    library = games.parse_game_library((CORPUS / "atoms" / "standard.game").read_text())
    grid_interp = {atom: library[game] for atom, game in GRID_INTERP.items()}
    compiled, formula_arenas, grid = {}, {}, []
    for case in corpus_cases():
        proof = rules.parse_proof((CORPUS / case / "proof.cl15").read_text())
        verdict = rules.check_proof(proof)
        if not verdict:
            raise RuntimeError(f"corpus proof {case} does not check: {verdict.message}")
        compiled[case] = strategies.compile_proof(proof)
        formula = compiled[case].formula
        atoms = formulas.atoms_of(formula)
        for game, node in sorted(library.items()):
            formula_arenas[case, game] = harness.FormulaArena(
                games.of_formula(formula, {a: node for a in atoms})
            )
        pairs = strategies.cirquent_strategy_factories(proof)
        for k, (step, (cirquent, factory)) in enumerate(zip(proof, pairs), start=1):
            rule = type(step.app).__name__
            grid.append((case, k, rule, harness.CirquentArena(cirquent, grid_interp), factory))
    return Setup(library, compiled, formula_arenas, grid)


# ----------------------------------------------------------------- gates


def play_won(factory: Callable, make_env: Callable, arena, budget: int) -> bool:
    """One rollout; a lost or inconclusive play is a wrong output."""
    return harness.play(factory(), make_env(), arena, budget=budget).won


def sweep_clean(factory: Callable, arena) -> bool:
    """Depth-2 exhaustive environment sweep; a witness is a wrong output."""
    ok, _witness = harness.exhaustive_env_check(factory, arena, env_depth=2, limit=2, budget=64)
    return ok


def check_verdict(text: str, want: str | None) -> bool:
    """Parse, check and compile a proof text. `want` is the conclusion formula
    a sound proof must compile to, or None for a mutant that must be rejected."""
    try:
        proof = rules.parse_proof(text)
    except (rules.RuleError, cirquents.CirquentError, formulas.FormulaError):
        return want is None
    if not rules.check_proof(proof):
        return want is None
    compiled = strategies.compile_proof(proof)
    return want is not None and formulas.format_formula(compiled.formula) == want


def gate_self_check(setup: Setup) -> dict[str, int]:
    """Run criterion 8's swapped-pairing copycat through the rollout and sweep
    gates, next to the honest copycat on the same arena. Returns counts; the
    gates work when every honest op passes and swapped ops fail."""
    axiom = rules.axiom_conclusion((formulas.parse_formula("F"),))
    arena = harness.CirquentArena(axiom, {"F": setup.library["choice"]})
    honest = partial(strategies.AxiomCopycat, 1)
    swapped = partial(strategies.AxiomCopycat, 1, pairing="swapped")
    envs = [partial(harness.RandomEnv, s, max_moves=4) for s in range(20)]
    return {
        "swapped_sweep_failed": int(not sweep_clean(swapped, arena)),
        "swapped_rollouts_failed": sum(not play_won(swapped, e, arena, 48) for e in envs),
        "honest_sweep_failed": int(not sweep_clean(honest, arena)),
        "honest_rollouts_failed": sum(not play_won(honest, e, arena, 48) for e in envs),
    }


def self_check_ok(counts: dict[str, int]) -> bool:
    return (counts["swapped_sweep_failed"] == 1 and counts["swapped_rollouts_failed"] > 0
            and counts["honest_sweep_failed"] == 0 and counts["honest_rollouts_failed"] == 0)


# --------------------------------------------------------------- mutants
# Criterion 1's single-perturbation mutants of the corpus proofs.


def _perturbed_apps(app):
    out = []
    if isinstance(app, (rules.UnderExchange, rules.OverExchange, rules.OformulaExchange,
                        rules.UnderDuplication, rules.OverDuplication)):
        out += [replace(app, pos=app.pos + 1), replace(app, pos=max(1, app.pos - 1))]
    if isinstance(app, rules.Weakening):
        out += [replace(app, oformula=app.oformula + 1),
                replace(app, undergroup=app.undergroup + 1)]
    if isinstance(app, rules.Merging):
        out += [replace(app, pos=app.pos + 1),
                replace(app, left=app.left | {max(app.right) + 1})]
    if isinstance(app, (rules.Contraction, rules.DisjIntro, rules.ConjIntro)):
        out += [replace(app, oformula=app.oformula + 1),
                replace(app, oformula=max(1, app.oformula - 1))]
    if isinstance(app, rules.RecIntro):
        out += [replace(app, overgroup=app.overgroup + 1),
                replace(app, oformula=app.oformula + 1)]
    if isinstance(app, rules.CorecIntro):
        for j in sorted(set(app.added) | {1, 2}):
            out.append(replace(app, added=frozenset(app.added ^ {j})))
    if isinstance(app, rules.Axiom):
        out += [rules.Axiom(app.formulas + (formulas.parse_formula("F"),)),
                rules.Axiom(tuple(formulas.parse_formula("G") for _ in app.formulas))]
    return out


def _toggled_cirquents(c):
    out = []
    for attr in ("undergroups", "overgroups"):
        groups = getattr(c, attr)
        for gi, g in enumerate(groups):
            for a in range(1, c.width + 1):
                flipped = g ^ {a}
                if not flipped:
                    continue
                cand = replace(c, **{attr: groups[:gi] + (frozenset(flipped),) + groups[gi + 1:]})
                try:
                    cirquents.validate_cirquent(cand)
                except cirquents.CirquentError:
                    continue
                out.append(cand)
    return out


def _mutants(proof):
    for k, step in enumerate(proof):
        original = rules.premise_of(step.cirquent, step.app) if k > 0 else None
        for app in _perturbed_apps(step.app):
            if app == step.app:
                continue
            if k > 0:
                try:  # skip perturbations that leave the checked relation alone
                    if rules.premise_of(step.cirquent, app) == original:
                        continue
                except (rules.RuleError, cirquents.CirquentError):
                    pass
            yield proof[:k] + (rules.Step(app, step.cirquent),) + proof[k + 1:]
        for cand in _toggled_cirquents(step.cirquent):
            yield proof[:k] + (rules.Step(step.app, cand),) + proof[k + 1:]
    for k in range(1, len(proof) - 1):
        yield proof[:k] + proof[k + 1:]


def check_inputs() -> list[tuple[str, str | None]]:
    """Corpus proof texts (with their conclusion) and mutant texts (None)."""
    out = []
    for case in corpus_cases():
        text = (CORPUS / case / "proof.cl15").read_text()
        want = json.loads((CORPUS / case / "expect.json").read_text())["formula"]
        out.append((text, want))
        out.extend((rules.format_proof(m), None) for m in _mutants(rules.parse_proof(text)))
    return out


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Module-level layer groups predicted to take most of the op time.
    dominant: tuple[str, ...]
    # Passes the traced run executes: a fixed amount of work per seed.
    trace_passes: int
    make_pass: Callable[[Setup, object, random.Random], list[tuple[str, Op]]]
    prepare: Callable[[], object] = lambda: None
    # False keeps a workload out of BENCHMARK.json: runnable, but not steady
    # enough for the end-to-end bounds.
    gated: bool = True


def _check_pass(setup: Setup, texts, rng: random.Random):
    ops = [(f"text{i}", partial(check_verdict, text, want))
           for i, (text, want) in enumerate(texts)]
    rng.shuffle(ops)
    return ops


ROLLOUT_RANDOM_PER_PAIR = 20


def _rollout_pass(setup: Setup, _inputs, rng: random.Random):
    ops = []
    for (case, game), arena in sorted(setup.formula_arenas.items()):
        fresh = setup.compiled[case].fresh
        for _ in range(ROLLOUT_RANDOM_PER_PAIR):
            seed = rng.randrange(2**32)
            env = partial(harness.RandomEnv, seed)
            ops.append((f"{case}/{game}/random{seed}", partial(play_won, fresh, env, arena, 64)))
        spoiler = partial(harness.SpoilerEnv, depth=2)
        ops.append((f"{case}/{game}/spoiler", partial(play_won, fresh, spoiler, arena, 64)))
    rng.shuffle(ops)
    return ops


def _sweep_pass(setup: Setup, _inputs, rng: random.Random):
    ops = [
        (f"{case}/{game}", partial(sweep_clean, setup.compiled[case].factory, arena))
        for (case, game), arena in sorted(setup.formula_arenas.items())
    ]
    rng.shuffle(ops)
    return ops


# Criterion 7's RandomEnv seeds 0-4: the 345-play grid. Drawing seeds at
# random instead makes a pass's cost vary a thousandfold from seed to seed.
GRID_ENV_SEEDS = range(5)


def _grid_pass(setup: Setup, _inputs, rng: random.Random):
    ops = []
    for case, k, rule, arena, factory in setup.grid:
        for seed in GRID_ENV_SEEDS:
            env = partial(harness.RandomEnv, seed, max_moves=4)
            ops.append((f"{case}/step{k}/{rule}/random{seed}",
                        partial(play_won, factory, env, arena, 48)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check",
            "Parse, check and compile a proof text or reject a mutant; the only load on the "
            "parsers and checker (formulas, rules, cirquent text), predicted ~94% of op time.",
            ("formulas", "rules"),
            trace_passes=1,
            make_pass=_check_pass,
            prepare=check_inputs,
        ),
        Workload(
            "rollout",
            "One play vs RandomEnv (20 per pair) or SpoilerEnv on a FormulaArena, corpus x "
            "standard library; the formula referee (games, FormulaArena.frontier) dominates.",
            ("games", "harness"),
            trace_passes=2,
            make_pass=_rollout_pass,
        ),
        Workload(
            "sweep",
            "Depth-2 exhaustive_env_check per (case, library game); replays fresh strategy "
            "stacks per node, so strategies+fusion dominate (~70%), referee ~15%.",
            ("strategies", "fusion"),
            trace_passes=1,
            make_pass=_sweep_pass,
            # One 19 s pass of 35 single-shot ops: its median op lasts 2-3 ms
            # and moved by 35% between seeds, so it stays a traced diagnostic.
            gated=False,
        ),
        Workload(
            "cirquent_grid",
            "One play on a CirquentArena for one proof step, criterion 7's grid (seeds 0-4); "
            "cirquent referee and CirquentArena.frontier dominate (94-97%), strategies <1%.",
            ("cirquents", "games", "harness"),
            trace_passes=1,
            make_pass=_grid_pass,
        ),
    )
}
