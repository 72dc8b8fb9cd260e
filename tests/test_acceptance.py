"""Acceptance suite: one test per shipped guarantee, at full stated scale.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The unit modules cover the same ground at desk scale; these tests
pin the sizes, tolerances, and runtime bounds we commit to.
"""

import functools
import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cirquent import cirquents as cqm
from cirquent import games as gm
from cirquent import rules as R
from cirquent.cirquents import CirquentMove, format_move
from cirquent.formulas import atoms_of, format_formula, parse_formula
from cirquent.fusion import defusion, fusions
from cirquent.games import (
    BOT,
    TOP,
    Conj,
    Corep,
    Disj,
    Labmove,
    Neg,
    Player,
    Rep,
    Run,
    Tree,
    first_offender,
    is_static,
    legal,
    of_formula,
    parse_game,
    parse_game_library,
    parse_run,
    winner,
)
from cirquent.harness import (
    CirquentArena,
    FormulaArena,
    RandomEnv,
    SpoilerEnv,
    exhaustive_env_check,
    play,
)
from cirquent.strategies import (
    AxiomCopycat,
    cirquent_strategy_factories,
    compile_proof,
)
from referee_oracle import negate_run, project_prefix, project_thread, walk

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
CASES = sorted(p.name for p in CORPUS.iterdir() if (p / "proof.cl15").exists())
STANDARD = parse_game_library((CORPUS / "atoms" / "standard.game").read_text())
ALT = parse_game_library((CORPUS / "atoms" / "alt.game").read_text())


def load_proof(name: str) -> R.Proof:
    return R.parse_proof((CORPUS / name / "proof.cl15").read_text())


def compiled_for(name: str):
    return compile_proof(load_proof(name))


def uniform_interp(formula, node) -> dict:
    return {a: node for a in atoms_of(formula)}


# --------------------------------------------------------------- criterion 1


def _perturbed_apps(app: R.RuleApp):
    """Single-parameter perturbations of one rule application."""
    out = []
    if isinstance(app, (R.UnderExchange, R.OverExchange, R.OformulaExchange,
                        R.UnderDuplication, R.OverDuplication)):
        out += [replace(app, pos=app.pos + 1), replace(app, pos=max(1, app.pos - 1))]
    if isinstance(app, R.Weakening):
        out += [replace(app, oformula=app.oformula + 1),
                replace(app, undergroup=app.undergroup + 1)]
    if isinstance(app, R.Merging):
        out += [replace(app, pos=app.pos + 1),
                replace(app, left=app.left | {max(app.right) + 1})]
    if isinstance(app, (R.Contraction, R.DisjIntro, R.ConjIntro)):
        out += [replace(app, oformula=app.oformula + 1),
                replace(app, oformula=max(1, app.oformula - 1))]
    if isinstance(app, R.RecIntro):
        out += [replace(app, overgroup=app.overgroup + 1),
                replace(app, oformula=app.oformula + 1)]
    if isinstance(app, R.CorecIntro):
        universe = set(app.added) | {1, 2}
        for j in sorted(universe):
            out.append(replace(app, added=frozenset(app.added ^ {j})))
    if isinstance(app, R.Axiom):
        out += [R.Axiom(app.formulas + (parse_formula("F"),)),
                R.Axiom(tuple(parse_formula("G") for _ in app.formulas))]
    return out


def _toggled_cirquents(c):
    """Every single-arc toggle that leaves the group sequences well formed."""
    out = []
    for attr in ("undergroups", "overgroups"):
        groups = getattr(c, attr)
        for gi, g in enumerate(groups):
            for a in range(1, c.width + 1):
                flipped = g ^ {a}
                if not flipped:
                    continue
                new_groups = groups[:gi] + (frozenset(flipped),) + groups[gi + 1:]
                cand = replace(c, **{attr: new_groups})
                try:
                    cqm.validate_cirquent(cand)
                except cqm.CirquentError:
                    continue
                out.append(cand)
    return out


def test_criterion_01_corpus_validity_and_mutants():
    t0 = time.monotonic()
    proofs = {name: load_proof(name) for name in CASES}
    assert set(proofs) == {
        "brec_elim", "and_elim", "brec_split", "brec_nest",
        "brec_or_merge", "cobrec_swap", "blass",
    }
    for name, proof in proofs.items():
        verdict = R.check_proof(proof)
        assert verdict, f"{name}: step {verdict.step}: {verdict.message}"

    mutants = 0
    survivors = []
    for name, proof in proofs.items():
        for k, step in enumerate(proof):
            original_premise = None
            if k > 0:
                original_premise = R.premise_of(step.cirquent, step.app)
            for app in _perturbed_apps(step.app):
                if app == step.app:
                    continue
                if k > 0:
                    # skip perturbations that do not change the checked relation
                    try:
                        if R.premise_of(step.cirquent, app) == original_premise:
                            continue
                    except (R.RuleError, cqm.CirquentError):
                        pass
                mutant = proof[:k] + (R.Step(app, step.cirquent),) + proof[k + 1:]
                mutants += 1
                if R.check_proof(mutant):
                    survivors.append((name, k + 1, app))
            for cand in _toggled_cirquents(step.cirquent):
                mutant = proof[:k] + (R.Step(step.app, cand),) + proof[k + 1:]
                mutants += 1
                if R.check_proof(mutant):
                    survivors.append((name, k + 1, "arc toggle"))
        # structural mutants: drop one interior step
        for k in range(1, len(proof) - 1):
            mutant = proof[:k] + proof[k + 1:]
            mutants += 1
            if R.check_proof(mutant):
                survivors.append((name, k + 1, "step dropped"))

    elapsed = time.monotonic() - t0
    assert mutants >= 50, f"only {mutants} mutants generated"
    assert not survivors, f"mutants passed the checker: {survivors[:5]}"
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 2


@functools.cache
def _interleaving_oracle(parts: tuple[str, ...]) -> frozenset[str]:
    # memoised: the exhaustive boxes below share most of their suffix calls
    if all(not p for p in parts):
        return frozenset({""})
    heads = [parts[0][0]] if parts[0] else ["0", "1"]
    rest = parts[1:] + (parts[0][1:],)
    return frozenset(h + t for h in heads for t in _interleaving_oracle(rest))


def test_criterion_02_fusion_examples_and_oracle():
    t0 = time.monotonic()
    assert fusions(("000", "11")) == ("01010",)
    assert fusions(("000", "111")) == ("010101",)
    assert fusions(("000", "1111")) == ("01010101", "01010111")
    assert fusions(("11", "00", "111")) == (
        "101101001", "101101011", "101101101", "101101111",
    )
    assert defusion("01011010", 2) == ("0011", "1100")
    assert defusion("01011010", 3) == ("011", "110", "00")

    def words(maxlen):
        for k in range(maxlen + 1):
            yield from map("".join, itertools.product("01", repeat=k))

    # Exhaustive boxes whose corners reach total length 12. Fully skewed
    # splits (one part 12 bits, another empty) blow the answer set up to
    # 2^12 words per family, which no 10 s budget covers; every family the
    # machine algebra actually produces is near-balanced and lives in here.
    checked = 0
    for a in words(12):
        assert fusions((a,)) == (a,)
        checked += 1
    for a in words(6):
        for b in words(6):
            got = fusions((a, b))
            assert set(got) == _interleaving_oracle((a, b)), (a, b)
            assert list(got) == sorted(got), (a, b)
            for w in got:
                back = defusion(w, 2)
                assert back[0].startswith(a) and back[1].startswith(b)
            checked += 1
    for a in words(4):
        for b in words(4):
            for c in words(4):
                got = fusions((a, b, c))
                assert set(got) == _interleaving_oracle((a, b, c)), (a, b, c)
                assert list(got) == sorted(got), (a, b, c)
                checked += 1
    for parts in itertools.product(words(3), repeat=4):
        got = fusions(parts)
        assert set(got) == _interleaving_oracle(parts), parts
        assert list(got) == sorted(got), parts
        checked += 1
    elapsed = time.monotonic() - t0
    _interleaving_oracle.cache_clear()  # about 100 MB of word sets
    assert checked > 90_000
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 3


def test_criterion_03_worked_projections():
    r = parse_run("T:0.b,B:1.g,B:0.d")
    assert project_prefix(r, "0.") == parse_run("T:b,B:d")

    r = parse_run("T:00.a,B:001.b,B:0.d")
    assert project_thread(r, "000") == parse_run("T:a,B:d")

    wide = cqm.Cirquent(
        tuple(parse_formula("F") for _ in range(5)),
        (frozenset(range(1, 6)),),
        (frozenset({1, 2, 3, 5}), frozenset({3, 4, 5})),
    )
    r = parse_run("T:3;00,1.a,B:3;001,11.b,B:5;00,1.d,T:3;0,111.g")
    assert cqm.project_member(wide, r, 3, ("000", "111")) == parse_run("T:a,T:g")


# --------------------------------------------------------------- criterion 4


def _random_game(rng: random.Random, depth: int):
    if depth == 0:
        return Tree(STANDARD[rng.choice(sorted(STANDARD))])
    op = rng.randrange(6)
    if op == 0:
        return Tree(STANDARD[rng.choice(sorted(STANDARD))])
    if op == 1:
        return Neg(_random_game(rng, depth - 1))
    if op == 2:
        return Conj(_random_game(rng, depth - 1), _random_game(rng, depth - 1))
    if op == 3:
        return Disj(_random_game(rng, depth - 1), _random_game(rng, depth - 1))
    if op == 4:
        return Rep(_random_game(rng, depth - 1))
    return Corep(_random_game(rng, depth - 1))


def _game_candidates(g: gm.Game, run: Run, player: Player, limit: int) -> set[str]:
    """Every move the game trees offer `player` after `run`, whether legal or
    not: the candidates the legal-move oracles filter."""
    if isinstance(g, gm.Tree):
        node = walk(g.root, run)
        if node is None:
            return set()
        return {m for lab, m, _ in node.edges if lab is player}
    if isinstance(g, gm.Neg):
        return _game_candidates(g.sub, negate_run(run), player.other, limit)
    if isinstance(g, (gm.Conj, gm.Disj)):
        left = _game_candidates(g.left, project_prefix(run, "0."), player, limit)
        right = _game_candidates(g.right, project_prefix(run, "1."), player, limit)
        return {"0." + m for m in left} | {"1." + m for m in right}
    if isinstance(g, (gm.Rep, gm.Corep)):
        out: set[str] = set()
        for w in gm.addresses(limit):
            sub = _game_candidates(g.sub, project_thread(run, w), player, limit)
            out.update(w + "." + m for m in sub)
        return out
    raise TypeError(f"not a game: {g!r}")


def _random_run(rng: random.Random, g) -> tuple:
    run = ()
    for _ in range(rng.randrange(5)):
        player = rng.choice((TOP, BOT))
        cands = sorted(_game_candidates(g, run, player, limit=2))
        if cands and rng.random() < 0.8:
            move = rng.choice(cands)
        else:
            move = rng.choice(["zz", "0.zz", ".q", "1.", "x.q", ""])
        run = run + (Labmove(player, move),)
    return run


def test_criterion_04_duality_suite():
    rng = random.Random(20260814)
    pairs = 0
    while pairs < 10_000:
        a = _random_game(rng, rng.randrange(1, 4))
        b = _random_game(rng, 1)
        r = _random_run(rng, a)
        for lhs, rhs in (
            (Neg(Neg(a)), a),
            (Neg(Conj(a, b)), Disj(Neg(a), Neg(b))),
            (Neg(Disj(a, b)), Conj(Neg(a), Neg(b))),
            (Neg(Rep(a)), Corep(Neg(a))),
            (Neg(Corep(a)), Rep(Neg(a))),
        ):
            assert legal(lhs, r) == legal(rhs, r), (lhs, r)
            assert winner(lhs, r) is winner(rhs, r), (lhs, r)
            pairs += 1
    assert pairs >= 10_000


# --------------------------------------------------------------- criterion 5


def test_criterion_05_randomized_soundness():
    t0 = time.monotonic()
    for name in CASES:
        compiled = compiled_for(name)
        for game_name, node in sorted(STANDARD.items()):
            arena = FormulaArena(
                of_formula(compiled.formula, uniform_interp(compiled.formula, node))
            )
            for seed in range(1000):
                res = play(compiled.fresh(), RandomEnv(seed=seed), arena, budget=64)
                assert not res.inconclusive, (name, game_name, seed, res.run)
                assert res.won, (name, game_name, seed, res.run)
            res = play(compiled.fresh(), SpoilerEnv(depth=2), arena, budget=64)
            assert res.won and not res.inconclusive, (name, game_name, res.run)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 6


def test_criterion_06_exhaustive_soundness():
    t0 = time.monotonic()
    for name in CASES:
        compiled = compiled_for(name)
        for game_name, node in sorted(STANDARD.items()):
            arena = FormulaArena(
                of_formula(compiled.formula, uniform_interp(compiled.formula, node))
            )
            ok, witness = exhaustive_env_check(
                compiled.factory, arena, env_depth=2, limit=2, budget=64
            )
            assert ok, (name, game_name, witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 7


def test_criterion_07_per_rule_preservation():
    interp = {
        "E": STANDARD["relay"], "F": STANDARD["ladder"],
        "G": STANDARD["choice"], "H": STANDARD["relay"],
    }

    def wins_grid(c, factory) -> bool:
        arena = CirquentArena(c, interp)
        for seed in range(20):
            res = play(factory(), RandomEnv(seed=seed, max_moves=4), arena, budget=48)
            if res.inconclusive or not res.won:
                return False
        return True

    for name in CASES:
        proof = load_proof(name)
        pairs = cirquent_strategy_factories(proof)
        prev_ok = wins_grid(*pairs[0])
        assert prev_ok, f"{name}: axiom strategy lost"
        for step, (c, factory) in zip(proof[1:], pairs[1:]):
            ok = wins_grid(c, factory)
            rule = type(step.app).__name__
            assert not prev_ok or ok, f"{name}: {rule} broke a winning premise"
            prev_ok = ok


# --------------------------------------------------------------- criterion 8


def test_criterion_08_negative_control():
    # beacon and pitfall are left out: the environment has no move there, so
    # the swapped copycat is never asked to answer and survives
    axiom = R.axiom_conclusion((parse_formula("F"),))
    for game_name in ("choice", "ladder", "relay"):
        arena = CirquentArena(axiom, {"F": STANDARD[game_name]})
        for depth in (2, 3):
            ok, witness = exhaustive_env_check(
                lambda: AxiomCopycat(1, pairing="swapped"), arena, env_depth=depth, limit=2
            )
            assert not ok, (game_name, depth)
            assert witness is not None and len(witness) >= 1
            # the honest pairing survives the identical sweep
            ok, witness = exhaustive_env_check(
                lambda: AxiomCopycat(1), arena, env_depth=depth, limit=2
            )
            assert ok, (game_name, depth, witness)


# --------------------------------------------------------------- criterion 9


RACE_TEXT = '''
node winner=B {
  B"a" -> node winner=B {
    T"b" -> node winner=T {
      B"d" -> node winner=T {}
    }
    B"d" -> node winner=B {
      T"b" -> node winner=B {}
    }
  }
}
'''


def test_criterion_09_static_validator():
    libraries = sorted(CORPUS.glob("**/*.game"))
    assert len(libraries) == 9
    for path in libraries:
        for name, node in sorted(parse_game_library(path.read_text()).items()):
            report = is_static(Tree(node))
            assert report, f"{path.relative_to(CORPUS)} {name}: {report}"

    report = is_static(Tree(parse_game(RACE_TEXT)))
    assert not report
    assert report.player is TOP
    assert report.original == parse_run("B:a,T:b,B:d")
    assert report.delayed == parse_run("B:a,B:d,T:b")
    # the delayed run flips a win into a loss
    g = Tree(parse_game(RACE_TEXT))
    assert winner(g, report.original) is TOP
    assert winner(g, report.delayed) is BOT


# -------------------------------------------------------------- criterion 10


def test_criterion_10_compile_is_interpretation_blind():
    probe_runs = [
        (),
        parse_run("B:1.q"),
        parse_run("B:1.ask1"),
        parse_run("B:0.0.zz,B:1.up"),
        parse_run("B:junk"),
    ]
    for name in CASES:
        proof = load_proof(name)
        first, second = compile_proof(proof), compile_proof(proof)
        assert first.bundle.encode() == second.bundle.encode()
        data = json.loads(first.bundle)
        assert set(data) == {"formula", "steps", "bridges"}
        # nothing interpretation-shaped in the bundle
        for lib in (STANDARD, ALT):
            for game_name in lib:
                assert game_name not in first.bundle
        # identical observable behavior on identical observations
        for r in probe_runs:
            a, b = first.fresh(), second.fresh()
            trace_a, trace_b = [], []
            seen = ()
            for lm in r + (Labmove(BOT, "stop"),):
                seen = seen + (lm,)
                trace_a += a.step(seen)
                trace_b += b.step(seen)
            assert trace_a == trace_b
