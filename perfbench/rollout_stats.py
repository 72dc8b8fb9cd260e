"""Rollout rows: case x library x game x environment, with run lengths.

The same rows `scripts/rollout_stats.py` prints, as a report mode of the
benchmark: `python3 perfbench/run.py --rollout-stats 50`.
"""

from __future__ import annotations

from statistics import mean

from cirquent import formulas, games, harness
from workloads import CORPUS, build_setup


def sweep(seeds: int) -> int:
    """Print one row per (case, library, game, env); returns failing rows."""
    libraries = {
        p.stem: games.parse_game_library(p.read_text())
        for p in sorted((CORPUS / "atoms").glob("*.game"))
    }
    compiled = build_setup().compiled
    failures = 0
    print(f"{'case':<14} {'library':<9} {'game':<8} {'env':<8} "
          f"{'won':>5} {'len avg':>8} {'len max':>7}")
    for case, strategy in sorted(compiled.items()):
        atoms = formulas.atoms_of(strategy.formula)
        for lib_name, lib in libraries.items():
            for game_name, node in sorted(lib.items()):
                arena = harness.FormulaArena(
                    games.of_formula(strategy.formula, {a: node for a in atoms}))
                envs = {
                    "random": [harness.RandomEnv(seed=s) for s in range(seeds)],
                    "spoiler": [harness.SpoilerEnv(depth=2)],
                }
                for env_name, policies in envs.items():
                    won, lengths = 0, []
                    for env in policies:
                        res = harness.play(strategy.fresh(), env, arena, budget=64)
                        won += res.won
                        lengths.append(len(res.run))
                    if won < len(policies):
                        failures += 1
                    print(f"{case:<14} {lib_name:<9} {game_name:<8} {env_name:<8} "
                          f"{won:>3}/{len(policies):<3} {mean(lengths):>8.1f} "
                          f"{max(lengths):>7}")
    print(f"\n{failures} failing rows")
    return failures
