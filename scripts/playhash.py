"""Same-answers check: SHA-256 digests of 2,125 plays, of every frontier
they ask for, and of every run the depth-2 sweeps judge.

    python3 scripts/playhash.py

Run it on two checkouts; equal digests mean that the referee, the
environments and the strategies answered alike.  The plays are 41 per
rollout (case, game) pair of `perfbench/workloads.py`'s set-up:
`RandomEnv` seeds 0-39 at budget 64 and one `SpoilerEnv(depth=2)`; and 10
per grid step: `RandomEnv(s, max_moves=4)` for s in 0-4 and 688172268 at
budget 48, and `RandomEnv(k, max_moves=4)` at budgets 0, 1, 2 and 5, k the
step's number counted from 1.  Each play is hashed as `(run, winner,
offender, inconclusive)`, each frontier an arena returns during the plays
as `(run, player, limit, sorted moves)`, both as the `repr` of the tuple.
The script prints the play count and the plays' digest, then the frontier
count and the digest of the plays and the frontiers together.

The third line covers the 35 depth-2 sweeps of the set-up, one per rollout
(case, game) pair in sorted order, each `exhaustive_env_check(factory,
arena, 2, 2, 64)` as `perfbench/workloads.py`'s `sweep_clean` runs it.  It
prints the number of `Arena.winner` calls the sweeps make and one digest
over `(run, winner)` for each call and `(case, game, ok, witness)` after
each sweep, again as the `repr` of the tuple.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cirquent import harness  # noqa: E402
from workloads import build_setup  # noqa: E402


def main() -> None:
    setup = build_setup()
    plays, both = hashlib.sha256(), hashlib.sha256()
    counts = {"plays": 0, "frontiers": 0}
    frontier = harness.Arena.frontier

    def recorded(self, run, player, limit):
        moves = frontier(self, run, player, limit)
        counts["frontiers"] += 1
        both.update(repr((run, player, limit, moves)).encode())
        return moves

    def record(result: harness.PlayResult) -> None:
        counts["plays"] += 1
        text = repr((result.run, result.winner, result.offender, result.inconclusive)).encode()
        plays.update(text)
        both.update(text)

    harness.Arena.frontier = recorded
    try:
        for (case, game), arena in sorted(setup.formula_arenas.items()):
            fresh = setup.compiled[case].fresh
            for seed in range(40):
                record(harness.play(fresh(), harness.RandomEnv(seed), arena, budget=64))
            record(harness.play(fresh(), harness.SpoilerEnv(depth=2), arena, budget=64))
        for case, k, rule, arena, factory in setup.grid:
            for seed in (0, 1, 2, 3, 4, 688172268):
                env = harness.RandomEnv(seed, max_moves=4)
                record(harness.play(factory(), env, arena, budget=48))
            for budget in (0, 1, 2, 5):
                env = harness.RandomEnv(k, max_moves=4)
                record(harness.play(factory(), env, arena, budget=budget))
    finally:
        harness.Arena.frontier = frontier
    print(counts["plays"], "plays", plays.hexdigest())
    print(counts["frontiers"], "frontiers", both.hexdigest())
    judged, runs = sweep_digest(setup)
    print(runs, "sweep runs", judged.hexdigest())


def sweep_digest(setup):
    """The digest of the 35 sweeps and the number of runs they judge."""
    judged = hashlib.sha256()
    runs = 0
    winner = harness.Arena.winner

    def recorded(self, run):
        nonlocal runs
        who = winner(self, run)
        runs += 1
        judged.update(repr((run, who)).encode())
        return who

    harness.Arena.winner = recorded
    try:
        for (case, game), arena in sorted(setup.formula_arenas.items()):
            ok, witness = harness.exhaustive_env_check(setup.compiled[case].factory, arena,
                                                       env_depth=2, limit=2, budget=64)
            judged.update(repr((case, game, ok, witness)).encode())
    finally:
        harness.Arena.winner = winner
    return judged, runs


if __name__ == "__main__":
    main()
