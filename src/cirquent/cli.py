"""Command line front end.

Exit codes: 0 success (or machine win), 1 failed check or lost play,
2 usage errors and malformed input, 3 blown resource caps.

Each reader raises its own error class: the parsers of formulas, proofs,
cirquents, runs and game libraries, `games.of_formula` for an atom the
library assigns no game, `fusion` for a non-bitstring, the corpus harness
for a malformed case, and the file system.  `main` is the one place that
turns those (`INPUT_ERRORS`) into exit 2, as it turns `games.CapExceeded`
into exit 3.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from cirquent import cirquents as cq
from cirquent import formulas as fm
from cirquent import games as gm
from cirquent import harness as hn
from cirquent import rules as rl
from cirquent.fusion import defusion, fusions
from cirquent.games import BOT, TOP
from cirquent.strategies import CompiledStrategy, compile_proof

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# what unreadable files and malformed text raise; main maps them to EXIT_USAGE
INPUT_ERRORS = (OSError, UnicodeDecodeError, rl.RuleError, cq.CirquentError,
                fm.FormulaError, gm.GameError, hn.CorpusError)


class CliError(Exception):
    """A usage error, or an input error with the file it came from named."""


def _load(path: str, parse):
    """`parse` of the text of the file at `path`; either error names the file."""
    try:
        text = Path(path).read_text()
    except OSError as e:  # its own text names the path again
        raise CliError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: {e}")
    try:
        return parse(text)
    except INPUT_ERRORS as e:
        raise CliError(f"{path}: {e}")


def _compile_checked(path: str) -> CompiledStrategy | None:
    """The strategy of the proof at `path`, or None, with the failing step
    on stderr, when the proof does not check."""
    proof = _load(path, rl.parse_proof)
    try:
        return compile_proof(proof)
    except rl.RuleError as e:  # a failed check, not malformed input
        print(e, file=sys.stderr)
        return None


def cmd_check(args) -> int:
    proof = _load(args.proof, rl.parse_proof)
    verdict = rl.check_formula_proof(proof)
    if verdict:
        formula = fm.format_formula(rl.conclusion_formula(proof))
        print(f"ok: {len(proof)} steps, concludes {formula}")
        return EXIT_OK
    print(f"step {verdict.step}: {verdict.message}")
    return EXIT_FAIL


def cmd_compile(args) -> int:
    compiled = _compile_checked(args.proof)
    if compiled is None:
        return EXIT_FAIL
    if args.out:
        Path(args.out).write_text(compiled.bundle + "\n")
    else:
        print(compiled.bundle)
    print(f"strategy for {fm.format_formula(compiled.formula)}", file=sys.stderr)
    return EXIT_OK


def cmd_play(args) -> int:
    compiled = _compile_checked(args.proof)
    if compiled is None:
        return EXIT_FAIL
    lib = _load(args.atoms, gm.parse_game_library)
    arena = hn.FormulaArena(gm.of_formula(compiled.formula, lib))
    if args.moves is not None:
        script = [m if m else None for m in args.moves.split(",")]
        env: hn.EnvPolicy = hn.ScriptedEnv(script)
    elif args.spoiler:
        env = hn.SpoilerEnv()
    else:
        env = hn.RandomEnv(seed=args.seed)
    result = hn.play(compiled.fresh(), env, arena, budget=args.budget)
    for lm in result.run:
        print(f"  {lm.label}: {lm.move}")
    if result.inconclusive:
        print(f"inconclusive after {len(result.run)} moves (budget {args.budget})")
        return EXIT_FAIL
    print(f"winner: {result.winner}")
    return EXIT_OK if result.winner is TOP else EXIT_FAIL


def cmd_eval(args) -> int:
    if (args.formula is None) == (args.cirquent is None):
        raise CliError("need exactly one of --formula or --cirquent")
    run = gm.parse_run(args.run or "")
    lib = _load(args.atoms, gm.parse_game_library)
    if args.formula is not None:
        c = None
        arena: hn.Arena = hn.FormulaArena(gm.of_formula(fm.parse_formula(args.formula), lib))
    else:  # a literal opens with `cirquent {`; anything else is a path
        text = args.cirquent
        c = (cq.parse_cirquent(text) if re.match(r"\s*cirquent\s*\{", text)
             else _load(text, cq.parse_cirquent))
        arena = hn.CirquentArena(c, lib)
    # the arena keeps the judged path, so winner does not judge again; both
    # come before any output, so an atom without a game prints nothing
    offender = arena.offender(run)
    won_by = arena.winner(run)
    if c is not None:
        print(cq.diagram(c))
    if offender is None:
        print("run: legal")
    else:
        print(f"run: illegal, first offender {offender}")
    print(f"winner: {won_by}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    for z in fusions(tuple(args.bits)):
        print(z)
    return EXIT_OK


def cmd_defuse(args) -> int:
    print(" ".join(defusion(args.bits, args.n)))
    return EXIT_OK


def cmd_corpus(args) -> int:
    root = args.root
    if not root.is_dir():
        raise CliError(f"no corpus directory at {root}")
    reports = hn.run_corpus(root, budget=args.budget)
    if not reports:
        raise CliError(f"no corpus cases under {root}")
    for r in reports:
        print(r.line())
    bad = sum(not r.ok for r in reports)
    print(f"{len(reports) - bad}/{len(reports)} cases pass")
    return EXIT_OK if bad == 0 else EXIT_FAIL


REPL_HELP = """\
commands:
  T <move>   append a machine move
  B <move>   append an environment move
  show       print the run, legal frontiers, and current winner
  undo       drop the last move
  help       this text
  quit       leave\
"""


def cmd_repl(args) -> int:
    f = fm.parse_formula(args.formula)
    lib = _load(args.atoms, gm.parse_game_library)
    arena = hn.FormulaArena(gm.of_formula(f, lib))
    run: list[gm.Labmove] = []

    def show() -> None:
        print(f"run: {gm.format_run(tuple(run)) or '(empty)'}")
        offender = arena.offender(tuple(run))
        if offender is not None:
            print(f"illegal, first offender {offender}")
        print(f"winner if play stops here: {arena.winner(tuple(run))}")
        for p in (TOP, BOT):
            print(f"{p} can play: {', '.join(arena.frontier(tuple(run), p, 2)) or '(nothing)'}")

    print(f"game for {fm.format_formula(f)}; 'help' lists commands")
    show()
    stream = sys.stdin
    while True:
        print("> ", end="", flush=True)
        line = stream.readline()
        if not line:
            break
        words = line.strip().split(None, 1)
        if not words:
            continue
        cmd = words[0].lower()
        if cmd in ("quit", "exit", "q"):
            break
        elif cmd == "help":
            print(REPL_HELP)
        elif cmd == "undo":
            if run:
                run.pop()
            show()
        elif cmd == "show":
            show()
        elif cmd in ("t", "b") and len(words) == 2:
            run.append(gm.Labmove(TOP if cmd == "t" else BOT, words[1]))
            show()
        else:
            print(f"unknown command {words[0]!r}; 'help' lists commands")
    return EXIT_OK


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirquent",
        description="check, compile, and play cirquent proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a proof file")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="compile a proof into a strategy bundle")
    p.add_argument("proof")
    p.add_argument("-o", "--out", help="write the bundle here instead of stdout")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("play", help="play a compiled proof against an environment")
    p.add_argument("proof")
    p.add_argument("--atoms", required=True, help="game library file")
    p.add_argument("--seed", type=int, default=0, help="random environment seed")
    p.add_argument("--moves", help="comma separated scripted moves, empty = pass")
    p.add_argument("--spoiler", action="store_true", help="adversarial environment")
    p.add_argument("--budget", type=non_negative_int, default=64)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("eval", help="evaluate a run over a formula or cirquent")
    p.add_argument("--formula")
    p.add_argument("--cirquent", help="cirquent literal or file")
    p.add_argument("--atoms", required=True)
    p.add_argument("--run", help='run literal, e.g. "T:1.q,B:0.a"')
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fuse", help="fuse bitstrings into their interleavings")
    p.add_argument("bits", nargs="+")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("defuse", help="split an interleaving back into components")
    p.add_argument("bits")
    p.add_argument("--n", type=int, required=True, help="number of components")
    p.set_defaults(fn=cmd_defuse)

    p = sub.add_parser("corpus", help="check and play every case in a corpus tree")
    p.add_argument("root", nargs="?", type=Path, default=Path("corpus"),
                   help="defaults to ./corpus")
    p.add_argument("--budget", type=non_negative_int, default=64)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("repl", help="step through a formula game by hand")
    p.add_argument("--formula", required=True)
    p.add_argument("--atoms", required=True)
    p.set_defaults(fn=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except BrokenPipeError:
        # reader went away (e.g. piped into head); not our error.  It is an
        # OSError, so this clause comes before INPUT_ERRORS
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (CliError, *INPUT_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except gm.CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
