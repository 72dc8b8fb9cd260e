"""Regenerate the proof corpus and atom libraries under corpus/.

Each derivation is constructed forward from its axiom, checked, and written
out; expect.json records the conclusion, which `cirquent corpus` checks.
Every atom library tree it writes must be a static game, or it stops.
Run from the repository root, with the package installed or on the path:
PYTHONPATH=src python3 scripts/build_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

from cirquent import rules as R
from cirquent.cirquents import Cirquent
from cirquent.formulas import format_formula, parse_formula
from cirquent.games import Tree, format_game, format_run, is_static, parse_game_library
from cirquent.rules import (
    Axiom,
    ConjIntro,
    Contraction,
    CorecIntro,
    DisjIntro,
    Merging,
    OformulaExchange,
    OverDuplication,
    RecIntro,
    Step,
    UnderExchange,
    Weakening,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


class Builder:
    def __init__(self, *axiom_formulas: str):
        fs = tuple(parse_formula(s) for s in axiom_formulas)
        app = Axiom(fs)
        self.steps = [Step(app, R.axiom_conclusion(fs))]

    @property
    def now(self) -> Cirquent:
        return self.steps[-1].cirquent

    def apply(self, app: R.RuleApp) -> "Builder":
        self.steps.append(Step(app, R.conclusion_of(self.now, app)))
        return self

    def step_to(self, app: R.RuleApp, conclusion: Cirquent) -> "Builder":
        # for conclusions the rule parameters alone cannot rebuild
        # (weakening that introduces a whole oformula)
        if R.premise_of(conclusion, app) != self.now:
            raise AssertionError(f"{app} does not lead from the current cirquent")
        self.steps.append(Step(app, conclusion))
        return self

    def reorder_oformulas(self, *target: str) -> "Builder":
        """Emit adjacent swaps until the oformulas read as `target`.

        Duplicates are matched left to right, keeping relative order.
        """
        want = [parse_formula(s) for s in target]
        # selection sort over instance ids so swap count is deterministic
        ids = list(range(len(self.now.oformulas)))
        pool = list(enumerate(self.now.oformulas))
        order: list[int] = []
        used: set[int] = set()
        for f in want:
            for i, g in pool:
                if i not in used and g == f:
                    order.append(i)
                    used.add(i)
                    break
            else:
                raise AssertionError(f"no unmatched oformula {format_formula(f)}")
        for dst in range(len(order)):
            src = ids.index(order[dst])
            while src > dst:
                self.apply(OformulaExchange(src))
                ids[src - 1], ids[src] = ids[src], ids[src - 1]
                src -= 1
        assert [format_formula(f) for f in self.now.oformulas] == list(target)
        return self

    def done(self) -> R.Proof:
        proof = tuple(self.steps)
        verdict = R.check_proof(proof)
        if not verdict:
            raise AssertionError(f"step {verdict.step}: {verdict.message}")
        return proof


def fs(*xs: int) -> frozenset[int]:
    return frozenset(xs)


def brec_elim() -> R.Proof:
    # !F -> F
    b = Builder("F")
    b.apply(CorecIntro(1, fs()))
    b.apply(DisjIntro(1))
    return b.done()


def and_elim() -> R.Proof:
    # F & F -> F
    b = Builder("F")
    nf = parse_formula("~F")
    f = parse_formula("F")
    widened = Cirquent((nf, nf, f), (fs(1, 2, 3),), (fs(1, 2, 3),))
    b.step_to(Weakening(undergroup=1, oformula=2), widened)
    b.apply(DisjIntro(1))
    b.apply(DisjIntro(1))
    return b.done()


def brec_split() -> R.Proof:
    # !F -> !F & !F
    b = Builder("!F", "!F")
    b.apply(Merging(1, fs(1, 2), fs(3, 4)))
    b.apply(OformulaExchange(2))
    b.apply(Weakening(undergroup=1, oformula=2))
    b.apply(Weakening(undergroup=2, oformula=1))
    b.apply(Contraction(1))
    b.apply(ConjIntro(2))
    b.apply(DisjIntro(1))
    return b.done()


def brec_nest() -> R.Proof:
    # !F -> !!F
    b = Builder("F")
    b.apply(OverDuplication(1))
    b.apply(CorecIntro(1, fs(2)))
    b.apply(OverDuplication(2))
    b.apply(RecIntro(2, 3))
    b.apply(RecIntro(2, 2))
    b.apply(DisjIntro(1))
    return b.done()


def brec_or_merge() -> R.Proof:
    # !E | !F -> !(E | F)
    b = Builder("E", "~F")
    b.apply(Merging(1, fs(1, 2), fs(3, 4)))
    b.apply(Weakening(undergroup=1, oformula=3))
    b.apply(Weakening(undergroup=2, oformula=2))
    b.apply(DisjIntro(2))
    b.apply(OformulaExchange(2))
    b.apply(OverDuplication(1))
    b.apply(CorecIntro(1, fs(2)))
    b.apply(CorecIntro(2, fs(2)))
    b.apply(RecIntro(3, 2))
    b.apply(ConjIntro(1))
    b.apply(DisjIntro(1))
    return b.done()


def cobrec_swap() -> R.Proof:
    # ?!F -> !?F
    b = Builder("F")
    b.apply(OverDuplication(1))
    b.apply(OverDuplication(1))
    b.apply(CorecIntro(1, fs(3)))
    b.apply(CorecIntro(2, fs(1)))
    b.apply(RecIntro(1, 1))
    b.apply(RecIntro(2, 2))
    b.apply(DisjIntro(1))
    return b.done()


def blass() -> R.Proof:
    # ((~E | ~F) & (~G | ~H)) | ((E | G) & (F | H)), the shared-arc example:
    # each dual pair is split across different conjuncts, so no
    # formula-by-formula decomposition works and the arcs must share members.
    b = Builder("E", "F", "G", "H")
    b.apply(Merging(1, fs(1, 2), fs(3, 4)))
    b.apply(Merging(1, fs(1, 2, 3, 4), fs(5, 6)))
    b.apply(Merging(1, fs(1, 2, 3, 4, 5, 6), fs(7, 8)))
    b.reorder_oformulas("~E", "~F", "~G", "~H", "E", "G", "F", "H")
    assert b.now.undergroups == (fs(1, 5), fs(2, 7), fs(3, 6), fs(4, 8))
    b.apply(UnderExchange(2))
    for i, a in ((1, 2), (1, 6), (2, 4), (2, 5), (3, 1), (3, 8), (4, 3), (4, 7)):
        b.apply(Weakening(undergroup=i, oformula=a))
    assert b.now.undergroups == (
        fs(1, 2, 5, 6), fs(3, 4, 5, 6), fs(1, 2, 7, 8), fs(3, 4, 7, 8),
    )
    b.apply(DisjIntro(1))
    b.apply(DisjIntro(2))
    b.apply(DisjIntro(3))
    b.apply(DisjIntro(4))
    b.apply(ConjIntro(1))
    b.apply(ConjIntro(2))
    b.apply(DisjIntro(1))
    return b.done()


STANDARD_LIB = """\
# Default atom library: finite trees, depth at most 3.

game beacon = node winner=T {}

game pitfall = node winner=B {}

game relay = node winner=T {
  B"q" -> node winner=B {
    T"a" -> node winner=T {}
  }
}

game ladder = node winner=B {
  T"s" -> node winner=T {
    B"p" -> node winner=B {
      T"t" -> node winner=T {}
    }
  }
}

game choice = node winner=B {
  T"l" -> node winner=T {
    B"x" -> node winner=B {
      T"y" -> node winner=T {}
    }
  }
  T"r" -> node winner=B {}
}
"""

ALT_LIB = """\
# Second library: same names, disjoint move vocabulary and shapes.

game beacon = node winner=B {}

game pitfall = node winner=T {}

game relay = node winner=T {
  B"ask1" -> node winner=B {
    T"ans1" -> node winner=T {
      B"ask2" -> node winner=B {}
    }
  }
}

game ladder = node winner=B {
  T"up" -> node winner=T {
    B"dn" -> node winner=B {
      T"top" -> node winner=T {}
    }
  }
}

game choice = node winner=B {
  T"pick_a" -> node winner=T {}
  T"pick_b" -> node winner=B {
    T"mend" -> node winner=T {}
  }
}
"""

CASES: dict[str, tuple] = {
    "brec_elim": (brec_elim, {"F": "relay"}),
    "and_elim": (and_elim, {"F": "choice"}),
    "brec_split": (brec_split, {"F": "relay"}),
    "brec_nest": (brec_nest, {"F": "ladder"}),
    "brec_or_merge": (brec_or_merge, {"E": "relay", "F": "ladder"}),
    "cobrec_swap": (cobrec_swap, {"F": "relay"}),
    "blass": (blass, {"E": "relay", "F": "ladder", "G": "choice", "H": "relay"}),
}


def atom_file(assignment: dict[str, str]) -> str:
    lib = parse_game_library(STANDARD_LIB)
    parts = [f"game {atom} = {format_game(lib[game_name])}"
             for atom, game_name in sorted(assignment.items())]
    return "\n\n".join(parts) + "\n"


def write_library(path: Path, text: str) -> None:
    """Write an atom library, once every tree in it is a static game: the
    paper's guarantee covers static atoms only."""
    for name, node in parse_game_library(text).items():
        report = is_static(Tree(node))
        if not report:
            raise AssertionError(f"{path}: game {name} is not static: "
                                 f"{format_run(report.delayed)} is a {report.player}-delay "
                                 f"of {format_run(report.original)}")
    path.write_text(text)


def main() -> None:
    atoms_dir = CORPUS / "atoms"
    atoms_dir.mkdir(parents=True, exist_ok=True)
    write_library(atoms_dir / "standard.game", STANDARD_LIB)
    write_library(atoms_dir / "alt.game", ALT_LIB)

    for name, (build, assignment) in CASES.items():
        proof = build()
        case_dir = CORPUS / name
        case_dir.mkdir(parents=True, exist_ok=True)
        (case_dir / "proof.cl15").write_text(R.format_proof(proof))
        write_library(case_dir / "atoms.game", atom_file(assignment))
        formula = format_formula(R.conclusion_formula(proof))
        expect = json.dumps({"formula": formula}, indent=2)
        (case_dir / "expect.json").write_text(expect + "\n")
        print(f"{name}: {len(proof)} steps, concludes {formula}")


if __name__ == "__main__":
    main()
