"""The command line's exit-code contract under random input.

Every command exits 0, 1, 2 or 3 and never shows a traceback, whatever the
files and move strings it is given. `cli.main` runs in process with its
output captured, so an exception that escaped it would fail the test where
a console run would print a traceback.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cirquent import cli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CASES = sorted(p.name for p in CORPUS.iterdir() if (p / "proof.cl15").exists())

# what move and run strings are made of, with some of every kind of token
MOVE_TEXT = st.text(alphabet=st.sampled_from("01;,.:qarTB-9 \n\"{}\\é"), max_size=24)
# mostly bitstrings, up to enough free positions to go over the fusion cap
BITS = st.one_of(st.text(alphabet="01", max_size=16),
                 st.text(alphabet=st.sampled_from("01x2 -"), max_size=8))
# replacement text: the proof and game syntax, digits that renumber a
# parameter, and any character at all
SPLICE = st.one_of(st.text(alphabet=st.sampled_from("0123456789"), min_size=1, max_size=2),
                   st.text(alphabet=st.sampled_from(",;:[]{}\"FG|&!?~ "), max_size=6),
                   st.text(max_size=6))


@st.composite
def mutated(draw, text: str) -> str:
    """`text` with up to three spans deleted, duplicated or replaced by
    random text, or digits changed."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        # drawn twice as often: a renumbered text still reads but may not check
        kind = draw(st.sampled_from(["delete", "duplicate", "replace", "renumber", "renumber"]))
        if kind == "renumber":
            digits = [k for k, c in enumerate(text) if c.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                text = text[:k] + draw(st.sampled_from("0123456789")) + text[k + 1:]
        elif kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + draw(SPLICE) + text[j:]
    return text


@st.composite
def command_lines(draw, tmp: Path) -> list[str]:
    """One command line: `check`, `compile`, `play`, `eval`, `fuse` or
    `defuse` on mutated corpus files and random move strings."""
    case = CORPUS / draw(st.sampled_from(CASES))
    proof, atoms = tmp / "proof.cl15", tmp / "atoms.game"
    proof.write_text(draw(mutated((case / "proof.cl15").read_text())))
    atoms.write_text(draw(mutated((case / "atoms.game").read_text())))
    command = draw(st.sampled_from(["check", "compile", "play", "eval", "fuse", "defuse"]))
    if command in ("check", "compile"):
        return [command, str(proof)]
    if command == "play":
        argv = ["play", str(proof), "--atoms", str(atoms),
                "--budget", str(draw(st.integers(0, 64)))]
        how = draw(st.sampled_from(["seed", "moves", "spoiler"]))
        if how == "seed":
            return argv + ["--seed", str(draw(st.integers(0, 2**32)))]
        if how == "moves":
            return argv + ["--moves", ",".join(draw(st.lists(MOVE_TEXT, max_size=4)))]
        return argv + ["--spoiler"]
    if command == "eval":
        formula = draw(mutated("!(F | ?~F) & G"))
        return ["eval", "--formula", formula, "--atoms", str(atoms), "--run",
                ",".join(draw(st.sampled_from("TB")) + ":" + m
                         for m in draw(st.lists(MOVE_TEXT, max_size=4)))]
    if command == "fuse":
        return ["fuse", *draw(st.lists(BITS, min_size=1, max_size=3))]
    return ["defuse", draw(BITS), "--n", str(draw(st.integers(-2, 5000)))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, data):
    argv = data.draw(command_lines(tmp_path_factory.mktemp("fuzz")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
