import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cirquent import rules
from cirquent.cli import main as cli_main
from cirquent.games import BOT, Labmove
from cirquent.reader import MAX_DEPTH
from cirquent.strategies import compile_proof

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PROOF = CORPUS / "brec_elim" / "proof.cl15"
ATOMS = CORPUS / "brec_elim" / "atoms.game"


def cli(*args: str, stdin: str = "", env: dict | None = None, cwd: Path = ROOT):
    full_env = dict(os.environ)
    # the child imports the package from this checkout, installed or not
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "cirquent", *args],
        capture_output=True,
        text=True,
        input=stdin,
        cwd=cwd,
        env=full_env,
        timeout=120,
    )


def test_check_ok():
    r = cli("check", str(PROOF))
    assert r.returncode == 0
    assert r.stdout.startswith("ok: 3 steps")
    assert "?~F | F" in r.stdout


def test_check_failure_exits_1(tmp_path):
    text = PROOF.read_text().replace("DisjIntro", "ConjIntro")
    bad = tmp_path / "bad.cl15"
    bad.write_text(text)
    r = cli("check", str(bad))
    assert r.returncode == 1
    assert "step" in r.stdout


NOT_A_FORMULA = "step 1: the final cirquent does not collapse to a single formula\n"


@pytest.fixture
def one_step_proof(tmp_path):
    """brec_elim's first step alone: an axiom that checks but concludes a
    cirquent of two oformulas."""
    path = tmp_path / "one_step.cl15"
    path.write_text("".join(PROOF.read_text().splitlines(keepends=True)[:5]))
    return path


def test_check_fails_a_proof_of_no_single_formula(one_step_proof):
    r = cli("check", str(one_step_proof))
    assert r.returncode == 1, r.stderr
    assert r.stdout == NOT_A_FORMULA
    assert r.stderr == ""


@pytest.mark.parametrize("extra", [(), ("--atoms", str(ATOMS))], ids=["compile", "play"])
def test_compile_and_play_fail_a_proof_of_no_single_formula(one_step_proof, extra):
    r = cli("compile" if not extra else "play", str(one_step_proof), *extra)
    assert r.returncode == 1, r.stderr
    assert r.stdout == ""
    assert r.stderr == NOT_A_FORMULA


def test_corpus_fails_a_case_of_no_single_formula_and_goes_on(tmp_path, one_step_proof):
    for name in ("brec_elim", "one_step"):
        case = tmp_path / name
        case.mkdir()
        for f in ("proof.cl15", "atoms.game", "expect.json"):
            (case / f).write_text((CORPUS / "brec_elim" / f).read_text())
    (tmp_path / "one_step" / "proof.cl15").write_text(one_step_proof.read_text())
    r = cli("corpus", str(tmp_path))
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == [
        "PASS brec_elim: 30 won, 0 lost, 0 inconclusive",
        "FAIL one_step: " + NOT_A_FORMULA.rstrip("\n"),
        "1/2 cases pass",
    ]


# `compile_proof` is the one check on the compile paths: the CLI and the
# corpus harness do not check before it
@pytest.mark.parametrize("args, checks", [
    (("check", str(PROOF)), 1),
    (("compile", str(PROOF)), 1),
    (("play", str(PROOF), "--atoms", str(ATOMS)), 1),
    (("corpus", str(CORPUS)), 7),
], ids=["check", "compile", "play", "corpus"])
def test_each_command_checks_a_proof_once(args, checks, monkeypatch, capsys):
    proofs = []
    real = rules.check_proof

    def counted(proof):
        proofs.append(proof)
        return real(proof)

    monkeypatch.setattr(rules, "check_proof", counted)
    assert cli_main(list(args)) == 0, capsys.readouterr().err
    assert len(proofs) == checks


def test_missing_file_exits_2():
    r = cli("check", "no/such/file.cl15")
    assert r.returncode == 2
    assert "error:" in r.stderr


# an unreadable file is named once, with the system's reason
@pytest.mark.parametrize("args, path", [
    (("check", "no/such/file.cl15"), "no/such/file.cl15"),
    (("play", str(PROOF), "--atoms", "no/such/lib.game"), "no/such/lib.game"),
], ids=["check a missing proof", "play --atoms a missing library"])
def test_a_missing_file_is_named_once(args, path):
    r = cli(*args)
    assert r.returncode == 2
    assert r.stderr == f"error: cannot read {path}: No such file or directory\n"
    assert r.stderr.count(path) == 1


def test_usage_error_exits_2():
    assert cli("frobnicate").returncode == 2
    assert cli().returncode == 2


def test_fuse():
    r = cli("fuse", "000", "11")
    assert r.returncode == 0
    assert r.stdout.split() == ["01010"]
    assert cli("fuse", "2").returncode == 2


def test_fuse_cap_exits_3():
    r = cli("fuse", "0", "1" * 20)
    assert r.returncode == 3


def test_defuse():
    r = cli("defuse", "01011010", "--n", "3")
    assert r.returncode == 0
    assert r.stdout.strip() == "011 110 00"
    assert cli("defuse", "01021010", "--n", "3").returncode == 2


def test_compile_writes_a_bundle(tmp_path):
    out = tmp_path / "bundle.json"
    r = cli("compile", str(PROOF), "-o", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["formula"] == "?~F | F"
    assert "strategy for ?~F | F" in r.stderr


def test_play_scripted_win():
    r = cli("play", str(PROOF), "--atoms", str(ATOMS), "--moves", "1.q")
    assert r.returncode == 0
    assert "winner: T" in r.stdout
    assert "B: 1.q" in r.stdout and "T: 0..q" in r.stdout


def test_play_tiny_budget_is_inconclusive():
    r = cli("play", str(PROOF), "--atoms", str(ATOMS), "--moves", "1.q", "--budget", "1")
    assert r.returncode == 1
    assert "inconclusive" in r.stdout


def test_play_random_and_spoiler_win():
    assert cli("play", str(PROOF), "--atoms", str(ATOMS), "--seed", "5").returncode == 0
    assert cli("play", str(PROOF), "--atoms", str(ATOMS), "--spoiler").returncode == 0


def test_eval_formula():
    r = cli("eval", "--formula", "F | ~F", "--atoms", str(ATOMS), "--run", "B:0.q")
    assert r.returncode == 0
    assert "run: legal" in r.stdout
    assert "winner: B" in r.stdout
    r = cli("eval", "--formula", "F | ~F", "--atoms", str(ATOMS), "--run", "T:0.a")
    assert "first offender T" in r.stdout
    assert "winner: B" in r.stdout


def test_eval_needs_exactly_one_subject():
    r = cli("eval", "--atoms", str(ATOMS))
    assert r.returncode == 2
    r = cli(
        "eval", "--formula", "F", "--cirquent", "x", "--atoms", str(ATOMS)
    )
    assert r.returncode == 2


def test_eval_cirquent_diagram(tmp_path):
    path = tmp_path / "c.cq"
    path.write_text('cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }')
    r = cli("eval", "--cirquent", str(path), "--atoms", str(ATOMS), "--run", "B:2;.q")
    assert r.returncode == 0
    assert "*" in r.stdout
    assert "winner: B" in r.stdout


def test_eval_reads_a_file_whose_name_starts_with_cirquent(tmp_path):
    # run where the file is, so the argument itself starts with "cirquent"
    (tmp_path / "cirquent_axiom.txt").write_text(
        'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }')
    r = cli("eval", "--cirquent", "cirquent_axiom.txt", "--atoms", str(ATOMS), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "winner: T" in r.stdout


def test_eval_accepts_a_cirquent_literal():
    literal = 'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }'
    r = cli("eval", "--cirquent", literal, "--atoms", str(ATOMS), "--run", "B:2;.q")
    assert r.returncode == 0
    assert "winner: B" in r.stdout


def test_eval_calls_an_index_too_long_for_int_illegal():
    literal = 'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }'
    r = cli("eval", "--cirquent", literal, "--atoms", str(ATOMS), "--run",
            "B:" + "1" * 5000 + ";.q")
    assert r.returncode == 0, r.stderr
    assert "first offender B" in r.stdout
    assert "Traceback" not in r.stderr


def test_eval_calls_an_index_in_non_ascii_digits_illegal():
    # "\u0662" is the Arabic-Indic digit two; only 0-9 spell an index
    literal = 'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }'
    r = cli("eval", "--cirquent", literal, "--atoms", str(ATOMS), "--run", "B:\u0662;.q")
    assert r.returncode == 0, r.stderr
    assert "first offender B" in r.stdout
    assert "Traceback" not in r.stderr


def test_eval_judges_a_move_under_a_long_address():
    # the move at "" reaches the copy at 3000 zeros, which already asked q
    r = cli("eval", "--formula", "!F", "--atoms", str(ATOMS), "--run",
            "B:" + "0" * 3000 + ".q,B:.q")
    assert r.returncode == 0, r.stderr
    assert "first offender B" in r.stdout


def test_eval_reports_unreadable_and_malformed_cirquents():
    r = cli("eval", "--cirquent", "/no/such/file.cq", "--atoms", str(ATOMS), "--run", "")
    assert r.returncode == 2
    assert "cannot read" in r.stderr
    r = cli("eval", "--cirquent", "cirquent { oformulas: }", "--atoms", str(ATOMS), "--run", "")
    assert r.returncode == 2
    assert "error:" in r.stderr


# An `under` list of a cirquent literal, and the one error line it gives.
BROKEN_GROUP_LISTS = {
    "missing comma": ("[[1 2]]", "expected ']', got '2'"),
    "trailing comma": ("[[1,]]", "expected an integer, got ']'"),
    "bare integer": ("[1]", "expected '[', got '1'"),
    "unclosed list": ("[[1, 2]", "expected ']', got ';'"),
    "non-ASCII digit": ("[[1, ٢]]", "expected an integer, got '٢'"),
    "negative index": ("[[-1, 2]]", "undergroup [-1, 2] references a bad index"),
    "5,000-digit index": ("[[" + "1" * 5000 + "]]", "integer too long"),
    "no groups": ("[]", "a cirquent needs at least one group of each kind"),
}


@pytest.mark.parametrize("under, message", BROKEN_GROUP_LISTS.values(),
                         ids=list(BROKEN_GROUP_LISTS))
def test_eval_reports_a_broken_group_list(under, message):
    literal = f'cirquent {{ oformulas: ["~F", "F"]; under: {under}; over: [[1, 2]] }}'
    r = cli("eval", "--cirquent", literal, "--atoms", str(ATOMS))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


def test_corpus_runs_every_case():
    r = cli("corpus", str(CORPUS))
    assert r.returncode == 0
    assert "7/7 cases pass" in r.stdout
    assert r.stdout.count("PASS") == 7


# the brec_elim case concludes ?~F | F; a formula is compared as parsed
@pytest.mark.parametrize("recorded, code, line", [
    ("(?~F)|F", 0, "PASS brec_elim: 30 won, 0 lost, 0 inconclusive"),
    ("F & G", 1, "FAIL brec_elim: concludes ?~F | F, but expect.json records F & G"),
])
def test_corpus_checks_the_recorded_conclusion(tmp_path, recorded, code, line):
    case = tmp_path / "brec_elim"
    case.mkdir()
    for f in ("proof.cl15", "atoms.game"):
        (case / f).write_text((CORPUS / "brec_elim" / f).read_text())
    (case / "expect.json").write_text(json.dumps({"formula": recorded}))
    r = cli("corpus", str(tmp_path))
    assert r.returncode == code, r.stderr
    assert r.stdout.splitlines() == [line, f"{1 - code}/1 cases pass"]


# A corpus case with one broken file, how it is broken, and the reason the
# error gives after that file's path.
BROKEN_CASE_FILES = {
    "truncated proof": ("proof.cl15", lambda t: t.rstrip()[:-1], "unexpected end of input"),
    "truncated atoms": ("atoms.game", lambda t: t.rstrip()[:-1], "unexpected end of input"),
    "missing atoms": ("atoms.game", None, "No such file or directory"),
    "malformed expect": ("expect.json", lambda t: "{bad", "Expecting property name"),
}


@pytest.mark.parametrize("name, edit, reason", BROKEN_CASE_FILES.values(),
                         ids=list(BROKEN_CASE_FILES))
def test_corpus_errors_name_their_file_once(tmp_path, name, edit, reason):
    case = tmp_path / "brec_elim"
    case.mkdir()
    for f in ("proof.cl15", "atoms.game", "expect.json"):
        (case / f).write_text((CORPUS / "brec_elim" / f).read_text())
    path = case / name
    if edit is None:
        path.unlink()
    else:
        path.write_text(edit(path.read_text()))
    r = cli("corpus", str(tmp_path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"error: {path}: {reason}")
    assert r.stderr.count(case.name) == 1


def test_corpus_default_root_is_the_corpus_directory(tmp_path):
    r = cli("corpus")  # from the repository root
    assert r.returncode == 0
    assert r.stdout.count("PASS") == 7
    missing = cli("corpus", cwd=tmp_path)
    assert missing.returncode == 2
    assert missing.stderr == "error: no corpus directory at corpus\n"


def test_repl_session():
    script = "show\nB 0.q\nT 0.a\nbogus\nquit\n"
    r = cli("repl", "--formula", "F | ~F", "--atoms", str(ATOMS), stdin=script)
    assert r.returncode == 0
    assert "winner if play stops here: T" in r.stdout
    assert "unknown command" in r.stdout


# Each subcommand given malformed input: (arguments, expected exit code).
# Paths are relative to the repository root, where `cli` runs. `{bin}` is a
# file that is not UTF-8, `{bad_proof}` a proof with a syntax error,
# `{bad_lib}` a broken game library, `{bad_corpus}` a corpus whose one case
# has an unreadable expect.json, `{empty}` an empty directory, `{name_group}`
# and `{name_param}` proofs with a name where an index belongs, `{long_index}`
# one with an index of more digits than int() converts, `{digit_param}` one
# whose oformula param is a non-ASCII digit. `{missing_atom}` is a corpus
# whose one case has no game for F. `{class_cap}` is a run of 47 B moves in
# each overgroup of `{three}`, at disjoint addresses: 48**3 = 110,592 class
# vectors, over the cap of 100,000. `{parens}`, `{bangs}`
# and `{chain}` are formulas nested past the depth bound (300 parentheses,
# 450 `!`, a left-deep chain of 2,001 atoms), `{deep_lib}` a library with a
# 2,000-move-deep tree and `{deep_axiom}` a proof whose Axiom formula has 300
# parentheses. `{dir}` is a directory, so `compile -o` cannot write there,
# and `{needs_g}` a cirquent literal with an atom G that no library in the
# corpus assigns a game. Each name in EXPECTS is a corpus whose one case has
# that expect.json.
ELIM = ["corpus/brec_elim/proof.cl15", "--atoms", "corpus/brec_elim/atoms.game"]
EXPECTS = {
    "expect_list": '[{"formula": "?~F | F"}]',
    "expect_empty": '{}',
    "formula_number": '{"formula": 5}',
    "formula_unparsed": '{"formula": "F |"}',
    "expect_extra_key": '{"formula": "?~F | F", "seeds": 5}',
    "formula_null": '{"formula": null}',
}
MALFORMED = [
    (["check", "{bin}"], 2),
    (["check", "{bad_proof}"], 2),
    (["check", "{name_group}"], 2),
    (["check", "{name_param}"], 2),
    (["check", "{rule_twice}"], 2),
    (["check", "{step_colour}"], 2),
    (["check", "{param_colour}"], 2),
    (["check", "{cirquent_colour}"], 2),
    (["check", "{long_index}"], 2),
    (["check", "{digit_param}"], 2),
    (["check", "{deep_axiom}"], 2),
    (["compile", "{bin}"], 2),
    (["compile", "{bad_proof}"], 2),
    (["compile", ELIM[0], "-o", "{dir}"], 2),
    (["compile", ELIM[0], "-o", "{dir}/missing/x.json"], 2),
    (["play", ELIM[0], "--atoms", "{bin}"], 2),
    (["play", ELIM[0], "--atoms", "{bad_lib}"], 2),
    (["play", *ELIM, "--budget", "-3"], 2),
    (["eval", "--formula", "F &", *ELIM[1:]], 2),
    (["eval", "--formula", "Q", *ELIM[1:]], 2),
    (["eval", "--formula", "F", *ELIM[1:], "--run", "X:1"], 2),
    (["eval", "--cirquent", "{bin}", *ELIM[1:]], 2),
    (["eval", "--cirquent", "{oformulas_twice}", *ELIM[1:]], 2),
    (["eval", "--cirquent", "{colour}", *ELIM[1:]], 2),
    (["eval", "--cirquent", "{needs_g}", *ELIM[1:]], 2),
    (["eval", "--formula", "F", "--atoms", "{bad_lib}"], 2),
    (["eval", "--formula", "{parens}", *ELIM[1:]], 2),
    (["eval", "--formula", "{bangs}", *ELIM[1:]], 2),
    (["eval", "--formula", "{chain}", *ELIM[1:]], 2),
    (["eval", "--formula", "F", "--atoms", "{deep_lib}"], 2),
    (["eval", "--cirquent", "{three}", *ELIM[1:], "--run", "{class_cap}"], 3),
    (["fuse", "012"], 2),
    (["fuse", "0", "1" * 20], 3),
    (["defuse", "012", "--n", "2"], 2),
    (["defuse", "0101", "--n", "0"], 2),
    (["defuse", "0101", "--n", "10000000"], 3),
    (["corpus", "{bad_corpus}"], 2),
    (["corpus", "{empty}"], 2),
    (["corpus", "{missing_atom}"], 2),
    (["corpus", "corpus/atoms"], 2),
    (["corpus", "corpus", "--budget", "-3"], 2),
    *((["corpus", "{%s}" % name], 2) for name in EXPECTS),
    (["repl", "--formula", "F &", *ELIM[1:]], 2),
    (["repl", "--formula", "F", "--atoms", "{bad_lib}"], 2),
    (["repl", "--formula", "!" * 7 + "F", *ELIM[1:]], 3),
    (["repl", "--formula", "!" * 10 + "F", *ELIM[1:]], 3),
]


@pytest.fixture(scope="module")
def malformed_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("malformed")
    (d / "bin").write_bytes(b"\xff\xfe not utf-8")
    (d / "bad.cl15").write_text("garbage {\n")
    (d / "bad.game").write_text("game = node\n")
    case = d / "corpus" / "case"
    case.mkdir(parents=True)
    (case / "proof.cl15").write_text(PROOF.read_text())
    (case / "expect.json").write_text("{bad")
    (d / "empty").mkdir()
    case = d / "missing_atom" / "case"
    case.mkdir(parents=True)
    (case / "proof.cl15").write_text(PROOF.read_text())
    (case / "atoms.game").write_text("game G = node winner=T {}\n")
    (case / "expect.json").write_text('{"formula": "?~F | F"}')
    for name, text in EXPECTS.items():
        case = d / name / "brec_elim"
        case.mkdir(parents=True)
        for f in ("proof.cl15", "atoms.game"):
            (case / f).write_text((CORPUS / "brec_elim" / f).read_text())
        (case / "expect.json").write_text(text)
    (d / "group.cl15").write_text(PROOF.read_text().replace("under: [[1, 2]]", "under: [[x, 2]]", 1))
    (d / "param.cl15").write_text(PROOF.read_text().replace("added: []", "added: [x]", 1))
    (d / "digit.cl15").write_text(
        PROOF.read_text().replace("oformula: 1; added", "oformula: \u0661; added", 1))
    (d / "three.cq").write_text(
        'cirquent { oformulas: ["F", "F", "F"]; under: [[1, 2, 3]]; over: [[1], [2], [3]] }')
    class_cap = ",".join(f"B:{a};{','.join(w if j == a else '' for j in (1, 2, 3))}.q"
                         for a in (1, 2, 3) for w in ("1" * i + "0" for i in range(47)))
    (d / "long.cl15").write_text(
        PROOF.read_text().replace("under: [[1, 2]]", f"under: [[{'1' * 5000}, 2]]", 1))
    parens = "(" * 300 + "F" + ")" * 300
    (d / "deep_axiom.cl15").write_text(
        PROOF.read_text().replace('formulas: ["F"]', f'formulas: ["{parens}"]', 1))
    (d / "deep.game").write_text(
        "game F = " + 'node winner=T { B"q" -> ' * 2000 + "node winner=T {}" + " }" * 2000)
    # a repeated key, then an unknown key in each kind of proof block
    text = PROOF.read_text()
    edits = {
        "rule_twice": ("rule: CorecIntro;", "rule: CorecIntro; rule: DisjIntro;"),
        "step_colour": ("rule: CorecIntro;", "rule: CorecIntro; colour: 3;"),
        "param_colour": ("added: []", "added: []; colour: 3"),
        "cirquent_colour": ("over: [[1]] }", "over: [[1]]; colour: 3 }"),
    }
    for name, (old, new) in edits.items():
        assert old in text
        (d / f"{name}.cl15").write_text(text.replace(old, new, 1))
    (d / "oformulas_twice").write_text(
        'cirquent { oformulas: ["E"]; oformulas: ["F"]; under: [[1]]; over: [[1]] }')
    (d / "colour").write_text(
        'cirquent { oformulas: ["F"]; under: [[1]]; over: [[1]]; colour: 3 }')
    return {"bin": d / "bin", "bad_proof": d / "bad.cl15",
            "bad_lib": d / "bad.game", "bad_corpus": d / "corpus", "empty": d / "empty",
            "name_group": d / "group.cl15", "name_param": d / "param.cl15",
            "long_index": d / "long.cl15", "digit_param": d / "digit.cl15",
            "missing_atom": d / "missing_atom", "three": d / "three.cq",
            "class_cap": class_cap,
            "parens": parens, "bangs": "!" * 450 + "F", "chain": " | ".join(["F"] * 2001),
            "deep_lib": d / "deep.game", "deep_axiom": d / "deep_axiom.cl15",
            "oformulas_twice": d / "oformulas_twice", "colour": d / "colour",
            "dir": d, "needs_g":
                'cirquent { oformulas: ["F", "G"]; under: [[1, 2]]; over: [[1], [2]] }',
            **{name: d / name for name in EXPECTS},
            **{name: d / f"{name}.cl15" for name in edits}}


@pytest.mark.parametrize("args, code", MALFORMED,
                         ids=[" ".join(args) for args, _ in MALFORMED])
def test_malformed_input_exit_codes(malformed_files, args, code):
    r = cli(*(a.format(**malformed_files) for a in args))
    assert r.returncode == code, r.stderr
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr
    if code == 2:
        assert r.stdout == ""
    if "{bad_corpus}" in args or any("{%s}" % name in args for name in EXPECTS):
        assert "expect.json" in r.stderr
    if "{oformulas_twice}" in args:
        assert f"error: {malformed_files['oformulas_twice']}: " in r.stderr


def test_corpus_names_a_missing_atom_without_quotes(malformed_files):
    root = malformed_files["missing_atom"]
    r = cli("corpus", str(root))
    assert r.returncode == 2
    [line] = r.stderr.splitlines()
    assert line == f"error: {root / 'case' / 'atoms.game'}: no game assigned to atoms F"
    assert not set("'\"") & set(line)


def test_a_formula_error_quotes_a_short_excerpt(malformed_files):
    r = cli("eval", "--formula", malformed_files["chain"], *ELIM[1:])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    [line] = r.stderr.splitlines()
    assert line.startswith("error: ") and len(line.encode()) < 200


NEST = ["corpus/brec_nest/proof.cl15", "--atoms", "corpus/brec_nest/atoms.game"]


@pytest.mark.parametrize("k", [14, 20, 64])
def test_play_answers_a_long_copy_address_with_one_reply(k):
    """The environment's move in `?~F` at a k-bit address is answered in
    `!!F` by one move, whose addresses weave the k bits apart; the k
    address bits are no longer a fan-out of 2**k words."""
    r = cli("play", *NEST, "--moves", f"0.{'0' * k}.q")
    assert r.returncode == 0, r.stderr
    half = "0" * (k // 2)
    assert r.stdout.splitlines() == [f"  B: 0.{'0' * k}.q", f"  T: 1.{half}.{half}.q", "winner: T"]


def test_one_bridge_step_answers_a_64_bit_copy_address_within_10_ms():
    compiled = compile_proof(rules.parse_proof((ROOT / NEST[0]).read_text()))
    run = (Labmove(BOT, f"0.{'0' * 64}.q"),)
    took = []
    for _ in range(5):
        t = compiled.fresh()
        start = time.perf_counter()
        t.step(run)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.010, took


# Formulas exactly at the depth bound: MAX_DEPTH parentheses, and a
# right-nested conjunction MAX_DEPTH operators high.
AT_BOUND = {
    "parentheses": ("(" * MAX_DEPTH + "F" + ")" * MAX_DEPTH, "q"),
    "conjunctions": ("F & (" * (MAX_DEPTH - 1) + "F & F" + ")" * (MAX_DEPTH - 1),
                     "1." * MAX_DEPTH + "q"),
}


@pytest.mark.parametrize("formula, move", AT_BOUND.values(), ids=list(AT_BOUND))
def test_formulas_at_the_depth_bound_evaluate(formula, move):
    r = cli("eval", "--formula", formula, *ELIM[1:], "--run", f"B:{move}")
    assert r.returncode == 0, r.stderr
    assert "run: legal" in r.stdout and "winner: B" in r.stdout
    r = cli("repl", "--formula", formula, *ELIM[1:], stdin="show\nquit\n")
    assert r.returncode == 0, r.stderr
    frontier = next(line for line in r.stdout.splitlines() if line.startswith("B can play: "))
    assert move in frontier.removeprefix("B can play: ").split(", ")


# `!` k times over F has 7**k moves for B at 2 address bits: 117,649 are
# listed, and 823,543 are over games.FRONTIER_CAP, one error line
@pytest.mark.parametrize("k, code", [(6, 0), (7, 3), (10, 3)])
def test_repl_lists_a_frontier_up_to_the_cap(k, code):
    r = cli("repl", "--formula", "!" * k + "F", *ELIM[1:], stdin="show\nquit\n")
    assert r.returncode == code, r.stderr
    if code == 0:
        frontier = next(line for line in r.stdout.splitlines() if line.startswith("B can play: "))
        assert len(frontier.removeprefix("B can play: ").split(", ")) == 7 ** k
    else:
        assert r.stderr == "error: frontier exceeds cap of 200000 moves\n"


def readme_commands() -> list[list[str]]:
    """The `cirquent ...` lines of the sh block under README's "Command
    line" heading, split as a shell splits them."""
    text = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("cirquent ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    """Every command README shows runs as shown, from a directory that holds
    the corpus, and exits 0; the repl reads `quit`."""
    commands = readme_commands()
    assert len(commands) == 9
    shutil.copytree(CORPUS, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
        assert cli_main(command[1:]) == 0, (command, capsys.readouterr().err)
