"""The benchmark's span tracer patches package functions, methods and layer
hooks by name.  Renaming or deleting one must fail here, not in a later
`perfbench/run.py --trace 1` run."""

from pathlib import Path

from cirquent import cirquents, games, strategies
from cirquent.harness import FormulaArena, RandomEnv, play
from cirquent.rules import parse_proof

ROOT = Path(__file__).resolve().parent.parent

# Layer classes the tracer times; the others in its list are retired.  It
# does not time `_Relabel`, whose time shows under `strategies.step`.
LAYERS = {
    "_ContractionSplit", "_OverDupJoin", "_MergeSplit", "_RecFold", "_CorecFocus",
    "_CorecWeave",
}


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    assert {n for n in tracer.TRANSLATIONS if hasattr(strategies, n)} == LAYERS
    legal, project_member = games.legal, cirquents.project_member
    focus_env_to_sim = vars(strategies._CorecFocus)["env_to_sim"]
    t = tracer.Tracer()
    t.install()
    try:
        assert games.legal is not legal
        assert cirquents.project_member is not project_member
        for name in LAYERS:
            cls = getattr(strategies, name)
            assert {"env_to_sim", "sim_to_real"} <= set(vars(cls)), name
        proof = parse_proof((ROOT / "corpus/brec_elim/proof.cl15").read_text())
        compiled = strategies.compile_proof(proof)
        game = games.of_formula(compiled.formula, {"F": games.parse_game_library(
            (ROOT / "corpus/atoms/standard.game").read_text())["relay"]})
        assert play(compiled.fresh(), RandomEnv(seed=0), FormulaArena(game)).won
    finally:
        t.uninstall()
    assert games.legal is legal and cirquents.project_member is project_member
    assert "step" not in vars(strategies.Translated)
    assert vars(strategies._CorecFocus)["env_to_sim"] is focus_env_to_sim
    spans = t.summary()
    for name in ("strategies.step", "strategies._CorecFocus"):
        assert spans[name]["calls"] > 0, name
    assert "strategies._Relabel" not in spans
