"""Frozen oracle: `cirquent.rules.check_proof` as it was when it validated
every step's cirquent, with only its imports made absolute.  Do not edit.

The checker it is the reference for validates only the last step's
cirquent, the one that no later premise covers; on a proof whose step
cirquents are all valid, or whose only invalid one is the last, the two
give the same verdict.
"""

from __future__ import annotations

from cirquent.cirquents import CirquentError, validate_cirquent
from cirquent.rules import Axiom, Proof, RuleError, Verdict, axiom_conclusion, premise_of


def check_proof(proof: Proof) -> Verdict:
    if not proof:
        return Verdict(False, None, "empty proof")
    first = proof[0]
    if not isinstance(first.app, Axiom):
        return Verdict(False, 1, "step 1 must be an axiom")
    try:
        validate_cirquent(first.cirquent)
        if first.cirquent != axiom_conclusion(first.app.formulas):
            return Verdict(False, 1, "step 1 does not match its axiom")
    except (CirquentError, RuleError) as e:
        return Verdict(False, 1, str(e))
    for idx in range(1, len(proof)):
        step = proof[idx]
        if isinstance(step.app, Axiom):
            return Verdict(False, idx + 1, "axiom allowed only at step 1")
        try:
            validate_cirquent(step.cirquent)
            premise = premise_of(step.cirquent, step.app)
        except (CirquentError, RuleError) as e:
            return Verdict(False, idx + 1, str(e))
        if premise != proof[idx - 1].cirquent:
            return Verdict(
                False,
                idx + 1,
                f"premise of step {idx + 1} is not the step {idx} cirquent",
            )
    return Verdict(True, None, f"{len(proof)} steps check")
