"""CEGIS-style solving of exists-forall bitvector queries.

The entailments produced by the equivalence-checking algorithm have the shape

    ∃ configuration, goal variables . (∀ premise variables . premises) ∧ ¬goal

because the symbolic variables inside stored relation conjuncts are implicitly
universally quantified (Definition 4.3 quantifies ⟦φ⟧L over all valuations).
The paper discharges such queries with an SMT solver's quantifier support;
here they are solved with the classic counterexample-guided instantiation
loop over the chosen backend's solving session:

1. check whether the universal block holds for the caller's guess of the
   existential block (zero-filled where the guess is silent; all zeros
   without one);
2. if not, add the refuting universal assignment as a new instantiation;
3. guess values for the existential block that satisfy the matrix under the
   instantiations collected so far — none means the query is false — and
   repeat from 1 with that guess.

Both sub-queries are quantifier free.  Every guess, the caller's included, is
checked by the exact verification query of step 1, so a poor guess costs at
most a round and never changes the answer.  The loop terminates because the
variable domains are finite, though a round limit is enforced in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..logic import folbv
from ..logic.folbv import BFormula, BVConst, BVVar, Term
from ..p4a.bitvec import Bits
from .bvsolver import SatStatus


class CegisError(Exception):
    """Raised when the CEGIS loop cannot make progress."""


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute_term(term: Term, values: Mapping[str, Bits]) -> Term:
    if isinstance(term, BVVar):
        if term.name in values:
            return BVConst(values[term.name])
        return term
    if isinstance(term, folbv.BVExtract):
        return folbv.BVExtract(substitute_term(term.term, values), term.lo, term.hi)
    if isinstance(term, folbv.BVConcatT):
        return folbv.BVConcatT(
            substitute_term(term.left, values), substitute_term(term.right, values)
        )
    return term


def substitute(formula: BFormula, values: Mapping[str, Bits]) -> BFormula:
    """Replace variables by constant bitvectors throughout ``formula``."""
    if isinstance(formula, folbv.BEq):
        return folbv.BEq(
            substitute_term(formula.left, values), substitute_term(formula.right, values)
        )
    if isinstance(formula, folbv.BNot):
        return folbv.b_not(substitute(formula.operand, values))
    if isinstance(formula, folbv.BAnd):
        return folbv.b_and([substitute(op, values) for op in formula.operands])
    if isinstance(formula, folbv.BOr):
        return folbv.b_or([substitute(op, values) for op in formula.operands])
    if isinstance(formula, folbv.BImplies):
        return folbv.b_implies(
            substitute(formula.premise, values), substitute(formula.conclusion, values)
        )
    if isinstance(formula, (folbv.BTrue, folbv.BFalse)):
        return formula
    raise CegisError(f"unknown formula {formula!r}")


# ---------------------------------------------------------------------------
# Exists-forall solving
# ---------------------------------------------------------------------------


@dataclass
class ExistsForallResult:
    """Outcome of an ∃∀ query.

    ``holds`` is True when a witness for the existential block exists such that
    the matrix holds for every assignment of the universal block; ``witness``
    then carries the existential values.  ``rounds`` counts CEGIS iterations.
    ``refutations`` lists the universal assignments the loop instantiated the
    matrix with, in order; each one is a ground instance the caller may reuse.
    """

    holds: Optional[bool]
    witness: Optional[Dict[str, Bits]]
    rounds: int
    refutations: List[Dict[str, Bits]] = field(default_factory=list)


def solve_exists_forall(
    matrix: BFormula,
    universal_vars: Mapping[str, int],
    session,
    max_rounds: int = 64,
    guess: Optional[Mapping[str, Bits]] = None,
) -> ExistsForallResult:
    """Decide ``∃ E ∀ U . matrix`` where ``U`` is ``universal_vars``.

    Every free variable of ``matrix`` not listed in ``universal_vars`` belongs
    to the existential block.

    ``guess`` seeds the first round: its values for existential variables
    (zeros for any it lacks) are verified before any candidate query runs.
    A guess that is already a witness settles the query with one solver call.

    Every sub-query goes to ``session``, a backend's solving session
    (:meth:`~repro.smt.backend.SolverBackend.incremental_session`).  Each
    collected instantiation is pushed into it once, behind an activation
    literal, and each candidate query assumes the literals gathered so far —
    the instantiation set only ever grows, exactly the monotone shape an
    incremental session is built for.  The per-round verification query
    rides along as a one-off goal.
    """
    all_vars = folbv.free_variables(matrix)
    universal = {name: width for name, width in universal_vars.items() if name in all_vars}
    existential = {name: width for name, width in all_vars.items() if name not in universal}

    if not universal:
        result = session.check(goal=matrix, variables=existential, validate_formula=matrix)
        if result.status is SatStatus.UNKNOWN:
            return ExistsForallResult(None, None, 1)
        return ExistsForallResult(result.is_sat, result.model, 1)

    instances: List[BFormula] = []  # substituted matrices
    refutations: List[Dict[str, Bits]] = []  # the universal values behind them
    activations: List[int] = []  # their activation literals
    candidate_model: Mapping[str, Bits] = guess or {}
    for round_index in range(1, max_rounds + 1):
        if round_index > 1:
            # Free variables of every instance lie in the existential block
            # (the universal ones were substituted away), so the decoded
            # model covers the validation formula.
            candidate = session.check(
                activations,
                variables=existential,
                validate_formula=folbv.b_and(instances),
            )
            if candidate.status is SatStatus.UNKNOWN:
                return ExistsForallResult(None, None, round_index, refutations)
            if candidate.is_unsat:
                return ExistsForallResult(False, None, round_index, refutations)
            candidate_model = candidate.model or {}
        witness = {name: candidate_model.get(name, Bits.zeros(width))
                   for name, width in existential.items()}
        # Verify the universal block for this witness.
        negated_instance = folbv.b_not(substitute(matrix, witness))
        check = session.check(
            goal=negated_instance, variables=universal,
            validate_formula=negated_instance,
        )
        if check.status is SatStatus.UNKNOWN:
            return ExistsForallResult(None, None, round_index, refutations)
        if check.is_unsat:
            return ExistsForallResult(True, witness, round_index, refutations)
        refutation = {
            name: check.model.get(name, Bits.zeros(width)) for name, width in universal.items()
        }
        refutations.append(refutation)
        instance = substitute(matrix, refutation)
        instances.append(instance)
        activations.append(session.activation(instance))
    return ExistsForallResult(None, None, max_rounds, refutations)
