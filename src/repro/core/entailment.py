"""Entailment checking between template-filtered ConfRel formulas.

The inner loop of Algorithm 1 repeatedly asks whether the conjunction of the
relation built so far entails a candidate formula (``⋀R ⊨ ψ``).  After
template filtering both sides are *pure* formulas over the headers and buffers
of a single template pair, plus symbolic variables standing for future packet
bits.  Those variables are universally quantified by the semantics of
Definition 4.3, which gives the queries an ∃∀ shape once negated.

Three strategies are layered, mirroring the engineering in Section 6:

1. **trivial / syntactic** — the goal simplifies to ⊤ or is alpha-equivalent
   to a premise;
2. **fast path** — variables are canonically renamed (aligning the premises'
   future-bits variables with the goal's) and a single quantifier-free
   unsatisfiability query is issued to the solving session.  Instantiating a
   universally quantified premise is sound, so "unsat ⇒ entailed" always
   holds; a "sat" answer may be spurious, which at worst adds redundant
   conjuncts to the relation.
3. **exact** — a CEGIS exists-forall check with the premises' variables
   properly renamed apart and treated as universal, restoring completeness.
   The loop starts from the fast path's counter-model.  That model often is
   an exact counter-model already, so one verification query refutes the
   entailment; when it is not, the instantiation refuting it often leaves
   no candidate, so one more query proves the entailment.

The checker runs the layers in that order (the certificate re-checker uses
the same procedure): the fast path answers most queries with a single
quantifier-free check, and CEGIS only runs when that check fails with
universally quantified premises present.

Two memories make each distinct entailment cost one answer:

* **exact outcomes** — every definitive answer is memoized under the ordered
  canonical premises plus the canonical goal, so a repeated check makes no
  solver query at all.  Formulas are hash-consed within a check
  (:mod:`repro.logic.hashcons`), so a repeated key holds the very objects of
  the first and the lookup compares them by identity.  ``unknown`` is never
  memoized, and a refutation model is handed out as a fresh copy.  The memo
  lives and dies with the checker: an independent re-checker builds its own.
* **ground instances** — the universal values each CEGIS run instantiated a
  premise with are kept per canonical premise, pushed into the session once
  behind an activation literal and assumed by every later fast-path query
  over that premise.  An instance of a ∀-premise is implied by the premise,
  so "unsat ⇒ entailed" stays sound, and CEGIS remains the exact fallback;
  the instances only let the fast path prove what CEGIS would otherwise
  re-derive (model-based quantifier instantiation in miniature: Ge & de
  Moura, CAV 2009; Reynolds et al., CAV 2015).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import counters
from ..logic import folbv
from ..logic.compile import compile_entailment  # noqa: F401 # perfbench hook "compile"
from ..logic.compile import lower_formula, variable_name
from ..logic.confrel import (
    FTrue,
    Formula,
    canonicalize_variables,
    formula_variables,
    rename_variables,
)
from ..logic.fingerprint import confrel_fingerprint  # noqa: F401 # perfbench hook "fingerprint"
from ..logic.simplify import simplify_formula  # noqa: F401 # perfbench hook "simplify"
from ..p4a.bitvec import Bits
from ..smt.backend import InternalBackend, SolverBackend
from ..smt.bvsolver import SatResult, SatStatus, complete_model
from ..smt.cegis import solve_exists_forall, substitute

#: Ground instances kept per canonical premise.  The paper-size rows never
#: need more than two; the bound keeps one premise from flooding the session.
MAX_INSTANCES_PER_PREMISE = 8


@dataclass
class EntailmentOutcome:
    """Result of one entailment check."""

    entailed: bool
    method: str
    model: Optional[Dict[str, Bits]] = None

    def __bool__(self) -> bool:
        return self.entailed


class EntailmentChecker:
    """Checks ``⋀ premises ⊨ goal`` for pure, same-guard ConfRel formulas.

    Each check's outcome is counted in the check's ledger under
    ``entailment.*`` (:mod:`repro.counters`).

    Formulas are taken as built: Algorithm 1 builds every formula through
    the smart constructors, so it is already in normal form.  A formula out
    of normal form still gets the right verdict; it may only miss the
    trivial and syntactic shortcuts.

    Every query goes through one solving session, by default the backend's
    (:meth:`~repro.smt.backend.SolverBackend.incremental_session`).  The
    certificate re-checker passes a
    :class:`~repro.smt.backend.OneShotSession` of its own, to share no
    session with the search it re-checks.
    """

    def __init__(
        self,
        backend: Optional[SolverBackend] = None,
        cegis_rounds: int = 64,
        session=None,
    ) -> None:
        self.backend = backend or InternalBackend()
        self.cegis_rounds = cegis_rounds
        self._session = session or self.backend.incremental_session()
        # Exact-fallback lowering of premise ``index`` renamed apart, with its
        # universal variables, keyed by (canonical premise, index).
        self._lowered_apart: Dict[
            Tuple[Formula, int], Tuple[folbv.BFormula, Dict[str, int]]
        ] = {}
        # The compiled FOL(BV) query of the most recent fast-path check; used
        # to re-validate refutation models by concrete evaluation (cached
        # models in particular are never validated by the solver itself).
        self._last_query: Optional[folbv.BFormula] = None
        # Definitive outcomes by (canonical premises, canonical goal).
        self._outcomes: Dict[Tuple[Tuple[Formula, ...], Formula], EntailmentOutcome] = {}
        # Canonical premise -> its ground instances in discovery order, each
        # keyed by its values and carrying (instance formula, activation
        # literal).
        self._instances: Dict[Formula, Dict[tuple, Tuple[folbv.BFormula, int]]] = {}

    # ------------------------------------------------------------------

    def check(self, premises: Sequence[Formula], goal: Formula) -> EntailmentOutcome:
        counters.add("entailment.checks")
        if isinstance(goal, FTrue):
            counters.add("entailment.trivial")
            return EntailmentOutcome(True, "trivial")

        # Renamed once per formula per check (canonicalize_variables' memo).
        canonical_goal = canonicalize_variables(goal, prefix="x")
        canonical_premises = tuple(
            canonicalize_variables(premise, prefix="x") for premise in premises
        )
        if canonical_goal in canonical_premises:
            counters.add("entailment.syntactic")
            return EntailmentOutcome(True, "syntactic")

        memo_key = (canonical_premises, canonical_goal)
        known = self._outcomes.get(memo_key)
        if known is not None:
            counters.add("entailment.memo_hits")
            return _copy(known)
        outcome = self._decide(canonical_premises, canonical_goal)
        if outcome.method != "unknown":
            self._outcomes[memo_key] = _copy(outcome)
        return outcome

    def _decide(
        self, canonical_premises: Sequence[Formula], canonical_goal: Formula
    ) -> EntailmentOutcome:
        """The fast path, then CEGIS when the fast path's answer may be spurious."""
        lowered_goal = lower_formula(canonical_goal, simplify=False)
        result = self._fast_path_query(canonical_premises, lowered_goal)
        if result.status is SatStatus.UNSAT:
            counters.add("entailment.smt_entailed")
            return EntailmentOutcome(True, "smt")
        if result.status is SatStatus.UNKNOWN:
            counters.add("entailment.unknown")
            return EntailmentOutcome(False, "unknown")
        if not canonical_premises:
            # With no premises the fast path is already exact.
            counters.add("entailment.smt_refuted")
            self._validate_refutation_model(result)
            return EntailmentOutcome(False, "smt", result.model)
        return self._check_exact(canonical_premises, lowered_goal, result.model)

    def _validate_refutation_model(self, result: SatResult) -> None:
        """Concretely re-evaluate a refutation model against the query.

        The solver validates its own fresh models, but models served from the
        persistent query cache bypass that check; replaying them through the
        independent evaluator turns a stale or corrupt entry into a counted,
        warned-about divergence instead of a silently wrong refutation.
        """
        if result.model is None or self._last_query is None:
            return
        completed = complete_model(self._last_query, result.model)
        if not folbv.eval_formula(self._last_query, completed):
            counters.add("entailment.model_divergences")
            warnings.warn(
                "entailment refutation model does not satisfy the compiled "
                "query when evaluated concretely; the solver stack (or a "
                "cached result) and the evaluator disagree",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------

    def _fast_path_query(
        self, premises: Sequence[Formula], lowered_goal: folbv.BFormula
    ) -> SatResult:
        """The fast-path query via the session.

        The premise conjunction is pushed into the session CNF once (activation
        literals are idempotent per formula), each premise's kept ground
        instances are assumed alongside it, the negated goal rides along as a
        per-query assumption, and the persistent query cache — when the
        backend stacks one — is consulted before and fed after, keyed by the
        combined formula.  Algorithm 1 re-checks against the same growing
        premise list on every iteration; ``lower_formula`` lowers each premise
        once per check and hands back the same node, so a premise already
        pushed costs one identity hit per later query.
        """
        lowered_premises = [lower_formula(premise, simplify=False) for premise in premises]
        instances = [
            entry
            for premise in dict.fromkeys(premises)
            for entry in self._instances.get(premise, {}).values()
        ]
        negated_goal = folbv.b_not(lowered_goal)
        combined = folbv.b_and(
            lowered_premises + [instance for instance, _ in instances] + [negated_goal]
        )
        self._last_query = combined
        cached = self.backend.lookup(combined)
        if cached is not None:
            return cached
        assumptions = [self._session.activation(p) for p in lowered_premises]
        if instances:
            counters.add("entailment.instances_reused", len(instances))
            assumptions.extend(literal for _, literal in instances)
        # variables are left to the session to derive (lazily, from the
        # validation formula) so unsat answers skip the free-variable walk.
        result = self._session.check(
            assumptions,
            goal=negated_goal,
            validate_formula=combined,
        )
        self.backend.store(combined, result)
        return result

    # ------------------------------------------------------------------

    def _lower_premise_apart(
        self, premise: Formula, index: int
    ) -> Tuple[folbv.BFormula, Dict[str, int]]:
        """Premise ``index`` renamed apart (``u{index}_…``) and lowered, memoized.

        Returns the lowered formula and its universal variables (FOL(BV) name →
        width).
        """
        entry = self._lowered_apart.get((premise, index))
        if entry is None:
            variables = formula_variables(premise)
            mapping = {name: f"u{index}_{name}" for name in variables}
            universal = {
                variable_name(mapping[name]): width for name, width in variables.items()
            }
            entry = (lower_formula(rename_variables(premise, mapping), simplify=False), universal)
            self._lowered_apart[(premise, index)] = entry
        return entry

    def _check_exact(
        self,
        premises: Sequence[Formula],
        lowered_goal: folbv.BFormula,
        guess: Optional[Dict[str, Bits]],
    ) -> EntailmentOutcome:
        """CEGIS exists-forall check with premise variables renamed apart.

        ``guess`` is the fast path's counter-model; its values for the
        existential block (the goal's variables, headers and buffers) are the
        loop's first candidate.
        """
        universal_vars: Dict[str, int] = {}
        lowered_premises: List[folbv.BFormula] = []
        for index, premise in enumerate(premises):
            lowered, universal = self._lower_premise_apart(premise, index)
            lowered_premises.append(lowered)
            universal_vars.update(universal)
        matrix = folbv.b_and(lowered_premises + [folbv.b_not(lowered_goal)])
        outcome = solve_exists_forall(
            matrix,
            universal_vars,
            self._session,
            max_rounds=self.cegis_rounds,
            guess=guess,
        )
        counters.add("entailment.cegis_rounds", outcome.rounds)
        if outcome.refutations:
            self._keep_instances(premises, outcome.refutations)
        if outcome.holds is True:
            counters.add("entailment.cegis_refuted")
            return EntailmentOutcome(False, "cegis", outcome.witness)
        if outcome.holds is False:
            counters.add("entailment.cegis_entailed")
            return EntailmentOutcome(True, "cegis")
        counters.add("entailment.unknown")
        return EntailmentOutcome(False, "unknown")

    def _keep_instances(
        self, premises: Sequence[Formula], refutations: Sequence[Dict[str, Bits]]
    ) -> None:
        """Keep each premise's ground instances from a CEGIS run's refutations.

        Premise ``index``'s universal variables ``var_u{index}_<name>`` map
        back to the fast path's ``var_<name>``; the instance is the premise's
        fast-path lowering with those values substituted, pushed into the
        session once.  At most :data:`MAX_INSTANCES_PER_PREMISE` distinct
        instances are kept per premise, the earliest found.
        """
        for index, premise in enumerate(premises):
            _, universal = self._lower_premise_apart(premise, index)
            if not universal:
                continue
            prefix = len(variable_name(f"u{index}_"))
            kept = self._instances.setdefault(premise, {})
            for refutation in refutations:
                if len(kept) >= MAX_INSTANCES_PER_PREMISE:
                    break
                values = {
                    variable_name(name[prefix:]): refutation[name]
                    for name in sorted(universal)
                    if name in refutation
                }
                identity = tuple(
                    (name, bits.to_bitstring()) for name, bits in values.items()
                )
                if identity in kept:
                    continue
                instance = substitute(lower_formula(premise, simplify=False), values)
                kept[identity] = (instance, self._session.activation(instance))


def _copy(outcome: EntailmentOutcome) -> EntailmentOutcome:
    """``outcome`` with a model of its own, so no caller can alter the memo."""
    model = dict(outcome.model) if outcome.model is not None else None
    return EntailmentOutcome(outcome.entailed, outcome.method, model)
