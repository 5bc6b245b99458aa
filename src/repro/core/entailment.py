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
   unsatisfiability query is issued.  Instantiating a universally quantified
   premise is sound, so "unsat ⇒ entailed" always holds; a "sat" answer may be
   spurious, which at worst adds redundant conjuncts to the relation.
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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import counters
from ..logic import folbv
from ..logic.compile import compile_entailment, lower_formula, variable_name
from ..logic.confrel import (
    FTrue,
    Formula,
    canonicalize_variables,
    formula_variables,
    rename_variables,
)
from ..logic.fingerprint import confrel_fingerprint
from ..logic.simplify import simplify_formula
from ..p4a.bitvec import Bits
from ..smt.backend import InternalBackend, SolverBackend
from ..smt.bvsolver import SatResult, SatStatus, complete_model
from ..smt.cegis import solve_exists_forall

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
    """

    def __init__(
        self,
        backend: Optional[SolverBackend] = None,
        cegis_rounds: int = 64,
        use_incremental: bool = True,
    ) -> None:
        self.backend = backend or InternalBackend()
        self.cegis_rounds = cegis_rounds
        self.use_incremental = use_incremental
        # May be None (DPLL engine, external solvers — anything whose
        # capabilities lack ``incremental``): then every query falls
        # back to the one-shot path.
        self._session = self.backend.incremental_session() if use_incremental else None
        self._lowered_premises: Dict[str, folbv.BFormula] = {}
        # Exact-fallback lowering of premise ``index`` renamed apart, with its
        # universal variables, keyed by (fingerprint, index).
        self._lowered_apart: Dict[
            Tuple[str, int], Tuple[folbv.BFormula, Dict[str, int]]
        ] = {}
        # The compiled FOL(BV) query of the most recent fast-path check; used
        # to re-validate refutation models by concrete evaluation (cached
        # models in particular are never validated by the solver itself).
        self._last_query: Optional[folbv.BFormula] = None
        # Identity-keyed canonicalization memo (incremental path only): the
        # algorithm re-checks against the same premise *objects* every
        # iteration, so simplify + canonicalize each one exactly once.  The
        # key holds a strong reference to the premise, so a recycled id()
        # can never alias a dead object.
        self._canonical_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def _canonicalize(self, formula: Formula) -> Formula:
        entry = self._canonical_memo.get(id(formula))
        if entry is not None and entry[0] is formula:
            return entry[1]
        canonical = canonicalize_variables(simplify_formula(formula), prefix="x")
        self._canonical_memo[id(formula)] = (formula, canonical)
        return canonical

    def check(self, premises: Sequence[Formula], goal: Formula) -> EntailmentOutcome:
        counters.add("entailment.checks")
        goal_simplified = simplify_formula(goal)
        if isinstance(goal_simplified, FTrue):
            counters.add("entailment.trivial")
            return EntailmentOutcome(True, "trivial")

        canonical_goal = canonicalize_variables(goal_simplified, prefix="x")
        if self._session is not None:
            canonical_premises = [self._canonicalize(premise) for premise in premises]
        else:
            canonical_premises = [
                canonicalize_variables(simplify_formula(premise), prefix="x")
                for premise in premises
            ]
        if any(premise == canonical_goal for premise in canonical_premises):
            counters.add("entailment.syntactic")
            return EntailmentOutcome(True, "syntactic")

        # Fast path: shared-variable quantifier-free query.
        if self._session is not None:
            lowered_goal = lower_formula(canonical_goal)
            result = self._check_sat_incremental(canonical_premises, lowered_goal)
        else:
            query = compile_entailment(canonical_premises, canonical_goal)
            lowered_goal = query.goal
            self._last_query = query.formula
            result = self.backend.check_sat(query.formula)
        if result.status is SatStatus.UNSAT:
            counters.add("entailment.smt_entailed")
            return EntailmentOutcome(True, "smt")
        if result.status is SatStatus.UNKNOWN:
            counters.add("entailment.unknown")
            return EntailmentOutcome(False, "unknown")
        if not premises:
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

    def _lower_premise(self, premise: Formula) -> folbv.BFormula:
        """Lower a canonical premise, memoized by its structural fingerprint.

        Algorithm 1 re-checks against the same (growing) premise list on every
        iteration; re-lowering each premise from scratch would make the
        per-query cost linear in the whole relation even when the solver work
        is shared.  Returning the *same object* also lets the session's
        fingerprint walk hit its identity memo, so a previously pushed premise
        costs O(1) per later query.
        """
        key = confrel_fingerprint(premise)
        lowered = self._lowered_premises.get(key)
        if lowered is None:
            lowered = lower_formula(premise)
            self._lowered_premises[key] = lowered
        return lowered

    def _check_sat_incremental(
        self, premises: Sequence[Formula], lowered_goal: folbv.BFormula
    ) -> SatResult:
        """The fast-path query via the incremental session.

        The premise conjunction is pushed into the session CNF once (activation
        literals are idempotent per formula), the negated goal rides along as a
        per-query assumption, and the query cache — when the backend stacks one
        — is consulted before and fed after, under the same combined-formula
        fingerprint the one-shot path uses, so both paths share cache entries.
        """
        lowered_premises = tuple(self._lower_premise(p) for p in premises)
        negated_goal = folbv.b_not(lowered_goal)
        combined = folbv.b_and(list(lowered_premises) + [negated_goal])
        self._last_query = combined
        if self.backend.capabilities.caching:
            cached = self.backend.lookup(combined)
            if cached is not None:
                return cached
        assumptions = [self._session.activation(p) for p in lowered_premises]
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
        width).  Like :meth:`_lower_premise` the memo is keyed structurally, so
        the one-shot path (which rebuilds canonical premises every check)
        hits it too.
        """
        key = (confrel_fingerprint(premise), index)
        entry = self._lowered_apart.get(key)
        if entry is None:
            variables = formula_variables(premise)
            mapping = {name: f"u{index}_{name}" for name in variables}
            universal = {
                variable_name(mapping[name]): width for name, width in variables.items()
            }
            entry = (lower_formula(rename_variables(premise, mapping)), universal)
            self._lowered_apart[key] = entry
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
        # Backends whose stack bottoms out in the internal CDCL solver expose
        # it via the protocol; external backends yield None and CEGIS builds
        # a fresh one.
        internal_solver = self.backend.internal_solver
        outcome = solve_exists_forall(
            matrix,
            universal_vars,
            solver=internal_solver,
            max_rounds=self.cegis_rounds,
            session=self._session,
            guess=guess,
        )
        counters.add("entailment.cegis_rounds", outcome.rounds)
        if outcome.holds is True:
            counters.add("entailment.cegis_refuted")
            return EntailmentOutcome(False, "cegis", outcome.witness)
        if outcome.holds is False:
            counters.add("entailment.cegis_entailed")
            return EntailmentOutcome(True, "cegis")
        counters.add("entailment.unknown")
        return EntailmentOutcome(False, "unknown")
