"""Equivalence certificates and their independent re-checker.

The Coq implementation's value proposition is that the proof-search tactic
produces a *certificate* that the Coq kernel re-checks against the mechanised
metatheory.  This reproduction mirrors that architecture: the checker returns
a :class:`Certificate` — essentially the symbolic bisimulation-with-leaps it
constructed — and :func:`verify_certificate` re-validates it from scratch:

1. the recorded template pairs really over-approximate the reachable pairs;
2. the relation rules out acceptance mismatches on every reachable pair
   (and implies the user's store relation where both sides accept);
3. the relation is closed under weakest preconditions along every edge of the
   reachability graph;
4. the initial formula entails the relation at the start templates.

Together with Lemma 5.6 these conditions imply language equivalence (or the
requested relational property), independently of how the certificate was
found.  Every entailment used during verification is *sound* — an "entailed"
answer is only produced from an UNSAT result — so a certificate that passes
verification is trustworthy modulo the solver and the WP/reachability code,
which is exactly the paper's trusted base (Section 6.4) transposed to Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.confrel import FALSE, FTrue, Formula
# Unused here since WPs are built in normal form, but perfbench's layer
# tracer hooks this module attribute, so the name stays importable.
from ..logic.simplify import simplify_formula  # noqa: F401
from ..p4a.syntax import P4Automaton
from ..smt.backend import SolverBackend
from .templates import GuardedFormula, Template, TemplatePair


@dataclass(frozen=True)
class Certificate:
    """A self-contained witness of a successful pre-bisimulation run."""

    left_name: str
    right_name: str
    left_start: str
    right_start: str
    use_leaps: bool
    initial_pure: Formula
    store_relation: Optional[Formula]
    require_equal_acceptance: bool
    relation: Tuple[GuardedFormula, ...]
    reachable_pairs: Tuple[TemplatePair, ...]

    @property
    def start_pair(self) -> TemplatePair:
        return TemplatePair(Template(self.left_start, 0), Template(self.right_start, 0))

    def conjuncts_at(self, pair: TemplatePair) -> List[Formula]:
        return [entry.pure for entry in self.relation if entry.pair == pair]

    def summary(self) -> str:
        return (
            f"certificate: {self.left_name}.{self.left_start} ≈ "
            f"{self.right_name}.{self.right_start} "
            f"({len(self.relation)} conjuncts over {len(self.reachable_pairs)} template pairs, "
            f"leaps={'on' if self.use_leaps else 'off'})"
        )


@dataclass
class CertificateCheckResult:
    """Outcome of re-validating a certificate."""

    ok: bool
    failures: List[str] = field(default_factory=list)
    checked_obligations: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    certificate: Certificate,
    left_aut: P4Automaton,
    right_aut: P4Automaton,
    backend: Optional[SolverBackend] = None,
    max_obligations: Optional[int] = None,
) -> CertificateCheckResult:
    """Re-validate ``certificate`` against the two automata.

    ``max_obligations`` optionally bounds the number of entailment obligations
    checked (useful in tests on large certificates); when it is hit the result
    is marked as failed with an explanatory message rather than silently
    passing.
    """
    from .entailment import EntailmentChecker
    from .reachability import ReachabilityAnalysis
    from .wp import LeapTable, wp_formula

    # The re-checker is a deliberately independent backstop: it stays on the
    # one-shot solving path so a defect in the incremental session machinery
    # cannot corrupt both the proof search and its re-validation.
    checker = EntailmentChecker(backend, use_incremental=False)
    leaps = LeapTable(left_aut, right_aut)
    result = CertificateCheckResult(ok=True)
    recorded = set(certificate.reachable_pairs)

    def fail(message: str) -> None:
        result.ok = False
        result.failures.append(message)

    def obligation_budget_exceeded() -> bool:
        if max_obligations is not None and result.checked_obligations >= max_obligations:
            fail(f"obligation budget of {max_obligations} exhausted before completion")
            return True
        return False

    def check_entailment(premises: Sequence[Formula], goal: Formula, context: str) -> None:
        result.checked_obligations += 1
        outcome = checker.check(list(premises), goal)
        if not outcome.entailed:
            fail(f"{context}: entailment failed")

    # (1) The recorded pairs over-approximate reachability from the start pair.
    reach = ReachabilityAnalysis(
        left_aut, right_aut, [certificate.start_pair], use_leaps=certificate.use_leaps
    )
    missing = reach.reachable - recorded
    if missing:
        fail(f"reachable template pairs missing from the certificate: {sorted(missing)[:5]}")

    relation_by_pair: Dict[TemplatePair, List[Formula]] = {}
    for entry in certificate.relation:
        relation_by_pair.setdefault(entry.pair, []).append(entry.pure)

    # (2) Acceptance compatibility (and the store relation) on reachable pairs.
    for pair in sorted(reach.reachable):
        if obligation_budget_exceeded():
            return result
        premises = relation_by_pair.get(pair, [])
        if certificate.require_equal_acceptance and pair.accept_mismatch():
            check_entailment(premises, FALSE, f"acceptance compatibility at {pair}")
        if certificate.store_relation is not None and pair.both_accepting():
            check_entailment(
                premises, certificate.store_relation, f"store relation at {pair}"
            )

    # (3) Closure under weakest preconditions along the reachability graph.
    for entry in certificate.relation:
        for source_pair in reach.predecessors(entry.pair):
            if obligation_budget_exceeded():
                return result
            precondition = wp_formula(
                left_aut, right_aut, entry, source_pair,
                use_leaps=certificate.use_leaps, leaps=leaps,
            )
            if isinstance(precondition.pure, FTrue):
                continue
            premises = relation_by_pair.get(source_pair, [])
            check_entailment(
                premises, precondition.pure, f"WP closure of {entry.pair} from {source_pair}"
            )

    # (4) The initial formula entails the relation at the start pair.
    for entry in certificate.relation:
        if entry.pair != certificate.start_pair:
            continue
        if obligation_budget_exceeded():
            return result
        check_entailment(
            [certificate.initial_pure], entry.pure, f"initial entailment of {entry.pure}"
        )

    return result
