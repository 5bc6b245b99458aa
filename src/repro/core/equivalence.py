"""High-level verification API.

This module is the public face of the equivalence checker.  It wraps the
pre-bisimulation engine (:mod:`repro.core.algorithm`) with the verification
modes used in the paper's case studies:

* :func:`check_language_equivalence` — the headline check: two parsers accept
  exactly the same packets, regardless of their initial stores.
* :func:`check_initial_store_independence` — a parser's acceptance behaviour
  does not depend on uninitialised headers (the Header Initialization study).
* :func:`check_store_relation` — a relational property between the two final
  stores whenever both parsers accept (the External Filtering and Relational
  Verification studies).

All functions return an :class:`EquivalenceResult` carrying a verdict, a
re-checkable certificate on success, an optional concrete counterexample on
refutation, and the statistics reported in the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .. import counters
from ..logic import hashcons
from ..logic.confrel import Formula, TRUE
from ..p4a.syntax import P4Automaton
from ..smt.backend import SolverBackend
from .algorithm import CheckerConfig, CheckerStatistics, PreBisimResult, PreBisimulationChecker
from .certificate import Certificate
from .counterexample import Counterexample, chain_counterexample
from .templates import GuardedFormula


@dataclass
class EquivalenceResult:
    """Verdict of a verification run.

    ``verdict`` is ``True`` (property proven, ``certificate`` available),
    ``False`` (refuted, with a replay-confirmed ``counterexample``) or
    ``None`` (the proof search failed and no confirmed witness came out of it
    — the same "no certificate" outcome the paper's semi-decision procedure
    can produce).
    """

    verdict: Optional[bool]
    certificate: Optional[Certificate]
    counterexample: Optional[Counterexample]
    statistics: CheckerStatistics
    raw: Optional[PreBisimResult] = None

    @property
    def proved(self) -> bool:
        return self.verdict is True

    @property
    def refuted(self) -> bool:
        return self.verdict is False

    def __str__(self) -> str:
        if self.proved:
            return f"PROVED ({self.certificate.summary()})"
        if self.refuted:
            return f"REFUTED ({self.counterexample})"
        return "UNKNOWN (proof search stuck, no counterexample found)"


def _run(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    config: Optional[CheckerConfig],
    backend: Optional[SolverBackend],
    initial_pure: Formula,
    store_relation: Optional[Formula],
    extra_initial: Optional[Iterable[GuardedFormula]],
    require_equal_acceptance: bool,
) -> EquivalenceResult:
    # With no explicit backend, the checker builds its own stack from the
    # config (internal solver, optionally wrapped in the query cache).
    checker = PreBisimulationChecker(
        left_aut,
        right_aut,
        left_start,
        right_start,
        config=config,
        backend=backend,
        initial_pure=initial_pure,
        store_relation=store_relation,
        extra_initial=extra_initial,
        require_equal_acceptance=require_equal_acceptance,
    )
    result = checker.run()
    statistics = result.statistics
    effective = checker.config
    # Witnesses and the oracle only understand language equivalence
    # (acceptance compared under unconstrained, independent stores);
    # relational properties and constrained initial conditions are out of
    # their scope.
    language = (
        require_equal_acceptance
        and store_relation is None
        and initial_pure is TRUE
        and extra_initial is None
    )
    oracle_applies = language and effective.oracle_packets > 0
    oracle_seed = effective.oracle_seed if effective.oracle_seed is not None else 0

    if result.proved:
        if oracle_applies:
            _cross_check_proof(
                left_aut, left_start, right_aut, right_start,
                effective.oracle_packets, oracle_seed, statistics,
            )
        return EquivalenceResult(True, result.certificate, None, statistics, result)

    # One refutation path: the witness the failed conjunct's WP chain
    # encodes, else (say the entailment check gave up without a model) a
    # fuzzed one, then confirmation and minimization.
    counterexample = None
    if language and result.failure_model is not None:
        counterexample = chain_counterexample(
            left_aut, left_start, right_aut, right_start,
            result.failed_conjunct.pure, result.failure_model, result.failure_path,
        )
        if counterexample is None:
            statistics.replay_divergences += 1
    if counterexample is None and oracle_applies:
        counterexample = _fuzz_for_witness(
            left_aut, left_start, right_aut, right_start,
            effective.oracle_packets, oracle_seed, statistics,
        )
    if counterexample is not None and effective.minimize_counterexamples:
        counterexample = _confirm_and_minimize(
            left_aut, left_start, right_aut, right_start, counterexample, statistics,
        )
    verdict: Optional[bool] = False if counterexample is not None else None
    return EquivalenceResult(verdict, None, counterexample, statistics, result)


def _cross_check_proof(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    packets: int,
    seed: int,
    statistics: CheckerStatistics,
) -> None:
    """Fuzz a proven verdict; a single disagreement is a soundness bug."""
    from ..oracle.differential import OracleDivergenceError, cross_check

    report = cross_check(
        left_aut, left_start, right_aut, right_start, packets=packets, seed=seed
    )
    statistics.oracle = dict(report.summary())
    if not report.ok:
        raise OracleDivergenceError(
            report,
            f"'equivalent' verdict for {left_aut.name} ~ {right_aut.name}",
        )


def _fuzz_for_witness(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    packets: int,
    seed: int,
    statistics: CheckerStatistics,
) -> Optional[Counterexample]:
    """Fuzz a failed proof for a concrete witness its WP chain did not give."""
    from ..oracle.differential import cross_check

    report = cross_check(
        left_aut, left_start, right_aut, right_start, packets=packets, seed=seed
    )
    statistics.oracle = dict(report.summary())
    if not report.divergences:
        return None
    divergence = report.divergences[0]
    return Counterexample(
        divergence.packet,
        divergence.left_store,
        divergence.right_store,
        divergence.left_accepts,
        divergence.right_accepts,
    )


def _confirm_and_minimize(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    counterexample: Counterexample,
    statistics: CheckerStatistics,
) -> Optional[Counterexample]:
    """Replay-confirm a witness, then shrink it before it is reported."""
    from ..oracle.minimize import confirm_counterexample, minimize_counterexample

    if not confirm_counterexample(
        left_aut, left_start, right_aut, right_start, counterexample
    ):
        # Every extraction path replays concretely before returning, so an
        # unconfirmed witness here means internal state was corrupted between
        # extraction and reporting; refuse to report it.
        statistics.replay_divergences += 1
        return None
    minimization = minimize_counterexample(
        left_aut, left_start, right_aut, right_start, counterexample
    )
    statistics.oracle.setdefault("packets", 0)
    statistics.oracle["confirmed"] = 1
    statistics.oracle["minimized_from"] = minimization.original_width
    statistics.oracle["minimized_to"] = minimization.counterexample.packet.width
    return minimization.counterexample


def check_language_equivalence(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    config: Optional[CheckerConfig] = None,
    backend: Optional[SolverBackend] = None,
) -> EquivalenceResult:
    """Do the two parsers accept exactly the same packets?

    Acceptance is compared for *all* initial stores of both sides, matching
    ⟦aut⟧A of Definition 3.6: a proof means no choice of uninitialised header
    values and no packet can make the parsers disagree.  The check's counts
    are recorded in one ledger (:mod:`repro.counters`), and its formulas are
    hash-consed in one node table (:mod:`repro.logic.hashcons`).
    """
    with counters.scope(), hashcons.scope():
        return _run(
            left_aut,
            left_start,
            right_aut,
            right_start,
            config,
            backend,
            TRUE,
            None,
            None,
            True,
        )


def check_initial_store_independence(
    aut: P4Automaton,
    start: str,
    config: Optional[CheckerConfig] = None,
    backend: Optional[SolverBackend] = None,
) -> EquivalenceResult:
    """Is the set of accepted packets independent of the initial store?

    Implemented as a self-comparison with unconstrained (and independent)
    initial stores on the two sides — the Header Initialization case study.
    """
    return check_language_equivalence(aut, start, aut, start, config=config, backend=backend)


def check_store_relation(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    accept_relation: Formula,
    require_equal_acceptance: bool = True,
    initial_relation: Formula = TRUE,
    config: Optional[CheckerConfig] = None,
    backend: Optional[SolverBackend] = None,
) -> EquivalenceResult:
    """Prove a relation between the two stores at every jointly-accepting run.

    ``accept_relation`` is a pure ConfRel formula over ``h<``/``h>`` headers; it
    is required to hold whenever both parsers accept (the External Filtering
    and Relational Verification case studies).  ``initial_relation`` constrains
    the initial stores (``TRUE`` quantifies over all of them).  No
    counterexample is extracted for relational properties.
    """
    with counters.scope(), hashcons.scope():
        return _run(
            left_aut,
            left_start,
            right_aut,
            right_start,
            config,
            backend,
            initial_relation,
            accept_relation,
            None,
            require_equal_acceptance,
        )
