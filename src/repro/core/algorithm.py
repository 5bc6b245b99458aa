"""The symbolic pre-bisimulation algorithm (Algorithm 1 with Section 5 optimizations).

``PreBisimulationChecker`` computes (an over-approximation of) the weakest
symbolic bisimulation — with leaps when enabled — restricted to template pairs
reachable from the start pair.  The worklist maintains a frontier ``T`` of
candidate conjuncts; each iteration either *skips* a conjunct already entailed
by the relation ``R`` built so far, or *extends* ``R`` with it and schedules
its weakest preconditions.  When the frontier empties, the *done* step checks
that the initial formula entails every conjunct at the start templates.

On success the result carries a :class:`~repro.core.certificate.Certificate`
that an independent checker can re-validate; on failure it records which
conjunct could not be established, which the counterexample search uses as a
hint.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

from .. import counters
from ..counters import Counters
from ..logic.confrel import FTrue, Formula, TRUE
from ..logic.simplify import simplify_formula
from ..p4a.bitvec import Bits
from ..p4a.syntax import P4Automaton
from ..p4a.typing import check_automaton
from ..smt.backend import SolverBackend
from ..smt.cache import make_backend
from .certificate import Certificate
from .entailment import EntailmentChecker
from .init_rels import initial_relation
from .reachability import ReachabilityAnalysis
from .templates import GuardedFormula, Template, TemplatePair
from .wp import LeapTable, wp_formula


class CheckerError(Exception):
    """Raised when the checker cannot run (bad configuration, ill-typed input)."""


@dataclass
class CheckerConfig:
    """Tunable behaviour of the pre-bisimulation checker.

    ``use_leaps`` and ``use_reachability`` correspond to the two optimizations
    of Section 5 and exist primarily so the ablation benchmarks can disable
    them.

    ``track_memory`` runs the check under :mod:`tracemalloc` to report its
    peak allocation (``CheckerStatistics.peak_memory_bytes``, Table 2's
    Memory column).  Tracing slows the check several times over, so it is
    off by default and only the commands that show the number turn it on
    (``table``, the service ``case`` endpoint, the benchmark tables); with
    it off the reported peak is 0.

    ``cache_dir`` persists solver answers, keyed by query fingerprint, to a
    sqlite store shared across runs and across engine workers;
    ``use_query_cache=False`` (``--no-cache``) turns that store off even when
    a directory is given.  Both only apply when the checker builds its own
    backend (an explicitly supplied backend is used as-is).  Within a run,
    repeated entailments are answered by the entailment checker's own
    outcome memo, which is always on.

    ``use_incremental`` routes entailment queries through one live
    assumption-based solver session per run (premises encoded once, learned
    clauses retained) instead of a fresh bit-blast + SAT run per query; it is
    on by default and exists as a switch for the ablation benchmarks.

    ``use_aig`` enables simplification (constant propagation, structural
    rewriting, subsumption and graph-level query collapse) in the shared AIG
    lowering pipeline of the internal solver; off, the same pipeline runs in
    pure interning mode, matching the legacy encoder clause for clause.  Like
    ``use_incremental`` it exists for the ablation benchmarks.

    ``oracle_packets`` enables the differential concrete oracle: after a
    language-equivalence verdict, that many seeded random packets are run
    through both parsers concretely — an ``equivalent`` verdict contradicted
    by any packet raises (fail loudly, it is a soundness bug), an ``unknown``
    verdict contradicted by a packet is promoted to a refutation with a
    concrete witness.  ``oracle_seed`` makes the sample reproducible
    (``LEAPFROG_SEED``); ``minimize_counterexamples`` shrinks every extracted
    witness by greedy leap/bit drops plus bounded symbolic re-solves before
    it is reported.

    ``solver`` selects which solver backend answers entailment queries (one
    of :data:`repro.envconfig.SOLVER_CHOICES`; ``None`` means the internal
    CDCL solver, honouring ``LEAPFROG_SOLVER`` only through the CLI layer).
    It only applies when the checker builds its own backend.
    """

    use_leaps: bool = True
    use_reachability: bool = True
    max_iterations: int = 200_000
    track_memory: bool = False
    use_query_cache: bool = True
    cache_dir: Optional[str] = None
    use_incremental: bool = True
    use_aig: bool = True
    oracle_packets: int = 0
    oracle_seed: Optional[int] = None
    minimize_counterexamples: bool = True
    solver: Optional[str] = None


#: ``CheckerStatistics.as_dict()["entailment"]``: key → ledger name.  The
#: cache and AIG keys show the counts of those layers.
ENTAILMENT_KEYS = {
    "checks": "entailment.checks",
    "trivial": "entailment.trivial",
    "syntactic": "entailment.syntactic",
    "smt_entailed": "entailment.smt_entailed",
    "smt_refuted": "entailment.smt_refuted",
    "cegis_entailed": "entailment.cegis_entailed",
    "cegis_refuted": "entailment.cegis_refuted",
    "cegis_rounds": "entailment.cegis_rounds",
    "memo_hits": "entailment.memo_hits",
    "instances_reused": "entailment.instances_reused",
    "unknown": "entailment.unknown",
    "cache_hits": "cache.hits",
    "cache_misses": "cache.misses",
    "model_divergences": "entailment.model_divergences",
    "aig_nodes": "aig.nodes",
    "aig_clauses_saved": "aig.clauses_saved",
    "aig_shortcuts": "aig.shortcuts",
}

#: ``CheckerStatistics.as_dict()["cache"]``: key → ledger name.
CACHE_KEYS = {
    "hits": "cache.hits",
    "misses": "cache.misses",
    "disk_hits": "cache.disk_hits",
    "stores": "cache.stores",
}


@dataclass
class CheckerStatistics:
    """Counters describing one checker run (reported in the benchmark tables).

    ``ledger`` holds the run's counts (:mod:`repro.counters`); the
    ``entailment``, ``solver`` and ``cache`` sections render from it, and are
    empty for a result that did not come from a run (a verdict-store replay).
    """

    iterations: int = 0
    extended: int = 0
    skipped: int = 0
    wp_formulas: int = 0
    reachable_pairs: int = 0
    relation_size: int = 0
    runtime_seconds: float = 0.0
    peak_memory_bytes: int = 0
    ledger: Optional[Counters] = None
    #: Differential-oracle telemetry (packets, divergences, minimization).
    oracle: Dict[str, object] = field(default_factory=dict)
    #: Node/solver accounting of the counterexample search, when one ran.
    counterexample_search: Dict[str, int] = field(default_factory=dict)
    #: SAT models whose concrete replay contradicted the symbolic prediction.
    replay_divergences: int = 0

    @property
    def entailment(self) -> Dict[str, int]:
        if self.ledger is None:
            return {}
        return {key: self.ledger[name] for key, name in ENTAILMENT_KEYS.items()}

    @property
    def solver(self) -> Dict[str, float]:
        if self.ledger is None:
            return {}
        times = self.ledger.query_times
        return {
            "queries": self.ledger["solver.queries"],
            "total_time": sum(times, 0.0),
            "max_time": max(times, default=0.0),
            "p99_time": self.ledger.percentile_time(0.99),
        }

    @property
    def cache(self) -> Dict[str, float]:
        """The query cache's counts, for a run that looked anything up."""
        if self.ledger is None or not (
            self.ledger["cache.hits"] or self.ledger["cache.misses"]
        ):
            return {}
        section = {key: self.ledger[name] for key, name in CACHE_KEYS.items()}
        section["hit_rate"] = round(
            section["hits"] / (section["hits"] + section["misses"]), 4
        )
        return section

    def as_dict(self) -> Dict[str, object]:
        return {
            "iterations": self.iterations,
            "extended": self.extended,
            "skipped": self.skipped,
            "wp_formulas": self.wp_formulas,
            "reachable_pairs": self.reachable_pairs,
            "relation_size": self.relation_size,
            "runtime_seconds": self.runtime_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "entailment": self.entailment,
            "solver": self.solver,
            "cache": self.cache,
            "oracle": dict(self.oracle),
            "counterexample_search": dict(self.counterexample_search),
            "replay_divergences": self.replay_divergences,
        }


@dataclass
class PreBisimResult:
    """Outcome of one pre-bisimulation run."""

    proved: bool
    relation: List[GuardedFormula]
    certificate: Optional[Certificate]
    statistics: CheckerStatistics
    failed_conjunct: Optional[GuardedFormula] = None
    failure_model: Optional[Dict[str, Bits]] = None


class PreBisimulationChecker:
    """Runs Algorithm 1 on a pair of automata and start states."""

    def __init__(
        self,
        left_aut: P4Automaton,
        right_aut: P4Automaton,
        left_start: str,
        right_start: str,
        config: Optional[CheckerConfig] = None,
        backend: Optional[SolverBackend] = None,
        initial_pure: Formula = TRUE,
        store_relation: Optional[Formula] = None,
        extra_initial: Optional[Iterable[GuardedFormula]] = None,
        require_equal_acceptance: bool = True,
    ) -> None:
        check_automaton(left_aut)
        check_automaton(right_aut)
        if left_start not in left_aut.states:
            raise CheckerError(f"unknown start state {left_start!r} in {left_aut.name!r}")
        if right_start not in right_aut.states:
            raise CheckerError(f"unknown start state {right_start!r} in {right_aut.name!r}")
        self.left_aut = left_aut
        self.right_aut = right_aut
        self.left_start = left_start
        self.right_start = right_start
        self.config = config or CheckerConfig()
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else make_backend(
            use_cache=self.config.use_query_cache,
            cache_dir=self.config.cache_dir,
            use_aig=self.config.use_aig,
            solver=self.config.solver,
        )
        self.entailment = EntailmentChecker(
            self.backend, use_incremental=self.config.use_incremental
        )
        # Formulas from outside Algorithm 1 are normalized once, here; every
        # formula the loop builds is in normal form by construction.
        self.initial_pure = simplify_formula(initial_pure)
        self.store_relation = (
            simplify_formula(store_relation) if store_relation is not None else None
        )
        self.extra_initial = (
            [GuardedFormula(entry.pair, simplify_formula(entry.pure)) for entry in extra_initial]
            if extra_initial is not None
            else None
        )
        self.require_equal_acceptance = require_equal_acceptance
        self.start_pair = TemplatePair(Template(left_start, 0), Template(right_start, 0))

    # ------------------------------------------------------------------

    def _build_reachability(self) -> ReachabilityAnalysis:
        if self.config.use_reachability:
            initial_pairs = [self.start_pair]
        else:
            # The unpruned variant of Theorem 4.6: every template pair is
            # considered reachable.
            from .reachability import full_template_product

            initial_pairs = full_template_product(self.left_aut, self.right_aut)
            if self.start_pair not in initial_pairs:
                initial_pairs.append(self.start_pair)
        return ReachabilityAnalysis(
            self.left_aut, self.right_aut, initial_pairs, use_leaps=self.config.use_leaps
        )

    # ------------------------------------------------------------------

    def run(self) -> PreBisimResult:
        start_time = time.perf_counter()
        tracking_memory = False
        if self.config.track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            tracking_memory = True
        with counters.scope() as ledger:
            statistics = CheckerStatistics(ledger=ledger)
            try:
                return self._run_loop(statistics)
            finally:
                statistics.runtime_seconds = time.perf_counter() - start_time
                if tracking_memory:
                    _, peak = tracemalloc.get_traced_memory()
                    statistics.peak_memory_bytes = peak
                    tracemalloc.stop()
                elif tracemalloc.is_tracing():
                    _, peak = tracemalloc.get_traced_memory()
                    statistics.peak_memory_bytes = peak
                if self._owns_backend:
                    # Release the persistent cache's file handle deterministically
                    # (the store reopens transparently if this checker runs again).
                    self.backend.close()

    # ------------------------------------------------------------------

    def _run_loop(self, statistics: CheckerStatistics) -> PreBisimResult:
        reach = self._build_reachability()
        # Freed with the run: a process-wide table would keep every run's leaps.
        leaps = LeapTable(self.left_aut, self.right_aut)
        statistics.reachable_pairs = len(reach)
        frontier: Deque[GuardedFormula] = deque(
            initial_relation(
                reach,
                store_relation=self.store_relation,
                extra=self.extra_initial,
                require_equal_acceptance=self.require_equal_acceptance,
            )
        )
        relation: List[GuardedFormula] = []
        relation_by_pair: Dict[TemplatePair, List[Formula]] = {}

        while frontier:
            statistics.iterations += 1
            if statistics.iterations > self.config.max_iterations:
                raise CheckerError(
                    f"exceeded {self.config.max_iterations} iterations; "
                    "the pre-bisimulation did not converge"
                )
            candidate = frontier.popleft()
            if isinstance(candidate.pure, FTrue):
                statistics.skipped += 1
                continue
            premises = relation_by_pair.get(candidate.pair, [])
            outcome = self.entailment.check(premises, candidate.pure)
            if outcome.entailed:
                # Skip step: the candidate adds nothing to the relation.
                statistics.skipped += 1
                continue
            # Extend step: add the candidate and schedule its preconditions.
            statistics.extended += 1
            relation.append(candidate)
            relation_by_pair.setdefault(candidate.pair, []).append(candidate.pure)
            for source_pair in reach.predecessors(candidate.pair):
                precondition = wp_formula(
                    self.left_aut,
                    self.right_aut,
                    candidate,
                    source_pair,
                    use_leaps=self.config.use_leaps,
                    leaps=leaps,
                )
                if isinstance(precondition.pure, FTrue):
                    continue
                statistics.wp_formulas += 1
                frontier.append(precondition)

        statistics.relation_size = len(relation)
        # Done step: the initial formula must entail the relation at the start pair.
        for conjunct in relation:
            if conjunct.pair != self.start_pair:
                continue
            outcome = self.entailment.check([self.initial_pure], conjunct.pure)
            if not outcome.entailed:
                return PreBisimResult(
                    proved=False,
                    relation=relation,
                    certificate=None,
                    statistics=statistics,
                    failed_conjunct=conjunct,
                    failure_model=outcome.model,
                )
        certificate = Certificate(
            left_name=self.left_aut.name,
            right_name=self.right_aut.name,
            left_start=self.left_start,
            right_start=self.right_start,
            use_leaps=self.config.use_leaps,
            initial_pure=self.initial_pure,
            store_relation=self.store_relation,
            require_equal_acceptance=self.require_equal_acceptance,
            relation=tuple(relation),
            reachable_pairs=tuple(sorted(reach.reachable)),
        )
        return PreBisimResult(
            proved=True,
            relation=relation,
            certificate=certificate,
            statistics=statistics,
        )
