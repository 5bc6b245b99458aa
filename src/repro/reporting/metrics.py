"""Structural metrics reported in Table 2.

For every case study the paper reports the number of states across both
automata, the number of bits examined by ``select`` statements ("Branched"),
the total number of store bits ("Total"), the runtime and the peak memory use.
This module computes the structural columns from the automata themselves and
packages a checker run's measurements into one record used by the benchmark
harness and ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from ..core.algorithm import CheckerStatistics
from ..p4a.syntax import P4Automaton


@dataclass
class CaseMetrics:
    """One row of the Table 2 reproduction."""

    name: str
    states: int
    branched_bits: int
    total_bits: int
    runtime_seconds: float = 0.0
    peak_memory_mb: float = 0.0
    verdict: Optional[bool] = None
    reachable_pairs: int = 0
    relation_size: int = 0
    solver_queries: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "states": self.states,
            "branched_bits": self.branched_bits,
            "total_bits": self.total_bits,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "peak_memory_mb": round(self.peak_memory_mb, 3),
            "verdict": self.verdict,
            "reachable_pairs": self.reachable_pairs,
            "relation_size": self.relation_size,
            "solver_queries": self.solver_queries,
            **self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CaseMetrics":
        """Rebuild a row from :meth:`as_dict` output (service transport)."""
        known = {f.name for f in fields(cls)} - {"extra"}
        base = {key: value for key, value in payload.items() if key in known}
        extra = {key: value for key, value in payload.items() if key not in known}
        return cls(**base, extra=extra)


def structural_metrics(name: str, left: P4Automaton, right: P4Automaton) -> CaseMetrics:
    """The structural columns of Table 2 for a pair of automata.

    ``states`` counts the user-defined states of both automata (the paper's
    "total number of states in both parsers"); ``branched_bits`` sums the bits
    examined by selects, and ``total_bits`` sums the header bits of both
    stores.
    """
    return CaseMetrics(
        name=name,
        states=len(left.states) + len(right.states),
        branched_bits=left.branched_bits() + right.branched_bits(),
        total_bits=left.total_header_bits() + right.total_header_bits(),
    )


def attach_run_statistics(metrics: CaseMetrics, statistics: CheckerStatistics,
                          verdict: Optional[bool]) -> CaseMetrics:
    """Fill in the measured columns from a checker run."""
    metrics.runtime_seconds = statistics.runtime_seconds
    metrics.peak_memory_mb = statistics.peak_memory_bytes / (1024 * 1024)
    metrics.verdict = verdict
    metrics.reachable_pairs = statistics.reachable_pairs
    metrics.relation_size = statistics.relation_size
    metrics.solver_queries = int(statistics.solver.get("queries", 0))
    if statistics.cache:
        metrics.extra["cache_hit_percent"] = round(
            100.0 * float(statistics.cache.get("hit_rate", 0.0)), 1
        )
        metrics.extra["cache_hits"] = int(statistics.cache.get("hits", 0))
        metrics.extra["cache_misses"] = int(statistics.cache.get("misses", 0))
    if statistics.entailment:
        # AIG lowering-pipeline effectiveness: "nodes/saved (+N collapsed)".
        # Rendered only when the run reports the counters, so older payloads
        # (and ablation rows from pre-AIG configs) show "-".
        if "aig_nodes" in statistics.entailment:
            metrics.extra["aig_nodes"] = int(statistics.entailment["aig_nodes"])
            metrics.extra["aig_saved"] = int(
                statistics.entailment.get("aig_clauses_saved", 0)
            )
            metrics.extra["aig_shortcuts"] = int(
                statistics.entailment.get("aig_shortcuts", 0)
            )
    oracle_divergences = int(statistics.oracle.get("divergences", 0)) if statistics.oracle else 0
    if statistics.oracle or statistics.replay_divergences:
        # Model-vs-replay mismatches plus concrete oracle disagreements; 0 is
        # the healthy value and is rendered (a "-" means the oracle never ran).
        metrics.extra["divergences"] = oracle_divergences + statistics.replay_divergences
    if statistics.oracle and statistics.oracle.get("packets"):
        metrics.extra["oracle_packets"] = int(statistics.oracle["packets"])
    return metrics
