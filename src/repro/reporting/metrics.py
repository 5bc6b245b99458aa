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
from typing import Callable, Dict, Optional, Union

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


def _cache(key: str) -> Callable[[CheckerStatistics], object]:
    """A cache column: shown for runs that looked up the query cache."""
    return lambda statistics: statistics.cache[key] if statistics.cache else None


def _divergences(statistics: CheckerStatistics) -> Optional[int]:
    # Model-vs-replay mismatches plus concrete oracle disagreements; 0 is the
    # healthy value and is rendered (a "-" means the oracle never ran).
    if not (statistics.oracle or statistics.replay_divergences):
        return None
    return int(statistics.oracle.get("divergences", 0)) + statistics.replay_divergences


#: The measured columns of a row, in order: CaseMetrics key → the ledger
#: name it shows (:mod:`repro.counters`), or a function of the run's
#: statistics.  A function that returns ``None`` leaves the column out, and
#: the table renders it as "-".
RUN_COLUMNS: Dict[str, Union[str, Callable[[CheckerStatistics], object]]] = {
    "runtime_seconds": lambda statistics: statistics.runtime_seconds,
    "peak_memory_mb": lambda statistics: statistics.peak_memory_bytes / (1024 * 1024),
    "reachable_pairs": lambda statistics: statistics.reachable_pairs,
    "relation_size": lambda statistics: statistics.relation_size,
    "solver_queries": "solver.queries",
    "cache_hit_percent": lambda statistics: (
        round(100.0 * statistics.cache["hit_rate"], 1) if statistics.cache else None
    ),
    "cache_hits": _cache("hits"),
    "cache_misses": _cache("misses"),
    "memo_hits": "entailment.memo_hits",
    "instances_reused": "entailment.instances_reused",
    "aig_nodes": "aig.nodes",
    "aig_saved": "aig.clauses_saved",
    "aig_shortcuts": "aig.shortcuts",
    "divergences": _divergences,
    "oracle_packets": lambda statistics: statistics.oracle.get("packets") or None,
}

_FIELDS = {f.name for f in fields(CaseMetrics)}


def attach_run_statistics(metrics: CaseMetrics, statistics: CheckerStatistics,
                          verdict: Optional[bool]) -> CaseMetrics:
    """Fill in the measured columns from a checker run."""
    metrics.verdict = verdict
    for key, column in RUN_COLUMNS.items():
        if not isinstance(column, str):
            value = column(statistics)
        elif statistics.ledger is not None:
            value = statistics.ledger[column]
        else:
            value = None
        if value is None:
            continue
        if key in _FIELDS:
            setattr(metrics, key, value)
        else:
            metrics.extra[key] = value
    return metrics
