"""One counter ledger per check.

Every count a check reports — entailment outcomes, solver queries, AIG
nodes, cache hits — is recorded in one :class:`Counters` ledger under a
dotted name (``entailment.checks``, ``solver.queries``, ``aig.nodes``,
``cache.hits``, …).  The layer where an event happens adds it to the current
ledger with :func:`add`; no layer keeps a copy, and the reports
(``CheckerStatistics.as_dict()``, Table 2's columns) render from the ledger.

The ledger's :func:`scope` is opened by the outermost check.  A nested scope
joins the ledger already open, so a check's counts stay together however its
layers nest, and two checks never share a ledger even when they share a
solver backend.  Outside any scope counting is a no-op.

Solver-local hot counters (``CdclSolver.stats``) stay on their objects: the
ledger lookup is a context-variable read, which does not belong in a CDCL
loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional


class Counters(dict):
    """The counts of one check, by dotted name (a missing name reads 0).

    ``query_times`` holds the wall time of each solver query of the check,
    for the time distribution the reports show.
    """

    def __init__(self) -> None:
        super().__init__()
        self.query_times: List[float] = []

    def __missing__(self, name: str) -> int:
        return 0

    def percentile_time(self, fraction: float) -> float:
        """Time below which ``fraction`` of the queries completed (e.g. 0.99)."""
        if not self.query_times:
            return 0.0
        ordered = sorted(self.query_times)
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


_CURRENT: ContextVar[Optional[Counters]] = ContextVar("repro_counters", default=None)


def add(name: str, amount: int = 1) -> None:
    """Add ``amount`` to ``name`` in the current ledger (no-op outside a check)."""
    ledger = _CURRENT.get()
    if ledger is not None:
        ledger[name] += amount


def record_query(elapsed: float, clauses: int) -> None:
    """One solver query: its count, the CNF clauses it ran on and its time."""
    ledger = _CURRENT.get()
    if ledger is not None:
        ledger["solver.queries"] += 1
        ledger["solver.clauses"] += clauses
        ledger.query_times.append(elapsed)


@contextmanager
def scope() -> Iterator[Counters]:
    """Open a check's ledger, or join the one already open."""
    ledger = _CURRENT.get()
    if ledger is not None:
        yield ledger
        return
    ledger = Counters()
    token = _CURRENT.set(ledger)
    try:
        yield ledger
    finally:
        _CURRENT.reset(token)


@contextmanager
def suspended() -> Iterator[None]:
    """Count nothing inside: for work that is not the open check's own."""
    token = _CURRENT.set(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)
