"""Fingerprint-keyed persistent caching of satisfiability queries.

:class:`CachingBackend` wraps any :class:`~repro.smt.backend.SolverBackend`
and memoizes ``check_sat`` answers by the structural fingerprint of the query
(:mod:`repro.logic.fingerprint`) in a persistent sqlite store shared across
processes and runs.  The engine uses it to share solver work between parallel
workers, and repeated benchmark runs start warm.  Within one check, repeats
are answered a layer up: :class:`~repro.core.entailment.EntailmentChecker`
memoizes its exact outcomes, so this module keeps no in-memory tier.

Only definitive answers (``sat``/``unsat``) are cached; ``unknown`` results
(e.g. a conflict-limited CDCL call) are always re-queried.  Models are stored
with the answer so a cached ``sat`` still carries its witness.

Caching is sound because the lowering chain is deterministic and fingerprints
are structural: a formula with the same fingerprint is the same formula, so
the solver would return the same status.  It need not return the same model:
a cached counter-model was found in another check's solver state, and it
steers the checks that read it, so a refutation's witness can depend on what
the cache held (``mini_srv6_broken`` prints a different packet after other
checks ran against a fresh cache than without one).  Every witness is
replay-confirmed, so it is a real counterexample either way.  The store's
file name carries
``FINGERPRINT_VERSION``, so rows keyed in an older digest format are never
read.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Optional

from .. import counters
from ..logic.fingerprint import FINGERPRINT_VERSION, folbv_fingerprint
from ..logic.folbv import BFormula
from ..p4a.bitvec import Bits
from .backend import InternalBackend, SolverBackend, backend_for_solver
from .bvsolver import SatResult, SatStatus


def _encode_model(model: Optional[Dict[str, Bits]]) -> Optional[str]:
    if model is None:
        return None
    return json.dumps({name: bits.to_bitstring() for name, bits in model.items()}, sort_keys=True)


def _decode_model(payload: Optional[str]) -> Optional[Dict[str, Bits]]:
    if payload is None:
        return None
    return {name: Bits(bitstring) for name, bitstring in json.loads(payload).items()}


#: Busy timeout of every sqlite connection the query cache and the verdict
#: store (:mod:`repro.service.store`) open, in milliseconds.  A writer that
#: hits a locked database waits this long for the lock instead of failing
#: with ``sqlite3.OperationalError: database is locked``, which matters under
#: the service daemon's worker pool where several threads and processes
#: share one directory.
BUSY_TIMEOUT_MS = 30_000


def open_database(path: str, schema: str) -> sqlite3.Connection:
    """A connection to the sqlite file ``path`` in WAL mode, with the
    ``schema`` statement (a ``CREATE TABLE IF NOT EXISTS``) applied."""
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_MS / 1000.0, check_same_thread=False)
    # Processes setting up a fresh file at once can deadlock on the lock
    # upgrade that the WAL switch or the table creation needs; sqlite then
    # fails one of them at once ("database is locked") instead of waiting
    # in the busy handler, so retry the setup.
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
    while True:
        try:
            # WAL + NORMAL avoids a journal fsync per write, which on
            # fsync-bound filesystems would rival the solver time for the
            # small fast queries the cache exists to absorb.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            # The connect() timeout covers the same ground, but the PRAGMA
            # is explicit, inspectable (PRAGMA busy_timeout) and immune to
            # the float-seconds/milliseconds confusion that silently
            # produced a zero timeout on some sqlite builds.
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            with conn:
                conn.execute(schema)
            return conn
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                conn.close()
                raise
            time.sleep(0.01)


class PersistentQueryCache:
    """A sqlite-backed fingerprint → result store, safe for concurrent use.

    Concurrency is handled at two levels: **across connections** (other
    workers, other processes) sqlite serializes writers itself and the
    explicit ``busy_timeout`` makes a contending writer wait for the lock
    rather than error out; **within one handle** a lock serializes use of
    the shared connection, because a single sqlite3 connection object is
    not safe for unsynchronized multi-threaded use even with
    ``check_same_thread=False``.  Every ``put`` is one short transaction.
    The schema is versioned by the fingerprint format so stale entries are
    never misread.
    """

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(
            directory, f"query_cache_v{FINGERPRINT_VERSION}.sqlite"
        )
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        with self._lock:
            self._connection()  # create the schema eagerly so misconfiguration fails fast

    def _connection(self) -> sqlite3.Connection:
        # Reopens transparently after close(), so a cache handle stays usable
        # for a later run while still releasing its file handle in between.
        # Callers must hold self._lock.
        if self._conn is None:
            self._conn = open_database(
                self.path,
                "CREATE TABLE IF NOT EXISTS results ("
                " fingerprint TEXT PRIMARY KEY,"
                " status TEXT NOT NULL,"
                " model TEXT)",
            )
        return self._conn

    def get(self, fingerprint: str) -> Optional[SatResult]:
        with self._lock:
            row = self._connection().execute(
                "SELECT status, model FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        if row is None:
            return None
        status, model_payload = row
        return SatResult(SatStatus(status), _decode_model(model_payload), 0.0)

    def put(self, fingerprint: str, result: SatResult) -> None:
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO results (fingerprint, status, model) VALUES (?, ?, ?)",
                    (fingerprint, result.status.value, _encode_model(result.model)),
                )

    def busy_timeout_ms(self) -> int:
        """The effective busy timeout of the live connection (for tests)."""
        with self._lock:
            return self._connection().execute("PRAGMA busy_timeout").fetchone()[0]

    def __len__(self) -> int:
        with self._lock:
            return self._connection().execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class CachingBackend(SolverBackend):
    """A backend layer that memoizes ``check_sat`` by query fingerprint on disk.

    Wraps ``inner`` (default: the internal solver): ``lookup``/``store`` are
    backed by the sqlite store in ``cache_dir`` (:class:`PersistentQueryCache`),
    and the session is the wrapped backend's.
    """

    def __init__(self, inner: Optional[SolverBackend], cache_dir: str) -> None:
        self.inner = inner if inner is not None else InternalBackend()
        self.name = f"cached+{self.inner.name}"
        self._disk = PersistentQueryCache(cache_dir)

    # ------------------------------------------------------------------

    def check_sat(self, formula: BFormula, stop=None) -> SatResult:
        fingerprint = folbv_fingerprint(formula)
        cached = self.lookup(formula, fingerprint=fingerprint)
        if cached is not None:
            return cached
        result = self.inner.check_sat(formula, stop=stop)
        self.store(formula, result, fingerprint=fingerprint)
        return result

    def lookup(
        self, formula: BFormula, fingerprint: Optional[str] = None
    ) -> Optional[SatResult]:
        """Consult the persistent store without ever reaching the solver.

        Used directly by the incremental entailment path (cache first, live
        session only on a miss) and by :meth:`check_sat`.  Either way the
        hit or miss is counted in the check's ledger (``cache.*``).
        """
        start = time.perf_counter()
        # Within a check each node is hashed once, so a query that shares
        # premises with earlier ones hashes only its new nodes.
        if fingerprint is None:
            fingerprint = folbv_fingerprint(formula)
        cached = self._disk.get(fingerprint)
        if cached is not None:
            counters.add("cache.hits")
            counters.add("cache.disk_hits")
            return self._replay(cached, start)
        counters.add("cache.misses")
        return None

    def store(
        self, formula: BFormula, result: SatResult, fingerprint: Optional[str] = None
    ) -> None:
        """Record a definitive answer in the persistent store."""
        if result.status is SatStatus.UNKNOWN:
            return
        if fingerprint is None:
            fingerprint = folbv_fingerprint(formula)
        self._disk.put(fingerprint, result)
        counters.add("cache.stores")

    @staticmethod
    def _replay(cached: SatResult, start: float) -> SatResult:
        model = dict(cached.model) if cached.model is not None else None
        return SatResult(cached.status, model, time.perf_counter() - start)

    # ------------------------------------------------------------------

    def incremental_session(self):
        return self.inner.incremental_session()

    @property
    def persistent_path(self) -> str:
        return self._disk.path

    def close(self) -> None:
        self._disk.close()
        self.inner.close()


def make_backend(
    cache_dir: Optional[str] = None,
    use_aig: bool = True,
    solver: Optional[str] = None,
) -> SolverBackend:
    """Build the standard backend stack, innermost layer first.

    * the base backend comes from ``solver`` (a validated
      ``--solver``/``LEAPFROG_SOLVER`` choice; default the internal solver),
      with AIG simplification in its lowering pipeline when ``use_aig``;
    * a ``cache_dir`` wraps it in :class:`CachingBackend`, the persistent
      query cache.
    """
    backend = backend_for_solver(solver, use_aig=use_aig)
    if cache_dir:
        return CachingBackend(backend, cache_dir)
    return backend
