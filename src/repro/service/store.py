"""The content-addressed verdict store.

Maps a store key (:func:`repro.service.fingerprints.store_key`: automaton
pair digest × checker-option digest) to everything needed to *replay* the
result without a fresh proof search:

* the **verdict** (``equivalent`` / ``not_equivalent``; ``unknown`` results
  are never stored — they are not definitive);
* the **certificate** of a proof, pickled into a ``BLOB`` column of the row;
* the minimized **witness** of a refutation, as JSON (packet, stores,
  acceptance bits, leap widths);
* the **oracle telemetry** recorded when the verdict was first computed, so
  a store hit reproduces the original run's output byte for byte.

The store is one sqlite file under the store directory::

    verdicts_v<fingerprint-version>_layout<layout-version>.sqlite  (WAL mode)

It is safe for concurrent use by several daemon workers and several
processes: connections enable WAL journaling and an explicit busy timeout,
every write is one short transaction, and in-process sharing is serialized
by a lock.  A row and its certificate are written in one transaction, so a
reader never sees one without the other.

**Eviction**: when ``max_entries`` is set, inserting beyond the cap evicts
the least-recently-*used* entries (``last_used`` is bumped on every hit).
Unset (the default) means the store grows without bound.

**Trust model**: certificates are unpickled on load, so the store file
carries the same trust as the query cache — local, writable only by the
operator.  Do not point the daemon at a store directory written by an
untrusted party.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.certificate import Certificate
from ..core.counterexample import Counterexample
from ..p4a.bitvec import Bits
from ..smt.cache import open_database
from .fingerprints import PAIR_FINGERPRINT_VERSION

#: Version of the on-disk row layout, part of the file name with the
#: fingerprint version: a store written under an older layout (layout 1 kept
#: certificates as files in a ``blobs/`` directory) is a clean miss.
STORE_LAYOUT_VERSION = "2"

#: Documented meaning of every :class:`StoreStatistics` counter.  The docs
#: generator renders this mapping into ``docs/service.md``; keep entries in
#: sync with the dataclass fields (a drift test enforces it).
STORE_STATISTIC_FIELDS: Dict[str, str] = {
    "hits": "lookups answered from the store (the replayed-verdict count)",
    "misses": "lookups that found no entry and fell through to a fresh solve",
    "stores": "definitive verdicts written (new entries plus overwrites)",
    "replays": "store hits whose certificate or witness replay succeeded",
    "replay_failures": (
        "store hits whose replay failed; the entry is evicted and the "
        "request falls back to a fresh solve (should stay at 0)"
    ),
    "evictions": "entries removed by the LRU cap or after a failed replay",
    "entries": "entries currently in the index (gauge, not a counter)",
    "blob_bytes": "total size of the pickled certificates in the index (gauge)",
}


@dataclass
class StoreStatistics:
    """Hit/replay accounting for one :class:`VerdictStore` handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    replays: int = 0
    replay_failures: int = 0
    evictions: int = 0
    entries: int = 0
    blob_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in STORE_STATISTIC_FIELDS}


def encode_counterexample(cex: Counterexample) -> Dict[str, object]:
    """Witness → JSON-safe mapping (bitstrings only).

    Keys come in sorted order at every level, so ``json.dumps`` of the
    mapping is canonical with or without ``sort_keys``.
    """
    return {
        "leap_widths": list(cex.leap_widths),
        "left_accepts": cex.left_accepts,
        "left_store": {name: cex.left_store[name].to_bitstring()
                       for name in sorted(cex.left_store)},
        "minimized_from": cex.minimized_from,
        "packet": cex.packet.to_bitstring(),
        "right_accepts": cex.right_accepts,
        "right_store": {name: cex.right_store[name].to_bitstring()
                        for name in sorted(cex.right_store)},
    }


def decode_counterexample(data: Dict[str, object]) -> Counterexample:
    return Counterexample(
        packet=Bits(data["packet"]),
        left_store={name: Bits(bits) for name, bits in data["left_store"].items()},
        right_store={name: Bits(bits) for name, bits in data["right_store"].items()},
        left_accepts=data["left_accepts"],
        right_accepts=data["right_accepts"],
        leap_widths=tuple(data["leap_widths"]),
        minimized_from=data["minimized_from"],
    )


@dataclass
class StoredVerdict:
    """One decoded store entry, ready for replay."""

    key: str
    pair_fingerprint: str
    config_fingerprint: str
    verdict: bool  # True = equivalent, False = not_equivalent
    certificate: Optional[Certificate]
    counterexample: Optional[Counterexample]
    oracle: Dict[str, object] = field(default_factory=dict)
    solve_seconds: float = 0.0
    uses: int = 0


class VerdictStore:
    """The one-file sqlite verdict store (see the module docstring)."""

    def __init__(self, directory: str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(
            directory,
            f"verdicts_v{PAIR_FINGERPRINT_VERSION}_layout{STORE_LAYOUT_VERSION}.sqlite",
        )
        self.max_entries = max_entries
        self.statistics = StoreStatistics()
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        with self._lock:
            self._connection()  # create the schema eagerly; misconfiguration fails fast

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = open_database(
                self.path,
                "CREATE TABLE IF NOT EXISTS verdicts ("
                " key TEXT PRIMARY KEY,"
                " pair_fp TEXT NOT NULL,"
                " config_fp TEXT NOT NULL,"
                " verdict TEXT NOT NULL,"
                " certificate BLOB,"
                " witness TEXT,"
                " oracle TEXT,"
                " solve_seconds REAL NOT NULL DEFAULT 0,"
                " created REAL NOT NULL,"
                " last_used REAL NOT NULL,"
                " uses INTEGER NOT NULL DEFAULT 0)",
            )
        return self._conn

    # ------------------------------------------------------------------
    # Lookup / insert

    def get(self, key: str) -> Optional[StoredVerdict]:
        """Fetch and decode one entry, bumping its LRU position on a hit."""
        with self._lock:
            conn = self._connection()
            row = conn.execute(
                "SELECT pair_fp, config_fp, verdict, certificate, witness,"
                " oracle, solve_seconds, uses FROM verdicts WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None:
                self.statistics.misses += 1
                return None
            with conn:
                conn.execute(
                    "UPDATE verdicts SET last_used = ?, uses = uses + 1 WHERE key = ?",
                    (time.time(), key),
                )
        pair_fp, config_fp, verdict, pickled, witness, oracle, seconds, uses = row
        certificate = None
        if pickled is not None:
            try:
                certificate = pickle.loads(pickled)
            except (pickle.UnpicklingError, EOFError, AttributeError, TypeError):
                # Corrupt bytes, or nodes pickled in a layout the code no
                # longer has: treat as a miss and drop the row.
                self.discard(key)
                with self._lock:
                    self.statistics.misses += 1
                return None
        with self._lock:
            self.statistics.hits += 1
        return StoredVerdict(
            key=key,
            pair_fingerprint=pair_fp,
            config_fingerprint=config_fp,
            verdict=(verdict == "equivalent"),
            certificate=certificate,
            counterexample=decode_counterexample(json.loads(witness)) if witness else None,
            oracle=json.loads(oracle) if oracle else {},
            solve_seconds=seconds,
            uses=uses + 1,
        )

    def put(
        self,
        key: str,
        pair_fp: str,
        config_fp: str,
        verdict: bool,
        certificate: Optional[Certificate] = None,
        counterexample: Optional[Counterexample] = None,
        oracle: Optional[Dict[str, object]] = None,
        solve_seconds: float = 0.0,
    ) -> None:
        """Record one definitive verdict (overwrites any entry at ``key``)."""
        pickled = None
        if certificate is not None:
            pickled = pickle.dumps(certificate, protocol=pickle.HIGHEST_PROTOCOL)
        now = time.time()
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO verdicts"
                    " (key, pair_fp, config_fp, verdict, certificate, witness,"
                    "  oracle, solve_seconds, created, last_used, uses)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (
                        key, pair_fp, config_fp,
                        "equivalent" if verdict else "not_equivalent",
                        pickled,
                        json.dumps(encode_counterexample(counterexample))
                        if counterexample is not None else None,
                        json.dumps(oracle, sort_keys=True) if oracle else None,
                        solve_seconds, now, now,
                    ),
                )
            self.statistics.stores += 1
        self._evict_over_cap()

    def discard(self, key: str) -> None:
        """Drop one entry (used after a failed replay); counts as an eviction."""
        with self._lock:
            conn = self._connection()
            with conn:
                deleted = conn.execute(
                    "DELETE FROM verdicts WHERE key = ?", (key,)
                ).rowcount
            self.statistics.evictions += deleted

    def _evict_over_cap(self) -> None:
        if self.max_entries is None:
            return
        with self._lock:
            conn = self._connection()
            with conn:
                evicted = conn.execute(
                    "DELETE FROM verdicts WHERE key IN ("
                    " SELECT key FROM verdicts ORDER BY last_used ASC, key ASC"
                    " LIMIT max(0, (SELECT COUNT(*) FROM verdicts) - ?))",
                    (self.max_entries,),
                ).rowcount
            self.statistics.evictions += evicted

    def count_replay(self) -> None:
        """Record one successful certificate/witness replay."""
        with self._lock:
            self.statistics.replays += 1

    def count_replay_failure(self) -> None:
        """Record one failed replay (the entry is discarded by the caller)."""
        with self._lock:
            self.statistics.replay_failures += 1

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        with self._lock:
            return self._connection().execute(
                "SELECT COUNT(*) FROM verdicts"
            ).fetchone()[0]

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._connection().execute(
                "SELECT key FROM verdicts ORDER BY created"
            ).fetchall()
        return [key for (key,) in rows]

    def snapshot_statistics(self) -> Dict[str, int]:
        """Counters plus refreshed gauges, as one JSON-safe mapping."""
        with self._lock:
            entries, blob_bytes = self._connection().execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(certificate)), 0) FROM verdicts"
            ).fetchone()
            self.statistics.entries = entries
            self.statistics.blob_bytes = blob_bytes
            return self.statistics.as_dict()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
