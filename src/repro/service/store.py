"""The content-addressed verdict store.

Maps a store key (:func:`repro.service.fingerprints.store_key`: automaton
pair digest × checker-option digest) to everything needed to *replay* the
result without a fresh proof search:

* the **verdict** (``equivalent`` / ``not_equivalent``; ``unknown`` results
  are never stored — they are not definitive);
* the **certificate** of a proof, pickled into an on-disk blob addressed by
  the sha256 of its bytes (identical certificates share one blob file);
* the minimized **witness** of a refutation, as JSON (packet, stores,
  acceptance bits, leap widths);
* the **oracle telemetry** recorded when the verdict was first computed, so
  a store hit reproduces the original run's output byte for byte.

Layout on disk, under the store directory::

    verdicts_v<fingerprint-version>.sqlite   -- the index (WAL mode)
    blobs/<sha256>.pkl                       -- pickled certificates

The sqlite index is safe for concurrent use by several daemon workers and
several processes: connections enable WAL journaling and an explicit busy
timeout, every write is one short transaction, and in-process sharing is
serialized by a lock.  Blob files are written atomically (temp file +
rename), so a reader can never observe a half-written certificate.

**Eviction**: when ``max_entries`` is set, inserting beyond the cap evicts
the least-recently-*used* entries (``last_used`` is bumped on every hit)
and deletes their blobs unless another surviving entry still references
them.  Unset (the default) means the store grows without bound.

**Trust model**: certificate blobs are unpickled on load, so the store
directory carries the same trust as the query cache — local, writable only
by the operator.  Do not point the daemon at a store directory written by
an untrusted party.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.certificate import Certificate
from ..core.counterexample import Counterexample
from ..p4a.bitvec import Bits
from ..smt.cache import open_database
from .fingerprints import PAIR_FINGERPRINT_VERSION

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
    "blob_bytes": "total size of the certificate blobs on disk (gauge)",
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


def encode_counterexample(cex: Counterexample) -> str:
    """Witness → JSON (bitstrings only, so the payload is transport-safe)."""
    return json.dumps({
        "packet": cex.packet.to_bitstring(),
        "left_store": {name: bits.to_bitstring() for name, bits in cex.left_store.items()},
        "right_store": {name: bits.to_bitstring() for name, bits in cex.right_store.items()},
        "left_accepts": cex.left_accepts,
        "right_accepts": cex.right_accepts,
        "leap_widths": list(cex.leap_widths),
        "minimized_from": cex.minimized_from,
    }, sort_keys=True)


def decode_counterexample(payload: str) -> Counterexample:
    data = json.loads(payload)
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
    """The sqlite + blob-directory verdict store (see the module docstring)."""

    def __init__(self, directory: str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(
            directory, f"verdicts_v{PAIR_FINGERPRINT_VERSION}.sqlite"
        )
        self.blob_dir = os.path.join(directory, "blobs")
        os.makedirs(self.blob_dir, exist_ok=True)
        self.max_entries = max_entries
        self.statistics = StoreStatistics()
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        with self._lock:
            self._connection()  # create the schema eagerly; misconfiguration fails fast

    # ------------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = open_database(
                self.path,
                "CREATE TABLE IF NOT EXISTS verdicts ("
                " key TEXT PRIMARY KEY,"
                " pair_fp TEXT NOT NULL,"
                " config_fp TEXT NOT NULL,"
                " verdict TEXT NOT NULL,"
                " certificate_blob TEXT,"
                " witness TEXT,"
                " oracle TEXT,"
                " solve_seconds REAL NOT NULL DEFAULT 0,"
                " created REAL NOT NULL,"
                " last_used REAL NOT NULL,"
                " uses INTEGER NOT NULL DEFAULT 0)",
            )
        return self._conn

    # ------------------------------------------------------------------
    # Blobs

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self.blob_dir, f"{digest}.pkl")

    def _write_blob(self, payload: bytes) -> str:
        import hashlib

        digest = hashlib.sha256(payload).hexdigest()
        path = self._blob_path(digest)
        if not os.path.exists(path):
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)  # atomic: readers never see partial blobs
        return digest

    def _read_blob(self, digest: str) -> Optional[bytes]:
        try:
            with open(self._blob_path(digest), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _load_certificate(self, digest: str) -> Optional[Certificate]:
        """The certificate in blob ``digest``, or ``None`` if it cannot be read."""
        payload = self._read_blob(digest)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError, TypeError):
            # Corrupt bytes, or nodes pickled in a layout the code no longer has.
            return None

    # ------------------------------------------------------------------
    # Lookup / insert

    def get(self, key: str) -> Optional[StoredVerdict]:
        """Fetch and decode one entry, bumping its LRU position on a hit."""
        with self._lock:
            conn = self._connection()
            row = conn.execute(
                "SELECT pair_fp, config_fp, verdict, certificate_blob, witness,"
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
        pair_fp, config_fp, verdict, blob_digest, witness, oracle, seconds, uses = row
        certificate = None
        if blob_digest is not None:
            certificate = self._load_certificate(blob_digest)
            if certificate is None:
                # The index outlived its blob (e.g. a crash between blob GC
                # and index delete), or the blob predates the current logic
                # node layout; treat as a miss and drop the row.
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
            counterexample=decode_counterexample(witness) if witness else None,
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
        blob_digest = None
        if certificate is not None:
            blob_digest = self._write_blob(
                pickle.dumps(certificate, protocol=pickle.HIGHEST_PROTOCOL)
            )
        now = time.time()
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO verdicts"
                    " (key, pair_fp, config_fp, verdict, certificate_blob, witness,"
                    "  oracle, solve_seconds, created, last_used, uses)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (
                        key, pair_fp, config_fp,
                        "equivalent" if verdict else "not_equivalent",
                        blob_digest,
                        encode_counterexample(counterexample)
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
            row = conn.execute(
                "SELECT certificate_blob FROM verdicts WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return
            with conn:
                conn.execute("DELETE FROM verdicts WHERE key = ?", (key,))
            self.statistics.evictions += 1
            self._collect_blob(conn, row[0])

    def _evict_over_cap(self) -> None:
        if self.max_entries is None:
            return
        with self._lock:
            conn = self._connection()
            count = conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
            excess = count - self.max_entries
            if excess <= 0:
                return
            victims = conn.execute(
                "SELECT key, certificate_blob FROM verdicts"
                " ORDER BY last_used ASC, key ASC LIMIT ?",
                (excess,),
            ).fetchall()
            with conn:
                conn.executemany(
                    "DELETE FROM verdicts WHERE key = ?",
                    [(key,) for key, _ in victims],
                )
            self.statistics.evictions += len(victims)
            for _, blob in victims:
                self._collect_blob(conn, blob)

    def _collect_blob(self, conn: sqlite3.Connection, digest: Optional[str]) -> None:
        """Delete a blob file once no surviving entry references it."""
        if digest is None:
            return
        still_used = conn.execute(
            "SELECT 1 FROM verdicts WHERE certificate_blob = ? LIMIT 1", (digest,)
        ).fetchone()
        if still_used is None:
            try:
                os.unlink(self._blob_path(digest))
            except OSError:
                pass

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

    def gauges(self) -> Tuple[int, int]:
        """Current ``(entries, blob_bytes)`` for the statistics snapshot."""
        entries = len(self)
        blob_bytes = 0
        try:
            for name in os.listdir(self.blob_dir):
                if name.endswith(".pkl"):
                    blob_bytes += os.path.getsize(os.path.join(self.blob_dir, name))
        except OSError:
            pass
        return entries, blob_bytes

    def snapshot_statistics(self) -> Dict[str, int]:
        """Counters plus refreshed gauges, as one JSON-safe mapping."""
        entries, blob_bytes = self.gauges()
        with self._lock:
            self.statistics.entries = entries
            self.statistics.blob_bytes = blob_bytes
            return self.statistics.as_dict()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
