"""Tests for the content-addressed verdict store."""

import json
import os
import pickle
import sqlite3
import threading

import pytest

from repro.core.equivalence import check_language_equivalence
from repro.p4a.bitvec import Bits
from repro.core.counterexample import Counterexample
from repro.logic.confrel import TRUE, FNot
from repro.protocols import tiny
from repro.service.fingerprints import PAIR_FINGERPRINT_VERSION
from repro.service.store import (
    VerdictStore,
    decode_counterexample,
    encode_counterexample,
)


def _witness(bits: str = "1") -> Counterexample:
    return Counterexample(
        packet=Bits(bits),
        left_store={"h": Bits("0")},
        right_store={"h": Bits("1")},
        left_accepts=True,
        right_accepts=False,
        leap_widths=(len(bits),),
        minimized_from=len(bits) + 3,
    )


def _certificate():
    result = check_language_equivalence(
        tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
    )
    assert result.proved and result.certificate is not None
    return result.certificate


class TestWitnessCodec:
    def test_round_trip(self):
        cex = _witness("1011")
        decoded = decode_counterexample(json.loads(json.dumps(encode_counterexample(cex))))
        assert decoded == cex

    def test_encoding_is_canonical(self):
        # The mapping goes on the wire as is, so its key order must be the
        # sorted one at every level.
        cex = Counterexample(
            packet=Bits("10"), left_store={"b": Bits("0"), "a": Bits("1")},
            right_store={}, left_accepts=True, right_accepts=False,
            leap_widths=(2,), minimized_from=None,
        )
        encoded = encode_counterexample(cex)
        assert json.dumps(encoded) == json.dumps(encoded, sort_keys=True)

    def test_encoding_is_json_native(self):
        # The store and the wire both JSON-encode the mapping once, so it
        # must survive a JSON round trip unchanged (no tuples, no Bits).
        encoded = encode_counterexample(_witness("0110"))
        assert json.loads(json.dumps(encoded)) == encoded


class TestPutGet:
    def test_refutation_round_trip(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        store.put("k1", "pair", "config", verdict=False,
                  counterexample=_witness(), oracle={"packets": 3},
                  solve_seconds=0.5)
        entry = store.get("k1")
        assert entry is not None
        assert entry.verdict is False
        assert entry.certificate is None
        assert entry.counterexample == _witness()
        assert entry.oracle == {"packets": 3}
        assert entry.uses == 1
        assert store.statistics.hits == 1 and store.statistics.stores == 1
        store.close()

    def test_proof_round_trips_through_its_row(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        certificate = _certificate()
        store.put("k1", "pair", "config", verdict=True, certificate=certificate)
        entry = store.get("k1")
        assert entry is not None and entry.verdict is True
        assert entry.certificate is not None
        assert entry.certificate.summary() == certificate.summary()
        # One sqlite file (plus its WAL/SHM files) holds everything.
        assert all(name.startswith(os.path.basename(store.path))
                   for name in os.listdir(tmp_path / "s"))
        store.close()

    def test_identical_certificates_are_stored_under_each_key(self, tmp_path):
        # Two keys with one certificate (same pair, other oracle options)
        # hold a copy each.
        store = VerdictStore(str(tmp_path / "s"))
        certificate = _certificate()
        store.put("a", "pair", "config-a", verdict=True, certificate=certificate)
        single = store.snapshot_statistics()["blob_bytes"]
        store.put("b", "pair", "config-b", verdict=True, certificate=certificate)
        assert store.snapshot_statistics()["blob_bytes"] == 2 * single
        for key in ("a", "b"):
            assert store.get(key).certificate.summary() == certificate.summary()
        store.close()

    def test_put_replaces_the_row_at_its_key(self, tmp_path):
        # A refutation stored over a proof leaves no certificate bytes behind.
        store = VerdictStore(str(tmp_path / "s"))
        store.put("k", "pair", "config", verdict=True, certificate=_certificate())
        store.put("k", "pair", "config", verdict=False, counterexample=_witness())
        entry = store.get("k")
        assert entry.verdict is False and entry.certificate is None
        assert entry.counterexample == _witness()
        assert store.keys() == ["k"]
        assert store.snapshot_statistics()["blob_bytes"] == 0
        store.close()

    def test_miss_is_counted(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        assert store.get("absent") is None
        assert store.statistics.misses == 1
        store.close()

    def test_unloadable_certificate_is_a_miss(self, tmp_path):
        # A certificate pickled with an older node layout (a frozen dataclass
        # is rebuilt by __new__ without arguments, then its state) or a
        # corrupt one: the entry is dropped and re-solved, never an error.
        class _OldLayout:
            def __reduce__(self):
                return FNot.__new__, (FNot,), {"operand": TRUE}

        store = VerdictStore(str(tmp_path / "s"))
        for payload in (pickle.dumps(_OldLayout()), b"not a pickle"):
            store.put("k1", "pair", "config", verdict=True, certificate=_certificate())
            with sqlite3.connect(store.path) as conn:
                conn.execute("UPDATE verdicts SET certificate = ? WHERE key = 'k1'",
                             (payload,))
            assert store.get("k1") is None
            assert "k1" not in set(store.keys())
        assert store.statistics.misses == 2
        store.close()


class TestEviction:
    def test_lru_cap_evicts_least_recently_used(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"), max_entries=2)
        store.put("a", "p", "c", verdict=False, counterexample=_witness("0"))
        store.put("b", "p", "c", verdict=False, counterexample=_witness("1"))
        assert store.get("a") is not None  # bump a's LRU position
        store.put("c", "p", "c", verdict=False, counterexample=_witness("00"))
        keys = set(store.keys())
        assert keys == {"a", "c"}  # b was least recently used
        assert store.statistics.evictions == 1
        store.close()

    def test_eviction_lowers_blob_bytes(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"), max_entries=1)
        store.put("a", "p", "c", verdict=True, certificate=_certificate())
        assert store.snapshot_statistics()["blob_bytes"] > 0
        store.put("b", "p", "c", verdict=False, counterexample=_witness())
        assert store.keys() == ["b"]
        assert store.snapshot_statistics()["blob_bytes"] == 0
        store.close()

    def test_evicting_one_of_two_identical_certificates_keeps_the_other(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        certificate = _certificate()
        store.put("a", "pair", "config-a", verdict=True, certificate=certificate)
        single = store.snapshot_statistics()["blob_bytes"]
        store.put("b", "pair", "config-b", verdict=True, certificate=certificate)
        store.discard("a")
        assert store.keys() == ["b"]
        assert store.snapshot_statistics()["blob_bytes"] == single
        assert store.get("b").certificate.summary() == certificate.summary()
        store.close()

    def test_discard_unknown_key_is_a_noop(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        store.discard("absent")
        assert store.statistics.evictions == 0
        store.close()

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            VerdictStore(str(tmp_path / "s"), max_entries=0)


class TestCrashRecovery:
    def test_entries_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "s")
        writer = VerdictStore(directory)
        certificate = _certificate()
        writer.put("proof", "p", "c", verdict=True, certificate=certificate)
        writer.put("refute", "p", "c", verdict=False, counterexample=_witness())
        writer.close()  # simulates a daemon restart

        reader = VerdictStore(directory)
        proof = reader.get("proof")
        refute = reader.get("refute")
        assert proof is not None and proof.certificate is not None
        assert proof.certificate.summary() == certificate.summary()
        assert refute is not None and refute.counterexample == _witness()
        reader.close()


class TestVersioning:
    def test_version_one_rows_are_never_read(self, tmp_path):
        # Version 1 digests hashed options no client can send; the store's
        # file name carries the version, so an old store is a clean miss.
        assert PAIR_FINGERPRINT_VERSION != "1"
        directory = tmp_path / "s"
        writer = VerdictStore(str(directory))
        writer.put("k", "p", "c", verdict=False, counterexample=_witness())
        writer.close()
        os.replace(writer.path, directory / "verdicts_v1.sqlite")
        reader = VerdictStore(str(directory))
        assert reader.get("k") is None
        assert reader.keys() == []
        assert reader.statistics.misses == 1
        reader.close()

    def test_parent_layout_directory_is_a_clean_miss(self, tmp_path):
        # Layout 1 kept an index named after the fingerprint version alone
        # and the certificates as files in blobs/; neither is ever read.
        directory = tmp_path / "s"
        (directory / "blobs").mkdir(parents=True)
        (directory / "blobs" / f"{'0' * 64}.pkl").write_bytes(
            pickle.dumps(_certificate()))
        with sqlite3.connect(directory / f"verdicts_v{PAIR_FINGERPRINT_VERSION}.sqlite") as conn:
            conn.execute("CREATE TABLE verdicts (key TEXT PRIMARY KEY,"
                         " certificate_blob TEXT)")
            conn.execute("INSERT INTO verdicts VALUES ('k', ?)", ("0" * 64,))
        store = VerdictStore(str(directory))
        assert store.get("k") is None
        assert store.keys() == []
        store.put("k", "p", "c", verdict=False, counterexample=_witness())
        assert store.get("k").counterexample == _witness()
        store.close()


class TestConcurrency:
    def test_concurrent_writers_and_readers(self, tmp_path):
        directory = str(tmp_path / "s")
        store = VerdictStore(directory)
        errors = []

        def work(index: int) -> None:
            try:
                key = f"k{index}"
                store.put(key, "p", "c", verdict=False,
                          counterexample=_witness(format(index, "05b")))
                entry = store.get(key)
                assert entry is not None and entry.verdict is False
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) == 16
        assert store.statistics.stores == 16 and store.statistics.hits == 16
        store.close()

    def test_two_handles_on_one_directory(self, tmp_path):
        # Several processes (daemon + CLI fallback) may share a store
        # directory; WAL mode plus the busy timeout must keep both live.
        directory = str(tmp_path / "s")
        first = VerdictStore(directory)
        second = VerdictStore(directory)
        first.put("from-first", "p", "c", verdict=False,
                  counterexample=_witness("0"))
        second.put("from-second", "p", "c", verdict=False,
                   counterexample=_witness("1"))
        assert first.get("from-second") is not None
        assert second.get("from-first") is not None
        first.close()
        second.close()


class TestStatistics:
    def test_snapshot_refreshes_gauges(self, tmp_path):
        store = VerdictStore(str(tmp_path / "s"))
        store.put("k", "p", "c", verdict=True, certificate=_certificate())
        snapshot = store.snapshot_statistics()
        assert snapshot["entries"] == 1
        assert snapshot["blob_bytes"] > 0
        assert set(snapshot) == {
            "hits", "misses", "stores", "replays", "replay_failures",
            "evictions", "entries", "blob_bytes",
        }
        store.close()
