"""Tests for structural fingerprints and the fingerprint-keyed query cache."""

import hashlib
import multiprocessing
import sqlite3

import pytest

from repro import counters
from repro.logic import folbv
from repro.logic.confrel import LEFT, RIGHT, CHdr, CVar, FAnd, FEq
from repro.logic.fingerprint import (
    FINGERPRINT_VERSION,
    confrel_fingerprint,
    folbv_fingerprint,
)
from repro.logic.folbv import BEq, BVConst, BVExtract, BVVar, b_and, b_not
from repro.p4a.bitvec import Bits
from repro.smt.backend import InternalBackend
from repro.smt.cache import CachingBackend, PersistentQueryCache, make_backend
from repro.smt.bvsolver import SatStatus
from repro.service.store import VerdictStore


def _sat_formula():
    # x[0:3] = 0b1010 is satisfiable.
    return BEq(BVExtract(BVVar("x", 8), 0, 3), BVConst(Bits("1010")))


def _unsat_formula():
    x = BVVar("x", 4)
    return b_and([BEq(x, BVConst(Bits("0000"))), BEq(x, BVConst(Bits("1111")))])


class TestFingerprints:
    def test_structurally_equal_formulas_agree(self):
        assert folbv_fingerprint(_sat_formula()) == folbv_fingerprint(_sat_formula())

    def test_different_structure_different_fingerprint(self):
        assert folbv_fingerprint(_sat_formula()) != folbv_fingerprint(_unsat_formula())
        sat = _sat_formula()
        assert folbv_fingerprint(sat) != folbv_fingerprint(b_not(sat))

    def test_variable_names_and_widths_matter(self):
        assert folbv_fingerprint(BVVar("x", 8)) != folbv_fingerprint(BVVar("y", 8))
        assert folbv_fingerprint(BVVar("x", 8)) != folbv_fingerprint(BVVar("x", 16))

    def test_term_and_formula_layers_do_not_collide(self):
        # A bare term and a formula built from it must not share digests.
        term = BVVar("x", 1)
        assert folbv_fingerprint(term) != folbv_fingerprint(BEq(term, BVConst(Bits("1"))))

    def test_confrel_fingerprint_tracks_structure(self):
        eq = FEq(CHdr(LEFT, "udp", 8), CHdr(RIGHT, "udp", 8))
        same = FEq(CHdr(LEFT, "udp", 8), CHdr(RIGHT, "udp", 8))
        other = FEq(CVar("x", 8), CHdr(RIGHT, "udp", 8))
        assert confrel_fingerprint(eq) == confrel_fingerprint(same)
        assert confrel_fingerprint(eq) != confrel_fingerprint(other)
        assert confrel_fingerprint(FAnd((eq,))) != confrel_fingerprint(eq)

    def test_fingerprints_stable_across_processes(self):
        # A hardcoded digest guards against accidental format drift, which
        # would silently invalidate (or, without a version bump, misread)
        # every persistent cache.
        digest = folbv_fingerprint(BEq(BVVar("x", 2), BVConst(Bits("01"))))
        assert digest == folbv_fingerprint(BEq(BVVar("x", 2), BVConst(Bits("01"))))
        assert digest == "ee939cd9debbc9acd50659ba84a03f1e94b7cd646d6d115d29dde29c1387a4a4"


def _plant_row(path, key, status, model):
    """Write one row the way any format version of the cache writes it."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " fingerprint TEXT PRIMARY KEY, status TEXT NOT NULL, model TEXT)"
        )
        conn.execute("INSERT OR REPLACE INTO results VALUES (?, ?, ?)", (key, status, model))
    conn.close()


class TestPersistedKeys:
    """A row keyed in an older format is a clean miss, never misread."""

    # Version 1 keyed a query on the sha256 of one S-expression of the whole
    # formula; this is _unsat_formula()'s key in that format.
    VERSION_1_KEY = hashlib.sha256(
        b"bv1:(& (= (v x 4) (c 0000)) (= (v x 4) (c 1111)))"
    ).hexdigest()

    def test_version_one_rows_are_a_clean_miss(self, tmp_path):
        assert FINGERPRINT_VERSION != "1"
        assert folbv_fingerprint(_unsat_formula()) != self.VERSION_1_KEY
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        # A wrong answer under the old key, in the old file and in the
        # current one: reading either would turn an unsat query sat.
        for name in ("query_cache_v1.sqlite", f"query_cache_v{FINGERPRINT_VERSION}.sqlite"):
            _plant_row(str(cache_dir / name), self.VERSION_1_KEY, "sat", '{"x": "0000"}')
        backend = CachingBackend(InternalBackend(), str(cache_dir))
        with counters.scope() as ledger:
            result = backend.check_sat(_unsat_formula())
        assert result.status is SatStatus.UNSAT
        assert (ledger["cache.misses"], ledger["cache.hits"], ledger["solver.queries"]) == (
            1, 0, 1
        )
        backend.close()

    def test_current_rows_are_hit_under_the_same_key(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        key = folbv_fingerprint(_unsat_formula())
        _plant_row(
            str(cache_dir / f"query_cache_v{FINGERPRINT_VERSION}.sqlite"), key, "unsat", None
        )
        backend = CachingBackend(InternalBackend(), str(cache_dir))
        with counters.scope() as ledger:
            result = backend.lookup(_unsat_formula())
        assert result is not None and result.status is SatStatus.UNSAT
        assert ledger["cache.disk_hits"] == 1
        backend.close()


class TestCachingBackend:
    def test_hit_miss_accounting(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        formula = _sat_formula()
        with counters.scope() as ledger:
            first = backend.check_sat(formula)
            assert first.status is SatStatus.SAT
            assert ledger["cache.misses"] == 1
            assert ledger["cache.hits"] == 0
            second = backend.check_sat(formula)
        assert second.status is SatStatus.SAT
        assert ledger["cache.hits"] == 1
        assert ledger["cache.disk_hits"] == 1
        assert ledger["cache.misses"] == 1
        # The real solver ran exactly once.
        assert ledger["solver.queries"] == 1
        backend.close()

    def test_cached_sat_model_still_satisfies(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        formula = _sat_formula()
        first_model = backend.check_sat(formula).model
        cached = backend.check_sat(formula)
        model = dict(cached.model)
        model.setdefault("x", Bits.zeros(8))
        assert folbv.eval_formula(formula, model)
        # Every replay hands out a model of its own.
        cached.model["x"] = Bits.zeros(8)
        assert backend.check_sat(formula).model == first_model
        backend.close()

    def test_unsat_results_are_cached(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        formula = _unsat_formula()
        with counters.scope() as ledger:
            assert backend.check_sat(formula).status is SatStatus.UNSAT
            assert backend.check_sat(formula).status is SatStatus.UNSAT
        assert ledger["cache.hits"] == 1
        assert ledger["solver.queries"] == 1
        backend.close()

    def test_persistent_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        writer = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        sat, unsat = _sat_formula(), _unsat_formula()
        with counters.scope() as ledger:
            assert writer.check_sat(sat).status is SatStatus.SAT
            assert writer.check_sat(unsat).status is SatStatus.UNSAT
        assert ledger["cache.stores"] == 2
        writer.close()

        # A fresh backend over the same directory answers from disk without
        # touching its solver.
        reader = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        with counters.scope() as ledger:
            sat_again = reader.check_sat(sat)
            unsat_again = reader.check_sat(unsat)
        assert sat_again.status is SatStatus.SAT
        assert unsat_again.status is SatStatus.UNSAT
        assert ledger["cache.disk_hits"] == 2
        assert ledger["solver.queries"] == 0
        model = dict(sat_again.model)
        model.setdefault("x", Bits.zeros(8))
        assert folbv.eval_formula(sat, model)
        reader.close()

    def test_persistent_store_survives_independent_handles(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = PersistentQueryCache(cache_dir)
        result = InternalBackend().check_sat(_sat_formula())
        store.put("deadbeef", result)
        assert len(store) == 1
        store.close()
        reopened = PersistentQueryCache(cache_dir)
        entry = reopened.get("deadbeef")
        assert entry is not None and entry.status is SatStatus.SAT
        assert entry.model == result.model
        assert reopened.get("cafebabe") is None
        reopened.close()
        # A closed handle reconnects transparently on the next use.
        assert reopened.get("deadbeef").status is SatStatus.SAT
        reopened.close()

    def test_make_backend_stacking(self, tmp_path):
        # Without a directory there is no cache tier to stack.
        assert isinstance(make_backend(), InternalBackend)
        persistent = make_backend(cache_dir=str(tmp_path))
        assert isinstance(persistent, CachingBackend)
        assert persistent.persistent_path.startswith(str(tmp_path))
        persistent.close()

    def test_concurrent_writers_share_one_persistent_backend(self, tmp_path):
        # Regression test for the daemon's worker pool: several threads
        # share one CachingBackend over one sqlite cache.  Before the store
        # gained its lock, busy timeout and check_same_thread=False, this
        # raised ProgrammingError ("objects created in a thread...") or
        # OperationalError ("database is locked") under contention.
        import threading

        cache_dir = str(tmp_path / "cache")
        backend = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        formulas = [
            BEq(BVVar(f"v{index}", 5), BVConst(Bits(format(index, "05b"))))
            for index in range(16)
        ]
        errors = []

        def work(formula):
            try:
                assert backend.check_sat(formula).status is SatStatus.SAT
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f,)) for f in formulas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        backend.close()
        store = PersistentQueryCache(cache_dir)
        assert len(store) == 16
        store.close()

        # Every concurrently written entry is readable from a fresh handle
        # without touching the solver.
        reader = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        with counters.scope() as ledger:
            for formula in formulas:
                assert reader.check_sat(formula).status is SatStatus.SAT
        assert ledger["solver.queries"] == 0
        assert ledger["cache.disk_hits"] == 16
        reader.close()

    def test_concurrent_handles_on_one_cache_directory(self, tmp_path):
        # Two independent handles (e.g. daemon workers in separate stacks,
        # or daemon plus CLI fallback) interleave writes to the same file.
        import threading

        cache_dir = str(tmp_path / "cache")
        handles = [PersistentQueryCache(cache_dir) for _ in range(2)]
        for handle in handles:
            assert handle.busy_timeout_ms() == 30_000
        result = InternalBackend().check_sat(_sat_formula())
        errors = []

        def work(handle, base):
            try:
                for index in range(8):
                    handle.put(f"fp-{base}-{index}", result)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(handle, base))
            for base, handle in enumerate(handles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(handles[0]) == 16
        assert handles[1].get("fp-0-0") is not None
        for handle in handles:
            handle.close()


def _open_fresh_cache(store_class, directory, barrier):
    barrier.wait(timeout=60)
    store_class(directory).close()  # a failure sets the exit code


@pytest.mark.parametrize("store_class", [PersistentQueryCache, VerdictStore])
def test_processes_setting_up_one_fresh_cache_never_fail(tmp_path, store_class):
    # Processes opening a fresh file at once race to switch it to WAL and
    # create the table; sqlite fails the loser of a lock upgrade at once
    # ("database is locked") rather than waiting, so the setup must retry.
    # Fresh processes each round: their first connection is what races.
    # The query cache and the verdict store share that setup.
    context = multiprocessing.get_context("spawn")
    exitcodes = []
    for round_index in range(8):
        barrier = context.Barrier(4)
        workers = [
            context.Process(
                target=_open_fresh_cache,
                args=(store_class, str(tmp_path / f"c{round_index}"), barrier),
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        exitcodes.extend(worker.exitcode for worker in workers)
    assert exitcodes == [0] * 32
