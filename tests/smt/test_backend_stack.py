"""Tests for the layered solver-backend stack."""

import threading
import time

import pytest

from repro import counters
from repro.logic.folbv import BEq, BVConst, BVVar
from repro.p4a.bitvec import Bits
from repro.smt.backend import (
    BackendError,
    EXTERNAL_SOLVER_COMMANDS,
    ExternalBackend,
    InternalBackend,
    OneShotSession,
    SolverBackend,
)
from repro.smt.bvsolver import SatResult, SatStatus
from repro.smt.cache import CachingBackend, make_backend
from repro.smt.incremental import IncrementalSession

A = BVVar("a", 4)
SAT_FORMULA = BEq(A, BVConst(Bits("1010")))


class TestProtocol:
    def test_base_defaults(self):
        backend = SolverBackend()
        assert isinstance(backend.incremental_session(), OneShotSession)
        assert backend.lookup(SAT_FORMULA) is None
        assert not hasattr(backend, "internal_solver")
        # The protocol holds no in-memory cache tier to size or trim.
        assert not hasattr(backend, "memory_entries")
        assert not hasattr(backend, "trim_memory")
        backend.store(SAT_FORMULA, SatResult(SatStatus.UNKNOWN))
        backend.close()  # all default methods are safe no-ops

    def test_internal_backend_has_an_incremental_session(self):
        backend = InternalBackend()
        assert isinstance(backend.incremental_session(), IncrementalSession)
        assert backend.lookup(SAT_FORMULA) is None

    def test_dpll_engine_has_a_one_shot_session(self):
        backend = InternalBackend(engine="dpll")
        assert isinstance(backend.incremental_session(), OneShotSession)

    @pytest.mark.parametrize("engine, session_type", [
        ("cdcl", IncrementalSession), ("dpll", OneShotSession),
    ])
    def test_caching_backend_delegates_the_session(self, engine, session_type, tmp_path):
        inner = InternalBackend(engine=engine)
        backend = CachingBackend(inner, str(tmp_path))
        assert isinstance(backend.incremental_session(), session_type)
        assert backend.name == "cached+internal"
        backend.close()

    def test_caching_backend_answers_repeats_from_disk(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        with counters.scope() as ledger:
            backend.check_sat(SAT_FORMULA)
            backend.check_sat(SAT_FORMULA)
        assert ledger["cache.hits"] == ledger["cache.disk_hits"] == 1
        assert ledger["solver.queries"] == 1
        backend.close()


    def test_caching_backend_hands_a_miss_to_the_inner_backend(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        with counters.scope() as ledger:
            result = backend.check_sat(SAT_FORMULA)
        assert result.is_sat
        assert result.model[A.name] == Bits("1010")
        assert ledger["cache.misses"] == ledger["cache.stores"] == 1
        assert ledger["solver.queries"] == 1
        backend.close()

    def test_caching_backend_close_closes_the_inner_backend(self, tmp_path):
        closed = []

        class Inner(InternalBackend):
            def close(self):
                closed.append(self)

        inner = Inner()
        CachingBackend(inner, str(tmp_path)).close()
        assert closed == [inner]


class TestMakeBackend:
    @pytest.mark.parametrize("solver", [None, "internal", "cdcl", "dpll", "internal-dpll"])
    def test_internal_engines_honour_use_aig(self, solver):
        backend = make_backend(solver=solver, use_aig=False)
        assert backend._solver.use_aig is False

    def test_cache_wraps_the_internal_backend(self, tmp_path):
        assert isinstance(make_backend(), InternalBackend)
        backend = make_backend(cache_dir=str(tmp_path), solver="dpll", use_aig=False)
        assert isinstance(backend, CachingBackend)
        assert isinstance(backend.inner, InternalBackend)
        assert backend.inner._solver.use_aig is False
        assert isinstance(backend.incremental_session(), OneShotSession)
        assert backend.persistent_path.startswith(str(tmp_path))
        backend.close()

    @pytest.mark.parametrize("solver", [None, "internal", "cdcl", "dpll", "internal-dpll"])
    def test_cache_stacks_over_every_internal_engine(self, solver, tmp_path):
        backend = make_backend(cache_dir=str(tmp_path), solver=solver)
        assert isinstance(backend, CachingBackend)
        assert isinstance(backend.inner, InternalBackend)
        incremental = isinstance(backend.incremental_session(), IncrementalSession)
        assert incremental == (solver not in ("dpll", "internal-dpll"))
        backend.close()

    def test_missing_external_solver_is_an_error(self, monkeypatch):
        import shutil

        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BackendError, match="not on PATH"):
            make_backend(solver="z3")


class TestExternalSolverTable:
    def test_command_table_matches_envconfig_vocabulary(self):
        from repro import envconfig

        assert tuple(EXTERNAL_SOLVER_COMMANDS) == envconfig.EXTERNAL_SOLVERS


def _fake_solver(tmp_path, body: str):
    """A shell script standing in for an external solver binary."""
    script = tmp_path / "fake-solver.sh"
    script.write_text("#!/bin/sh\n" + body + "\n")
    script.chmod(0o755)
    return ExternalBackend("fake", timeout=0.5, command=("sh", str(script)))


class TestExternalBackend:
    def test_timeout_is_not_a_parse_failure(self, tmp_path):
        backend = _fake_solver(tmp_path, "sleep 30")
        with counters.scope() as ledger:
            result = backend.check_sat(SAT_FORMULA)
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "timeout"
        assert ledger["solver.external_timeouts"] == 1
        assert ledger["solver.parse_failures"] == 0
        # The losing process must be reaped, not orphaned.
        assert backend.last_process.poll() is not None

    def test_garbage_output_is_a_parse_failure_with_diagnostics(self, tmp_path):
        backend = _fake_solver(
            tmp_path, 'echo "segmentation fault" >&2; echo gibberish; exit 139'
        )
        with pytest.warns(RuntimeWarning, match="no sat/unsat answer"), \
                counters.scope() as ledger:
            result = backend.check_sat(SAT_FORMULA)
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "parse-failure"
        assert "segmentation fault" in result.detail
        assert "exit=139" in result.detail
        assert ledger["solver.parse_failures"] == 1
        assert ledger["solver.external_timeouts"] == 0

    def test_cancellation_kills_the_subprocess(self, tmp_path):
        backend = _fake_solver(tmp_path, "sleep 30")
        stop = threading.Event()
        worker = threading.Thread(
            target=lambda: results.append(backend.check_sat(SAT_FORMULA, stop=stop))
        )
        results = []
        worker.start()
        time.sleep(0.15)
        stop.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        (result,) = results
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "cancelled"
        assert backend.last_process.poll() is not None

    def test_well_behaved_fake_solver_sat(self, tmp_path):
        backend = _fake_solver(tmp_path, "echo sat")
        result = backend.check_sat(SAT_FORMULA)
        # No model values in the output: every variable defaults to zeros,
        # so a caller that needs a real witness must re-validate SAT models.
        assert result.status is SatStatus.SAT
