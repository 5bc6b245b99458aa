"""Tests for the layered solver-backend stack and the portfolio race."""

import threading
import time

import pytest

from repro.logic.folbv import BEq, BNot, BVConst, BVVar, b_and
from repro.p4a.bitvec import Bits
from repro.smt.backend import (
    BackendError,
    BackendMiddleware,
    EXTERNAL_SOLVER_COMMANDS,
    ExternalBackend,
    InternalBackend,
    PortfolioBackend,
    SolverBackend,
    SolverCapabilities,
)
from repro.smt.bvsolver import SatResult, SatStatus
from repro.smt.cache import CachingBackend, make_backend

A = BVVar("a", 4)
SAT_FORMULA = BEq(A, BVConst(Bits("1010")))
UNSAT_FORMULA = b_and([BEq(A, BVConst(Bits("1010"))), BNot(BEq(A, BVConst(Bits("1010"))))])


class TestProtocol:
    def test_base_defaults(self):
        backend = SolverBackend()
        assert backend.capabilities == SolverCapabilities()
        assert backend.incremental_session() is None
        assert backend.lookup(SAT_FORMULA) is None
        assert backend.cache_statistics is None
        assert backend.internal_solver is None
        assert backend.memory_entries == 0
        assert backend.trim_memory(0) == 0
        backend.store(SAT_FORMULA, SatResult(SatStatus.UNKNOWN))
        backend.close()  # all default methods are safe no-ops

    def test_internal_capabilities(self):
        caps = InternalBackend().capabilities
        assert caps.incremental and caps.models and caps.cancellation
        assert caps.internal_solver and not caps.caching

    def test_dpll_engine_is_not_incremental(self):
        caps = InternalBackend(engine="dpll").capabilities
        assert not caps.incremental and not caps.cancellation

    def test_middleware_delegates_everything(self):
        inner = InternalBackend()
        stacked = BackendMiddleware(inner)
        assert stacked.capabilities == inner.capabilities
        assert stacked.internal_solver is inner.internal_solver
        assert stacked.statistics is inner.statistics
        assert stacked.check_sat(SAT_FORMULA).is_sat
        assert inner.statistics.queries == 1

    def test_caching_backend_adds_caching_capability(self):
        backend = CachingBackend(InternalBackend())
        caps = backend.capabilities
        assert caps.caching and caps.incremental and caps.internal_solver
        backend.check_sat(SAT_FORMULA)
        backend.check_sat(SAT_FORMULA)
        assert backend.cache_statistics.hits == 1
        assert backend.inner.statistics.queries == 1


class TestMakeBackend:
    def test_portfolio_excludes_external_solver(self):
        with pytest.raises(BackendError, match="cannot be combined"):
            make_backend(use_cache=False, portfolio=True, solver="z3")

    def test_portfolio_allows_internal_spellings(self):
        backend = make_backend(use_cache=False, portfolio=True, solver="internal")
        assert isinstance(backend, PortfolioBackend)

    def test_cache_wraps_portfolio(self):
        backend = make_backend(use_cache=True, portfolio=True)
        assert isinstance(backend, CachingBackend)
        assert backend.capabilities.caching


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
        result = backend.check_sat(SAT_FORMULA)
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "timeout"
        assert backend.statistics.external_timeouts == 1
        assert backend.statistics.parse_failures == 0
        # The losing process must be reaped, not orphaned.
        assert backend.last_process.poll() is not None

    def test_garbage_output_is_a_parse_failure_with_diagnostics(self, tmp_path):
        backend = _fake_solver(
            tmp_path, 'echo "segmentation fault" >&2; echo gibberish; exit 139'
        )
        with pytest.warns(RuntimeWarning, match="no sat/unsat answer"):
            result = backend.check_sat(SAT_FORMULA)
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "parse-failure"
        assert "segmentation fault" in result.detail
        assert "exit=139" in result.detail
        assert backend.statistics.parse_failures == 1
        assert backend.statistics.external_timeouts == 0

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
        # which is why real portfolio lanes re-validate SAT models.
        assert result.status is SatStatus.SAT


class _CannedBackend(SolverBackend):
    """A scripted lane: waits, then answers (or crashes)."""

    def __init__(self, name, status, delay=0.0, crash=False, obeys_stop=True):
        self.name = name
        self._status = status
        self._delay = delay
        self._crash = crash
        self._obeys_stop = obeys_stop
        from repro.smt.bvsolver import SolverStatistics

        self._statistics = SolverStatistics()

    def check_sat(self, formula, stop=None):
        deadline = time.perf_counter() + self._delay
        while time.perf_counter() < deadline:
            if self._obeys_stop and stop is not None and stop.is_set():
                return SatResult(SatStatus.UNKNOWN, None, 0.0, reason="cancelled")
            time.sleep(0.005)
        if self._crash:
            raise RuntimeError("lane exploded")
        model = {"a": Bits("1010")} if self._status is SatStatus.SAT else None
        return SatResult(self._status, model, 0.0)

    @property
    def statistics(self):
        return self._statistics

    @property
    def capabilities(self):
        return SolverCapabilities(models=True, cancellation=True)


class TestPortfolio:
    def test_single_lane_counts_an_uncontested_win(self):
        backend = PortfolioBackend(external_backends=[])
        result = backend.check_sat(SAT_FORMULA)
        assert result.is_sat
        assert backend.lane_counters["internal"]["wins"] == 1

    def test_first_answer_wins_and_loser_is_cancelled(self):
        fast = _CannedBackend("fast", SatStatus.UNSAT, delay=0.0)
        slow = _CannedBackend("slow", SatStatus.UNSAT, delay=10.0)
        backend = PortfolioBackend(
            include_internal=False, external_backends=[fast, slow]
        )
        start = time.perf_counter()
        result = backend.check_sat(UNSAT_FORMULA)
        assert result.is_unsat
        assert time.perf_counter() - start < 5.0  # the slow lane was cancelled
        assert backend.lane_counters["fast"]["wins"] == 1
        assert backend.lane_counters["slow"]["cancelled"] == 1

    def test_caller_stop_cancels_every_lane(self):
        lanes = [
            _CannedBackend("one", SatStatus.SAT, delay=10.0),
            _CannedBackend("two", SatStatus.SAT, delay=10.0),
        ]
        backend = PortfolioBackend(include_internal=False, external_backends=lanes)
        stop = threading.Event()
        results = []
        worker = threading.Thread(
            target=lambda: results.append(backend.check_sat(SAT_FORMULA, stop=stop))
        )
        worker.start()
        time.sleep(0.15)
        stop.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        (result,) = results
        assert result.status is SatStatus.UNKNOWN

    def test_crashing_lane_does_not_sink_the_race(self):
        crash = _CannedBackend("crash", SatStatus.SAT, crash=True)
        good = _CannedBackend("good", SatStatus.UNSAT, delay=0.1)
        backend = PortfolioBackend(
            include_internal=False, external_backends=[crash, good]
        )
        result = backend.check_sat(UNSAT_FORMULA)
        assert result.is_unsat
        assert backend.lane_counters["crash"]["errors"] == 1
        assert backend.lane_counters["good"]["wins"] == 1

    def test_internal_lane_races_real_queries(self):
        slow_sat = _CannedBackend("ext", SatStatus.SAT, delay=10.0)
        backend = PortfolioBackend(external_backends=[slow_sat])
        result = backend.check_sat(SAT_FORMULA)
        assert result.is_sat
        assert backend.lane_counters["internal"]["wins"] == 1
        assert backend.lane_counters["ext"]["cancelled"] == 1

    def test_bogus_winning_model_is_rejected(self):
        # The fake lane answers SAT with a model that does not satisfy the
        # (unsatisfiable) formula; validation must catch it.
        liar = _CannedBackend("liar", SatStatus.SAT)
        backend = PortfolioBackend(include_internal=False, external_backends=[liar])
        with pytest.raises(BackendError, match="bogus model"):
            backend.check_sat(UNSAT_FORMULA)

    def test_combine_raises_on_disagreement(self):
        backend = PortfolioBackend(
            include_internal=False,
            external_backends=[
                _CannedBackend("yes", SatStatus.SAT),
                _CannedBackend("no", SatStatus.UNSAT),
            ],
        )
        arrivals = [
            ("yes", SatResult(SatStatus.SAT, {"a": Bits("1010")}, 0.0)),
            ("no", SatResult(SatStatus.UNSAT, None, 0.0)),
        ]
        with pytest.raises(BackendError, match="disagree"):
            backend._combine(arrivals)

    def test_combine_all_unknown_reports_reasons(self):
        backend = PortfolioBackend(
            include_internal=False,
            external_backends=[
                _CannedBackend("one", SatStatus.UNKNOWN),
                _CannedBackend("two", SatStatus.UNKNOWN),
            ],
        )
        result = backend._finish(
            [
                ("one", SatResult(SatStatus.UNKNOWN, None, 0.0, reason="timeout")),
                ("two", SatResult(SatStatus.UNKNOWN, None, 0.0, reason="cancelled")),
            ],
            time.perf_counter(),
            SAT_FORMULA,
        )
        assert result.status is SatStatus.UNKNOWN
        assert result.reason == "cancelled;timeout"

    def test_no_lanes_is_an_error(self):
        with pytest.raises(BackendError, match="at least one lane"):
            PortfolioBackend(include_internal=False, external_backends=[])

    def test_portfolio_mirrors_aig_counters(self):
        backend = PortfolioBackend(external_backends=[])
        backend.check_sat(SAT_FORMULA)
        assert backend.statistics.aig_nodes > 0

    def test_no_orphaned_threads_after_check(self):
        lanes = [
            _CannedBackend("one", SatStatus.UNSAT, delay=0.0),
            _CannedBackend("two", SatStatus.UNSAT, delay=10.0),
        ]
        backend = PortfolioBackend(include_internal=False, external_backends=lanes)
        before = threading.active_count()
        backend.check_sat(UNSAT_FORMULA)
        assert threading.active_count() == before
