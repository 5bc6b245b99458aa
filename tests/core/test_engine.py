"""Tests for the job-based parallel equivalence engine."""

import dataclasses
import multiprocessing
import os
import signal
import warnings

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.engine import (
    CaseJob,
    EngineError,
    EquivalenceEngine,
    EquivalenceJob,
)
from repro.protocols import tiny

from ..helpers import fixed_length_automaton


def _tiny_jobs():
    return [
        EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="equiv"
        ),
        EquivalenceJob(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            job_id="checked",
        ),
        EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse",
            job_id="wrong", find_counterexamples=True,
        ),
        EquivalenceJob(
            fixed_length_automaton(3), "s0", fixed_length_automaton(3), "s0",
            job_id="fixed3",
        ),
    ]


def _comparable(results):
    """Project each job result onto its deterministic, order-sensitive parts."""
    projected = []
    for result in results:
        value = result.value
        projected.append(
            (
                result.job_id,
                result.status,
                value.verdict,
                value.statistics.iterations,
                value.statistics.extended,
                value.statistics.skipped,
                value.statistics.relation_size,
                value.statistics.reachable_pairs,
                str(value.counterexample) if value.counterexample else None,
                value.certificate.summary() if value.certificate else None,
            )
        )
    return projected


class TestSequentialEngine:
    def test_results_in_submission_order(self):
        engine = EquivalenceEngine(jobs=1)
        results = engine.run(_tiny_jobs())
        assert [r.job_id for r in results] == ["equiv", "checked", "wrong", "fixed3"]
        assert all(r.ok for r in results)
        assert results[0].value.verdict is True
        assert results[2].value.verdict is False

    def test_error_is_captured_per_job(self):
        engine = EquivalenceEngine(jobs=1)
        results = engine.run([
            CaseJob(case="No Such Row", job_id="bad"),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="good"
            ),
        ])
        assert results[0].status == "error"
        assert "No Such Row" in results[0].error
        assert results[1].ok and results[1].value.verdict is True
        assert engine.statistics.failed == 1
        assert engine.statistics.succeeded == 1

    def test_duplicate_labels_rejected(self):
        engine = EquivalenceEngine(jobs=1)
        job = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="dup"
        )
        with pytest.raises(EngineError, match="unique"):
            engine.run([job, job])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EngineError):
            EquivalenceEngine(jobs=0)

    def test_on_result_streams_in_submission_order(self):
        engine = EquivalenceEngine(jobs=1)
        streamed = []
        results = engine.run(_tiny_jobs(), on_result=streamed.append)
        assert [r.job_id for r in streamed] == [r.job_id for r in results]
        assert streamed == results

    def test_on_result_sees_errors_too(self):
        engine = EquivalenceEngine(jobs=1)
        streamed = []
        engine.run([CaseJob(case="No Such Row", job_id="bad")],
                   on_result=streamed.append)
        assert [r.status for r in streamed] == ["error"]

    def test_case_job_runs_registered_study(self):
        engine = EquivalenceEngine(jobs=1)
        [result] = engine.run([CaseJob(case="Header initialization")])
        assert result.ok
        assert result.value.verdict is True
        assert result.value.metrics.name == "Header initialization"


class TestInlineTimeouts:
    """jobs=1 cannot interrupt a running job: it must warn, then enforce post hoc."""

    def _job(self, timeout=None):
        return EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            job_id="inline", timeout=timeout,
        )

    def test_inline_timeout_warns_explicitly(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning, match="inline mode"):
            engine.run([self._job(timeout=60.0)])

    def test_inline_engine_default_timeout_also_warns(self):
        engine = EquivalenceEngine(jobs=1, timeout=60.0)
        with pytest.warns(RuntimeWarning, match="enforced only after"):
            engine.run([self._job()])

    def test_inline_without_timeout_does_not_warn(self):
        engine = EquivalenceEngine(jobs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = engine.run([self._job()])
        assert results[0].ok

    def test_inline_over_budget_job_reported_as_timeout(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([self._job(timeout=1e-9)])
        assert result.status == "timeout"
        assert result.value is None
        assert "inline job finished" in result.error
        assert engine.statistics.timed_out == 1

    def test_inline_within_budget_job_is_ok(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([self._job(timeout=300.0)])
        assert result.ok
        assert result.value.verdict is True

    def test_inline_over_budget_failure_is_a_timeout_too(self):
        # A pooled worker would have been killed before it could raise, so
        # an inline job that fails beyond its budget classifies as timeout.
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([CaseJob(case="No Such Row", timeout=1e-9, job_id="x")])
        assert result.status == "timeout"
        assert engine.statistics.timed_out == 1


class TestParallelEngine:
    def test_parallel_results_identical_to_sequential(self):
        jobs = _tiny_jobs()
        sequential = EquivalenceEngine(jobs=1).run(jobs)
        parallel = EquivalenceEngine(jobs=2).run(jobs)
        assert _comparable(parallel) == _comparable(sequential)

    def test_pooled_on_result_streams_in_submission_order(self):
        """The pooled path delivers the contiguous done-prefix as it forms:
        submission order, every job exactly once, before run() returns."""
        jobs = _tiny_jobs()
        streamed = []
        results = EquivalenceEngine(jobs=2).run(jobs, on_result=streamed.append)
        assert [r.job_id for r in streamed] == [j.job_id for j in jobs]
        assert streamed == results

    def test_parallel_shares_persistent_cache(self, tmp_path):
        config = CheckerConfig(cache_dir=str(tmp_path / "cache"))
        jobs = [dataclasses.replace(job, config=config) for job in _tiny_jobs()]
        warm_results = EquivalenceEngine(jobs=1).run(jobs)
        parallel_results = EquivalenceEngine(jobs=2).run(jobs)
        assert _comparable(parallel_results) == _comparable(warm_results)
        # Workers answered at least one solver query from the shared store.
        total_hits = sum(
            r.value.statistics.cache.get("hits", 0) for r in parallel_results if r.ok
        )
        assert total_hits > 0

    def test_timeout_terminates_job_and_run_continues(self):
        from repro.protocols import mpls

        results = EquivalenceEngine(jobs=2).run([
            EquivalenceJob(
                mpls.reference_parser(), mpls.REFERENCE_START,
                mpls.vectorized_parser(), mpls.VECTORIZED_START,
                job_id="slow", timeout=0.01,
            ),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="fast"
            ),
        ])
        assert results[0].status == "timeout"
        assert "0.01" in results[0].error
        assert results[1].ok and results[1].value.verdict is True

    def test_single_job_with_multiple_workers_is_pooled(self):
        # jobs > 1 must pool even for one job so its timeout stays enforced.
        [result] = EquivalenceEngine(jobs=2).run([
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
                job_id="only", timeout=60.0,
            )
        ])
        assert result.ok and result.value.verdict is True

    def test_parallel_error_isolation(self):
        results = EquivalenceEngine(jobs=2).run([
            CaseJob(case="No Such Row", job_id="bad"),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="good"
            ),
        ])
        assert [r.job_id for r in results] == ["bad", "good"]
        assert results[0].status == "error"
        assert results[1].ok


def _fast_jobs(prefix, count):
    """Cheap jobs: a 3-bit fixed-length parser checked against itself."""
    return [
        EquivalenceJob(
            fixed_length_automaton(3), "s0", fixed_length_automaton(3), "s0",
            job_id=f"{prefix}{index}",
        )
        for index in range(count)
    ]


def _slow_job(timeout=None):
    """A job that runs for many seconds: the paper-sized Edge row."""
    return CaseJob(case="Edge", full=True, job_id="slow", timeout=timeout)


class TestPooledWorkers:
    """Long-lived workers: a lost worker costs only its job, none outlives run()."""

    def test_timed_out_slot_respawns_for_the_remaining_jobs(self):
        jobs = [_slow_job(timeout=0.05)] + _fast_jobs("fast", 4)
        engine = EquivalenceEngine(jobs=2)
        results = engine.run(jobs)
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        assert results[0].status == "timeout"
        assert "0.05" in results[0].error
        assert all(r.ok and r.value.verdict is True for r in results[1:])
        assert engine.statistics.timed_out == 1
        assert engine.statistics.succeeded == 4

    def test_killed_workers_cost_only_their_jobs(self):
        jobs = _fast_jobs("before", 1) + [_slow_job()] + _fast_jobs("after", 3)
        killed = []

        def kill_workers(result):
            # On the first result one worker is idle and the other is deep
            # inside the slow job.
            if killed:
                return
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=30)
                assert not child.is_alive()
                killed.append(child.pid)

        results = EquivalenceEngine(jobs=2).run(jobs, on_result=kill_workers)
        assert len(killed) == 2
        assert [r.job_id for r in results] == [job.job_id for job in jobs]
        assert results[0].ok
        assert results[1].status == "error"
        assert "worker exited with code" in results[1].error
        assert all(r.ok and r.value.verdict is True for r in results[2:])

    def test_no_worker_outlives_run(self):
        engine = EquivalenceEngine(jobs=2)
        assert all(r.ok for r in engine.run(_fast_jobs("fast", 3)))
        assert multiprocessing.active_children() == []

        def explode(result):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            engine.run(_fast_jobs("fast", 3), on_result=explode)
        assert multiprocessing.active_children() == []


class TestConfigPlumbing:
    """The engine runs each job's config as given, inline or pooled."""

    def test_engine_cache_dir_threaded_into_job_config(self, tmp_path):
        cache_dir = tmp_path / "cache"
        [result] = EquivalenceEngine(jobs=2).run([
            EquivalenceJob(
                tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
                config=CheckerConfig(cache_dir=str(cache_dir)), job_id="cached",
            )
        ])
        assert result.ok, result.error
        assert result.value.statistics.cache.get("stores", 0) > 0
        assert cache_dir.is_dir()

    def test_engine_oracle_cross_checks_every_job(self):
        [result] = EquivalenceEngine(jobs=2).run([
            EquivalenceJob(
                tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
                config=CheckerConfig(oracle_packets=30, oracle_seed=2), job_id="oracled",
            )
        ])
        assert result.ok and result.value.verdict is True
        assert result.value.statistics.oracle["packets"] == 30
        assert result.value.statistics.oracle["divergences"] == 0

    def test_run_cases_through_engine_matches_direct_run(self):
        from repro.reporting import run_cases

        sequential = run_cases(names=["Header initialization"], full=False)
        parallel = run_cases(
            names=["Header initialization", "Speculative loop"], full=False, jobs=2
        )
        assert sequential[0].verdict is True
        assert [m.name for m in parallel] == ["Header initialization", "Speculative loop"]
        assert all(m.verdict is True for m in parallel)
        assert sequential[0].relation_size == parallel[0].relation_size
