"""Shared fixtures and reporting for the benchmark harness.

Each benchmark runs one Table 2 case study through the same runner the CLI
uses and registers the resulting row; at the end of the session the collected
rows are printed in the paper's column layout so the output can be compared
against Table 2 directly (and pasted into EXPERIMENTS.md).

``LEAPFROG_FULL=1`` switches the expensive studies to their paper-sized
configurations; the default keeps every benchmark in the seconds-to-minutes
range on a laptop with the pure-Python solver.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.engine import EquivalenceEngine
from repro.envconfig import jobs_from_env, resolve_checker_config
from repro.reporting import CaseMetrics, render_text

_COLLECTED: List[CaseMetrics] = []


@pytest.fixture(scope="session")
def checker_config() -> CheckerConfig:
    """The checker configuration every benchmark job carries as ``config=``.

    Resolved once from the environment by
    :func:`repro.envconfig.resolve_checker_config`: ``LEAPFROG_CACHE_DIR``
    enables the persistent solver-query cache, ``LEAPFROG_INCREMENTAL=0/1``
    and ``LEAPFROG_AIG=0/1`` pin the incremental solver session and the
    simplifying AIG lowering pipeline, and ``LEAPFROG_ORACLE``/
    ``LEAPFROG_SEED`` cross-check every verdict against that many seeded
    concrete packets (the solver variables apply too), so the same benchmark
    files measure cold, warm, ablation and oracle configurations without
    edits.  Memory is tracked because the end-of-session table shows it.  A
    malformed value fails the session with a clear message instead of a
    bare ``ValueError``.
    """
    return resolve_checker_config({"track_memory": True})


@pytest.fixture
def engine() -> EquivalenceEngine:
    """The execution engine every benchmark routes its verification through;
    ``LEAPFROG_JOBS`` selects the worker count (default 1, the sequential
    baseline)."""
    return EquivalenceEngine(jobs=jobs_from_env())


@pytest.fixture
def record_case():
    """Benchmarks call this with the CaseMetrics row they produced."""

    def _record(metrics: CaseMetrics) -> CaseMetrics:
        _COLLECTED.append(metrics)
        return metrics

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _COLLECTED:
        print("\n")
        print(render_text(_COLLECTED, title="Leapfrog reproduction — Table 2 rows measured this session"))
