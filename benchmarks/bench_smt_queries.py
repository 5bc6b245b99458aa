"""Solver-query statistics (Section 7.3, "SMT Solver Performance").

The paper reports that all queries were solved within 10 seconds and 99%
within 5 seconds.  This benchmark runs a representative verification, collects
the per-query timing distribution from the internal solver and checks the same
shape: the p99 and maximum query times are recorded alongside the run.  A
micro-benchmark of a single representative entailment query is also included.
"""

import time

from repro import counters
from repro.core.entailment import EntailmentChecker
from repro.core.equivalence import check_language_equivalence
from repro.logic.confrel import LEFT, RIGHT, CHdr, CSlice
from repro.logic.simplify import mk_eq
from repro.protocols import mpls
from repro.reporting import attach_run_statistics, structural_metrics
from repro.smt.backend import InternalBackend, OneShotSession
from repro.smt.cache import CachingBackend


def test_query_time_distribution(benchmark, record_case):
    left, right = mpls.reference_parser(), mpls.vectorized_parser()
    backend = InternalBackend()

    def run():
        return check_language_equivalence(
            left, mpls.REFERENCE_START, right, mpls.VECTORIZED_START,
            backend=backend,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.proved
    solver = result.statistics.solver
    metrics = structural_metrics("Speculative loop [query stats]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    metrics.extra["query_p99_seconds"] = round(solver["p99_time"], 4)
    metrics.extra["query_max_seconds"] = round(solver["max_time"], 4)
    record_case(metrics)
    # The paper's observation, scaled to this solver: no query should take
    # longer than a handful of seconds.
    assert solver["max_time"] < 10.0


def test_query_cache_speedup(benchmark, record_case, tmp_path):
    """The persistent fingerprint cache makes a repeated verification faster.

    The same speculative-loop equivalence is proved three times: once against
    a bare internal backend (the uncached baseline), once against a cold
    caching backend (populating its sqlite store), and once — the benchmarked
    run — against the now-warm store.  The warm run answers every fast-path
    query from disk, so it reaches the solver strictly less often than the
    baseline and reports a positive hit rate; wall-clock times for both are
    recorded in the metrics row.
    """
    left, right = mpls.reference_parser(), mpls.vectorized_parser()

    def check(backend):
        return check_language_equivalence(
            left, mpls.REFERENCE_START, right, mpls.VECTORIZED_START,
            backend=backend,
        )

    start = time.perf_counter()
    uncached_result = check(InternalBackend())
    uncached_seconds = time.perf_counter() - start
    assert uncached_result.proved

    cached_backend = CachingBackend(InternalBackend(), str(tmp_path / "cache"))
    assert check(cached_backend).proved  # cold run populates the cache

    result = benchmark.pedantic(lambda: check(cached_backend), iterations=1, rounds=1)
    warm_seconds = result.statistics.runtime_seconds
    assert result.proved

    # Every check counts in a ledger of its own, so this is the warm run's
    # own hit rate (not the cold+warm cumulative one).
    warm_cache = result.statistics.cache
    assert warm_cache["hits"] > 0, "the warm run should answer queries from the cache"
    assert warm_cache["hit_rate"] > 0
    # Deterministic proxy for the speedup: the warm run reaches the solver
    # strictly less often than the uncached baseline.  The wall-clock times
    # are recorded in the metrics row rather than asserted — a one-shot
    # timing comparison is a flake risk on a loaded CI runner.
    warm_solver_queries = result.statistics.solver["queries"]
    assert warm_solver_queries < uncached_result.statistics.solver["queries"]

    metrics = structural_metrics("Speculative loop [warm query cache]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    metrics.extra["uncached_seconds"] = round(uncached_seconds, 4)
    metrics.extra["warm_seconds"] = round(warm_seconds, 4)
    record_case(metrics)


def test_single_entailment_query(benchmark):
    """Micro-benchmark: one 64-bit store-equality entailment check.

    Every round checks on a fresh :class:`EntailmentChecker`, so the outcome
    memo never answers and each round times one real solver query.
    """
    premise = mk_eq(CHdr(LEFT, "udp", 64), CHdr(RIGHT, "udp", 64))
    goal = mk_eq(CHdr(RIGHT, "udp", 64), CHdr(LEFT, "udp", 64))

    with counters.scope() as ledger:
        outcome = benchmark.pedantic(
            lambda checker: checker.check([premise], goal),
            setup=lambda: ((EntailmentChecker(),), {}),
            rounds=100,
        )
    assert outcome.entailed and outcome.method == "smt"
    assert ledger["entailment.memo_hits"] == 0
    assert ledger["solver.queries"] == ledger["entailment.checks"] > 0


# ---------------------------------------------------------------------------
# Incremental session: repeated-premise entailment workload
# ---------------------------------------------------------------------------

_WIDTH = 128
_SLICE = 8


def _repeated_premise_workload(incremental):
    """The inner-loop query pattern of Algorithm 1, distilled.

    A relation of slice equalities over a pair of 128-bit headers grows one
    conjunct at a time; every step checks a prefix goal before and after the
    extension (the skip/extend pattern), and a final sweep re-proves every
    prefix against the full relation (the done step).  Premises only ever
    accumulate, which is exactly the monotone shape the incremental session
    exploits: on a one-shot session, every query re-lowers and re-bit-blasts
    the whole conjunction from scratch.
    """
    backend = InternalBackend()
    session = None if incremental else OneShotSession(backend)
    checker = EntailmentChecker(backend, session=session)
    verdicts = []
    premises = []
    start = time.perf_counter()
    for i in range(_WIDTH // _SLICE):
        lo, hi = i * _SLICE, (i + 1) * _SLICE - 1
        goal = mk_eq(CSlice(CHdr(RIGHT, "h", _WIDTH), 0, hi),
                     CSlice(CHdr(LEFT, "h", _WIDTH), 0, hi))
        verdicts.append(bool(checker.check(premises, goal)))
        premises.append(mk_eq(CSlice(CHdr(LEFT, "h", _WIDTH), lo, hi),
                              CSlice(CHdr(RIGHT, "h", _WIDTH), lo, hi)))
        verdicts.append(bool(checker.check(premises, goal)))
    for i in range(_WIDTH // _SLICE):
        hi = (i + 1) * _SLICE - 1
        goal = mk_eq(CSlice(CHdr(LEFT, "h", _WIDTH), 0, hi),
                     CSlice(CHdr(RIGHT, "h", _WIDTH), 0, hi))
        verdicts.append(bool(checker.check(premises, goal)))
    return time.perf_counter() - start, verdicts, checker


def test_incremental_session_speedup(benchmark, record_case):
    """The incremental session is ≥1.5× faster on repeated-premise queries.

    Both sides run cold — no query cache, fresh backends — so the comparison
    isolates the solving layer itself: one live CNF with assumption-based
    queries versus a fresh lowering + bit-blast + CDCL run per query.  The
    verdict sequences must agree exactly.
    """
    # Warm-up outside the timed region (imports, first-touch allocations).
    _repeated_premise_workload(True)
    _repeated_premise_workload(False)

    baseline_seconds, baseline_verdicts, _ = min(
        (_repeated_premise_workload(False) for _ in range(3)),
        key=lambda run: run[0],
    )
    incremental_runs = [_repeated_premise_workload(True) for _ in range(2)]
    incremental_runs.append(
        benchmark.pedantic(lambda: _repeated_premise_workload(True),
                           iterations=1, rounds=1)
    )
    incremental_seconds, incremental_verdicts, checker = min(
        incremental_runs, key=lambda run: run[0]
    )

    assert incremental_verdicts == baseline_verdicts
    speedup = baseline_seconds / incremental_seconds
    metrics = structural_metrics(
        "Repeated-premise entailment [incremental session]",
        mpls.reference_parser(), mpls.vectorized_parser(),
    )
    metrics.extra["baseline_seconds"] = round(baseline_seconds, 4)
    metrics.extra["incremental_seconds"] = round(incremental_seconds, 4)
    metrics.extra["speedup"] = round(speedup, 2)
    metrics.extra["session_clauses"] = checker._session.num_clauses
    record_case(metrics)
    assert speedup >= 1.5, (
        f"incremental session speedup {speedup:.2f}x below the 1.5x floor "
        f"(baseline {baseline_seconds:.3f}s, incremental {incremental_seconds:.3f}s)"
    )


# ---------------------------------------------------------------------------
# AIG lowering pipeline: entailed-sweep workload
# ---------------------------------------------------------------------------


def _entailed_sweep_workload(use_aig, sweeps=4):
    """Algorithm 1's dominant query profile, distilled: entailed checks.

    Most solver queries in a successful verification are *entailed* ones —
    the skip checks that prune already-covered template pairs and the final
    done-step sweep.  This workload pushes all slice-equality premises over a
    pair of 128-bit headers, then sweeps goal slices against the full
    relation (goals swap the LEFT/RIGHT operand order so the checker's
    syntactic premise==goal test never fires).  Sweep ``s`` starts its goal
    slices at bit ``s``, so no query repeats one the checker's outcome memo
    has answered and every query reaches the one live session.  With the AIG
    pipeline on, each such query collapses to FALSE on the graph — constant
    propagation and complement folding answer it with zero CDCL work; with it
    off, every query is a fresh assumption-based CDCL solve.  Returns the
    elapsed time, the verdicts and the run's counter ledger.
    """
    with counters.scope() as ledger:
        checker = EntailmentChecker(InternalBackend(use_aig=use_aig))
        verdicts = []
        premises = []
        start = time.perf_counter()
        for i in range(_WIDTH // _SLICE):
            lo, hi = i * _SLICE, (i + 1) * _SLICE - 1
            premises.append(mk_eq(CSlice(CHdr(LEFT, "h", _WIDTH), lo, hi),
                                  CSlice(CHdr(RIGHT, "h", _WIDTH), lo, hi)))
            goal = mk_eq(CSlice(CHdr(RIGHT, "h", _WIDTH), 0, hi),
                         CSlice(CHdr(LEFT, "h", _WIDTH), 0, hi))
            verdicts.append(bool(checker.check(premises, goal)))
        for sweep in range(1, sweeps + 1):
            for i in range(_WIDTH // _SLICE):
                hi = (i + 1) * _SLICE - 1
                goal = mk_eq(CSlice(CHdr(RIGHT, "h", _WIDTH), sweep, hi),
                             CSlice(CHdr(LEFT, "h", _WIDTH), sweep, hi))
                verdicts.append(bool(checker.check(premises, goal)))
    return time.perf_counter() - start, verdicts, ledger


def test_aig_speedup(benchmark, record_case):
    """The AIG pipeline is ≥1.5× faster on entailed-query workloads.

    Both sides run cold — fresh backends, no query cache, incremental
    sessions on — so the comparison isolates the lowering layer: simplifying
    AIG construction with the graph-level UNSAT short-circuit versus the
    interning-only pipeline that hands every query to CDCL.  The verdict
    sequences must agree exactly, and every query in the workload must be
    answered on the graph: no query is absorbed by the outcome memo, and
    every session query is a graph short-circuit.
    """
    # Warm-up outside the timed region (imports, first-touch allocations).
    _entailed_sweep_workload(True)
    _entailed_sweep_workload(False)

    baseline_seconds, baseline_verdicts, _ = min(
        (_entailed_sweep_workload(False) for _ in range(3)),
        key=lambda run: run[0],
    )
    aig_runs = [_entailed_sweep_workload(True) for _ in range(2)]
    aig_runs.append(
        benchmark.pedantic(lambda: _entailed_sweep_workload(True),
                           iterations=1, rounds=1)
    )
    aig_seconds, aig_verdicts, ledger = min(aig_runs, key=lambda run: run[0])

    assert aig_verdicts == baseline_verdicts
    assert all(aig_verdicts), "every sweep query should be entailed"
    assert ledger["entailment.memo_hits"] == 0
    assert ledger["solver.queries"] == len(aig_verdicts)
    assert ledger["aig.shortcuts"] == ledger["solver.queries"], (
        "every entailed query should be answered by the graph short-circuit"
    )
    assert ledger["aig.clauses_saved"] > 0

    speedup = baseline_seconds / aig_seconds
    metrics = structural_metrics(
        "Entailed-sweep entailment [AIG pipeline]",
        mpls.reference_parser(), mpls.vectorized_parser(),
    )
    metrics.extra["baseline_seconds"] = round(baseline_seconds, 4)
    metrics.extra["aig_seconds"] = round(aig_seconds, 4)
    metrics.extra["speedup"] = round(speedup, 2)
    metrics.extra["aig_nodes"] = ledger["aig.nodes"]
    metrics.extra["aig_saved"] = ledger["aig.clauses_saved"]
    metrics.extra["aig_shortcuts"] = ledger["aig.shortcuts"]
    record_case(metrics)
    assert speedup >= 1.5, (
        f"AIG pipeline speedup {speedup:.2f}x below the 1.5x floor "
        f"(baseline {baseline_seconds:.3f}s, AIG {aig_seconds:.3f}s)"
    )
