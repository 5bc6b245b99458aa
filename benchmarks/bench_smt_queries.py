"""Solver-query statistics (Section 7.3, "SMT Solver Performance").

The paper reports that all queries were solved within 10 seconds and 99%
within 5 seconds.  This benchmark runs a representative verification, collects
the per-query timing distribution from the internal solver and checks the same
shape: the p99 and maximum query times are recorded alongside the run.  A
micro-benchmark of a single representative entailment query is also included.
"""

import time

from repro import envconfig
from repro.core.algorithm import CheckerConfig
from repro.core.entailment import EntailmentChecker
from repro.core.equivalence import check_language_equivalence
from repro.logic.confrel import LEFT, RIGHT, CHdr, CSlice
from repro.logic.simplify import mk_eq
from repro.protocols import mpls
from repro.reporting import attach_run_statistics, structural_metrics
from repro.smt.backend import InternalBackend, PortfolioBackend
from repro.smt.cache import CachingBackend

# LEAPFROG_INCREMENTAL=0/1 pins the incremental solver session for the
# distribution and micro benchmarks, and LEAPFROG_PORTFOLIO=0/1 pins the
# backend the distribution benchmark routes queries through, so CI can
# record both timing profiles as separate artifacts.  The explicit
# on-vs-off comparisons below always measure both sides regardless of the
# environment.
_INCREMENTAL = envconfig.incremental_from_env()
_PORTFOLIO = envconfig.portfolio_from_env()
_CONFIG = CheckerConfig(
    use_incremental=True if _INCREMENTAL is None else _INCREMENTAL,
    use_query_cache=False,
)


def _distribution_backend():
    return PortfolioBackend() if _PORTFOLIO else InternalBackend()


def test_query_time_distribution(benchmark, record_case):
    left, right = mpls.reference_parser(), mpls.vectorized_parser()
    backend = _distribution_backend()

    def run():
        return check_language_equivalence(
            left, mpls.REFERENCE_START, right, mpls.VECTORIZED_START,
            backend=backend, config=_CONFIG, find_counterexamples=False,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.proved
    stats = backend.statistics
    metrics = structural_metrics("Speculative loop [query stats]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    metrics.extra["query_p99_seconds"] = round(stats.percentile_time(0.99), 4)
    metrics.extra["query_max_seconds"] = round(stats.max_time, 4)
    record_case(metrics)
    # The paper's observation, scaled to this solver: no query should take
    # longer than a handful of seconds.
    assert stats.max_time < 10.0


def test_query_cache_speedup(benchmark, record_case):
    """The fingerprint cache makes a repeated verification measurably faster.

    The same speculative-loop equivalence is proved three times: once against
    a bare internal backend (the uncached baseline), once against a cold
    caching backend (populating it), and once — the benchmarked run — against
    the now-warm cache.  The warm run answers every fast-path query from the
    memo, so it reaches the solver strictly less often than the baseline and
    reports a positive hit rate; wall-clock times for both are recorded in
    the metrics row.
    """
    left, right = mpls.reference_parser(), mpls.vectorized_parser()

    def check(backend):
        return check_language_equivalence(
            left, mpls.REFERENCE_START, right, mpls.VECTORIZED_START,
            backend=backend, find_counterexamples=False,
        )

    start = time.perf_counter()
    uncached_result = check(InternalBackend())
    uncached_seconds = time.perf_counter() - start
    assert uncached_result.proved

    cached_backend = CachingBackend(InternalBackend())
    assert check(cached_backend).proved  # cold run populates the cache
    solves_before_warm = cached_backend.statistics.queries

    result = benchmark.pedantic(lambda: check(cached_backend), iterations=1, rounds=1)
    warm_seconds = result.statistics.runtime_seconds
    assert result.proved

    # The checker's statistics delta the shared backend's counters, so this
    # is the warm run's own hit rate (not the cold+warm cumulative one).
    warm_cache = result.statistics.cache
    assert warm_cache["hits"] > 0, "the warm run should answer queries from the cache"
    assert warm_cache["hit_rate"] > 0
    # Deterministic proxy for the speedup: the warm run reaches the solver
    # strictly less often than the uncached baseline (the backend's counter
    # is cumulative across the cold and warm runs, hence the delta).  The
    # wall-clock times are recorded in the metrics row rather than asserted —
    # a one-shot timing comparison is a flake risk on a loaded CI runner.
    warm_solver_queries = cached_backend.statistics.queries - solves_before_warm
    assert warm_solver_queries < uncached_result.statistics.solver["queries"]

    metrics = structural_metrics("Speculative loop [warm query cache]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    metrics.extra["uncached_seconds"] = round(uncached_seconds, 4)
    metrics.extra["warm_seconds"] = round(warm_seconds, 4)
    record_case(metrics)


def test_single_entailment_query(benchmark):
    """Micro-benchmark: one 64-bit store-equality entailment check."""
    checker = EntailmentChecker(
        use_incremental=True if _INCREMENTAL is None else _INCREMENTAL
    )
    premise = mk_eq(CHdr(LEFT, "udp", 64), CHdr(RIGHT, "udp", 64))
    goal = mk_eq(CHdr(RIGHT, "udp", 64), CHdr(LEFT, "udp", 64))

    outcome = benchmark(lambda: checker.check([premise], goal))
    assert outcome.entailed


# ---------------------------------------------------------------------------
# Incremental session: repeated-premise entailment workload
# ---------------------------------------------------------------------------

_WIDTH = 128
_SLICE = 8


def _repeated_premise_workload(use_incremental):
    """The inner-loop query pattern of Algorithm 1, distilled.

    A relation of slice equalities over a pair of 128-bit headers grows one
    conjunct at a time; every step checks a prefix goal before and after the
    extension (the skip/extend pattern), and a final sweep re-proves every
    prefix against the full relation (the done step).  Premises only ever
    accumulate, which is exactly the monotone shape the incremental session
    exploits: with the session off, every query re-lowers and re-bit-blasts
    the whole conjunction from scratch.
    """
    checker = EntailmentChecker(InternalBackend(), use_incremental=use_incremental)
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
    pair of 128-bit headers, then repeatedly re-proves every prefix goal
    against the full relation (goals swap the LEFT/RIGHT operand order so the
    checker's syntactic premise==goal test never fires).  With the AIG
    pipeline on, each such query collapses to FALSE on the graph — constant
    propagation and complement folding answer it with zero CDCL work; with it
    off, every query is a fresh assumption-based CDCL solve.
    """
    checker = EntailmentChecker(
        InternalBackend(use_aig=use_aig), use_incremental=True
    )
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
    for _ in range(sweeps):
        for i in range(_WIDTH // _SLICE):
            hi = (i + 1) * _SLICE - 1
            goal = mk_eq(CSlice(CHdr(RIGHT, "h", _WIDTH), 0, hi),
                         CSlice(CHdr(LEFT, "h", _WIDTH), 0, hi))
            verdicts.append(bool(checker.check(premises, goal)))
    return time.perf_counter() - start, verdicts, checker


def test_aig_speedup(benchmark, record_case):
    """The AIG pipeline is ≥1.5× faster on entailed-query workloads.

    Both sides run cold — fresh backends, no query cache, incremental
    sessions on — so the comparison isolates the lowering layer: simplifying
    AIG construction with the graph-level UNSAT short-circuit versus the
    interning-only pipeline that hands every query to CDCL.  The verdict
    sequences must agree exactly, and every query in the workload must be
    answered on the graph (the shortcut counter covers the whole run).
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
    aig_seconds, aig_verdicts, checker = min(aig_runs, key=lambda run: run[0])

    assert aig_verdicts == baseline_verdicts
    assert all(aig_verdicts), "every sweep query should be entailed"
    stats = checker.statistics
    assert stats.aig_shortcuts == len(aig_verdicts), (
        "every entailed query should be answered by the graph short-circuit"
    )
    assert stats.aig_clauses_saved > 0

    speedup = baseline_seconds / aig_seconds
    metrics = structural_metrics(
        "Entailed-sweep entailment [AIG pipeline]",
        mpls.reference_parser(), mpls.vectorized_parser(),
    )
    metrics.extra["baseline_seconds"] = round(baseline_seconds, 4)
    metrics.extra["aig_seconds"] = round(aig_seconds, 4)
    metrics.extra["speedup"] = round(speedup, 2)
    metrics.extra["aig_nodes"] = stats.aig_nodes
    metrics.extra["aig_saved"] = stats.aig_clauses_saved
    metrics.extra["aig_shortcuts"] = stats.aig_shortcuts
    record_case(metrics)
    assert speedup >= 1.5, (
        f"AIG pipeline speedup {speedup:.2f}x below the 1.5x floor "
        f"(baseline {baseline_seconds:.3f}s, AIG {aig_seconds:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Learned-clause database management: long incremental churn
# ---------------------------------------------------------------------------

_DB_VARS = 150
_DB_CLAUSES = 620
_DB_ROUNDS = 80
_DB_ASSUMPTIONS = 8
_DB_CAP = 500
_DB_SEED = 7


def _clause_db_problem(seed=_DB_SEED):
    """A fixed random 3-CNF near the satisfiability threshold.

    Every assumption round below hits the same variable pool, so learned
    clauses from earlier rounds stay on hot watch lists — without reduction
    the solver drags an ever-growing database through every propagation.
    """
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(_DB_CLAUSES):
        chosen = rng.sample(range(1, _DB_VARS + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def _clause_db_churn(clause_db_max, rounds=_DB_ROUNDS, seed=_DB_SEED):
    """One long incremental session: ``rounds`` assumption-based solves.

    Returns (seconds, verdicts, stats, live learned clauses at the end).
    """
    import random

    from repro.smt.sat.solver import CdclSolver

    solver = CdclSolver(clause_db_max=clause_db_max)
    for clause in _clause_db_problem(seed):
        solver.add_clause(clause)
    rng = random.Random(seed + 1)
    start = time.perf_counter()
    verdicts = []
    for _ in range(rounds):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, _DB_VARS + 1), _DB_ASSUMPTIONS)
        ]
        sat, _ = solver.solve(assumptions=assumptions)
        verdicts.append(sat)
    return time.perf_counter() - start, verdicts, solver.stats, solver.learned_live


def test_clause_db_reduction_speedup(benchmark, record_case):
    """DB reduction is ≥1.5× faster on long incremental churn, same verdicts.

    Both sides run the identical deterministic assumption stream through one
    incremental CDCL solver; the capped side periodically deletes high-LBD
    inactive learned clauses, the uncapped side keeps every one forever.  The
    verdict sequences must agree exactly, the capped database must stay
    bounded, and the uncapped one must actually have grown past the cap
    (otherwise the comparison measured nothing).
    """
    # Warm-up outside the timed region (imports, first-touch allocations).
    _clause_db_churn(_DB_CAP, rounds=4)

    unbounded_seconds, unbounded_verdicts, unbounded_stats, unbounded_live = min(
        (_clause_db_churn(0) for _ in range(2)), key=lambda run: run[0]
    )
    capped_runs = [_clause_db_churn(_DB_CAP)]
    capped_runs.append(
        benchmark.pedantic(lambda: _clause_db_churn(_DB_CAP),
                           iterations=1, rounds=1)
    )
    capped_seconds, capped_verdicts, capped_stats, capped_live = min(
        capped_runs, key=lambda run: run[0]
    )

    assert capped_verdicts == unbounded_verdicts
    assert capped_stats.db_reductions > 0
    assert capped_stats.clauses_deleted > 0
    assert capped_live <= _DB_CAP, (
        f"reduction left {capped_live} live learned clauses above the "
        f"{_DB_CAP}-clause cap"
    )
    assert unbounded_live > _DB_CAP, (
        "the unbounded run never outgrew the cap; the workload is too easy "
        "to measure reduction"
    )
    assert unbounded_stats.db_reductions == 0

    speedup = unbounded_seconds / capped_seconds
    metrics = structural_metrics(
        "Assumption churn [clause-DB reduction]",
        mpls.reference_parser(), mpls.vectorized_parser(),
    )
    metrics.extra["unbounded_seconds"] = round(unbounded_seconds, 4)
    metrics.extra["capped_seconds"] = round(capped_seconds, 4)
    metrics.extra["speedup"] = round(speedup, 2)
    metrics.extra["clauses_deleted"] = capped_stats.clauses_deleted
    metrics.extra["db_reductions"] = capped_stats.db_reductions
    metrics.extra["avg_lbd"] = round(capped_stats.avg_lbd, 1)
    record_case(metrics)
    assert speedup >= 1.5, (
        f"clause-DB reduction speedup {speedup:.2f}x below the 1.5x floor "
        f"(unbounded {unbounded_seconds:.3f}s, capped {capped_seconds:.3f}s)"
    )


def test_clause_db_verdict_parity():
    """The clause-DB cap never changes a verdict or the bisimulation.

    Every registry mini scenario is checked twice — reduction at the solver
    default and reduction off (``clause_db_max=0``) — and the verdicts and
    relation sizes must match: deleting learned clauses only forgets lemmas,
    it can never change what is derivable.
    """
    from repro.core.equivalence import check_language_equivalence
    from repro.scenarios import get, mini_names

    for name in mini_names():
        left, left_start, right, right_start = get(name).automata()

        def check(cap):
            return check_language_equivalence(
                left, left_start, right, right_start,
                config=CheckerConfig(track_memory=False, clause_db_max=cap),
                find_counterexamples=False,
            )

        managed = check(None)   # the solver default: reduction on
        unbounded = check(0)    # keep every learned clause forever
        assert managed.verdict == unbounded.verdict, (
            f"{name}: clause-DB reduction changed the verdict "
            f"({managed.verdict} vs {unbounded.verdict})"
        )
        assert (managed.statistics.relation_size
                == unbounded.statistics.relation_size), (
            f"{name}: clause-DB reduction changed the bisimulation size"
        )


# ---------------------------------------------------------------------------
# Portfolio mode: on-vs-off parity on a full verification
# ---------------------------------------------------------------------------


def test_portfolio_on_off_parity(benchmark, record_case):
    """Portfolio mode never changes a verdict and accounts for every query.

    The speculative-loop equivalence is proved twice — once against a plain
    internal backend, once against the portfolio race (internal CDCL plus
    whatever external solvers are on PATH; in a bare container the race
    degenerates to the internal lane, which still exercises the full
    worker/cancellation machinery).  The verdicts must agree and the lane
    win counters must cover every query the portfolio answered.
    """
    left, right = mpls.reference_parser(), mpls.vectorized_parser()

    def check(backend):
        return check_language_equivalence(
            left, mpls.REFERENCE_START, right, mpls.VECTORIZED_START,
            backend=backend, config=_CONFIG, find_counterexamples=False,
        )

    start = time.perf_counter()
    plain_result = check(InternalBackend())
    plain_seconds = time.perf_counter() - start

    portfolio = PortfolioBackend()
    result = benchmark.pedantic(lambda: check(portfolio), iterations=1, rounds=1)
    portfolio_seconds = result.statistics.runtime_seconds

    assert result.verdict == plain_result.verdict
    assert result.proved
    wins = sum(counters["wins"] for counters in portfolio.lane_counters.values())
    assert wins == portfolio.statistics.queries, (
        "every portfolio query should be accounted to a winning lane"
    )

    metrics = structural_metrics("Speculative loop [portfolio race]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    metrics.extra["plain_seconds"] = round(plain_seconds, 4)
    metrics.extra["portfolio_seconds"] = round(portfolio_seconds, 4)
    metrics.extra["lanes"] = " ".join(
        f"{lane}:{counters['wins']}"
        for lane, counters in sorted(portfolio.lane_counters.items())
    )
    record_case(metrics)
