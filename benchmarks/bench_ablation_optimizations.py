"""Ablation of the Section 5 optimizations (discussed in Section 7.3).

The paper reports that disabling leaps blows the smallest benchmark up from
30 seconds / 1.7 GB to 42 minutes / 36 GB, and that it does not finish at all
without reachable-pair pruning.  These benchmarks reproduce the *shape* of that
result on a small speculative-loop instance: every configuration is verified to
still prove equivalence, and the recorded rows show how the number of template
pairs, relation conjuncts and solver queries grows as each optimization is
turned off.  The explicit-state baseline is included as the extreme point.
"""

import dataclasses

import pytest

from repro.core.engine import EquivalenceJob
from repro.core.naive import explicit_bisimulation_check
from repro.protocols import mpls
from repro.reporting import attach_run_statistics, structural_metrics

LABEL_BITS = 2  # small instance so the unpruned variants stay tractable


def _parsers():
    return (
        mpls.scaled_reference(LABEL_BITS),
        mpls.REFERENCE_START,
        mpls.scaled_vectorized(LABEL_BITS),
        mpls.VECTORIZED_START,
    )


# The persistent query cache is pinned off (no cache directory) so the
# ablation measures only the two paper optimizations: a warm cache would
# absorb repeated queries and distort the growth in solver queries across
# variants — the point of this benchmark.  Each variant lists the fields it
# pins; the rest come from the session's resolved checker config.
_CONFIGS = {
    "leaps+reach (paper default)": dict(
        use_leaps=True, use_reachability=True, cache_dir=None
    ),
    "no leaps": dict(use_leaps=False, use_reachability=True, cache_dir=None),
    "no reachability": dict(use_leaps=True, use_reachability=False, cache_dir=None),
    "no leaps, no reachability": dict(
        use_leaps=False, use_reachability=False, cache_dir=None
    ),
}

# The AIG-pipeline ablation: simplifying AIG lowering (with the graph-level
# UNSAT short-circuit) versus the interning-only pipeline.  The lowering layer
# must be invisible to the algorithm above it.
_AIG_CONFIGS = {
    "aig pipeline": dict(cache_dir=None, use_aig=True),
    "no aig": dict(cache_dir=None, use_aig=False),
}


def _variant_jobs(base, variants):
    left, left_start, right, right_start = _parsers()
    return [
        EquivalenceJob(
            left, left_start, right, right_start,
            config=dataclasses.replace(base, **pinned),
            job_id=variant,
        )
        for variant, pinned in variants.items()
    ]


def _run_all(engine, jobs):
    results = engine.run(jobs)
    for result in results:
        assert result.ok, result.error
    return [result.value for result in results]


@pytest.mark.parametrize("variant", list(_CONFIGS))
def test_optimization_ablation(benchmark, record_case, engine, checker_config, variant):
    left, _, right, _ = _parsers()
    jobs = _variant_jobs(checker_config, {variant: _CONFIGS[variant]})

    [result] = benchmark.pedantic(_run_all, args=(engine, jobs), iterations=1, rounds=1)
    assert result.proved
    metrics = structural_metrics(f"Speculative loop [{variant}]", left, right)
    attach_run_statistics(metrics, result.statistics, result.verdict)
    record_case(metrics)


def test_aig_ablation_verdict_parity(benchmark, record_case, engine, checker_config):
    """AIG on/off: identical verdicts, relation sizes and reachable pairs.

    Both rows report the pipeline counters (the off mode still lowers
    through the interning-only graph), but only the simplifying mode saves
    clauses and answers queries on the graph.
    """
    left, _, right, _ = _parsers()
    jobs = _variant_jobs(checker_config, _AIG_CONFIGS)

    with_aig, without_aig = benchmark.pedantic(
        _run_all, args=(engine, jobs), iterations=1, rounds=1
    )
    assert with_aig.verdict is True and without_aig.verdict is True
    assert with_aig.verdict == without_aig.verdict
    assert (with_aig.statistics.relation_size
            == without_aig.statistics.relation_size)
    assert (with_aig.statistics.reachable_pairs
            == without_aig.statistics.reachable_pairs)
    assert with_aig.statistics.ledger["aig.nodes"] > 0
    assert with_aig.statistics.ledger["aig.clauses_saved"] > 0
    assert without_aig.statistics.ledger["aig.shortcuts"] == 0
    for variant, result in zip(_AIG_CONFIGS, (with_aig, without_aig)):
        metrics = structural_metrics(f"Speculative loop [{variant}]", left, right)
        attach_run_statistics(metrics, result.statistics, result.verdict)
        record_case(metrics)


def test_explicit_state_baseline(benchmark, record_case):
    """The fully concrete product exploration the paper argues against."""
    left, left_start, right, right_start = _parsers()

    def run():
        return explicit_bisimulation_check(left, left_start, right, right_start)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.equivalent
    metrics = structural_metrics("Speculative loop [explicit states]", left, right)
    metrics.extra["visited_configuration_pairs"] = result.visited_pairs
    record_case(metrics)
