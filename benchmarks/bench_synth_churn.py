"""Engine throughput on batches of synthesized automaton pairs.

The mutation-based synthesizer (:mod:`repro.synth`) labels every pair it
emits, so a batch doubles as a correctness gate: the engine must agree with
the ground truth on every pair, equivalent or broken, while the benchmark
clock measures end-to-end churn — proof search, counterexample extraction
and certificate construction across a mixed workload.

``LEAPFROG_JOBS`` spreads the batch over worker processes (the scale
configuration PR 1's engine was built for), ``LEAPFROG_SEED`` moves the
whole batch to a different region of the seed space, and
``LEAPFROG_ORACLE`` additionally cross-checks every verdict concretely.
"""

import time

from repro import envconfig
from repro.core.engine import EquivalenceJob
from repro.synth import synthesize_batch

_SEED = envconfig.seed_from_env()
if _SEED is None:
    _SEED = 20220613
_COUNT = 24


def _jobs(pairs, config):
    return [
        EquivalenceJob(
            pair.left, pair.left_start, pair.right, pair.right_start,
            config=config, job_id=pair.name,
        )
        for pair in pairs
    ]


def test_synthesis_throughput(benchmark):
    """Generation alone: pairs per second out of the synthesizer."""
    start = time.perf_counter()
    pairs = benchmark.pedantic(
        synthesize_batch, args=(_COUNT, _SEED), iterations=1, rounds=1
    )
    elapsed = time.perf_counter() - start
    assert len(pairs) == _COUNT
    assert elapsed < 60, "synthesis is supposed to be cheap relative to checking"
    # Ground-truth invariants: broken pairs ship a replayable witness.
    for pair in pairs:
        if not pair.expected_equivalent:
            assert pair.replay_witness(), pair.name


def test_synth_churn_agreement(benchmark, engine, checker_config):
    """The headline number: checked pairs per second, with 100% agreement."""
    pairs = synthesize_batch(_COUNT, _SEED)

    def run():
        return engine.run(_jobs(pairs, checker_config))

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    mismatches = []
    for pair, result in zip(pairs, results):
        assert result.ok, f"{pair.name}: {result.status} {result.error}"
        verdict = result.value.verdict
        observed = (
            "unknown" if verdict is None
            else "equivalent" if verdict else "not_equivalent"
        )
        if observed != pair.verdict:
            mismatches.append((pair.name, pair.verdict, observed, pair.transforms))
    assert not mismatches, mismatches


def test_synth_churn_broken_only(benchmark, engine, checker_config):
    """Refutation-heavy batch: every job must find a counterexample."""
    pairs = [
        pair for pair in synthesize_batch(2 * _COUNT, _SEED + 1000)
        if not pair.expected_equivalent
    ][:_COUNT // 2]

    def run():
        return engine.run(_jobs(pairs, checker_config))

    results = benchmark.pedantic(run, iterations=1, rounds=1)
    for pair, result in zip(pairs, results):
        assert result.ok, f"{pair.name}: {result.status} {result.error}"
        assert result.value.verdict is False, pair.name
        assert result.value.counterexample is not None, pair.name
