"""Differential concrete-oracle benchmark: fuzz every registered scenario.

Runs the oracle's cross-check over every scenario in the tagged registry —
the parser-gen deployment graphs (self-comparison plus compiled-hardware
translation) and the protocol-family pairs (reference vs. refactoring, plus
the deliberately broken variants, which must demonstrably diverge) — with a
fixed seed, and fails whenever a row contradicts its expected verdict: the
concrete interpreter is the ground truth the whole symbolic pipeline is
measured against, so a red run here means a real soundness bug (or a sampler
bug), never flakiness.

One benchmark additionally measures the oracle riding on a verification run
(`CheckerConfig.oracle_packets`), which is the configuration the CI smoke job
uses.  ``LEAPFROG_SEED`` overrides the seed, ``LEAPFROG_ORACLE`` the packet
budget.
"""

import dataclasses

import pytest

from repro import envconfig
from repro.core.engine import CaseJob
from repro.oracle.suite import run_differential_suite
from repro.reporting import full_scale_requested
from repro.scenarios import filter_scenarios

_SEED = envconfig.seed_from_env()
if _SEED is None:
    _SEED = 20220613  # PLDI 2022; any fixed value works, it just must be fixed
_PACKETS = envconfig.oracle_packets_from_env() or 128

_MINI_SCENARIOS = [s.name for s in filter_scenarios(size="mini")]
_FULL_SCENARIOS = [s.name for s in filter_scenarios(size="full")]


@pytest.mark.parametrize("name", _MINI_SCENARIOS)
def test_oracle_mini_scenario(benchmark, name):
    [row] = benchmark.pedantic(
        run_differential_suite,
        kwargs=dict(names=[name], packets=_PACKETS, seed=_SEED),
        iterations=1, rounds=1,
    )
    assert row.ok, f"{name}: {row.divergences} divergences (seed {_SEED})"
    if row.kind == "graph":
        assert row.self_report.accepted_left > 0, "sampler never reached acceptance"


@pytest.mark.parametrize("name", _FULL_SCENARIOS)
def test_oracle_full_scenario(benchmark, name):
    """The full protocol stacks are cheap to fuzz even when they are too
    expensive to verify by default — concrete simulation is linear."""
    [row] = benchmark.pedantic(
        run_differential_suite,
        kwargs=dict(names=[name], packets=_PACKETS, seed=_SEED),
        iterations=1, rounds=1,
    )
    assert row.ok, f"{name}: {row.divergences} divergences (seed {_SEED})"


def test_oracle_riding_on_verification(benchmark, record_case, engine, checker_config):
    """Cross-check a Table 2 verdict in the same run that produces it."""
    config = dataclasses.replace(
        checker_config, oracle_packets=_PACKETS, oracle_seed=_SEED
    )
    full = full_scale_requested()

    def run():
        [result] = engine.run([
            CaseJob(case="Translation Validation", full=full, config=config)
        ])
        assert result.ok, result.error
        return result.value

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.verdict is True
    statistics = outcome.metrics.extra
    assert statistics.get("divergences", 0) == 0
    record_case(outcome.metrics)
