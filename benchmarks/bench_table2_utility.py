"""Table 2, utility rows (Section 7.1).

One benchmark per utility case study: State Rearrangement, Variable-length
parsing, Header initialization, Speculative loop, Relational verification and
External filtering.  Each benchmark runs the full verification (proof search +
entailment checking through the internal solver) and records the Table 2 row.
"""

import pytest

from repro.core.engine import CaseJob
from repro.reporting import full_scale_requested

_UTILITY_ROWS = [
    "State Rearrangement",
    "Variable-length parsing",
    "Header initialization",
    "Speculative loop",
    "Relational verification",
    "External filtering",
]


@pytest.mark.parametrize("name", _UTILITY_ROWS)
def test_utility_case(benchmark, record_case, engine, checker_config, name):
    full = full_scale_requested()

    def run():
        [result] = engine.run([CaseJob(case=name, full=full, config=checker_config)])
        assert result.ok, result.error
        return result.value

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.verdict is True, f"{name} should be proved"
    record_case(outcome.metrics)
