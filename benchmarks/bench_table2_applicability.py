"""Table 2, applicability rows (Section 7.2): self-comparison of the four
parser-gen scenarios (Edge, Service Provider, Datacenter, Enterprise) plus
the four protocol-family refactoring pairs of the scenario registry.

By default the mini variants of the scenarios are used so the whole benchmark
suite stays in the minutes range with the pure-Python solver; set
``LEAPFROG_FULL=1`` to verify the full protocol stacks (several minutes per
scenario, matching the paper's observation that these are the heavyweight
rows).
"""

import pytest

from repro.core.engine import CaseJob
from repro.reporting import full_scale_requested

_APPLICABILITY_ROWS = [
    "Edge", "Service Provider", "Datacenter", "Enterprise",
    "VXLAN/GRE Tunneling", "IPv6 Extension Chain",
    "QinQ Double Tagging", "ARP/ICMP Control Plane",
]


@pytest.mark.parametrize("name", _APPLICABILITY_ROWS)
def test_applicability_case(benchmark, record_case, engine, checker_config, name):
    full = full_scale_requested()

    def run():
        [result] = engine.run([CaseJob(case=name, full=full, config=checker_config)])
        assert result.ok, result.error
        return result.value

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.verdict is True, f"{name} self-comparison should be proved"
    record_case(outcome.metrics)
