"""Pinned verdicts and relation sizes for every registry mini scenario.

The parity suites compare modes with each other; this one pins the values
themselves, so a change to the entailment stack that keeps every mode in
agreement but grows (or shrinks) the relation still shows up.  A new mini
scenario needs its row added here.
"""

import pytest

from repro.core.equivalence import check_language_equivalence
from repro.scenarios import get, mini_names

# name → (verdict, relation_size, reachable_pairs) under the default
# CheckerConfig.
PINNED = {
    "mini_edge": (True, 100, 114),
    "mini_service_provider": (True, 76, 90),
    "mini_datacenter": (True, 32, 43),
    "mini_enterprise": (True, 50, 60),
    "mini_vxlan_gre": (True, 33, 40),
    "mini_vxlan_gre_broken": (False, 35, 39),
    "mini_ipv6_ext": (True, 42, 53),
    "mini_ipv6_ext_broken": (False, 46, 54),
    "mini_qinq": (True, 22, 28),
    "mini_qinq_broken": (False, 19, 24),
    "mini_srv6": (True, 22, 31),
    "mini_srv6_broken": (False, 25, 30),
    "mini_geneve": (True, 25, 33),
    "mini_geneve_broken": (False, 24, 28),
    "mini_arp_icmp": (True, 31, 34),
    "mini_arp_icmp_broken": (False, 21, 25),
    "mini_synthetic": (True, 4, 8),
    "mini_synthetic_broken": (False, 10, 10),
    "distilled_mini_20220618_internal": (False, 5, 8),
}


@pytest.mark.parametrize("name", mini_names())
def test_verdict_and_relation_size_are_pinned(name):
    assert name in PINNED, f"pin {name} in PINNED"
    result = check_language_equivalence(*get(name).automata())
    statistics = result.statistics
    assert (result.verdict, statistics.relation_size,
            statistics.reachable_pairs) == PINNED[name]
