"""Pinned digests of the counters every check reports.

Table 2's count columns and the ``statistics`` payload of ``check``,
``scenarios run`` and the service are rendered from the counters one check
records.  The parity suites compare modes with each other; these digests pin
the values themselves, so a refactor of how counters are collected that moves
any count (or drops or renames a key) fails here.  Timings and memory are
left out: they differ from run to run.

The digests must not depend on string hashing: CI runs this file under more
than one ``PYTHONHASHSEED``, so a counter that follows set order fails there
instead of flaking.
"""

import hashlib
import json

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.reporting import render_text, run_cases
from repro.scenarios import get, mini_names

#: name → sha256 of ``json.dumps(_counters(statistics), sort_keys=True)``
#: under the default CheckerConfig.
PINNED = {
    "mini_edge":
        "2aaefabc4e929e484a628b1894cbb56f7b4d8b6237169432c2fd79ff07b13125",
    "mini_service_provider":
        "03909aea5cfd1742d8cbe960ad0778ed7b26f10122e345fff713bba49afc6f91",
    "mini_datacenter":
        "2a41c9da3a9529234b6dfc3be729ccfe72b2a80722ca90c3f24730c20fa4e8cc",
    "mini_enterprise":
        "6d58f6ff3d135c5de8155cf75910fe51ff02619577996b02a8fbc82594fce165",
    "mini_vxlan_gre":
        "e3adddcdd920b5eca5cb4019020bd7230965d580f9d3970123db3ebac8c9eed2",
    "mini_vxlan_gre_broken":
        "87f4f2b81fdf6420b0eddeb5bc4dd59b68d4a36c6626fea17a4826c64a6e59f4",
    "mini_ipv6_ext":
        "1a311861593194ed527e8262a5a2543366dfd2cae3fe528994a89be778cb948d",
    "mini_ipv6_ext_broken":
        "be5f077abe9a739ce6c5949ce4b5323ec940bde4019806b41284dc3ebfb2d90b",
    "mini_qinq":
        "f59365feb9be6a5d4b375bde20b89c3a9b87da716eb34283f9e1dbb2d721f6d2",
    "mini_qinq_broken":
        "6f2d0a981c9aa8674df7dea071fb939977405af841d94f36e5c63d936521c0b7",
    "mini_srv6":
        "fcedcc16e7ea9c9a5d44176617dd03d35ffec4503e20758057ea0a413d4a49e1",
    "mini_srv6_broken":
        "6ea7e8d6e82e960764fd7256069b76b300d9d7af079eae1f908030a95d9659a8",
    "mini_geneve":
        "2af615fb836a99abc1f3beca0b2a0f90d27fcaa4af294de58864c0b9a3d340f2",
    "mini_geneve_broken":
        "ae30f2277eb0929e6c440d9232a3fcaa4e9064d169ff450054527279f7e5382a",
    "mini_arp_icmp":
        "fdfe8c1ddd7ad6d55f3b9e40e72481eb277772b3c1ff752687e5bbaba9421a90",
    "mini_arp_icmp_broken":
        "d8fbcec64e351960bc3aeee336e7c9663a6c64b7bda4f2f3386ed5ba77214a3d",
    "mini_synthetic":
        "acfc156756e352e84c2547f5ec7f563f1a4f0bde9cd4d0589f0a722b3d897432",
    "mini_synthetic_broken":
        "ba913572b9d4463a3c55e656aabe5ff8f53734e882e49e584f46d4676eb752b6",
    "distilled_mini_20220618_internal":
        "d60c1432b08c0c7d08c6bc3bebd324e84b0b49da956419eb00ba59a700b77922",
}

#: sha256 of the scaled Table 2 text, Runtime and Memory masked.
PINNED_TABLE = "1964d003c83ddfbb10c639ea8337cf3435a1534803c28281c9bc51dd51912120"

#: Keys that measure time or memory, not counts.
_TIMINGS = ("total_time", "max_time", "p99_time")


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _counters(statistics) -> dict:
    payload = statistics.as_dict()
    del payload["runtime_seconds"], payload["peak_memory_bytes"]
    payload["solver"] = {
        key: value for key, value in payload["solver"].items() if key not in _TIMINGS
    }
    return payload


@pytest.mark.parametrize("name", mini_names())
def test_counters_are_pinned(name):
    assert name in PINNED, f"pin {name} in PINNED"
    result = check_language_equivalence(*get(name).automata())
    assert _digest(_counters(result.statistics)) == PINNED[name]


def test_table_is_pinned():
    rows = run_cases(full=False, config=CheckerConfig())
    for row in rows:
        row.runtime_seconds = 0.0
        row.peak_memory_mb = 0.0
    text = render_text(rows, title="Table 2 reproduction")
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TABLE
