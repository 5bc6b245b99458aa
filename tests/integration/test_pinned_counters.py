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
        "4bd81edbf1f67546e99b904198a33a1df8dc3368161c0f24d2d37d8a876f4dd8",
    "mini_service_provider":
        "02051d138c74dbaaa092712285031e93cd7db4889c02a1eaec65d56494a25d5e",
    "mini_datacenter":
        "abe27dcaee726f5fb1239329d46ecce2b5e961a01b21451636737c012285de5f",
    "mini_enterprise":
        "65748a168336c5bb330298a053276766405aa17438707f6a15f88fc437f53ddc",
    "mini_vxlan_gre":
        "926c52e0026c80f2749566f3bf938b2394b060872f4e66811d3089995a962f39",
    "mini_vxlan_gre_broken":
        "3893e41e943a286e936b6f6340cbad74f1d95e4152e6f5cd04271374f0af5d83",
    "mini_ipv6_ext":
        "cbf2d003d610377a38d8c01d34d3b6601d175662bad21073b6d202a2d8c97b9e",
    "mini_ipv6_ext_broken":
        "7bdb97cbd9c7b5076f913b14215d81453efc2a2c60ea15545c63bdb78fc7e4b7",
    "mini_qinq":
        "d1db8c96409ed92bb833057371ade4bfcf970ac311c7873639d10c12529aaac0",
    "mini_qinq_broken":
        "7edeeaf4e434f8e4af33df726e635cbd5c5b9e732d970af4bd31c027bd506ca5",
    "mini_srv6":
        "cb3385e0e345e731778b3ef9bcce11bb62e4d3adc0dc7f9673d810e2ec25c1c1",
    "mini_srv6_broken":
        "4f360b2464f9ce47468f2b703757cdae53b580a1fccde59f670aca208675dd0d",
    "mini_geneve":
        "5c8ca62599f20614787284ed944422e3f0dd74a0aca31c4ae36e616a49bd5aef",
    "mini_geneve_broken":
        "6ef7c768f69c9c1df620aaa0728d5da9d18e3528f6ef4ce6836f0bb5a5825658",
    "mini_arp_icmp":
        "9c9dd3c474a1f2759a3bcc479e7cbd8580efbcf588bfd88999ff54e2b18a0b9d",
    "mini_arp_icmp_broken":
        "c26fe545c5899755caf59632250dea88617e7b589a1cf4d0a7ccbb2e175adeb2",
    "mini_synthetic":
        "ea847f15cf5172467dc71e4e2471fc9c852015199e0b059883c33d8526fbcb2b",
    "mini_synthetic_broken":
        "0836832f613ca5d569aec9747a4ae4fb03419b8d8ccd75dda6ed84764e3d36c0",
    "distilled_mini_20220618_internal":
        "2ae21afccf28d0007fb1273af651fe504102b29fc8a41b4acf41a3edd94de8e1",
}

#: sha256 of the scaled Table 2 text, Runtime and Memory masked.
PINNED_TABLE = "3641b143404363e7716b1aef57cc374010a1d4b2b913f5f4354ee8a781eab480"

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
