"""Ethernet stack with an optional VLAN tag (Figure 9): Header Initialization.

A common P4 bug is branching on a header that was never written on some path.
The parser below either extracts a VLAN tag or assigns it a default value
before continuing to IP and UDP; the final state branches on the VLAN field.
Because every path writes ``vlan``, the set of accepted packets is independent
of the initial store, which Leapfrog establishes with a self-comparison whose
two sides use unconstrained, independent initial stores.

``buggy_parser`` omits the default assignment, reintroducing the bug: its
acceptance depends on the uninitialised ``vlan`` header and the independence
check fails with a counterexample.
"""

from __future__ import annotations

from ..p4a.builder import AutomatonBuilder
from ..p4a.syntax import P4Automaton

START = "parse_eth"


def vlan_parser(
    eth_bits: int = 112,
    vlan_bits: int = 32,
    ip_bits: int = 160,
    udp_bits: int = 64,
) -> P4Automaton:
    """The Figure 9 parser with a defaulted optional VLAN tag."""
    builder = AutomatonBuilder("ethernet_vlan")
    builder.header("ether", eth_bits).header("vlan", vlan_bits)
    builder.header("ip", ip_bits).header("udp", udp_bits)
    builder.state("parse_eth").extract("ether").select(
        "ether[0:0]", [("0", "default_vlan"), ("1", "parse_vlan")]
    )
    (
        builder.state("default_vlan")
        .extract("ip")
        .assign("vlan", "0b" + "0" * vlan_bits)
        .goto("parse_udp")
    )
    builder.state("parse_vlan").extract("vlan").goto("parse_ip")
    builder.state("parse_ip").extract("ip").goto("parse_udp")
    builder.state("parse_udp").extract("udp").select(
        "vlan[0:3]", [("1111", "reject"), ("_", "accept")]
    )
    return builder.build()


def buggy_parser(
    eth_bits: int = 112,
    vlan_bits: int = 32,
    ip_bits: int = 160,
    udp_bits: int = 64,
) -> P4Automaton:
    """Same stack, but the default-VLAN path forgets the assignment."""
    builder = AutomatonBuilder("ethernet_vlan_buggy")
    builder.header("ether", eth_bits).header("vlan", vlan_bits)
    builder.header("ip", ip_bits).header("udp", udp_bits)
    builder.state("parse_eth").extract("ether").select(
        "ether[0:0]", [("0", "default_vlan"), ("1", "parse_vlan")]
    )
    builder.state("default_vlan").extract("ip").goto("parse_udp")
    builder.state("parse_vlan").extract("vlan").goto("parse_ip")
    builder.state("parse_ip").extract("ip").goto("parse_udp")
    builder.state("parse_udp").extract("udp").select(
        "vlan[0:3]", [("1111", "reject"), ("_", "accept")]
    )
    return builder.build()
