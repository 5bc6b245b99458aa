#!/usr/bin/env python3
"""External Filtering and Relational Verification (Section 7.1, Figure 10).

The *sloppy* parser treats every non-IPv4 EtherType as IPv6; the *strict*
parser rejects unknown types.  They are not equivalent — and Leapfrog finds a
distinguishing packet — but they are equivalent *modulo an external filter*
that only admits IPv4/IPv6 packets, and whenever both accept, their stores
agree on the EtherType and the selected IP header.

Run with:  python examples/external_filtering.py
"""

from repro import check_language_equivalence, check_store_relation
from repro.core.algorithm import PreBisimulationChecker
from repro.core.reachability import ReachabilityAnalysis
from repro.core.templates import Template, TemplatePair
from repro.protocols import ethernet_ip


def main() -> None:
    sloppy = ethernet_ip.sloppy_parser()
    strict = ethernet_ip.strict_parser()

    # 1. Plain equivalence fails, with a concrete witness.
    plain = check_language_equivalence(sloppy, ethernet_ip.START, strict, ethernet_ip.START)
    print(f"plain equivalence:      {plain}")
    assert plain.refuted
    ether = plain.counterexample.packet.slice(96, 111)
    print(f"  witness EtherType = 0x{ether.to_int():04x} (neither IPv4 nor IPv6)")

    # 2. Equivalence modulo the external filter: acceptance may differ only on
    #    packets whose EtherType is not IPv4/IPv6.
    start_pair = TemplatePair(Template(ethernet_ip.START, 0), Template(ethernet_ip.START, 0))
    reach = ReachabilityAnalysis(sloppy, strict, [start_pair])
    extra = ethernet_ip.external_filter_initial_relation(sloppy, strict, reach)
    checker = PreBisimulationChecker(
        sloppy, strict, ethernet_ip.START, ethernet_ip.START,
        require_equal_acceptance=False, extra_initial=extra,
    )
    filtered = checker.run()
    print(f"modulo external filter: {'PROVED' if filtered.proved else 'NOT PROVED'} "
          f"({filtered.statistics.relation_size} conjuncts)")
    assert filtered.proved

    # 3. Relational verification: when both accept, the stores correspond.
    relation = ethernet_ip.store_correspondence(sloppy, strict)
    relational = check_store_relation(
        sloppy, ethernet_ip.START, strict, ethernet_ip.START, relation,
        require_equal_acceptance=False,
    )
    print(f"store correspondence:   {relational}")
    assert relational.proved


if __name__ == "__main__":
    main()
