#!/usr/bin/env python3
"""Translation validation of the parser-gen compiler (Section 7.2, Figure 8).

A parse graph for an edge router is compiled onto the TCAM-driven hardware
parser engine, the resulting table is translated back into a P4 automaton, and
Leapfrog proves the round trip preserves the accepted language.

Run with:  python examples/translation_validation.py          (mini scenario, seconds)
           LEAPFROG_FULL=1 python examples/translation_validation.py   (full Edge router)
"""

import os

from repro import check_language_equivalence
from repro.parsergen import compile_graph, graph_to_p4a, hardware_to_p4a, scenario


def main() -> None:
    full = os.environ.get("LEAPFROG_FULL", "0") == "1"
    name = "edge" if full else "mini_edge"
    graph = scenario(name)
    print(f"Scenario: {name} ({len(graph.nodes)} parse-graph nodes)")

    original, start = graph_to_p4a(graph)
    hardware = compile_graph(graph)
    print(f"Compiled hardware table: {len(hardware.entries)} entries, "
          f"{len(hardware.states())} states")
    print()
    print("\n".join(hardware.dump().splitlines()[:10]))
    print("  ...")

    translated, translated_start = hardware_to_p4a(hardware)
    print(f"\nBack-translated P4 automaton: {len(translated.states)} states")

    result = check_language_equivalence(original, start, translated, translated_start)
    print(f"\nTranslation validation verdict: {result}")
    stats = result.statistics
    print(f"  ({stats.relation_size} conjuncts, {stats.solver['queries']} solver queries, "
          f"{stats.runtime_seconds:.1f}s)")
    assert result.proved, "the compiler should preserve the accepted language"


if __name__ == "__main__":
    main()
