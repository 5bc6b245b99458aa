"""Explicit-state baselines for equivalence checking.

The paper motivates the symbolic algorithm with a back-of-the-envelope count:
even the small MPLS example has on the order of 2^128 concrete configuration
pairs, so any method that enumerates configurations explicitly is hopeless for
realistic parsers.  This module implements that hopeless-but-simple method —
an explicit product-automaton bisimulation check, for fixed initial stores or
for every store of a tiny automaton — both as a baseline for the ablation
benchmarks and as an independent oracle for tiny automata in the test suite.  Random differential testing lives in
:func:`repro.oracle.cross_check`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from ..p4a.bitvec import Bits
from ..p4a.semantics import Store, initial_configuration, step
from ..p4a.syntax import P4Automaton, REJECT


@dataclass
class ExplicitCheckResult:
    """Outcome of an explicit product-space exploration."""

    equivalent: bool
    visited_pairs: int
    counterexample: Optional[Bits] = None


def explicit_bisimulation_check(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    left_store: Optional[Store] = None,
    right_store: Optional[Store] = None,
    max_pairs: int = 2_000_000,
) -> ExplicitCheckResult:
    """Explore the product of the two configuration spaces breadth first.

    This checks language equivalence for *fixed* initial stores.  The packet
    leading to each pair is tracked so a mismatch immediately yields a
    counterexample.  The exploration is exact: if it completes without finding
    a mismatch the two configurations are language equivalent.
    """
    left_initial = initial_configuration(left_aut, left_start, left_store)
    right_initial = initial_configuration(right_aut, right_start, right_store)
    queue = deque([(left_initial, right_initial, Bits(""))])
    seen = {(left_initial, right_initial)}
    visited = 0
    while queue:
        left_config, right_config, packet = queue.popleft()
        visited += 1
        if visited > max_pairs:
            raise RuntimeError(
                f"explicit exploration exceeded {max_pairs} configuration pairs"
            )
        if left_config.is_accepting() != right_config.is_accepting():
            return ExplicitCheckResult(False, visited, packet)
        if left_config.state == REJECT and right_config.state == REJECT:
            # Both sides are stuck in reject: no future packet can distinguish them.
            continue
        for bit in (0, 1):
            next_left = step(left_aut, left_config, bit)
            next_right = step(right_aut, right_config, bit)
            key = (next_left, next_right)
            if key not in seen:
                seen.add(key)
                queue.append((next_left, next_right, packet.concat(Bits("1" if bit else "0"))))
    return ExplicitCheckResult(True, visited)


def all_stores(aut: P4Automaton) -> Iterator[Store]:
    """Enumerate every possible store (exponential; tiny automata only)."""
    names = list(aut.headers)
    widths = [aut.headers[name] for name in names]
    total = sum(widths)
    if total > 24:
        raise ValueError(f"refusing to enumerate 2^{total} stores")
    for assignment in product("01", repeat=total):
        store: Store = {}
        position = 0
        for name, width in zip(names, widths):
            store[name] = Bits("".join(assignment[position : position + width]))
            position += width
        yield store


def exhaustive_store_equivalence(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
) -> ExplicitCheckResult:
    """Explicit equivalence over *all* initial stores of both sides."""
    visited = 0
    for left_store in all_stores(left_aut):
        for right_store in all_stores(right_aut):
            result = explicit_bisimulation_check(
                left_aut, left_start, right_aut, right_start, left_store, right_store
            )
            visited += result.visited_pairs
            if not result.equivalent:
                return ExplicitCheckResult(False, visited, result.counterexample)
    return ExplicitCheckResult(True, visited)
