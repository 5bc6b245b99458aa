"""Concrete confirmation and greedy minimization of counterexamples.

A refutation is only convincing if its witness is (a) *real* — both parsers,
run concretely, actually disagree on it — and (b) *small* — a 24-bit packet
that flips one branch is debuggable, a 4096-bit SAT model is not.  This module
provides both:

* :func:`confirm_counterexample` replays the packet through the concrete
  interpreter and checks the recorded verdicts;
* :func:`minimize_counterexample` shrinks a confirmed witness with two
  greedy passes —

  1. **leap-drop**: remove one whole leap's bits at a time and keep every
     drop the concrete replay still confirms (loops shrink this way — a
     distinguishing MPLS stack rarely needs all its labels);
  2. **bit-drop**: the same at single-bit granularity, capped by width so
     minimization stays linear-ish on big packets.

No solver is involved: every candidate is validated by concrete replay
only, so the minimizer can never produce an unconfirmed witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.counterexample import Counterexample
from ..p4a.bitvec import Bits
from ..p4a.semantics import BlockRunner, Store, accepts
from ..p4a.syntax import P4Automaton


@dataclass
class MinimizationResult:
    """What the minimizer did to one counterexample."""

    counterexample: Counterexample
    original_width: int
    leap_drops: int = 0
    bit_drops: int = 0

    @property
    def minimized(self) -> bool:
        return self.counterexample.packet.width < self.original_width


def confirm_counterexample(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    cex: Counterexample,
) -> bool:
    """Replay the witness concretely and check the recorded verdicts hold."""
    left_accepts = accepts(left_aut, left_start, cex.packet, cex.left_store)
    right_accepts = accepts(right_aut, right_start, cex.packet, cex.right_store)
    return (
        left_accepts == cex.left_accepts
        and right_accepts == cex.right_accepts
        and left_accepts != right_accepts
    )


def _disagreement(
    left: BlockRunner,
    left_start: str,
    right: BlockRunner,
    right_start: str,
    packet: Bits,
    left_store: Optional[Store],
    right_store: Optional[Store],
) -> Optional[Tuple[bool, bool]]:
    """``(left, right)`` acceptance when they differ, else ``None``."""
    left_accepts = left.accepts(left_start, packet, left_store)
    right_accepts = right.accepts(right_start, packet, right_store)
    if left_accepts == right_accepts:
        return None
    return left_accepts, right_accepts


def minimize_counterexample(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    cex: Counterexample,
    bit_drop_limit: int = 192,
) -> MinimizationResult:
    """Greedily shrink ``cex``; every intermediate witness is replay-confirmed.

    ``bit_drop_limit`` bounds the width at which the quadratic single-bit
    pass still runs.
    """
    result = MinimizationResult(cex, cex.packet.width)
    left, right = BlockRunner(left_aut), BlockRunner(right_aut)

    # Pass 1: drop whole leaps while the concrete disagreement survives.
    widths: List[int] = list(cex.leap_widths)
    packet = cex.packet
    left_store, right_store = cex.left_store, cex.right_store
    if sum(widths) == packet.width and widths:
        changed = True
        while changed:
            changed = False
            for index in range(len(widths) - 1, -1, -1):
                offset = sum(widths[:index])
                candidate = packet.take(offset).concat(packet.drop(offset + widths[index]))
                verdicts = _disagreement(
                    left, left_start, right, right_start,
                    candidate, left_store, right_store,
                )
                if verdicts is not None:
                    packet = candidate
                    del widths[index]
                    result.leap_drops += 1
                    changed = True

    # Pass 2: drop single bits (bounded, so huge packets stay cheap).
    if packet.width <= bit_drop_limit:
        changed = True
        while changed:
            changed = False
            for index in range(packet.width - 1, -1, -1):
                candidate = packet.take(index).concat(packet.drop(index + 1))
                verdicts = _disagreement(
                    left, left_start, right, right_start,
                    candidate, left_store, right_store,
                )
                if verdicts is not None:
                    packet = candidate
                    result.bit_drops += 1
                    changed = True

    final_verdicts = _disagreement(
        left, left_start, right, right_start, packet, left_store, right_store
    )
    if final_verdicts is None:
        # Cannot happen (every accepted candidate was replay-confirmed), but
        # never let a broken witness escape the minimizer.
        result.counterexample = cex
        return result
    left_accepts, right_accepts = final_verdicts
    result.counterexample = Counterexample(
        packet,
        left_store,
        right_store,
        left_accepts,
        right_accepts,
        leap_widths=tuple(widths) if sum(widths) == packet.width else (),
        minimized_from=cex.packet.width if packet.width < cex.packet.width else None,
    )
    return result


def minimize_witness_packet(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    packet: Bits,
    bit_drop_limit: int = 192,
) -> Bits:
    """Greedily shrink a store-default witness packet.

    The campaign distiller's entry point: synthesized witnesses live under
    all-zero initial stores and carry no leap structure, so this wraps the
    packet into a :class:`Counterexample` and reuses the greedy bit-drop pass
    of :func:`minimize_counterexample`.  Returns the packet unchanged when it
    does not actually diverge (the caller decides what that means).
    """
    verdicts = _disagreement(
        BlockRunner(left_aut), left_start, BlockRunner(right_aut), right_start,
        packet, None, None,
    )
    if verdicts is None:
        return packet
    left_accepts, right_accepts = verdicts
    cex = Counterexample(packet, None, None, left_accepts, right_accepts)
    result = minimize_counterexample(
        left_aut, left_start, right_aut, right_start, cex,
        bit_drop_limit=bit_drop_limit,
    )
    return result.counterexample.packet
