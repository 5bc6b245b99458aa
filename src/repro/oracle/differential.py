"""Concrete differential cross-checking of parser pairs.

The oracle runs sampled packets through *both* parsers with the concrete
interpreter and records every acceptance disagreement.  On a pair the checker
proved ``equivalent`` a single divergence is a soundness bug somewhere in the
symbolic pipeline — the caller is expected to fail loudly
(:class:`OracleDivergenceError` carries a full reproduction: seed, packet and
both initial stores).  On an ``unknown`` verdict a divergence is a concrete
counterexample the failed proof did not yield and can be promoted to a refutation.

Packets are drawn alternately from the structure of each side (plus uniform
noise), so a branch present in only one parser still gets sampled; the two
initial stores are drawn independently, matching the quantification of
language equivalence over all stores of both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..p4a.bitvec import Bits
from ..p4a.semantics import Store
from ..p4a.syntax import P4Automaton
from .sampler import PacketSampler, _random_bits


class OracleError(Exception):
    """Raised when the oracle cannot run (bad configuration)."""


@dataclass
class Divergence:
    """One concrete disagreement between the two parsers."""

    packet: Bits
    left_store: Store
    right_store: Store
    left_accepts: bool
    right_accepts: bool
    origin: str = "sampled"  # which sampling mode produced the packet

    def as_dict(self) -> Dict[str, object]:
        return {
            "packet": self.packet.to_bitstring(),
            "packet_bits": self.packet.width,
            "left_store": {name: bits.to_bitstring() for name, bits in self.left_store.items()},
            "right_store": {name: bits.to_bitstring() for name, bits in self.right_store.items()},
            "left_accepts": self.left_accepts,
            "right_accepts": self.right_accepts,
            "origin": self.origin,
        }

    def __str__(self) -> str:
        return (
            f"packet {self.packet} "
            f"(left {'accepts' if self.left_accepts else 'rejects'}, "
            f"right {'accepts' if self.right_accepts else 'rejects'})"
        )


@dataclass
class OracleReport:
    """Outcome of one cross-check run."""

    left_name: str
    right_name: str
    packets: int
    seed: Optional[int] = None
    divergences: List[Divergence] = field(default_factory=list)
    #: Total disagreements seen; ``divergences`` keeps at most ``max_recorded``.
    total_divergences: int = 0
    accepted_left: int = 0
    accepted_right: int = 0

    @property
    def ok(self) -> bool:
        return self.total_divergences == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "left": self.left_name,
            "right": self.right_name,
            "packets": self.packets,
            "seed": self.seed,
            "accepted_left": self.accepted_left,
            "accepted_right": self.accepted_right,
            "total_divergences": self.total_divergences,
            "divergences": [divergence.as_dict() for divergence in self.divergences],
        }

    def summary(self) -> Dict[str, int]:
        """The telemetry counters attached to ``CheckerStatistics.oracle``."""
        return {
            "packets": self.packets,
            "divergences": self.total_divergences,
            "accepted_left": self.accepted_left,
            "accepted_right": self.accepted_right,
        }


class OracleDivergenceError(OracleError):
    """A verdict the concrete oracle contradicts — a pipeline soundness bug."""

    def __init__(self, report: OracleReport, context: str) -> None:
        first = report.divergences[0]
        super().__init__(
            f"concrete oracle contradicts {context}: {report.total_divergences} of "
            f"{report.packets} packets disagree (seed {report.seed}); first: {first}; "
            f"left store {first.left_store}; right store {first.right_store}"
        )
        self.report = report


def cross_check(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    packets: int = 64,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    max_recorded: int = 16,
    max_uniform_bits: int = 512,
) -> OracleReport:
    """Run ``packets`` sampled packets through both parsers concretely.

    Every third packet is uniform noise of random length; the rest alternate
    between walks of the left and the right parser's structure.  At most
    ``max_recorded`` divergences are materialized (all are counted).
    """
    if packets < 0:
        raise OracleError(f"packet count must be >= 0, got {packets}")
    rng = rng if rng is not None else random.Random(seed)
    left_sampler = PacketSampler(left_aut, left_start, rng=rng)
    right_sampler = PacketSampler(right_aut, right_start, rng=rng)
    left_runner, right_runner = left_sampler.runner, right_sampler.runner
    report = OracleReport(left_aut.name, right_aut.name, packets, seed=seed)
    for index in range(packets):
        left_store = left_sampler.random_store()
        right_store = right_sampler.random_store()
        mode = index % 3
        if mode == 0:
            packet = left_sampler.random_packet(left_store)
            origin = "left-walk"
        elif mode == 1:
            packet = right_sampler.random_packet(right_store)
            origin = "right-walk"
        else:
            packet = _random_bits(rng, rng.randint(0, max_uniform_bits))
            origin = "uniform"
        left_accepts = left_runner.accepts(left_start, packet, left_store)
        right_accepts = right_runner.accepts(right_start, packet, right_store)
        report.accepted_left += left_accepts
        report.accepted_right += right_accepts
        if left_accepts != right_accepts:
            report.total_divergences += 1
            if len(report.divergences) < max_recorded:
                report.divergences.append(
                    Divergence(packet, left_store, right_store,
                               left_accepts, right_accepts, origin)
                )
    return report
