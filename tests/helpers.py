"""Shared helpers for the test suite: tiny automata and evaluation utilities."""

from __future__ import annotations

import random
from typing import Tuple

from repro.p4a import AutomatonBuilder, Bits, P4Automaton
from repro.p4a.semantics import accepts
from repro.smt.backend import InternalBackend, OneShotSession


class OneShotBackend(InternalBackend):
    """The internal CDCL solver behind a one-shot session.

    The DPLL engine and external solvers answer every session check with
    one fresh lowering + bit-blast + solver run; this backend drives that
    path on the default solver.
    """

    def incremental_session(self):
        return OneShotSession(self)


def one_bit_automaton(accept_on: str = "1") -> P4Automaton:
    """Accepts exactly the 1-bit packets equal to ``accept_on``."""
    builder = AutomatonBuilder(f"one_bit_{accept_on}")
    builder.header("b", 1)
    builder.state("s0").extract("b").select("b", [(accept_on, "accept"), ("_", "reject")])
    return builder.build()


def fixed_length_automaton(width: int) -> P4Automaton:
    """Accepts exactly the packets of ``width`` bits (any contents)."""
    builder = AutomatonBuilder(f"fixed_{width}")
    builder.header("data", width)
    builder.state("s0").extract("data").accept()
    return builder.build()


def chained_automaton(chunks: Tuple[int, ...]) -> P4Automaton:
    """Reads the given chunk sizes in sequence and accepts."""
    builder = AutomatonBuilder("chained_" + "_".join(map(str, chunks)))
    for index, width in enumerate(chunks):
        builder.header(f"h{index}", width)
    for index, width in enumerate(chunks):
        state = builder.state(f"s{index}").extract(f"h{index}")
        if index + 1 < len(chunks):
            state.goto(f"s{index + 1}")
        else:
            state.accept()
    return builder.build()


def random_packet(rng: random.Random, max_bits: int) -> Bits:
    length = rng.randint(0, max_bits)
    return Bits("".join(rng.choice("01") for _ in range(length)))


def agree_on_packets(
    left: P4Automaton,
    left_start: str,
    right: P4Automaton,
    right_start: str,
    packets,
) -> bool:
    """Whether the two automata accept exactly the same packets of the sample
    (with all-zero initial stores)."""
    return all(
        accepts(left, left_start, packet) == accepts(right, right_start, packet)
        for packet in packets
    )
