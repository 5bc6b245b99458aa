"""Concrete semantics of P4 automata (Definitions 3.1–3.6).

The dynamics of a P4A are defined in terms of a deterministic automaton over
*configurations* ``⟨q, s, w⟩`` where ``q`` is a state, ``s`` a store mapping
headers to bitvectors, and ``w`` a buffer of bits not yet consumed by the
current state's operation block.  The step function reads one bit at a time;
once the buffer holds exactly ``||op(q)||`` bits the operation block executes
and the transition block selects the next state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .bitvec import EMPTY, Bits
from .errors import P4ASemanticsError
from .syntax import (
    ACCEPT,
    REJECT,
    Assign,
    BVLit,
    Concat,
    ExactPattern,
    Expr,
    Extract,
    Goto,
    HeaderRef,
    P4Automaton,
    Pattern,
    Select,
    Slice,
    State,
    Transition,
    WildcardPattern,
)

Store = Dict[str, Bits]


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


def initial_store(aut: P4Automaton, fill: int = 0) -> Store:
    """A store with every header set to all-``fill`` bits.

    Initial header values are unspecified in P4; Leapfrog treats them as part
    of the input, so verification is quantified over all initial stores.  This
    helper is used by the simulator and tests.
    """
    bit = "1" if fill else "0"
    return {name: Bits(bit * size) for name, size in aut.headers.items()}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def eval_expr(expr: Expr, store: Mapping[str, Bits]) -> Bits:
    """Expression semantics ⟦e⟧E (Definition 3.1)."""
    if isinstance(expr, HeaderRef):
        try:
            return store[expr.name]
        except KeyError:
            raise P4ASemanticsError(f"header {expr.name!r} is not in the store") from None
    if isinstance(expr, BVLit):
        return expr.value
    if isinstance(expr, Slice):
        return eval_expr(expr.expr, store).slice(expr.lo, expr.hi)
    if isinstance(expr, Concat):
        return eval_expr(expr.left, store).concat(eval_expr(expr.right, store))
    raise P4ASemanticsError(f"unknown expression form: {expr!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def exec_ops(aut: P4Automaton, state: State, store: Store, data: Bits) -> Store:
    """Execute the operation block of ``state`` on ``data`` (⟦op⟧O).

    ``data`` must contain exactly ``||op(state)||`` bits; the resulting store is
    returned and the packet data is fully consumed.
    """
    expected = aut.op_size(state.name)
    if data.width != expected:
        raise P4ASemanticsError(
            f"state {state.name!r} expects {expected} bits, got {data.width}"
        )
    current = dict(store)
    position = 0
    for op in state.ops:
        if isinstance(op, Extract):
            size = aut.header_size(op.header)
            current[op.header] = data.slice(position, position + size - 1) if size else EMPTY
            position += size
        elif isinstance(op, Assign):
            value = eval_expr(op.expr, current)
            if value.width != aut.header_size(op.header):
                raise P4ASemanticsError(
                    f"assignment to {op.header!r} produced {value.width} bits, "
                    f"expected {aut.header_size(op.header)}"
                )
            current[op.header] = value
        else:
            raise P4ASemanticsError(f"unknown operation {op!r}")
    return current


# ---------------------------------------------------------------------------
# Patterns and transitions
# ---------------------------------------------------------------------------


def pattern_matches(pattern: Pattern, value: Bits) -> bool:
    """Pattern semantics ⟦pat⟧P (Definition 3.3)."""
    if isinstance(pattern, WildcardPattern):
        return True
    if isinstance(pattern, ExactPattern):
        return pattern.value == value
    raise P4ASemanticsError(f"unknown pattern {pattern!r}")


def eval_transition(transition: Transition, store: Mapping[str, Bits]) -> str:
    """Transition semantics ⟦tz⟧T (Definition 3.3).

    ``select`` takes the first case whose patterns all match; if no case
    matches the result is ``reject``.
    """
    if isinstance(transition, Goto):
        return transition.target
    if isinstance(transition, Select):
        values = [eval_expr(expr, store) for expr in transition.exprs]
        for case in transition.cases:
            if all(pattern_matches(p, v) for p, v in zip(case.patterns, values)):
                return case.target
        return REJECT
    raise P4ASemanticsError(f"unknown transition {transition!r}")


# ---------------------------------------------------------------------------
# Configurations and dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """A configuration ``⟨q, s, w⟩`` (Definition 3.4).

    Stores are kept as a sorted tuple of (header, bits) pairs so configurations
    are hashable, which the explicit-state baseline relies on.
    """

    state: str
    store: Tuple[Tuple[str, Bits], ...]
    buffer: Bits

    @staticmethod
    def make(state: str, store: Mapping[str, Bits], buffer: Bits = EMPTY) -> "Configuration":
        return Configuration(state, tuple(sorted(store.items())), buffer)

    def store_dict(self) -> Store:
        return dict(self.store)

    def is_accepting(self) -> bool:
        return self.state == ACCEPT and self.buffer.width == 0

    def __str__(self) -> str:
        fields = ", ".join(f"{h}={v}" for h, v in self.store)
        return f"⟨{self.state}, {{{fields}}}, {self.buffer}⟩"


def initial_configuration(aut: P4Automaton, state: str, store: Optional[Store] = None) -> Configuration:
    if store is None:
        store = initial_store(aut)
    return Configuration.make(state, store, EMPTY)


def step(aut: P4Automaton, config: Configuration, bit: int) -> Configuration:
    """The one-bit step function δ (Definition 3.5)."""
    if bit not in (0, 1):
        raise P4ASemanticsError(f"invalid bit {bit!r}")
    if config.state in (ACCEPT, REJECT):
        # Accepting configurations must not consume more input: one more bit
        # sends them to reject, where they stay.
        return Configuration(REJECT, config.store, EMPTY)
    state = aut.state(config.state)
    buffer = config.buffer.concat(Bits("1" if bit else "0"))
    needed = aut.op_size(config.state)
    if buffer.width < needed:
        return Configuration(config.state, config.store, buffer)
    store = exec_ops(aut, state, config.store_dict(), buffer)
    next_state = eval_transition(state.transition, store)
    return Configuration.make(next_state, store, EMPTY)


def multi_step(aut: P4Automaton, config: Configuration, packet: Bits) -> Configuration:
    """The lifted step function δ* (Definition 3.6)."""
    current = config
    for bit in packet:
        current = step(aut, current, bit)
    return current


def accepts(aut: P4Automaton, state: str, packet: Bits, store: Optional[Store] = None) -> bool:
    """Language membership: does ``packet`` drive ``state`` to acceptance?"""
    config = initial_configuration(aut, state, store)
    return multi_step(aut, config, packet).is_accepting()


def run_trace(
    aut: P4Automaton, state: str, packet: Bits, store: Optional[Store] = None
) -> Iterator[Configuration]:
    """Yield every configuration along the run of ``packet`` (for debugging)."""
    config = initial_configuration(aut, state, store)
    yield config
    for bit in packet:
        config = step(aut, config, bit)
        yield config


def parse_packet(
    aut: P4Automaton, state: str, packet: Bits, store: Optional[Store] = None
) -> Tuple[bool, Store]:
    """Run the parser and return (accepted, final store).

    This is the "user level" view of a parser: whether the packet is accepted
    and the headers it populated.
    """
    final = multi_step(aut, initial_configuration(aut, state, store), packet)
    return final.is_accepting(), final.store_dict()


def language_sample(
    aut: P4Automaton, state: str, max_length: int, store: Optional[Store] = None
) -> Iterator[Bits]:
    """Enumerate all accepted packets up to ``max_length`` bits (testing helper).

    Exponential in ``max_length``; only usable on tiny automata.  For anything
    larger, sample the language instead:
    :func:`repro.oracle.sampler.seeded_language_sample` draws distinct accepted
    packets from seeded structure-aware walks at any scale.
    """
    from itertools import product

    for length in range(max_length + 1):
        for combo in product("01", repeat=length):
            packet = Bits("".join(combo))
            if accepts(aut, state, packet, store):
                yield packet
