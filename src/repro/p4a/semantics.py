"""Concrete semantics of P4 automata (Definitions 3.1–3.6).

The dynamics of a P4A are defined in terms of a deterministic automaton over
*configurations* ``⟨q, s, w⟩`` where ``q`` is a state, ``s`` a store mapping
headers to bitvectors, and ``w`` a buffer of bits not yet consumed by the
current state's operation block.  The step function reads one bit at a time;
once the buffer holds exactly ``||op(q)||`` bits the operation block executes
and the transition block selects the next state.

:func:`step`, :func:`multi_step` and :func:`run_trace` are that definition,
literally, and serve as the reference.  Everything that runs many packets —
:func:`accepts`, :func:`parse_packet`, the oracle's sampler and differential
cross-check, witness search and replay — goes through a
:class:`BlockRunner` instead, which takes the leap the symbolic algorithm
takes: it consumes a state's whole ``||op(q)||``-bit block at once.  The
differential tests in ``tests/p4a/test_semantics.py`` pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

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
    """Language membership: does ``packet`` drive ``state`` to acceptance?

    Equal to ``multi_step(...).is_accepting()`` from the initial
    configuration (all-zero headers when ``store`` is ``None``), and raises
    the same errors, but runs a block at a time.  Callers that run many
    packets through one automaton should hold a :class:`BlockRunner`, which
    keeps its per-state tables between packets.
    """
    return BlockRunner(aut).accepts(state, packet, store)


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
    and the headers it populated.  Equal to the final configuration of
    :func:`multi_step` (``is_accepting()``, ``store_dict()``).
    """
    return BlockRunner(aut).parse_packet(state, packet, store)


# ---------------------------------------------------------------------------
# Block-at-a-time runner
# ---------------------------------------------------------------------------

#: A store over plain bit strings: the runner's working representation.
_Values = Dict[str, str]
#: One compiled state: ``(||op(q)||, ops, transition)``.  An op is
#: ``(True, header, lo, hi)`` for an extract of ``data[lo:hi]`` or
#: ``(False, header, read, width)`` for an assignment (``width`` is ``None``
#: when the header is undeclared, so the run raises as ``exec_ops`` does).
_Block = Tuple[int, Tuple[tuple, ...], Callable[[_Values], str]]


class BlockRunner:
    """Runs packets through one automaton a whole operation block at a time.

    Per state it takes ``||op(q)||`` bits at once, stores the extracts as
    slices, evaluates the assignments in order and then the ``select``.
    States are compiled on first use and kept for the runner's lifetime, so
    hold one runner per automaton across packets.  Results and errors match
    the bit-level :func:`multi_step` (a zero-extract state fed a bit, a read
    of a header missing from a partial store, an assignment of the wrong
    width); ill-formed syntax (an unknown operation, expression, pattern or
    transition class) raises when its state is compiled.  The automaton must
    not change while the runner is in use.
    """

    def __init__(self, aut: P4Automaton) -> None:
        self.aut = aut
        self._blocks: Dict[str, _Block] = {}
        self._zeros: Optional[_Values] = None

    def accepts(self, state: str, packet: Bits, store: Optional[Store] = None) -> bool:
        """Whether ``packet`` drives ``state`` to acceptance from ``store``."""
        return self._run(state, packet.to_bitstring(), self._values(store)) == ACCEPT

    def parse_packet(
        self, state: str, packet: Bits, store: Optional[Store] = None
    ) -> Tuple[bool, Store]:
        """``(accepted, final store)``, the store ordered as ``store_dict()``."""
        values = self._values(store)
        accepted = self._run(state, packet.to_bitstring(), values) == ACCEPT
        return accepted, {name: Bits._trusted(values[name]) for name in sorted(values)}

    def block_width(self, state: str) -> int:
        """``||op(q)||`` for the non-final ``state``."""
        return self._block(state)[0]

    def run_block(self, state: str, values: _Values, data: str) -> str:
        """Execute ``state``'s blocks on exactly ``||op(q)||`` bits of ``data``.

        ``values`` (header name → bit string) is updated in place; returns
        the next state.  The sampler's walk uses this to follow its own
        steered input.
        """
        width, ops, transition = self._block(state)
        if len(data) != width:
            raise P4ASemanticsError(f"state {state!r} expects {width} bits, got {len(data)}")
        self._exec(ops, values, data)
        return transition(values)

    # ------------------------------------------------------------------

    def _values(self, store: Optional[Store]) -> _Values:
        if store is not None:
            return {name: value.to_bitstring() for name, value in store.items()}
        if self._zeros is None:
            self._zeros = {name: "0" * size for name, size in self.aut.headers.items()}
        return dict(self._zeros)

    def _run(self, state: str, bits: str, values: _Values) -> str:
        """The state the run of ``bits`` ends in, updating ``values`` in place.

        Only an accepting run ends in ``accept``: bits past a final state end
        in ``reject``, and bits left over mid-block end in that block's state.
        """
        position, length = 0, len(bits)
        blocks = self._blocks
        while position < length:
            if state == ACCEPT or state == REJECT:
                return REJECT
            width, ops, transition = blocks.get(state) or self._block(state)
            end = position + width
            if end > length:
                return state
            if not width:
                raise P4ASemanticsError(f"state {state!r} expects 0 bits, got 1")
            self._exec(ops, values, bits[position:end])
            state = transition(values)
            position = end
        return state

    def _exec(self, ops: Tuple[tuple, ...], values: _Values, data: str) -> None:
        for extract, header, first, second in ops:
            if extract:
                values[header] = data[first:second]
                continue
            value = first(values)
            if len(value) != second:
                raise P4ASemanticsError(
                    f"assignment to {header!r} produced {len(value)} bits, "
                    f"expected {self.aut.header_size(header)}"
                )
            values[header] = value

    def _block(self, name: str) -> _Block:
        block = self._blocks.get(name)
        if block is None:
            aut = self.aut
            state = aut.state(name)
            width = aut.op_size(name)
            ops = []
            position = 0
            for op in state.ops:
                if isinstance(op, Extract):
                    size = aut.header_size(op.header)
                    ops.append((True, op.header, position, position + size))
                    position += size
                elif isinstance(op, Assign):
                    ops.append(
                        (False, op.header, _compile_expr(op.expr), aut.headers.get(op.header))
                    )
                else:
                    raise P4ASemanticsError(f"unknown operation {op!r}")
            block = (width, tuple(ops), _compile_transition(state.transition))
            self._blocks[name] = block
        return block


def _compile_expr(expr: Expr) -> Callable[[_Values], str]:
    """``eval_expr`` over bit strings, as a closure."""
    if isinstance(expr, HeaderRef):
        name = expr.name

        def read(values: _Values) -> str:
            try:
                return values[name]
            except KeyError:
                raise P4ASemanticsError(f"header {name!r} is not in the store") from None

        return read
    if isinstance(expr, BVLit):
        literal = expr.value.to_bitstring()
        return lambda values: literal
    if isinstance(expr, Slice):
        inner, n1, n2 = _compile_expr(expr.expr), expr.lo, expr.hi

        def clamped(values: _Values) -> str:
            word = inner(values)
            if not word:
                return word
            last = len(word) - 1
            lo, hi = min(n1, last), min(n2, last)
            return word[lo : hi + 1] if lo <= hi else ""

        return clamped
    if isinstance(expr, Concat):
        left, right = _compile_expr(expr.left), _compile_expr(expr.right)
        return lambda values: left(values) + right(values)
    raise P4ASemanticsError(f"unknown expression form: {expr!r}")


def _compile_transition(transition: Transition) -> Callable[[_Values], str]:
    """``eval_transition`` over bit strings; wildcards compile to ``None``."""
    if isinstance(transition, Goto):
        target = transition.target
        return lambda values: target
    if not isinstance(transition, Select):
        raise P4ASemanticsError(f"unknown transition {transition!r}")
    readers = tuple(_compile_expr(expr) for expr in transition.exprs)
    cases = []
    for case in transition.cases:
        patterns = []
        for pattern in case.patterns:
            if isinstance(pattern, ExactPattern):
                patterns.append(pattern.value.to_bitstring())
            elif isinstance(pattern, WildcardPattern):
                patterns.append(None)
            else:
                raise P4ASemanticsError(f"unknown pattern {pattern!r}")
        cases.append((tuple(patterns), case.target))
    cases = tuple(cases)

    def select(values: _Values) -> str:
        keys = [read(values) for read in readers]
        for patterns, target in cases:
            for pattern, key in zip(patterns, keys):
                if pattern is not None and pattern != key:
                    break
            else:
                return target
        return REJECT

    return select


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
