"""Seedable, structure-aware random packet and store generation.

``language_sample`` (kept in :mod:`repro.p4a.semantics` for tiny automata)
enumerates all ``2^n`` packets and is useless beyond ~20 bits.  This module
samples parser behaviours at scale instead: a :class:`PacketSampler` walks the
automaton *concretely*, steering each state's input block toward a randomly
chosen ``select`` case by writing the case's pattern bits at the right
offsets, so even deep states (inner headers behind tunnels, bottom-of-stack
labels) are exercised with realistic probability.  The walk is deliberately
biased toward the places equivalence bugs hide:

* **transition boundaries** — packets are sometimes truncated mid-state
  (0, 1 or ``needed - 1`` buffered bits) and sometimes extended past
  ``accept`` by a stray bit;
* **header-field edge values** — input blocks and initial stores draw from
  all-zeros, all-ones and the exact pattern constants of the automaton's
  selects (the values on either side of every branch).

Everything is driven by one ``random.Random`` so a seed reproduces the exact
packet sequence; ``LEAPFROG_SEED`` (see :mod:`repro.envconfig`) threads a seed
end to end through the CLI, benchmarks and CI.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..p4a.bitvec import Bits
from ..p4a.semantics import BlockRunner, Store
from ..p4a.syntax import (
    ACCEPT,
    Concat,
    ExactPattern,
    Expr,
    Extract,
    HeaderRef,
    P4Automaton,
    REJECT,
    Select,
    SelectCase,
    Slice,
    State,
)


def sample_store(aut: P4Automaton, rng: random.Random, edge_bias: float = 0.5) -> Store:
    """A random initial store, biased toward per-header edge values.

    With probability ``edge_bias`` each header draws from its edge set
    (all-zeros, all-ones, and every select-pattern constant embedded at the
    slice offset it is compared against); otherwise the bits are uniform.
    This one-off form derives the edge sets on every call; a
    :class:`PacketSampler` derives them once and draws the same values from
    the same ``rng`` state.
    """
    return _draw_store(aut, _header_edge_values(aut), rng, edge_bias)


def _draw_store(
    aut: P4Automaton,
    edges: Dict[str, Tuple[Bits, ...]],
    rng: random.Random,
    edge_bias: float,
) -> Store:
    store: Store = {}
    for name, width in aut.headers.items():
        candidates = edges.get(name, ())
        if candidates and rng.random() < edge_bias:
            store[name] = rng.choice(candidates)
        else:
            store[name] = _random_bits(rng, width)
    return store


def _random_bits(rng: random.Random, width: int) -> Bits:
    choice = rng.choice
    return Bits._trusted("".join([choice("01") for _ in range(width)]))


def _header_edge_values(aut: P4Automaton) -> Dict[str, Tuple[Bits, ...]]:
    """Edge values per header: extremes plus every pattern constant in place."""
    values: Dict[str, List[Bits]] = {
        name: [Bits.zeros(width), Bits.ones(width)] for name, width in aut.headers.items()
    }
    for state in aut.states.values():
        transition = state.transition
        if not isinstance(transition, Select):
            continue
        for case in transition.cases:
            for expr, pattern in zip(transition.exprs, case.patterns):
                if not isinstance(pattern, ExactPattern):
                    continue
                target = _slice_of_header(expr)
                if target is None:
                    continue
                header, lo = target
                width = aut.header_size(header)
                if lo + pattern.value.width > width:
                    continue
                for background in (Bits.zeros(width), Bits.ones(width)):
                    bits = background.to_bitstring()
                    embedded = (
                        bits[:lo] + pattern.value.to_bitstring()
                        + bits[lo + pattern.value.width:]
                    )
                    values[header].append(Bits(embedded))
    return {name: tuple(dict.fromkeys(vals)) for name, vals in values.items()}


def _slice_of_header(expr: Expr) -> Optional[Tuple[str, int]]:
    """``(header, offset)`` when ``expr`` is a header or a slice of one."""
    if isinstance(expr, HeaderRef):
        return expr.name, 0
    if isinstance(expr, Slice) and isinstance(expr.expr, HeaderRef):
        return expr.expr.name, expr.lo
    return None


class PacketSampler:
    """Structure-aware random packets (and stores) for one parser.

    ``random_packet`` walks the automaton with the concrete semantics,
    choosing a successor state at every transition and constructing input
    bits that actually take that branch, so the sample distribution covers
    the automaton's *paths* rather than the (exponentially skewed) space of
    raw bitstrings.  The walk is seeded and fully deterministic for a given
    ``random.Random``.

    Everything that depends only on the automaton is derived once, when the
    sampler is built: the per-header edge values, each state's extract
    layout and the block positions its select reads.  The walk executes
    each state's block through :attr:`runner`, a
    :class:`~repro.p4a.semantics.BlockRunner` that callers can reuse to
    replay the packets they draw.
    """

    def __init__(
        self,
        aut: P4Automaton,
        start: str,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        max_states: int = 64,
        truncate_bias: float = 0.15,
        overrun_bias: float = 0.1,
        edge_bias: float = 0.3,
    ) -> None:
        self.aut = aut
        self.start = start
        self.rng = rng if rng is not None else random.Random(seed)
        self.max_states = max_states
        self.truncate_bias = truncate_bias
        self.overrun_bias = overrun_bias
        self.edge_bias = edge_bias
        self.runner = BlockRunner(aut)
        self._edges = _header_edge_values(aut)
        # Per state, the block positions each select expression reads
        # directly from this state's extracts (``None`` when it does not).
        self._positions: Dict[str, Tuple[Optional[List[int]], ...]] = {}
        for name, state in aut.states.items():
            layout: Dict[str, int] = {}
            position = 0
            for op in state.ops:
                if isinstance(op, Extract):
                    layout[op.header] = position
                    position += aut.header_size(op.header)
            if isinstance(state.transition, Select):
                self._positions[name] = tuple(
                    self._expr_positions(expr, layout) for expr in state.transition.exprs
                )

    # ------------------------------------------------------------------

    def random_store(self) -> Store:
        return _draw_store(self.aut, self._edges, self.rng, self.edge_bias)

    def random_packet(self, store: Optional[Store] = None) -> Bits:
        """One structure-aware random packet (with boundary/overrun bias).

        Without ``store`` the walk draws one as :func:`sample_store` does
        (edge bias 0.5, not :attr:`edge_bias`).
        """
        rng = self.rng
        if store is None:
            store = _draw_store(self.aut, self._edges, rng, 0.5)
        values = {name: bits.to_bitstring() for name, bits in store.items()}
        runner = self.runner
        state_name = self.start
        packet: List[str] = []
        for _ in range(self.max_states):
            if state_name == ACCEPT:
                if rng.random() < self.overrun_bias:
                    # One bit past acceptance: must flip the verdict to reject.
                    packet.append(rng.choice("01"))
                break
            if state_name == REJECT:
                break
            needed = runner.block_width(state_name)
            if needed == 0:
                break  # cannot make progress without consuming bits
            if rng.random() < self.truncate_bias:
                # Stop at a transition boundary: leave 0, 1 or needed-1 bits
                # buffered so the run ends mid-state (a reject by exhaustion).
                cut = rng.choice((0, 1, max(needed - 1, 0)))
                packet.extend(rng.choice("01") for _ in range(cut))
                break
            data = "".join(self._data_block(self.aut.states[state_name], needed))
            packet.append(data)
            state_name = runner.run_block(state_name, values, data)
        return Bits._trusted("".join(packet))

    def sample(self, count: int) -> Iterator[Tuple[Bits, Store]]:
        """``count`` (packet, initial store) pairs; the store drives the walk."""
        for _ in range(count):
            store = self.random_store()
            yield self.random_packet(store), store

    # ------------------------------------------------------------------

    def _data_block(self, state: State, needed: int) -> List[str]:
        """Input bits for one state, steered toward a random select case."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.15:
            data = ["0"] * needed
        elif roll < 0.3:
            data = ["1"] * needed
        else:
            choice = rng.choice
            data = [choice("01") for _ in range(needed)]
        transition = state.transition
        if isinstance(transition, Select) and transition.cases and rng.random() < 0.85:
            case = rng.choice(transition.cases)
            self._steer(self._positions[state.name], case, data)
        return data

    @staticmethod
    def _steer(
        positions: Tuple[Optional[List[int]], ...], case: SelectCase, data: List[str]
    ) -> None:
        """Overwrite pattern-constrained positions of ``data`` to take ``case``.

        Only bits that flow directly from this state's extracts can be
        steered; patterns over assigned or previously-extracted headers are
        left to chance (the walk still follows whatever branch the concrete
        transition takes).
        """
        for read, pattern in zip(positions, case.patterns):
            if not isinstance(pattern, ExactPattern):
                continue
            if read is None or len(read) != pattern.value.width:
                continue
            for position, bit in zip(read, pattern.value.to_bitstring()):
                if 0 <= position < len(data):
                    data[position] = bit

    def _expr_positions(self, expr: Expr, layout: Dict[str, int]) -> Optional[List[int]]:
        """Positions in the state's input block that ``expr`` reads, if direct."""
        if isinstance(expr, HeaderRef):
            offset = layout.get(expr.name)
            if offset is None:
                return None
            return list(range(offset, offset + self.aut.header_size(expr.name)))
        if isinstance(expr, Slice):
            inner = self._expr_positions(expr.expr, layout)
            if inner is None or not inner:
                return None
            lo = min(expr.lo, len(inner) - 1)
            hi = min(expr.hi, len(inner) - 1)
            if lo > hi:
                return []
            return inner[lo : hi + 1]
        if isinstance(expr, Concat):
            left = self._expr_positions(expr.left, layout)
            right = self._expr_positions(expr.right, layout)
            if left is None or right is None:
                return None
            return left + right
        return None


def seeded_language_sample(
    aut: P4Automaton,
    start: str,
    count: int,
    seed: int = 0,
    store: Optional[Store] = None,
    max_attempts_per_packet: int = 50,
) -> List[Bits]:
    """Up to ``count`` distinct *accepted* packets, sampled (not enumerated).

    The seedable replacement for ``language_sample`` on automata too large to
    enumerate: packets come from structure-aware walks, filtered by concrete
    acceptance, deduplicated, in a deterministic order for a given seed.
    """
    rng = random.Random(seed)
    sampler = PacketSampler(aut, start, rng=rng, truncate_bias=0.0, overrun_bias=0.0)
    runner = sampler.runner
    found: List[Bits] = []
    seen = set()
    attempts = 0
    budget = count * max_attempts_per_packet
    while len(found) < count and attempts < budget:
        attempts += 1
        walk_store = store if store is not None else sampler.random_store()
        packet = sampler.random_packet(walk_store)
        if packet in seen:
            continue
        if runner.accepts(start, packet, walk_store):
            seen.add(packet)
            found.append(packet)
    return found
