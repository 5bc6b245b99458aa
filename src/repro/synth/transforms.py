"""Automaton transformations with known ground-truth verdicts.

Two flavors, both pure (the input automaton is never mutated):

* **equivalence-preserving rewrites** (:data:`EQUIVALENCE_TRANSFORMS`) —
  header renaming, state splitting (cloning a state behind some of its
  incoming edges), leap unfusion (splitting one state's operation block in
  two) and fusion (inlining a ``goto`` successor), select-branch reordering
  over disjoint exact guards, and dead-state injection.  Each is a language
  equivalence for *every* pair of initial stores, so a pair ``(A, T(A))`` is
  ground-truth ``equivalent`` by construction;
* **verdict-breaking mutations** (:data:`BREAKING_MUTATIONS`) — guard flips,
  extract-width truncation, accept/reject target swaps and dropped select
  cases.  A mutation alone does not prove inequivalence (the mutated branch
  might be unreachable), so :func:`apply_breaking_mutation` only returns a
  mutant together with a concrete **witness packet** — replayed through both
  automata with the reference interpreter — demonstrating the divergence.
  Pairs labeled ``not_equivalent`` therefore carry their own refutation.

Witness candidates come from :func:`path_packets`, which exploits the
generator's select-cascade shape (every ``select`` examines a header
extracted in the same state) to enumerate one packet per control path
without a solver, plus length perturbations of those packets and, as a
fallback, the differential oracle's structure-aware sampler.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..p4a.bitvec import Bits
from ..p4a.semantics import BlockRunner
from ..p4a.syntax import (
    ACCEPT,
    FINAL_STATES,
    REJECT,
    Assign,
    Concat,
    ExactPattern,
    Expr,
    Extract,
    Goto,
    HeaderRef,
    P4Automaton,
    Select,
    SelectCase,
    Slice,
    State,
    WildcardPattern,
)
from ..p4a.typing import check_automaton
from .generator import SynthesisError

Transform = Callable[[P4Automaton, str, random.Random], Optional[P4Automaton]]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _rebuild(aut: P4Automaton, headers=None, states=None, name=None) -> P4Automaton:
    return P4Automaton(
        name if name is not None else aut.name,
        dict(headers if headers is not None else aut.headers),
        dict(states if states is not None else aut.states),
    )


def _rewrite_expr(expr: Expr, fn: Callable[[str], str]) -> Expr:
    if isinstance(expr, HeaderRef):
        return HeaderRef(fn(expr.name))
    if isinstance(expr, Slice):
        return Slice(_rewrite_expr(expr.expr, fn), expr.lo, expr.hi)
    if isinstance(expr, Concat):
        return Concat(_rewrite_expr(expr.left, fn), _rewrite_expr(expr.right, fn))
    return expr


def _expr_headers(expr: Expr) -> Iterable[str]:
    if isinstance(expr, HeaderRef):
        yield expr.name
    elif isinstance(expr, Slice):
        yield from _expr_headers(expr.expr)
    elif isinstance(expr, Concat):
        yield from _expr_headers(expr.left)
        yield from _expr_headers(expr.right)


def _edges(aut: P4Automaton) -> List[Tuple[str, Optional[int], str]]:
    """Every transition edge as ``(state, case_index_or_None_for_goto, target)``."""
    edges: List[Tuple[str, Optional[int], str]] = []
    for state in aut.states.values():
        transition = state.transition
        if isinstance(transition, Goto):
            edges.append((state.name, None, transition.target))
        else:
            for index, case in enumerate(transition.cases):
                edges.append((state.name, index, case.target))
    return edges


def _retarget(aut: P4Automaton, state_name: str, case_index: Optional[int],
              new_target: str) -> P4Automaton:
    state = aut.state(state_name)
    if case_index is None:
        transition = Goto(new_target)
    else:
        cases = list(state.transition.cases)
        cases[case_index] = SelectCase(cases[case_index].patterns, new_target)
        transition = Select(state.transition.exprs, tuple(cases))
    states = dict(aut.states)
    states[state_name] = State(state.name, state.ops, transition)
    return _rebuild(aut, states=states)


def _fresh_name(taken: Iterable[str], stem: str) -> str:
    taken = set(taken)
    index = 0
    while f"{stem}{index}" in taken:
        index += 1
    return f"{stem}{index}"


# ---------------------------------------------------------------------------
# Path enumeration (the witness candidate generator)
# ---------------------------------------------------------------------------


def _guard_span(expr: Expr) -> Optional[Tuple[str, Optional[Tuple[int, int]]]]:
    """Decompose a packet-controllable guard into ``(header, sub_slice)``.

    Supports plain ``HeaderRef`` guards and (nested) slices of one — the
    lookahead shape the campaign generator draws.  Anything else (concats,
    multi-header guards) is outside the controllable fragment.
    """
    lo, hi = None, None
    while isinstance(expr, Slice):
        if lo is None:
            lo, hi = expr.lo, expr.hi
        else:
            lo, hi = lo + expr.lo, lo + expr.hi
        expr = expr.expr
    if not isinstance(expr, HeaderRef):
        return None
    return expr.name, (None if lo is None else (lo, hi))


def _matching_target(
    transition: Select, value: int, width: int
) -> Optional[str]:
    """First-match select semantics for a known guard value (``None`` means
    the implicit reject fall-through)."""
    encoded = Bits.from_int(value, width)
    for case in transition.cases:
        pattern = case.patterns[0]
        if isinstance(pattern, ExactPattern):
            if pattern.value == encoded:
                return case.target
        elif isinstance(pattern, WildcardPattern):
            return case.target
    return None


def path_packets(
    aut: P4Automaton, start: str, limit: int = 2048
) -> Optional[List[Bits]]:
    """One packet per control path (``None`` if the automaton is outside the
    packet-controllable fragment).

    A path's packet fixes the branched-on bits to the pattern values along
    the path and zeroes every other bit; paths ending in ``reject``
    (explicitly or by select fall-through) are included, so the result covers
    rejected prefixes too.  Enumeration is capped at ``limit`` packets.

    Beyond the classic same-state cascade shape, the walk tracks the absolute
    packet span of every header extracted along the path, which makes three
    more guard shapes enumerable: **slice lookahead** (only the sliced bits
    are fixed), **store-carried guards** (the earlier state's span is
    rewritten, unless an earlier branch already pinned those bits — then the
    guard value is determined and the single matching outcome is followed),
    and **bounded self-loops** (each iteration consumes fresh bits; the depth
    cap bounds unrolling).  A guard over a header never extracted on the path
    reads the all-zero default store, so the zero outcome is followed; a
    guard whose header was assigned after its extract is not packet-derived,
    and the enumeration bails out.
    """
    packets: List[Bits] = []
    depth_cap = 2 * len(aut.states) + 2

    def walk(
        state_name: str,
        prefix: List[str],
        spans: Dict[str, Tuple[int, int]],
        dirty: frozenset,
        pinned: frozenset,
        depth: int,
    ) -> bool:
        """Returns False when the controllable-fragment invariant breaks."""
        if len(packets) >= limit:
            return True
        if state_name in FINAL_STATES or depth > depth_cap:
            packets.append(Bits("".join(prefix)))
            return True
        state = aut.state(state_name)
        base = len(prefix)
        spans = dict(spans)
        dirty_set = set(dirty)
        position = 0
        for op in state.ops:
            if isinstance(op, Extract):
                width = aut.header_size(op.header)
                spans[op.header] = (base + position, width)
                dirty_set.discard(op.header)
                position += width
            elif isinstance(op, Assign):
                dirty_set.add(op.header)
        dirty = frozenset(dirty_set)
        block = prefix + ["0"] * aut.op_size(state_name)
        transition = state.transition
        if isinstance(transition, Goto):
            return walk(transition.target, block, spans, dirty, pinned, depth + 1)
        if len(transition.exprs) != 1:
            return False
        guard = _guard_span(transition.exprs[0])
        if guard is None:
            return False
        header, sub = guard
        if header in dirty:
            # Assigned after its extract: the guard value is not a packet
            # slice, so this fragment cannot be enumerated bit-for-bit.
            return False

        def follow(value: int, width: int) -> bool:
            # The guard value is already determined; take its one outcome.
            target = _matching_target(transition, value, width)
            if target is None:
                packets.append(Bits("".join(block)))
                return True
            return walk(target, block, spans, dirty, pinned, depth + 1)

        if header not in spans:
            # Never extracted on this path: the guard reads the all-zero
            # default store, deterministically.
            width = aut.header_size(header)
            if sub is not None:
                width = sub[1] - sub[0] + 1
            return follow(0, width)
        offset, width = spans[header]
        if sub is not None:
            if sub[1] >= width:
                return False
            offset, width = offset + sub[0], sub[1] - sub[0] + 1
        span_bits = frozenset(range(offset, offset + width))
        if span_bits & pinned:
            # An earlier select already fixed (some of) these bits; the
            # guard value is whatever the path wrote there.
            return follow(int("".join(block[offset : offset + width]) or "0", 2), width)
        pinned_here = pinned | span_bits
        matched: List[int] = []
        saw_wildcard = False
        for case in transition.cases:
            pattern = case.patterns[0]
            if isinstance(pattern, ExactPattern):
                value = pattern.value.to_int()
                if value in matched:
                    continue  # shadowed by an earlier identical guard
                branch_value: Optional[int] = value if not saw_wildcard else None
                matched.append(value)
            elif isinstance(pattern, WildcardPattern):
                if saw_wildcard:
                    continue
                saw_wildcard = True
                branch_value = next(
                    (v for v in range(1 << width) if v not in matched), None
                )
            else:
                return False
            if branch_value is None:
                continue  # unreachable case (after a wildcard, or no free value)
            branched = list(block)
            branched[offset : offset + width] = list(
                Bits.from_int(branch_value, width).to_bitstring()
            )
            if not walk(case.target, branched, spans, dirty, pinned_here, depth + 1):
                return False
        if not saw_wildcard:
            # The implicit reject fall-through, when a non-matching value exists.
            free = next((v for v in range(1 << width) if v not in matched), None)
            if free is not None:
                fallthrough = list(block)
                fallthrough[offset : offset + width] = list(
                    Bits.from_int(free, width).to_bitstring()
                )
                packets.append(Bits("".join(fallthrough)))
        return True

    if not walk(start, [], {}, frozenset(), frozenset(), 0):
        return None
    return packets


def find_witness(
    left: P4Automaton,
    left_start: str,
    right: P4Automaton,
    right_start: str,
    rng: random.Random,
    fuzz_packets: int = 256,
) -> Optional[Bits]:
    """A packet accepted by exactly one side (under all-zero initial stores).

    Candidates are the control-path packets of both sides plus one-bit length
    perturbations of each (mismatched extract widths shift every later bit,
    so truncations/extensions catch them); if the structured candidates all
    agree, falls back to the oracle's seeded structure-aware sampler.
    """
    candidates: List[Bits] = [Bits("")]
    for aut, start in ((left, left_start), (right, right_start)):
        paths = path_packets(aut, start)
        if paths:
            candidates.extend(paths)
    seen = set()
    expanded: List[Bits] = []
    for packet in candidates:
        for variant in (
            packet,
            packet.concat(Bits("0")),
            packet.concat(Bits("1")),
            packet.take(packet.width - 1) if packet.width else packet,
        ):
            key = variant.to_bitstring()
            if key not in seen:
                seen.add(key)
                expanded.append(variant)
    left_runner, right_runner = BlockRunner(left), BlockRunner(right)
    for packet in expanded:
        if left_runner.accepts(left_start, packet) != right_runner.accepts(right_start, packet):
            return packet
    from ..oracle.sampler import PacketSampler

    samplers = (
        PacketSampler(left, left_start, rng=rng),
        PacketSampler(right, right_start, rng=rng),
    )
    for index in range(fuzz_packets):
        packet = samplers[index % 2].random_packet()
        if left_runner.accepts(left_start, packet) != right_runner.accepts(right_start, packet):
            return packet
    return None


# ---------------------------------------------------------------------------
# Equivalence-preserving rewrites
# ---------------------------------------------------------------------------


def rename_headers(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Rename every header to a fresh ``g<i>`` name (order shuffled)."""
    names = list(aut.headers)
    rng.shuffle(names)
    mapping = {name: f"g{index}" for index, name in enumerate(names)}
    headers = {mapping[name]: width for name, width in aut.headers.items()}
    states = {}
    for state in aut.states.values():
        ops = []
        for op in state.ops:
            if isinstance(op, Extract):
                ops.append(Extract(mapping[op.header]))
            else:
                ops.append(Assign(mapping[op.header],
                                  _rewrite_expr(op.expr, mapping.__getitem__)))
        transition = state.transition
        if isinstance(transition, Select):
            transition = Select(
                tuple(_rewrite_expr(e, mapping.__getitem__) for e in transition.exprs),
                transition.cases,
            )
        states[state.name] = State(state.name, tuple(ops), transition)
    return _rebuild(aut, headers=headers, states=states)


def clone_state(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """State splitting: clone a state and redirect some incoming edges to it."""
    incoming: Dict[str, List[Tuple[str, Optional[int]]]] = {}
    for source, index, target in _edges(aut):
        if target not in FINAL_STATES:
            incoming.setdefault(target, []).append((source, index))
    candidates = [name for name, edges in incoming.items() if edges]
    if not candidates:
        return None
    original = rng.choice(candidates)
    clone_name = _fresh_name(list(aut.states) + list(FINAL_STATES), f"{original}__c")
    cloned = aut.state(original)
    states = dict(aut.states)
    states[clone_name] = State(clone_name, cloned.ops, cloned.transition)
    result = _rebuild(aut, states=states)
    edges = incoming[original]
    chosen = rng.sample(edges, rng.randint(1, len(edges)))
    for source, index in chosen:
        result = _retarget(result, source, index, clone_name)
    return result


def split_state(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Leap unfusion: split one operation block across two chained states."""
    candidates = []
    for state in aut.states.values():
        extract_indices = [i for i, op in enumerate(state.ops) if isinstance(op, Extract)]
        if len(extract_indices) >= 2:
            # Valid split points leave >= 1 extract on each side.
            lo, hi = extract_indices[0] + 1, extract_indices[-1] + 1
            candidates.append((state, range(lo, hi)))
    if not candidates:
        return None
    state, points = rng.choice(candidates)
    split_at = rng.choice(list(points))
    tail_name = _fresh_name(list(aut.states) + list(FINAL_STATES), f"{state.name}__s")
    states = dict(aut.states)
    states[state.name] = State(state.name, state.ops[:split_at], Goto(tail_name))
    states[tail_name] = State(tail_name, state.ops[split_at:], state.transition)
    return _rebuild(aut, states=states)


def fuse_states(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Leap fusion: inline a ``goto`` successor's block into its predecessor."""
    candidates = [
        state for state in aut.states.values()
        if isinstance(state.transition, Goto)
        and state.transition.target not in FINAL_STATES
        and state.transition.target != state.name
    ]
    if not candidates:
        return None
    head = rng.choice(candidates)
    tail = aut.state(head.transition.target)
    states = dict(aut.states)
    states[head.name] = State(head.name, head.ops + tail.ops, tail.transition)
    return _rebuild(aut, states=states)


def reorder_cases(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Shuffle the disjoint exact-guard prefix of a ``select``."""
    candidates = []
    for state in aut.states.values():
        if not isinstance(state.transition, Select):
            continue
        prefix = []
        values = set()
        for case in state.transition.cases:
            pattern = case.patterns[0] if len(case.patterns) == 1 else None
            if not isinstance(pattern, ExactPattern) or pattern.value in values:
                break
            values.add(pattern.value)
            prefix.append(case)
        if len(prefix) >= 2:
            candidates.append((state, len(prefix)))
    if not candidates:
        return None
    state, prefix_len = rng.choice(candidates)
    cases = list(state.transition.cases)
    prefix = cases[:prefix_len]
    rng.shuffle(prefix)
    transition = Select(state.transition.exprs, tuple(prefix + cases[prefix_len:]))
    states = dict(aut.states)
    states[state.name] = State(state.name, state.ops, transition)
    return _rebuild(aut, states=states)


def inject_dead_state(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Add a well-typed state no edge reaches (and a header only it uses)."""
    header = _fresh_name(aut.headers, "d")
    name = _fresh_name(list(aut.states) + list(FINAL_STATES), "__dead")
    target = rng.choice(list(aut.states) + [ACCEPT, REJECT])
    headers = dict(aut.headers)
    headers[header] = rng.randint(1, 3)
    states = dict(aut.states)
    states[name] = State(name, (Extract(header),), Goto(target))
    return _rebuild(aut, headers=headers, states=states)


EQUIVALENCE_TRANSFORMS: Dict[str, Transform] = {
    "rename-headers": rename_headers,
    "clone-state": clone_state,
    "split-state": split_state,
    "fuse-states": fuse_states,
    "reorder-cases": reorder_cases,
    "inject-dead-state": inject_dead_state,
}


# ---------------------------------------------------------------------------
# Verdict-breaking mutations
# ---------------------------------------------------------------------------


def swap_final_target(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Swap one ``accept`` edge to ``reject`` (or vice versa)."""
    finals = [edge for edge in _edges(aut) if edge[2] in FINAL_STATES]
    if not finals:
        return None
    source, index, target = rng.choice(finals)
    return _retarget(aut, source, index, REJECT if target == ACCEPT else ACCEPT)


def flip_guard(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Replace one exact select guard with a value no other case matches."""
    candidates = []
    for state in aut.states.values():
        transition = state.transition
        if not isinstance(transition, Select) or len(transition.exprs) != 1:
            continue
        used = {
            case.patterns[0].value.to_int()
            for case in transition.cases
            if isinstance(case.patterns[0], ExactPattern)
        }
        for index, case in enumerate(transition.cases):
            pattern = case.patterns[0]
            if not isinstance(pattern, ExactPattern):
                continue
            width = pattern.value.width
            free = [v for v in range(1 << width) if v not in used]
            if free:
                candidates.append((state, index, width, free))
    if not candidates:
        return None
    state, index, width, free = rng.choice(candidates)
    cases = list(state.transition.cases)
    cases[index] = SelectCase(
        (ExactPattern(Bits.from_int(rng.choice(free), width)),), cases[index].target
    )
    states = dict(aut.states)
    states[state.name] = State(
        state.name, state.ops, Select(state.transition.exprs, tuple(cases))
    )
    return _rebuild(aut, states=states)


def drop_case(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Remove one arm of a ``select`` (the empty select rejects)."""
    candidates = [
        state for state in aut.states.values()
        if isinstance(state.transition, Select) and state.transition.cases
    ]
    if not candidates:
        return None
    state = rng.choice(candidates)
    cases = list(state.transition.cases)
    del cases[rng.randrange(len(cases))]
    states = dict(aut.states)
    states[state.name] = State(
        state.name, state.ops, Select(state.transition.exprs, tuple(cases))
    )
    return _rebuild(aut, states=states)


def truncate_extract(aut: P4Automaton, start: str, rng: random.Random) -> Optional[P4Automaton]:
    """Shrink one header's extract width by a bit (patterns truncated to fit).

    Only headers that never appear inside an assignment (either side) are
    eligible, so the mutant stays well-typed without rewriting expressions.
    """
    unsafe = set()
    for state in aut.states.values():
        for op in state.ops:
            if isinstance(op, Assign):
                unsafe.add(op.header)
                unsafe.update(_expr_headers(op.expr))
        if isinstance(state.transition, Select):
            for expr in state.transition.exprs:
                if not isinstance(expr, HeaderRef):
                    unsafe.update(_expr_headers(expr))
    candidates = [
        name for name, width in aut.headers.items()
        if width >= 2 and name not in unsafe
    ]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    new_width = aut.headers[victim] - 1
    headers = dict(aut.headers)
    headers[victim] = new_width
    states = {}
    for state in aut.states.values():
        transition = state.transition
        if isinstance(transition, Select) and any(
            isinstance(expr, HeaderRef) and expr.name == victim
            for expr in transition.exprs
        ):
            cases = tuple(
                SelectCase(
                    tuple(
                        ExactPattern(pattern.value.take(new_width))
                        if isinstance(pattern, ExactPattern) else pattern
                        for pattern in case.patterns
                    ),
                    case.target,
                )
                for case in transition.cases
            )
            transition = Select(transition.exprs, cases)
        states[state.name] = State(state.name, state.ops, transition)
    return _rebuild(aut, headers=headers, states=states)


BREAKING_MUTATIONS: Dict[str, Transform] = {
    "swap-final-target": swap_final_target,
    "flip-guard": flip_guard,
    "drop-case": drop_case,
    "truncate-extract": truncate_extract,
}


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


#: One applied transform, pinned for replay: ``(transform_name, step_seed)``.
#: The step runs against ``random.Random(step_seed)``, so a recorded chain
#: re-derives the exact same automaton from the same base — the property the
#: campaign delta-debugger leans on when it drops camouflage steps.
TransformStep = Tuple[str, int]


def apply_equivalence_chain(
    aut: P4Automaton,
    start: str,
    rng: random.Random,
    count: int,
    attempts: int = 16,
) -> Tuple[P4Automaton, str, Tuple[TransformStep, ...]]:
    """Apply ``count`` equivalence-preserving rewrites (skipping inapplicable
    draws); every intermediate automaton is re-type-checked.  Each applied
    step is returned as a replayable ``(name, step_seed)`` pair."""
    applied: List[TransformStep] = []
    current = aut
    names = list(EQUIVALENCE_TRANSFORMS)
    for _ in range(count):
        for _ in range(attempts):
            name = rng.choice(names)
            step_seed = rng.randrange(1 << 32)
            result = EQUIVALENCE_TRANSFORMS[name](
                current, start, random.Random(step_seed)
            )
            if result is not None:
                check_automaton(result)
                current = result
                applied.append((name, step_seed))
                break
    return current, start, tuple(applied)


def apply_breaking_mutation(
    reference: P4Automaton,
    reference_start: str,
    aut: P4Automaton,
    start: str,
    rng: random.Random,
    mutations: Optional[Iterable[str]] = None,
    attempts: int = 24,
) -> Optional[Tuple[P4Automaton, TransformStep, Bits]]:
    """Mutate ``aut`` until a concrete witness against ``reference`` confirms
    the break; returns ``(mutant, (mutation_name, step_seed), witness)`` or
    ``None``.

    The witness is found (and therefore replayable) under all-zero initial
    stores on both sides, which refutes language equivalence under the
    checker's for-all-stores quantification.
    """
    names = list(mutations) if mutations is not None else list(BREAKING_MUTATIONS)
    unknown = [name for name in names if name not in BREAKING_MUTATIONS]
    if unknown:
        raise SynthesisError(f"unknown mutations: {', '.join(unknown)}")
    for _ in range(attempts):
        name = rng.choice(names)
        step_seed = rng.randrange(1 << 32)
        mutant = BREAKING_MUTATIONS[name](aut, start, random.Random(step_seed))
        if mutant is None:
            continue
        check_automaton(mutant)
        witness = find_witness(reference, reference_start, mutant, start, rng)
        if witness is not None:
            return mutant, (name, step_seed), witness
    return None


def replay_chain(
    aut: P4Automaton,
    start: str,
    steps: Iterable[TransformStep],
) -> Optional[Tuple[P4Automaton, str]]:
    """Re-apply a recorded transform chain (rewrites and/or mutations).

    Deterministic: each step runs against ``random.Random(step_seed)``, so a
    chain recorded by :func:`apply_equivalence_chain` /
    :func:`apply_breaking_mutation` rebuilds the exact same automaton from
    the same base.  Returns ``None`` when a step is inapplicable to the
    (possibly reduced) intermediate automaton; unknown names raise.
    """
    current = aut
    for name, step_seed in steps:
        transform = EQUIVALENCE_TRANSFORMS.get(name) or BREAKING_MUTATIONS.get(name)
        if transform is None:
            raise SynthesisError(f"unknown transform {name!r}")
        result = transform(current, start, random.Random(step_seed))
        if result is None:
            return None
        check_automaton(result)
        current = result
    return current, start
