"""Graph views of P4 automata.

Provides adjacency structure, reachability over states, simple structural
statistics, and DOT export for visualisation.  The equivalence checker's
template-level reachability analysis lives in :mod:`repro.core.reachability`;
this module is about the state graph only.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set, Tuple

from .syntax import FINAL_STATES, P4Automaton, REJECT


def successors(aut: P4Automaton, state: str) -> Tuple[str, ...]:
    """States reachable from ``state`` in one transition (final states map to reject)."""
    if state in FINAL_STATES:
        return (REJECT,)
    return aut.transition_targets(state)


def reachable_states(aut: P4Automaton, start: str) -> Set[str]:
    """All states reachable from ``start``, including final states."""
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for nxt in successors(aut, current):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def unreachable_states(aut: P4Automaton, start: str) -> Set[str]:
    return set(aut.states) - reachable_states(aut, start)


def adjacency(aut: P4Automaton) -> Dict[str, Tuple[str, ...]]:
    return {state: successors(aut, state) for state in aut.states}


def has_cycle(aut: P4Automaton) -> bool:
    """Whether the state graph (excluding final states) contains a cycle.

    Parsers with loops (e.g. MPLS label stacks, TLV options) have cyclic state
    graphs; they still terminate on finite packets because every state consumes
    at least one bit.
    """
    colour: Dict[str, int] = {state: 0 for state in aut.states}

    def visit(state: str) -> bool:
        colour[state] = 1
        for nxt in successors(aut, state):
            if nxt in FINAL_STATES:
                continue
            if colour.get(nxt) == 1:
                return True
            if colour.get(nxt) == 0 and visit(nxt):
                return True
        colour[state] = 2
        return False

    return any(colour[state] == 0 and visit(state) for state in aut.states)


def to_dot(aut: P4Automaton, start: str = None) -> str:
    """Render the state graph in Graphviz DOT format."""
    lines = [f'digraph "{aut.name}" {{', "  rankdir=LR;"]
    lines.append('  accept [shape=doublecircle, color=darkgreen];')
    lines.append('  reject [shape=doublecircle, color=firebrick];')
    for state in aut.states.values():
        bits = aut.op_size(state.name)
        shape = "box" if state.name == start else "ellipse"
        lines.append(f'  "{state.name}" [shape={shape}, label="{state.name}\\n{bits} bits"];')
        for target in successors(aut, state.name):
            lines.append(f'  "{state.name}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines)
