"""Concrete counterexamples: a packet, plus initial stores, the parsers disagree on.

:func:`chain_counterexample` reads the witness off a failed proof.
Algorithm 1 refutes at the first start-pair conjunct the initial formula does
not entail (:mod:`repro.core.algorithm`); that conjunct is the weakest
precondition of an accept-mismatch conjunct along a chain of leaps, and the
entailment checker's counter-model for it assigns the leap variables and the
initial headers.

:class:`CounterexampleSearch`, a bounded forward BFS over the joint template
graph with fingerprint-keyed dominance pruning, is no check's path any more;
it stays as the tests' independent reference.

Either way the packet is replayed through both parsers before it is
returned.  A model whose replay does *not* reproduce the mismatch is a
soundness red flag for the symbolic pipeline: it is reported with a
:class:`RuntimeWarning` instead of becoming a refutation.  (The paper's tool
reports no counterexamples; a failed proof search is simply "stuck".)
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import counters
from ..logic.compile import lower_formula, variable_name
from ..logic.confrel import (
    LEFT,
    RIGHT,
    BVExpr,
    CBuf,
    CConcat,
    CHdr,
    CLit,
    CSlice,
    CVar,
    FAnd,
    FTrue,
    Formula,
    TRUE,
    canonical_names,
    canonicalize_variables,
)
from ..logic.fingerprint import confrel_fingerprint
from ..logic.folconf import store_variable_name
from ..logic.simplify import mk_and, mk_concat, mk_eq, simplify_formula
from ..p4a.bitvec import Bits
from ..p4a.semantics import Store, accepts
from ..p4a.syntax import P4Automaton, REJECT
from ..smt.backend import InternalBackend, SolverBackend
from ..smt.bvsolver import SatStatus
from .templates import Template, TemplatePair, leap_size
from .wp import exec_ops_symbolic, initial_symbolic_store, transition_conditions


@dataclass
class Counterexample:
    """A packet (plus initial stores) on which the two parsers disagree."""

    packet: Bits
    left_store: Store
    right_store: Store
    left_accepts: bool
    right_accepts: bool
    #: Widths of the leap variables the packet was assembled from (used by the
    #: oracle's minimizer to drop whole leaps at a time); empty when unknown.
    leap_widths: Tuple[int, ...] = ()
    #: Width of the packet before minimization, when the oracle shortened it.
    minimized_from: Optional[int] = None

    def __str__(self) -> str:
        suffix = ""
        if self.minimized_from is not None and self.minimized_from != self.packet.width:
            suffix = f", minimized from {self.minimized_from} bits"
        return (
            f"packet {self.packet} "
            f"(left {'accepts' if self.left_accepts else 'rejects'}, "
            f"right {'accepts' if self.right_accepts else 'rejects'}{suffix})"
        )


@dataclass
class CounterexampleStatistics:
    """Counters describing one or more searches of one :class:`CounterexampleSearch`."""

    expanded: int = 0       # nodes popped and forwarded by one leap
    successors: int = 0     # successor nodes constructed (post-dedup)
    deduped: int = 0        # successors pruned by the visited fingerprint set
    sat_checks: int = 0
    pruned_unsat: int = 0
    enqueued: int = 0
    extractions: int = 0    # SAT mismatch nodes whose model was replayed
    replay_divergences: int = 0  # models whose concrete replay disagreed


@dataclass
class _SearchNode:
    pair: TemplatePair
    condition: Formula
    left_env: Dict[str, BVExpr]
    right_env: Dict[str, BVExpr]
    left_buffer: BVExpr
    right_buffer: BVExpr
    leap_vars: Tuple[CVar, ...]
    activations: Tuple[int, ...] = ()


def _forward_leap(
    aut: P4Automaton,
    template: Template,
    leap: int,
    leap_var: CVar,
    env: Dict[str, BVExpr],
    buffer: BVExpr,
) -> List[Tuple[Template, Formula, Dict[str, BVExpr], BVExpr]]:
    """Forward-execute one side by ``leap`` bits from a symbolic state."""
    if template.is_final():
        return [(Template(REJECT, 0), TRUE, env, CLit(Bits("")))]
    needed = aut.op_size(template.state)
    data = mk_concat(buffer, leap_var)
    if template.pos + leap < needed:
        return [(Template(template.state, template.pos + leap), TRUE, env, data)]
    post_env = exec_ops_symbolic(aut, template.state, env, data)
    outcomes = []
    for target, condition in transition_conditions(aut, template.state, post_env).items():
        outcomes.append((Template(target, 0), condition, post_env, CLit(Bits(""))))
    return outcomes


def chain_counterexample(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    conjunct: Formula,
    model: Dict[str, Bits],
    path: Sequence[Tuple[str, int]],
) -> Optional[Counterexample]:
    """The packet a failed start-pair conjunct encodes, confirmed by replay.

    ``model`` is the entailment checker's counter-model for ``conjunct``
    (over the names ``canonicalize_variables(conjunct, prefix="x")`` gave
    it) and ``path`` the conjunct's WP chain, one (leap variable name,
    width) per step from the start pair.  A name is read at the outermost
    step that uses it: a deeper step reuses a name only once its own
    variable has been simplified away, so its bits are free and zero-filled.
    """
    canonical = canonical_names(conjunct, prefix="x")
    chunks: List[Bits] = []
    read: Set[str] = set()
    for name, width in path:
        value = None
        if name not in read and name in canonical:
            value = model.get(variable_name(canonical[name]))
        read.add(name)
        chunks.append(value if value is not None else Bits.zeros(width))
    return _replayed_witness(
        left_aut, left_start, right_aut, right_start, model, chunks, "the WP chain"
    )


def _replayed_witness(
    left_aut: P4Automaton,
    left_start: str,
    right_aut: P4Automaton,
    right_start: str,
    model: Dict[str, Bits],
    chunks: Sequence[Bits],
    source: str,
) -> Optional[Counterexample]:
    """The packet ``chunks`` (one per leap) under ``model``'s initial headers.

    Headers the model leaves out are zero.  Returns ``None``, with a
    :class:`RuntimeWarning` naming ``source``, when the concrete replay
    does not reproduce a mismatch.
    """

    def store(side: str, aut: P4Automaton) -> Store:
        return {
            name: model.get(store_variable_name(side, name), Bits.zeros(width))
            for name, width in aut.headers.items()
        }

    packet = Bits("")
    for chunk in chunks:
        packet = packet.concat(chunk)
    left_store, right_store = store(LEFT, left_aut), store(RIGHT, right_aut)
    left_accepts = accepts(left_aut, left_start, packet, left_store)
    right_accepts = accepts(right_aut, right_start, packet, right_store)
    if left_accepts == right_accepts:
        warnings.warn(
            f"counterexample model diverged from concrete replay: packet {packet} "
            f"is {'accepted' if left_accepts else 'rejected'} by both parsers "
            f"although {source} predicted a mismatch; the symbolic pipeline and "
            "the interpreter disagree",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return Counterexample(
        packet,
        left_store,
        right_store,
        left_accepts,
        right_accepts,
        leap_widths=tuple(chunk.width for chunk in chunks),
    )


# ---------------------------------------------------------------------------
# Live-projection fingerprints for the visited set
# ---------------------------------------------------------------------------


def _expr_tokens(expr: BVExpr, into: Set[tuple]) -> None:
    if isinstance(expr, CVar):
        into.add(("v", expr.name))
    elif isinstance(expr, CHdr):
        into.add(("h", expr.side, expr.name))
    elif isinstance(expr, CBuf):
        into.add(("b", expr.side))
    elif isinstance(expr, CSlice):
        _expr_tokens(expr.expr, into)
    elif isinstance(expr, CConcat):
        _expr_tokens(expr.left, into)
        _expr_tokens(expr.right, into)


def _formula_tokens(formula: Formula) -> Set[tuple]:
    from ..logic.confrel import iter_exprs

    tokens: Set[tuple] = set()
    for expr in iter_exprs(formula):
        _expr_tokens(expr, tokens)
    return tokens


def _flatten_and(formula: Formula) -> List[Formula]:
    if isinstance(formula, FAnd):
        parts: List[Formula] = []
        for operand in formula.operands:
            parts.extend(_flatten_and(operand))
        return parts
    if isinstance(formula, FTrue):
        return []
    return [formula]


class _VisitedSet:
    """Fingerprint-keyed dominance pruning for search nodes.

    Two nodes with the same fingerprint reach exactly the same future
    mismatches *modulo the search bounds* — but the bounds matter: a twin
    that consumed fewer packet bits (or fewer leaps) has more budget left, so
    it may reach mismatches the earlier twin cannot.  Each fingerprint
    therefore keeps the Pareto frontier of ``(consumed bits, leap depth)``
    pairs seen so far, and a new node is pruned only when some retained twin
    dominates it on both coordinates.  Loop iterations (same live state,
    strictly more consumed and deeper) are always dominated — the common
    case the visited set exists for — while a cheaper late-discovered twin
    is still explored.
    """

    def __init__(self) -> None:
        self._frontier: Dict[Tuple[TemplatePair, str], List[Tuple[int, int]]] = {}

    def dominated(self, node: _SearchNode) -> bool:
        """True (and no insertion) iff a retained twin dominates ``node``."""
        key = _node_fingerprint(node)
        consumed = sum(var.var_width for var in node.leap_vars)
        depth = len(node.leap_vars)
        entries = self._frontier.setdefault(key, [])
        for seen_consumed, seen_depth in entries:
            if seen_consumed <= consumed and seen_depth <= depth:
                return True
        entries[:] = [
            (c, d) for c, d in entries if not (consumed <= c and depth <= d)
        ]
        entries.append((consumed, depth))
        return False


def _node_fingerprint(node: _SearchNode) -> Tuple[TemplatePair, str]:
    """The visited-set key: template pair plus canonical live path state.

    Conjuncts whose variables are disconnected from the symbolic environment
    (constraints on packet bits long consumed, or on initial header values no
    header still refers to) cannot influence which *future* mismatches are
    reachable — they were satisfiable when the node was enqueued and share no
    variables with anything the future can mention.  Projecting them away
    before fingerprinting makes loop iterations that differ only in dead
    history collide, which is what turns the BFS visited set into an actual
    loop breaker.
    """
    conjuncts = _flatten_and(node.condition)
    live: Set[tuple] = set()
    for env in (node.left_env, node.right_env):
        for expr in env.values():
            _expr_tokens(expr, live)
    _expr_tokens(node.left_buffer, live)
    _expr_tokens(node.right_buffer, live)
    pending = [(conjunct, _formula_tokens(conjunct)) for conjunct in conjuncts]
    kept: List[Formula] = []
    changed = True
    while changed:
        changed = False
        remaining = []
        for conjunct, tokens in pending:
            if not tokens or tokens & live:
                kept.append(conjunct)
                live |= tokens
                changed = True
            else:
                remaining.append((conjunct, tokens))
        pending = remaining
    parts: List[Formula] = list(kept)
    for side, env in ((LEFT, node.left_env), (RIGHT, node.right_env)):
        for name in sorted(env):
            value = env[name]
            parts.append(mk_eq(CHdr(side, name, value.width), value))
    for tag, buffer in (("L", node.left_buffer), ("R", node.right_buffer)):
        if buffer.width:
            parts.append(mk_eq(CVar(f"__buf{tag}", buffer.width), buffer))
    canonical = canonicalize_variables(mk_and(parts), prefix="n")
    return (node.pair, confrel_fingerprint(canonical))


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


class CounterexampleSearch:
    """A reusable bounded search for distinguishing packets (test-only reference).

    One instance owns a solver backend and one session of it, shared by
    every :meth:`search` call: each simplified edge conjunct is pushed into
    the session once (keyed by the formula) behind an activation
    literal, and checking a node assumes the literals along its path.  So a
    repeated search, with the same or tighter bounds, re-encodes nothing.
    """

    def __init__(
        self,
        left_aut: P4Automaton,
        left_start: str,
        right_aut: P4Automaton,
        right_start: str,
        backend: Optional[SolverBackend] = None,
        statistics: Optional[CounterexampleStatistics] = None,
    ) -> None:
        self.left_aut = left_aut
        self.left_start = left_start
        self.right_aut = right_aut
        self.right_start = right_start
        self.backend = backend or InternalBackend()
        self._session = self.backend.incremental_session()
        self.statistics = statistics if statistics is not None else CounterexampleStatistics()

    # ------------------------------------------------------------------

    def search(
        self,
        max_leaps: int = 32,
        max_packet_bits: int = 4096,
        initial_condition: Formula = TRUE,
        dedup: bool = True,
    ) -> Optional[Counterexample]:
        """Breadth-first search over leaps; ``None`` if no counterexample.

        ``None`` is *not* a proof of equivalence — the search is bounded by
        ``max_leaps`` and ``max_packet_bits``.
        """
        # The search solves on a backend of its own.  Its work is reported in
        # :attr:`statistics`, so it stays out of the open check's ledger.
        with counters.suspended():
            return self._search(max_leaps, max_packet_bits, initial_condition, dedup)

    def _search(
        self,
        max_leaps: int,
        max_packet_bits: int,
        initial_condition: Formula,
        dedup: bool,
    ) -> Optional[Counterexample]:
        stats = self.statistics
        condition = simplify_formula(initial_condition)
        activations: Tuple[int, ...] = ()
        if not isinstance(condition, FTrue):
            activations = (self._session.activation(lower_formula(condition)),)
        start = _SearchNode(
            pair=TemplatePair(Template(self.left_start, 0), Template(self.right_start, 0)),
            condition=condition,
            left_env=initial_symbolic_store(self.left_aut, LEFT),
            right_env=initial_symbolic_store(self.right_aut, RIGHT),
            left_buffer=CLit(Bits("")),
            right_buffer=CLit(Bits("")),
            leap_vars=(),
            activations=activations,
        )
        queue = deque([start])
        visited = _VisitedSet()
        if dedup:
            visited.dominated(start)  # seed the frontier with the root
        # Deterministic per-call leap-variable naming: a repeated search
        # rebuilds structurally identical conditions, so the
        # incremental session's memo reuses their encodings.
        var_counter = 0
        while queue:
            node = queue.popleft()
            if node.pair.accept_mismatch():
                candidate = self._try_extract(node)
                if candidate is not None:
                    return candidate
                continue
            if len(node.leap_vars) >= max_leaps:
                continue
            consumed = sum(var.var_width for var in node.leap_vars)
            leap = leap_size(self.left_aut, self.right_aut, node.pair)
            if consumed + leap > max_packet_bits:
                continue
            if node.pair.left.state == REJECT and node.pair.right.state == REJECT:
                continue  # both stuck in reject; no future mismatch possible
            stats.expanded += 1
            leap_var = CVar(f"cexpkt{var_counter}", leap)
            var_counter += 1
            left_outcomes = _forward_leap(
                self.left_aut, node.pair.left, leap, leap_var,
                node.left_env, node.left_buffer,
            )
            right_outcomes = _forward_leap(
                self.right_aut, node.pair.right, leap, leap_var,
                node.right_env, node.right_buffer,
            )
            for left_target, left_condition, left_env, left_buffer in left_outcomes:
                for right_target, right_condition, right_env, right_buffer in right_outcomes:
                    edge = simplify_formula(mk_and([left_condition, right_condition]))
                    successor = _SearchNode(
                        pair=TemplatePair(left_target, right_target),
                        condition=simplify_formula(mk_and([node.condition, edge])),
                        left_env=left_env,
                        right_env=right_env,
                        left_buffer=left_buffer,
                        right_buffer=right_buffer,
                        leap_vars=node.leap_vars + (leap_var,),
                        activations=node.activations,
                    )
                    if dedup and visited.dominated(successor):
                        stats.deduped += 1
                        continue
                    stats.successors += 1
                    if not isinstance(edge, FTrue):
                        literal = self._session.activation(lower_formula(edge))
                        successor.activations = node.activations + (literal,)
                    stats.sat_checks += 1
                    result = self._session.check(successor.activations)
                    if result.status is not SatStatus.UNSAT:
                        stats.enqueued += 1
                        queue.append(successor)
                    else:
                        stats.pruned_unsat += 1
        return None

    # ------------------------------------------------------------------

    def _try_extract(self, node: _SearchNode) -> Optional[Counterexample]:
        """Solve the node's path condition and confirm the candidate concretely."""
        variables: Dict[str, int] = {}
        for name, width in self.left_aut.headers.items():
            variables[store_variable_name(LEFT, name)] = width
        for name, width in self.right_aut.headers.items():
            variables[store_variable_name(RIGHT, name)] = width
        for leap_var in node.leap_vars:
            variables[variable_name(leap_var.name)] = leap_var.var_width
        result = self._session.check(node.activations, variables=variables)
        if result.status is not SatStatus.SAT:
            return None
        model = result.model or {}
        self.statistics.extractions += 1
        chunks = [
            model.get(variable_name(var.name), Bits.zeros(var.var_width))
            for var in node.leap_vars
        ]
        witness = _replayed_witness(
            self.left_aut, self.left_start, self.right_aut, self.right_start,
            model, chunks, f"the path condition at {node.pair}",
        )
        if witness is None:
            # Count it and keep searching.
            self.statistics.replay_divergences += 1
        return witness
