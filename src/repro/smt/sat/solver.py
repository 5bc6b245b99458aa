"""An incremental CDCL (conflict-driven clause learning) SAT solver.

This is the workhorse behind the internal bitvector decision procedure.  The
implementation follows the standard MiniSat-style architecture:

* two-watched-literal unit propagation, with a dedicated fast path for
  binary clauses (the other literal is implied immediately, no watch walk),
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-like variable activities with exponential decay (heap-ordered),
* Luby-sequence restarts,
* phase saving,
* **incremental solving under assumptions**: clauses can be added between
  :meth:`CdclSolver.solve` calls, and each call may pass a list of assumption
  literals that are seeded as the first decisions.  Learned clauses, variable
  activities and saved phases are all retained across calls, so a sequence of
  related queries shares its search effort.  When a solve under assumptions
  returns unsat, :attr:`CdclSolver.last_conflict` holds a subset of the
  assumptions that is already sufficient for the conflict (the MiniSat
  "final conflict" analysis).

Clauses live in an **arena** (:attr:`CdclSolver._arena`), a list of literal
lists that only grows: watch lists and variable reasons store arena indices.
Every learned clause is kept for the solver's lifetime: the verification
conditions here learn few clauses, far from the long searches where
learned-clause deletion pays off.

Learned clauses are sound across calls because conflict analysis only resolves
over clauses in the database — an assumption enters a learned clause only as a
regular decision literal, so the learned clause is implied by the problem
clauses alone and remains valid for every later assumption set.

The solver works on the :class:`~repro.smt.sat.cnf.Cnf` representation
produced by the bit-blaster.  It favours clarity over raw speed, but is fast
enough to discharge the verification conditions arising from the case studies
in this repository.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf import Cnf

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


@dataclass
class SolverStats:
    """Counters reported by :meth:`CdclSolver.solve` (cumulative across calls).

    ``propagations`` counts **implications enqueued** — assignments forced by
    a clause during unit propagation — not trail positions scanned (earlier
    versions conflated the two).
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    solve_calls: int = 0


class CdclSolver:
    """A CDCL solver over a growable CNF instance.

    ``CdclSolver(cnf)`` loads an initial instance; ``CdclSolver()`` starts
    empty.  :meth:`add_clause` appends problem clauses at any point between
    solve calls, and :meth:`ensure_num_vars` grows the variable range (both
    are implicit for clauses mentioning new variables).
    """

    def __init__(self, cnf: Optional[Cnf] = None) -> None:
        self._num_vars = 0
        #: Every stored clause (problem and learned) of two or more literals;
        #: watches and reasons refer to clauses by their index here.
        self._arena: List[List[int]] = []
        # values[v] ∈ {_TRUE, _FALSE, _UNASSIGNED}, indexed by variable.
        self._values: List[int] = [_UNASSIGNED]
        self._levels: List[int] = [0]
        self._reasons: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        # Watches for clauses of three or more literals: falsified watched
        # literal -> arena ids.  Binary clauses use the dedicated map below:
        # falsified literal -> (implied literal, arena id) pairs.
        self._watches: Dict[int, List[int]] = {}
        self._bin_watches: Dict[int, List[Tuple[int, int]]] = {}
        self._order_heap: List[Tuple[float, int]] = []
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._queue_position = 0
        # (decision-var set, local activity heap) during a restricted solve.
        self._restricted: Optional[Tuple[set, List[Tuple[float, int]]]] = None
        self.stats = SolverStats()
        self._ok = True
        #: After an unsat :meth:`solve` under assumptions: a subset of the
        #: assumption literals whose conjunction is already contradictory.
        #: Empty when the clause database is unsat regardless of assumptions.
        self.last_conflict: List[int] = []
        if cnf is not None:
            self.ensure_num_vars(cnf.num_vars)
            for clause in cnf.clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable range to at least ``num_vars``."""
        while self._num_vars < num_vars:
            self._num_vars += 1
            self._values.append(_UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            heapq.heappush(self._order_heap, (0.0, self._num_vars))

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a problem clause; callable between :meth:`solve` calls.

        The solver first retracts to decision level 0, so root-level facts are
        the only assignments in force; the clause is then simplified against
        them (satisfied clauses dropped, permanently false literals removed).
        """
        if not self._ok:
            return
        self._backjump(0)
        unique: List[int] = []
        seen = set()
        for literal in literals:
            if -literal in seen:
                return  # tautology
            if literal in seen:
                continue
            seen.add(literal)
            self.ensure_num_vars(abs(literal))
            value = self._value(literal)
            if value == _TRUE:
                return  # satisfied by a root-level fact, forever
            if value == _FALSE:
                continue  # permanently false literal
            unique.append(literal)
        if not unique:
            self._ok = False
            return
        if len(unique) == 1:
            if not self._enqueue(unique[0], None):
                self._ok = False
            return
        self._store_clause(unique)

    def _store_clause(self, literals: List[int]) -> int:
        """Place a clause in the arena and register its watches."""
        index = len(self._arena)
        self._arena.append(literals)
        if len(literals) == 2:
            self._bin_watches.setdefault(-literals[0], []).append((literals[1], index))
            self._bin_watches.setdefault(-literals[1], []).append((literals[0], index))
        else:
            self._watch(literals[0], index)
            self._watch(literals[1], index)
        return index

    def _add_learned(self, literals: List[int]) -> int:
        if len(literals) < 2:
            raise ValueError("learned clauses with < 2 literals are enqueued directly")
        # Watch invariant for an asserting clause learned at a backjump:
        # position 0 is the asserting literal and position 1 must be a
        # falsified literal of the *highest* remaining decision level —
        # watching an arbitrary literal instead breaks the "a watch only
        # falsifies when the clause is visited" invariant after backjumping
        # and silently misses unit implications.
        best = 1
        for position in range(2, len(literals)):
            if self._levels[abs(literals[position])] > self._levels[abs(literals[best])]:
                best = position
        if best != 1:
            literals[1], literals[best] = literals[best], literals[1]
        index = self._store_clause(literals)
        self.stats.learned_clauses += 1
        return index

    def _watch(self, literal: int, clause_index: int) -> None:
        self._watches.setdefault(-literal, []).append(clause_index)

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def _value(self, literal: int) -> int:
        value = self._values[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        current = self._value(literal)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        variable = abs(literal)
        self._values[variable] = _TRUE if literal > 0 else _FALSE
        self._levels[variable] = self._decision_level()
        self._reasons[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        if reason is not None:
            # An implication actually enqueued — the propagation count the
            # reports care about (not trail positions scanned).
            self.stats.propagations += 1
        return True

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Exhaustive unit propagation; returns a conflicting arena id or None."""
        queue_position = self._queue_position
        arena = self._arena
        while queue_position < len(self._trail):
            literal = self._trail[queue_position]
            queue_position += 1
            # Binary fast path: the other literal is implied outright, no
            # watch relocation to attempt and no clause walk.
            binaries = self._bin_watches.get(literal)
            if binaries:
                for other, clause_index in binaries:
                    value = self._value(other)
                    if value == _FALSE:
                        self._queue_position = len(self._trail)
                        return clause_index
                    if value == _UNASSIGNED:
                        self._enqueue(other, clause_index)
            watch_list = self._watches.get(literal, [])
            new_watch_list = []
            i = 0
            while i < len(watch_list):
                clause_index = watch_list[i]
                i += 1
                clause = arena[clause_index]
                # Ensure the falsified literal is at position 1.
                if clause[0] == -literal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == _TRUE:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch.
                found = False
                for position in range(2, len(clause)):
                    if self._value(clause[position]) != _FALSE:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watch(clause[1], clause_index)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watch_list.append(clause_index)
                if self._value(first) == _FALSE:
                    new_watch_list.extend(watch_list[i:])
                    self._watches[literal] = new_watch_list
                    self._queue_position = len(self._trail)
                    return clause_index
                self._enqueue(first, clause_index)
            self._watches[literal] = new_watch_list
        self._queue_position = queue_position
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._activity_increment *= 1e-100
            # The heaps still hold pre-rescale priorities, which would
            # dominate every post-rescale push and corrupt the decision
            # order; rebuild them against the rescaled activities.
            self._rebuild_heaps()
        heapq.heappush(self._order_heap, (-self._activity[variable], variable))
        if self._restricted is not None and variable in self._restricted[0]:
            heapq.heappush(self._restricted[1], (-self._activity[variable], variable))

    def _rebuild_heaps(self) -> None:
        """Rebuild the order heap (and any restricted heap) from scratch.

        Every unassigned variable gets exactly one fresh entry, preserving
        the lazy-heap invariant that an unassigned variable is always
        reachable by popping.
        """
        self._order_heap = [
            (-self._activity[variable], variable)
            for variable in range(1, self._num_vars + 1)
            if self._values[variable] == _UNASSIGNED
        ]
        heapq.heapify(self._order_heap)
        if self._restricted is not None:
            decision_set = self._restricted[0]
            local_heap = [
                (-self._activity[variable], variable)
                for variable in decision_set
                if variable <= self._num_vars
                and self._values[variable] == _UNASSIGNED
            ]
            heapq.heapify(local_heap)
            self._restricted = (decision_set, local_heap)

    def _decay_activities(self) -> None:
        self._activity_increment /= self._activity_decay

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP analysis.

        Returns ``(learned clause, backjump level)``: the clause's first
        literal is the negated first unique implication point, and the
        backjump level is the highest level among the other literals.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = 0
        clause = self._arena[conflict_index]
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            for clause_literal in clause:
                if literal != 0 and clause_literal == literal:
                    continue
                variable = abs(clause_literal)
                if seen[variable] or self._levels[variable] == 0:
                    continue
                seen[variable] = True
                self._bump(variable)
                if self._levels[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            resolve_literal = self._trail[trail_index]
            variable = abs(resolve_literal)
            seen[variable] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                learned[0] = -resolve_literal
                break
            clause = self._arena[self._reasons[variable]]
            literal = resolve_literal

        if len(learned) == 1:
            return learned, 0
        backjump = max(self._levels[abs(l)] for l in learned[1:])
        return learned, backjump

    def _analyze_final(self, literal: int) -> List[int]:
        """``literal`` is an assumption found false: which assumptions caused it?

        Walks the implication graph from ``¬literal`` back to the decisions of
        the current (assumption-only) prefix.  Returns a subset of the
        assumption literals, including ``literal`` itself, whose conjunction
        is already contradictory with the clause database.
        """
        failed = [literal]
        if self._decision_level() == 0:
            return failed
        seen = [False] * (self._num_vars + 1)
        seen[abs(literal)] = True
        for index in range(len(self._trail) - 1, self._trail_limits[0] - 1, -1):
            trail_literal = self._trail[index]
            variable = abs(trail_literal)
            if not seen[variable]:
                continue
            reason = self._reasons[variable]
            if reason is None:
                # A decision inside the assumption prefix is an assumption.
                failed.append(trail_literal)
            else:
                for clause_literal in self._arena[reason]:
                    other = abs(clause_literal)
                    if other != variable and self._levels[other] > 0:
                        seen[other] = True
            seen[variable] = False
        return failed

    def _backjump(self, level: int) -> None:
        restricted = self._restricted
        while self._decision_level() > level:
            limit = self._trail_limits.pop()
            while len(self._trail) > limit:
                literal = self._trail.pop()
                variable = abs(literal)
                self._values[variable] = _UNASSIGNED
                self._reasons[variable] = None
                heapq.heappush(
                    self._order_heap, (-self._activity[variable], variable)
                )
                if restricted is not None and variable in restricted[0]:
                    heapq.heappush(
                        restricted[1], (-self._activity[variable], variable)
                    )
        self._queue_position = min(self._queue_position, len(self._trail))

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        # Lazy activity-ordered heap: entries may carry stale priorities (the
        # heap is not rebuilt on decay/bump), but every unassigned variable
        # always has at least one entry — pushed on creation, on unassignment
        # and on every bump — so popping until an unassigned variable appears
        # is a sound approximation of exact VSIDS order.  A restricted solve
        # draws from its own heap over the decision-variable subset instead.
        if self._restricted is not None:
            local = self._restricted[1]
            while local:
                _, variable = heapq.heappop(local)
                if self._values[variable] == _UNASSIGNED:
                    return variable if self._phase[variable] else -variable
            return None
        while self._order_heap:
            _, variable = heapq.heappop(self._order_heap)
            if self._values[variable] == _UNASSIGNED:
                return variable if self._phase[variable] else -variable
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence 1 1 2 1 1 2 4 ... (``index`` starts at 1)."""
        if index < 1:
            index = 1
        while True:
            # Smallest k with index <= 2^k - 1.
            k = 1
            while (1 << k) - 1 < index:
                k += 1
            if index == (1 << k) - 1:
                return 1 << (k - 1)
            index -= (1 << (k - 1)) - 1

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        assumptions: Optional[Sequence[int]] = None,
        stop=None,
    ) -> Tuple[Optional[bool], Optional[Dict[int, bool]]]:
        """Solve the current instance, optionally under ``assumptions``.

        Returns ``(True, model)``, ``(False, None)`` or ``(None, None)`` when
        ``max_conflicts`` is exhausted or ``stop`` (a ``threading.Event``) is
        set by another thread.  Assumption literals are decided (in order)
        before any free decision; on an unsat answer, :attr:`last_conflict`
        names the responsible assumption subset.  The solver object stays
        usable afterwards: more clauses may be added and further solve calls
        reuse everything learned so far.
        """
        sat, values = self.solve_values(
            max_conflicts=max_conflicts, assumptions=assumptions, stop=stop
        )
        if not sat:
            return sat, None
        model = {
            variable: values[variable] == _TRUE
            for variable in range(1, self._num_vars + 1)
        }
        return True, model

    def solve_values(
        self,
        max_conflicts: Optional[int] = None,
        assumptions: Optional[Sequence[int]] = None,
        decision_vars: Optional[Iterable[int]] = None,
        stop=None,
    ) -> Tuple[Optional[bool], Optional[List[int]]]:
        """Like :meth:`solve`, but a sat answer returns the raw value array.

        ``values[v]`` is ``1`` (true) or ``-1`` (false) for variable ``v``
        (``0`` for variables left unassigned by a restricted solve; index 0
        unused).  Incremental callers with thousands of session variables
        decode only the bits they care about, so they skip the full
        model-dictionary construction of :meth:`solve`.

        ``decision_vars`` restricts free decisions to the given variables.
        This is only sound when every clause involving an excluded variable is
        *definitional* (Tseitin gates, guard clauses): then a propagation
        fixpoint with every decision variable assigned always extends to a
        total model — gate outputs are functions of their inputs and unused
        guards are satisfiable by deactivation — so "sat" answers remain
        genuine while the search never wanders into foreign subformulas.  The
        incremental session is exactly that shape; general callers must leave
        it ``None``.
        """
        assumptions = list(assumptions) if assumptions else []
        self.last_conflict = []
        self.stats.solve_calls += 1
        if not self._ok:
            return False, None
        for literal in assumptions:
            if literal == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.ensure_num_vars(abs(literal))
        self._backjump(0)
        if decision_vars is not None:
            decision_set = set(decision_vars)
            local_heap = [
                (-self._activity[variable], variable)
                for variable in decision_set
                if variable <= self._num_vars
                and self._values[variable] == _UNASSIGNED
            ]
            heapq.heapify(local_heap)
            self._restricted = (decision_set, local_heap)
        try:
            return self._search(max_conflicts, assumptions, stop)
        finally:
            self._restricted = None

    def _search(
        self, max_conflicts: Optional[int], assumptions: List[int], stop=None
    ) -> Tuple[Optional[bool], Optional[List[int]]]:
        conflict = self._propagate()
        if conflict is not None:
            # A root-level conflict dooms every later call too.
            self._ok = False
            return False, None
        restart_count = 1
        restart_limit = 32 * self._luby(restart_count)
        conflicts_since_restart = 0
        total_conflicts = 0

        while True:
            if stop is not None and stop.is_set():
                # Cooperative cancellation (another thread set ``stop``):
                # abandon the search between propagations, keeping the
                # solver reusable.
                self._backjump(0)
                return None, None
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return False, None
                learned, backjump_level = self._analyze(conflict)
                self._backjump(backjump_level)
                if len(learned) == 1:
                    self.stats.learned_clauses += 1
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return False, None
                else:
                    index = self._add_learned(learned)
                    self._enqueue(learned[0], index)
                self._decay_activities()
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self._backjump(0)
                    return None, None
                if conflicts_since_restart >= restart_limit:
                    restart_count += 1
                    self.stats.restarts += 1
                    restart_limit = 32 * self._luby(restart_count)
                    conflicts_since_restart = 0
                    self._backjump(0)
                continue
            decision: Optional[int] = None
            while self._decision_level() < len(assumptions):
                assumption = assumptions[self._decision_level()]
                value = self._value(assumption)
                if value == _TRUE:
                    # Already implied: open a vacuous level to keep the
                    # level ↔ assumption-index correspondence.
                    self._trail_limits.append(len(self._trail))
                    continue
                if value == _FALSE:
                    self.last_conflict = self._analyze_final(assumption)
                    self._backjump(0)
                    return False, None
                decision = assumption
                break
            if decision is None:
                decision = self._decide()
                if decision is None:
                    values = list(self._values)
                    self._backjump(0)
                    return True, values
            self.stats.decisions += 1
            self._trail_limits.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self._decision_level()
            )
            self._enqueue(decision, None)


def cdcl_solve(
    cnf: Cnf,
    max_conflicts: Optional[int] = None,
    assumptions: Optional[Sequence[int]] = None,
    stop=None,
) -> Tuple[Optional[bool], Optional[Dict[int, bool]]]:
    """Convenience wrapper: build a solver and run it once."""
    return CdclSolver(cnf).solve(
        max_conflicts=max_conflicts, assumptions=assumptions, stop=stop
    )
