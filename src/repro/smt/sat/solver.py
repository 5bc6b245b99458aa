"""An incremental CDCL (conflict-driven clause learning) SAT solver.

This is the workhorse behind the internal bitvector decision procedure.  The
implementation follows the MiniSat architecture (Eén & Sörensson, "An
Extensible SAT-solver", SAT 2003):

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

**Storage.**  The public interface speaks DIMACS literals; inside, a literal
is the code ``2·var + sign`` (sign 1 = negated, see :func:`literal_code`), so
negation is ``code ^ 1`` and every per-literal table is a flat list indexed
by code:

* the assignment is one literal-indexed list, ``_value[code]`` ∈ {1 true,
  -1 false, 0 unassigned}; assigning a variable writes both of its codes, so
  reading a literal's value is one index;
* the trail is a list of codes, with per-variable ``_level`` and ``_reason``
  lists beside it (reason ``-1``: a decision or a root-level fact) and the
  saved phase as the sign bit of the variable's last assignment;
* clauses live in an **arena** (:attr:`CdclSolver._arena`), a list of code
  lists that only grows; the watch lists are lists indexed by the code whose
  truth falsifies the watch: ``_watches`` holds the ids of clauses of three
  or more literals, and for binary clauses ``_bin_watches`` holds the
  implied codes with the clause ids in the parallel ``_bin_clauses``.

Propagation, backjumping and the search loop read these tables into locals
and make no method call per literal.

**Decision heap.**  Decisions pop ``(-activity, var)`` entries from one heap
of the variables the solve may decide: every variable for an unrestricted
solve, the ``decision_vars`` for a restricted one (each restricted solve
builds its own heap, and the next unrestricted solve rebuilds the
all-variable one).  ``_in_heap`` marks, per variable, whether it is outside
the current scope (0), in scope without a current entry (1), or in scope
with its current entry in the heap (2).  A variable gets a fresh entry only
when it is unassigned without one, so the heap holds at most one current
entry per variable; bumping leaves the old entry behind as a stale one, and
once the heap passes ``2·num_vars + 64`` entries it is rebuilt with one entry
per unassigned variable.  Because every unassigned variable always holds its
current entry and stale entries only rank lower, the next decision is always
the unassigned variable of highest activity (ties to the lowest index), so
rebuilding never changes the search.

Every learned clause is kept for the solver's lifetime: the verification
conditions here learn few clauses, far from the long searches where
learned-clause deletion pays off.  Learned clauses are sound across calls
because conflict analysis only resolves over clauses in the database — an
assumption enters a learned clause only as a regular decision literal, so
the learned clause is implied by the problem clauses alone and remains valid
for every later assumption set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf import Cnf

#: ``_reason`` of a decision or a root-level fact.
_NO_REASON = -1


def literal_code(literal: int) -> int:
    """The internal code ``2·var + sign`` of a DIMACS literal."""
    return 2 * literal if literal > 0 else 1 - 2 * literal


def code_literal(code: int) -> int:
    """The DIMACS literal of an internal code."""
    return -(code >> 1) if code & 1 else code >> 1


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
        #: Every stored clause (problem and learned) of two or more literals,
        #: as code lists; watches and reasons refer to clauses by index here.
        self._arena: List[List[int]] = []
        # Indexed by literal code (codes 0 and 1 belong to the unused var 0).
        self._value: List[int] = [0, 0]
        self._watches: List[List[int]] = [[], []]
        self._bin_watches: List[List[int]] = [[], []]
        self._bin_clauses: List[List[int]] = [[], []]
        # Indexed by variable.
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]
        self._activity: List[float] = [0.0]
        # Sign bit of the next decision on the variable (phase saving).
        self._polarity: List[int] = [1]
        self._seen: List[int] = [0]
        self._in_heap: List[int] = [0]
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []
        #: The variables the heap ranges over; ``None`` = all of them.
        self._heap_scope: Optional[set] = None
        self._activity_increment = 1.0
        self._activity_decay = 0.95
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
        first = self._num_vars + 1
        count = num_vars - self._num_vars
        if count <= 0:
            return
        self._num_vars = num_vars
        # Every table grows in place: the hot loops hold them in locals.
        self._value.extend([0] * (2 * count))
        self._watches.extend([] for _ in range(2 * count))
        self._bin_watches.extend([] for _ in range(2 * count))
        self._bin_clauses.extend([] for _ in range(2 * count))
        self._level.extend([0] * count)
        self._reason.extend([_NO_REASON] * count)
        self._activity.extend([0.0] * count)
        self._polarity.extend([1] * count)
        self._seen.extend([0] * count)
        if self._heap_scope is None:
            for variable in range(first, num_vars + 1):
                heapq.heappush(self._heap, (0.0, variable))
            self._in_heap.extend([2] * count)
        else:
            self._in_heap.extend([0] * count)

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
        value = self._value
        codes: List[int] = []
        seen = set()
        for literal in literals:
            if -literal in seen:
                return  # tautology
            if literal in seen:
                continue
            seen.add(literal)
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            if abs(literal) > self._num_vars:
                self.ensure_num_vars(abs(literal))
            code = literal_code(literal)
            current = value[code]
            if current == 1:
                return  # satisfied by a root-level fact, forever
            if current == 0:
                codes.append(code)
            # else: a permanently false literal, dropped
        if not codes:
            self._ok = False
            return
        if len(codes) == 1:
            if not self._enqueue(codes[0], _NO_REASON):
                self._ok = False
            return
        self._store_clause(codes)

    def _store_clause(self, codes: List[int]) -> int:
        """Place a clause in the arena and register its watches."""
        index = len(self._arena)
        self._arena.append(codes)
        if len(codes) == 2:
            first, second = codes
            self._bin_watches[first ^ 1].append(second)
            self._bin_clauses[first ^ 1].append(index)
            self._bin_watches[second ^ 1].append(first)
            self._bin_clauses[second ^ 1].append(index)
        else:
            self._watches[codes[0] ^ 1].append(index)
            self._watches[codes[1] ^ 1].append(index)
        return index

    def _add_learned(self, codes: List[int]) -> int:
        if len(codes) < 2:
            raise ValueError("learned clauses with < 2 literals are enqueued directly")
        # Watch invariant for an asserting clause learned at a backjump:
        # position 0 is the asserting literal and position 1 must be a
        # falsified literal of the *highest* remaining decision level —
        # watching an arbitrary literal instead breaks the "a watch only
        # falsifies when the clause is visited" invariant after backjumping
        # and silently misses unit implications.
        level = self._level
        best = 1
        for position in range(2, len(codes)):
            if level[codes[position] >> 1] > level[codes[best] >> 1]:
                best = position
        if best != 1:
            codes[1], codes[best] = codes[best], codes[1]
        index = self._store_clause(codes)
        self.stats.learned_clauses += 1
        return index

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def _enqueue(self, code: int, reason: int) -> bool:
        """Assign ``code`` true at the current level; False if it is false."""
        value = self._value
        current = value[code]
        if current:
            return current == 1
        value[code] = 1
        value[code ^ 1] = -1
        variable = code >> 1
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._trail.append(code)
        if reason != _NO_REASON:
            # An implication actually enqueued — the propagation count the
            # reports care about (not trail positions scanned).
            self.stats.propagations += 1
        return True

    def _propagate(self) -> Optional[int]:
        """Exhaustive unit propagation; returns a conflicting arena id or None."""
        trail = self._trail
        qhead = self._qhead
        if qhead == len(trail):
            return None
        value = self._value
        level = self._level
        reason = self._reason
        arena = self._arena
        watches = self._watches
        bin_watches = self._bin_watches
        bin_clauses = self._bin_clauses
        value_of = value.__getitem__
        current_level = len(self._trail_limits)
        push = trail.append
        implied = 0
        conflict = None
        while qhead < len(trail):
            true_code = trail[qhead]
            qhead += 1
            # Binary fast path: the other literal is implied outright, no
            # watch relocation to attempt and no clause walk.  Most lists
            # imply only literals that are already true, which one C-level
            # scan of their values confirms.
            implied_codes = bin_watches[true_code]
            if implied_codes and min(map(value_of, implied_codes)) != 1:
                for other, index in zip(implied_codes, bin_clauses[true_code]):
                    other_value = value[other]
                    if other_value == 0:
                        value[other] = 1
                        value[other ^ 1] = -1
                        variable = other >> 1
                        level[variable] = current_level
                        reason[variable] = index
                        push(other)
                        implied += 1
                    elif other_value == -1:
                        conflict = index
                        break
                if conflict is not None:
                    break
            watch_list = watches[true_code]
            if not watch_list:
                continue
            false_code = true_code ^ 1
            kept: List[int] = []
            keep = kept.append
            for position, index in enumerate(watch_list):
                clause = arena[index]
                # Ensure the falsified literal is at position 1.
                first = clause[0]
                if first == false_code:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_code
                first_value = value[first]
                if first_value == 1:
                    keep(index)
                    continue
                # Look for a replacement watch.
                for other_position in range(2, len(clause)):
                    candidate = clause[other_position]
                    if value[candidate] != -1:
                        clause[1] = candidate
                        clause[other_position] = false_code
                        watches[candidate ^ 1].append(index)
                        break
                else:
                    # Clause is unit or conflicting.
                    keep(index)
                    if first_value == -1:
                        kept.extend(watch_list[position + 1:])
                        conflict = index
                        break
                    value[first] = 1
                    value[first ^ 1] = -1
                    variable = first >> 1
                    level[variable] = current_level
                    reason[variable] = index
                    push(first)
                    implied += 1
            watches[true_code] = kept
            if conflict is not None:
                break
        self.stats.propagations += implied
        self._qhead = len(trail) if conflict is not None else qhead
        return conflict

    # ------------------------------------------------------------------
    # Decision heap
    # ------------------------------------------------------------------

    def _rebuild_heap(self, scope: Optional[set]) -> None:
        """Rebuild the decision heap over ``scope`` (``None``: every variable).

        Every unassigned variable of the scope gets exactly one entry, at its
        current activity.  The lists are refilled in place, so callers that
        hold them in locals stay valid.
        """
        num_vars = self._num_vars
        value = self._value
        activity = self._activity
        if scope is None:
            in_heap = [1] * (num_vars + 1)
            in_heap[0] = 0
            variables: Iterable[int] = range(1, num_vars + 1)
        else:
            in_heap = [0] * (num_vars + 1)
            variables = scope
        entries = []
        for variable in variables:
            if variable > num_vars:
                continue
            if value[2 * variable]:
                in_heap[variable] = 1
            else:
                entries.append((-activity[variable], variable))
                in_heap[variable] = 2
        heapq.heapify(entries)
        self._heap[:] = entries
        self._in_heap[:] = in_heap
        self._heap_scope = scope

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump(self, variable: int) -> None:
        activity = self._activity
        activity[variable] += self._activity_increment
        if activity[variable] > 1e100:
            activity[:] = [value * 1e-100 for value in activity]
            self._activity_increment *= 1e-100
            # The heap still holds pre-rescale priorities, which would
            # dominate every post-rescale push and corrupt the decision
            # order; rebuild it against the rescaled activities.
            self._rebuild_heap(self._heap_scope)
            return
        in_heap = self._in_heap
        if in_heap[variable]:
            # The variable's entry is stale now: an unassigned variable gets
            # its fresh one at once, an assigned one when it is unassigned.
            if self._value[2 * variable] == 0:
                heapq.heappush(self._heap, (-activity[variable], variable))
                in_heap[variable] = 2
            else:
                in_heap[variable] = 1

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP analysis.

        Returns ``(learned clause, backjump level)`` in codes: the clause's
        first literal is the negated first unique implication point, and the
        backjump level is the highest level among the other literals.
        """
        arena = self._arena
        trail = self._trail
        level = self._level
        reason = self._reason
        seen = self._seen
        bump = self._bump
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        resolved = -1
        clause = arena[conflict_index]
        trail_index = len(trail) - 1
        current_level = len(self._trail_limits)

        while True:
            for code in clause:
                if code == resolved:
                    continue
                variable = code >> 1
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = 1
                bump(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(code)
            # Find the next literal on the trail to resolve on.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            resolved = trail[trail_index]
            variable = resolved >> 1
            seen[variable] = 0
            counter -= 1
            trail_index -= 1
            if counter == 0:
                learned[0] = resolved ^ 1
                break
            clause = arena[reason[variable]]

        backjump = 0
        for code in learned[1:]:
            variable = code >> 1
            seen[variable] = 0
            if level[variable] > backjump:
                backjump = level[variable]
        return learned, backjump

    def _analyze_final(self, code: int) -> List[int]:
        """``code`` is an assumption found false: which assumptions caused it?

        Walks the implication graph from ``¬code`` back to the decisions of
        the current (assumption-only) prefix.  Returns a subset of the
        assumption literals (as DIMACS literals), including ``code`` itself,
        whose conjunction is already contradictory with the clause database.
        """
        failed = [code_literal(code)]
        if not self._trail_limits:
            return failed
        trail = self._trail
        level = self._level
        reason = self._reason
        arena = self._arena
        seen = self._seen
        seen[code >> 1] = 1
        for index in range(len(trail) - 1, self._trail_limits[0] - 1, -1):
            trail_code = trail[index]
            variable = trail_code >> 1
            if not seen[variable]:
                continue
            clause_index = reason[variable]
            if clause_index == _NO_REASON:
                # A decision inside the assumption prefix is an assumption.
                failed.append(code_literal(trail_code))
            else:
                for clause_code in arena[clause_index]:
                    other = clause_code >> 1
                    if other != variable and level[other] > 0:
                        seen[other] = 1
            seen[variable] = 0
        # A false assumption fixed at level 0 is not on the walked trail.
        seen[code >> 1] = 0
        return failed

    def _backjump(self, target_level: int) -> None:
        limits = self._trail_limits
        if len(limits) <= target_level:
            return
        trail = self._trail
        value = self._value
        polarity = self._polarity
        activity = self._activity
        in_heap = self._in_heap
        heap = self._heap
        push = heapq.heappush
        limit = limits[target_level]
        del limits[target_level:]
        for index in range(len(trail) - 1, limit - 1, -1):
            code = trail[index]
            value[code] = 0
            value[code ^ 1] = 0
            variable = code >> 1
            polarity[variable] = code & 1
            if in_heap[variable] == 1:
                push(heap, (-activity[variable], variable))
                in_heap[variable] = 2
        del trail[limit:]
        if self._qhead > limit:
            self._qhead = limit
        if len(heap) > 2 * self._num_vars + 64:
            # Stale entries left behind by bumps; the rebuilt heap holds one
            # entry per unassigned variable and decides in the same order.
            self._rebuild_heap(self._heap_scope)

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
            variable: values[variable] == 1
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
        belongs to no variable and is always ``0``).  Incremental callers with thousands of session variables
        decode only the bits they care about, so they skip the full
        model-dictionary construction of :meth:`solve`.

        ``decision_vars`` restricts free decisions to the given variables.
        This is only sound when every clause involving an excluded variable is
        *definitional* (Tseitin gates, guard clauses) and the decision set is
        closed under gate inputs (a decided gate output has every input
        decided too): then a propagation fixpoint with every decision
        variable assigned always extends to a total model — gate outputs are
        functions of their inputs and unused guards are satisfiable by
        deactivation — so "sat" answers remain genuine while the search never
        wanders into foreign subformulas.  A gate output decided without its
        inputs may take a value no input assignment produces.  The
        incremental session is exactly that shape (its decision sets are
        unions of cones); general callers must leave it ``None``.
        """
        self.last_conflict = []
        self.stats.solve_calls += 1
        if not self._ok:
            return False, None
        codes: List[int] = []
        for literal in assumptions or ():
            if literal == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.ensure_num_vars(abs(literal))
            codes.append(literal_code(literal))
        self._backjump(0)
        if decision_vars is not None:
            self._rebuild_heap(set(decision_vars))
        elif self._heap_scope is not None:
            self._rebuild_heap(None)
        return self._search(max_conflicts, codes, stop)

    def _search(
        self, max_conflicts: Optional[int], assumptions: List[int], stop=None
    ) -> Tuple[Optional[bool], Optional[List[int]]]:
        propagate = self._propagate
        if propagate() is not None:
            # A root-level conflict dooms every later call too.
            self._ok = False
            return False, None
        stats = self.stats
        trail = self._trail
        limits = self._trail_limits
        value = self._value
        level = self._level
        reason = self._reason
        activity = self._activity
        polarity = self._polarity
        in_heap = self._in_heap
        heap = self._heap
        pop = heapq.heappop
        num_assumptions = len(assumptions)
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
            conflict = propagate()
            if conflict is not None:
                stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if not limits:
                    self._ok = False
                    return False, None
                learned, backjump_level = self._analyze(conflict)
                self._backjump(backjump_level)
                if len(learned) == 1:
                    stats.learned_clauses += 1
                    if not self._enqueue(learned[0], _NO_REASON):
                        self._ok = False
                        return False, None
                else:
                    self._enqueue(learned[0], self._add_learned(learned))
                self._activity_increment /= self._activity_decay
                if max_conflicts is not None and total_conflicts >= max_conflicts:
                    self._backjump(0)
                    return None, None
                if conflicts_since_restart >= restart_limit:
                    restart_count += 1
                    stats.restarts += 1
                    restart_limit = 32 * self._luby(restart_count)
                    conflicts_since_restart = 0
                    self._backjump(0)
                continue
            decision = -1
            while len(limits) < num_assumptions:
                assumption = assumptions[len(limits)]
                assumption_value = value[assumption]
                if assumption_value == 1:
                    # Already implied: open a vacuous level to keep the
                    # level ↔ assumption-index correspondence.
                    limits.append(len(trail))
                    continue
                if assumption_value == -1:
                    self.last_conflict = self._analyze_final(assumption)
                    self._backjump(0)
                    return False, None
                decision = assumption
                break
            if decision < 0:
                # The heap top is the unassigned variable of highest
                # activity; entries of assigned variables are dropped on the
                # way (an assigned variable gets a fresh entry when it is
                # unassigned).
                while heap:
                    priority, variable = pop(heap)
                    if value[2 * variable] == 0:
                        in_heap[variable] = 1
                        decision = 2 * variable | polarity[variable]
                        break
                    if priority == -activity[variable]:
                        in_heap[variable] = 1
                else:
                    values = value[0::2]
                    self._backjump(0)
                    return True, values
            stats.decisions += 1
            limits.append(len(trail))
            if len(limits) > stats.max_decision_level:
                stats.max_decision_level = len(limits)
            value[decision] = 1
            value[decision ^ 1] = -1
            variable = decision >> 1
            level[variable] = len(limits)
            reason[variable] = _NO_REASON
            trail.append(decision)


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
