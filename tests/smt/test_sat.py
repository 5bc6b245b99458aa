"""Tests for the SAT layer: CNF building, DPLL, CDCL, and their agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat.brute import brute_force_solve, check_model
from repro.smt.sat.cnf import Cnf, CnfBuilder
from repro.smt.sat.dpll import dpll_solve
from repro.smt.sat.solver import (
    _NO_REASON,
    CdclSolver,
    cdcl_solve,
    code_literal,
    literal_code,
)


def cnf_from_clauses(num_vars, clauses) -> Cnf:
    cnf = Cnf(num_vars=num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestCnfBuilder:
    def test_invalid_literal_rejected(self):
        cnf = Cnf(num_vars=1)
        with pytest.raises(ValueError):
            cnf.add_clause([2])
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_dimacs_output(self):
        cnf = cnf_from_clauses(2, [(1, -2)])
        assert cnf.to_dimacs() == "p cnf 2 1\n1 -2 0\n"

    def test_gates_behave_like_boolean_functions(self):
        builder = CnfBuilder()
        a, b = builder.new_var(), builder.new_var()
        gates = {
            "and": builder.gate_and([a, b]),
            "or": builder.gate_or([a, b]),
            "xor": builder.gate_xor(a, b),
            "iff": builder.gate_iff(a, b),
            "implies": builder.gate_implies(a, b),
        }
        expected = {
            "and": lambda x, y: x and y,
            "or": lambda x, y: x or y,
            "xor": lambda x, y: x != y,
            "iff": lambda x, y: x == y,
            "implies": lambda x, y: (not x) or y,
        }
        for x in (False, True):
            for y in (False, True):
                # Force the inputs and solve; the gate output must match.
                for name, output in gates.items():
                    cnf = Cnf(builder.num_vars, list(builder.clauses))
                    cnf.add_clause([a if x else -a])
                    cnf.add_clause([b if y else -b])
                    cnf.add_clause([output])
                    sat, _ = dpll_solve(cnf)
                    assert sat == expected[name](x, y), (name, x, y)

    def test_gate_caching(self):
        builder = CnfBuilder()
        a, b = builder.new_var(), builder.new_var()
        assert builder.gate_and([a, b]) == builder.gate_and([b, a])
        assert builder.gate_or([a]) == a
        assert builder.gate_and([]) == builder.true_literal()
        assert builder.gate_or([]) == builder.false_literal()

    def test_constants(self):
        builder = CnfBuilder()
        assert builder.constant(True) == builder.true_literal()
        assert builder.constant(False) == builder.false_literal()


class TestSolversOnFixedInstances:
    def test_empty_formula_is_sat(self):
        cnf = Cnf(num_vars=2)
        assert cdcl_solve(cnf)[0] is True
        assert dpll_solve(cnf)[0] is True

    def test_empty_clause_is_unsat(self):
        cnf = Cnf(num_vars=1)
        cnf.clauses.append(())
        assert cdcl_solve(cnf)[0] is False

    def test_unit_contradiction(self):
        cnf = cnf_from_clauses(1, [(1,), (-1,)])
        assert cdcl_solve(cnf)[0] is False
        assert dpll_solve(cnf)[0] is False

    def test_simple_sat_model_is_valid(self):
        cnf = cnf_from_clauses(3, [(1, 2), (-1, 3), (-2, -3)])
        sat, model = cdcl_solve(cnf)
        assert sat is True
        assert check_model(cnf, model)

    def test_pigeonhole_2_into_1_is_unsat(self):
        # Two pigeons, one hole: x1 and x2 but not both.
        cnf = cnf_from_clauses(2, [(1,), (2,), (-1, -2)])
        assert cdcl_solve(cnf)[0] is False

    def test_php_3_into_2_is_unsat(self):
        # Pigeonhole principle: 3 pigeons into 2 holes.  Variables p_ij.
        def var(pigeon, hole):
            return pigeon * 2 + hole + 1

        clauses = []
        for pigeon in range(3):
            clauses.append(tuple(var(pigeon, hole) for hole in range(2)))
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-var(p1, hole), -var(p2, hole)))
        cnf = cnf_from_clauses(6, clauses)
        assert cdcl_solve(cnf)[0] is False
        assert dpll_solve(cnf)[0] is False

    def test_conflict_budget_returns_unknown(self):
        def var(pigeon, hole):
            return pigeon * 4 + hole + 1

        clauses = []
        for pigeon in range(5):
            clauses.append(tuple(var(pigeon, hole) for hole in range(4)))
        for hole in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    clauses.append((-var(p1, hole), -var(p2, hole)))
        cnf = cnf_from_clauses(20, clauses)
        sat, model = cdcl_solve(cnf, max_conflicts=1)
        assert sat is None and model is None

    def test_stats_are_collected(self):
        cnf = cnf_from_clauses(3, [(1, 2), (-1, 3), (-2, -3), (-3, 1)])
        solver = CdclSolver(cnf)
        sat, _ = solver.solve()
        assert sat is True
        assert solver.stats.decisions >= 1
        assert solver.stats.propagations >= 1

    def test_luby_sequence(self):
        assert [CdclSolver._luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


# ---------------------------------------------------------------------------
# Differential testing: CDCL vs DPLL vs brute force on random 3-CNF
# ---------------------------------------------------------------------------

_NUM_VARS = 8


@st.composite
def random_cnf(draw):
    num_clauses = draw(st.integers(1, 30))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, 3))
        clause = tuple(
            draw(st.integers(1, _NUM_VARS)) * draw(st.sampled_from([1, -1])) for _ in range(width)
        )
        clauses.append(clause)
    return cnf_from_clauses(_NUM_VARS, clauses)


@settings(max_examples=120, deadline=None)
@given(random_cnf())
def test_cdcl_agrees_with_brute_force(cnf):
    expected, _ = brute_force_solve(cnf)
    sat, model = cdcl_solve(cnf)
    assert sat == expected
    if sat:
        assert check_model(cnf, model)


@settings(max_examples=80, deadline=None)
@given(random_cnf())
def test_dpll_agrees_with_brute_force(cnf):
    expected, _ = brute_force_solve(cnf)
    sat, model = dpll_solve(cnf)
    assert sat == expected
    if sat:
        assert check_model(cnf, model)


# ---------------------------------------------------------------------------
# Incremental solving under assumptions
# ---------------------------------------------------------------------------


class TestAssumptions:
    def test_assumptions_restrict_a_satisfiable_instance(self):
        cnf = cnf_from_clauses(2, [(1, 2)])
        solver = CdclSolver(cnf)
        sat, model = solver.solve(assumptions=[-1])
        assert sat is True
        assert model[2] is True and model[1] is False
        # The same solver answers the complementary query afterwards.
        sat, model = solver.solve(assumptions=[1])
        assert sat is True and model[1] is True

    def test_unsat_under_assumptions_reports_failed_subset(self):
        # x1 -> x2, x2 -> x3: assuming x1 and ¬x3 is contradictory, but the
        # unrelated assumption x4 is not part of the final conflict.
        cnf = cnf_from_clauses(4, [(-1, 2), (-2, 3)])
        solver = CdclSolver(cnf)
        sat, _ = solver.solve(assumptions=[4, 1, -3])
        assert sat is False
        assert set(solver.last_conflict) <= {4, 1, -3}
        assert 4 not in solver.last_conflict
        # The failed subset really is contradictory on its own.
        recheck = cnf_from_clauses(4, [(-1, 2), (-2, 3)] + [(l,) for l in solver.last_conflict])
        assert dpll_solve(recheck)[0] is False
        # The instance itself is still satisfiable: the solver stays usable.
        assert solver.solve()[0] is True

    def test_contradictory_assumptions(self):
        solver = CdclSolver(cnf_from_clauses(2, [(1, 2)]))
        sat, _ = solver.solve(assumptions=[1, -1])
        assert sat is False
        assert set(solver.last_conflict) == {1, -1}

    def test_globally_unsat_has_empty_conflict(self):
        solver = CdclSolver(cnf_from_clauses(1, [(1,), (-1,)]))
        assert solver.solve(assumptions=[1])[0] is False
        assert solver.last_conflict == []

    def test_clauses_added_between_solves(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1])[0] is True
        solver.add_clause([-2])
        assert solver.solve(assumptions=[-1])[0] is False
        assert solver.solve()[0] is True  # x1 alone still works
        solver.add_clause([-1])
        assert solver.solve()[0] is False

    def test_learned_clauses_survive_across_calls(self):
        def var(pigeon, hole):
            return pigeon * 2 + hole + 1

        clauses = []
        for pigeon in range(3):
            clauses.append(tuple(var(pigeon, hole) for hole in range(2)))
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-var(p1, hole), -var(p2, hole)))
        solver = CdclSolver(cnf_from_clauses(6, clauses))
        assert solver.solve()[0] is False
        conflicts_first = solver.stats.conflicts
        assert solver.solve()[0] is False
        # The root-level refutation is remembered: no new search happens.
        assert solver.stats.conflicts == conflicts_first

    def test_assumption_on_fresh_variable_grows_the_solver(self):
        solver = CdclSolver(cnf_from_clauses(1, [(1,)]))
        sat, model = solver.solve(assumptions=[5])
        assert sat is True
        assert solver.num_vars >= 5
        assert model[5] is True


# ---------------------------------------------------------------------------
# Differential fuzzing: CdclSolver vs DpllSolver on random CNF under random
# assumption sets (single solve, then the same solver object re-queried).
# ---------------------------------------------------------------------------


_assumption_sets = st.lists(
    st.integers(1, _NUM_VARS).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(random_cnf(), _assumption_sets)
def test_cdcl_under_assumptions_agrees_with_dpll(cnf, assumptions):
    """One assumption-based CDCL solve ≡ DPLL on clauses + assumption units."""
    solver = CdclSolver(cnf)
    sat, model = solver.solve(assumptions=assumptions)
    reference = cnf_from_clauses(
        _NUM_VARS, list(cnf.clauses) + [(literal,) for literal in assumptions]
    )
    expected, _ = dpll_solve(reference)
    assert sat == expected
    if sat:
        assert check_model(reference, model)
    else:
        # The final conflict is a subset of the assumptions that is already
        # contradictory with the clauses alone.
        failed = solver.last_conflict
        assert set(failed) <= set(assumptions)
        conflict_cnf = cnf_from_clauses(
            _NUM_VARS, list(cnf.clauses) + [(literal,) for literal in failed]
        )
        assert dpll_solve(conflict_cnf)[0] is False
    # Assumptions must not leak: an unrestricted re-solve of the same solver
    # object answers exactly what a fresh DPLL answers for the bare clauses.
    unrestricted, _ = solver.solve()
    assert unrestricted == dpll_solve(cnf)[0]


@settings(max_examples=75, deadline=None)
@given(random_cnf(), st.lists(_assumption_sets, min_size=2, max_size=4))
def test_cdcl_survives_shifting_assumption_sets(cnf, assumption_sets):
    """Re-querying one solver under shifting assumptions matches DPLL each
    time (learned clauses must never change any answer)."""
    solver = CdclSolver(cnf)
    for assumptions in assumption_sets:
        sat, model = solver.solve(assumptions=assumptions)
        reference = cnf_from_clauses(
            _NUM_VARS, list(cnf.clauses) + [(literal,) for literal in assumptions]
        )
        assert sat == dpll_solve(reference)[0], assumptions
        if sat:
            assert check_model(reference, model)


# ---------------------------------------------------------------------------
# Differential fuzzing: fresh CDCL vs incremental CDCL vs DPLL under
# shifting assumption sets and growing clause sets.
# ---------------------------------------------------------------------------


@st.composite
def incremental_plan(draw):
    """A sequence of (new clauses, assumptions) steps over a fixed var pool."""
    steps = []
    for _ in range(draw(st.integers(2, 5))):
        num_clauses = draw(st.integers(0, 8))
        clauses = []
        for _ in range(num_clauses):
            width = draw(st.integers(1, 3))
            clauses.append(tuple(
                draw(st.integers(1, _NUM_VARS)) * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ))
        num_assumptions = draw(st.integers(0, 4))
        assumptions = [
            draw(st.integers(1, _NUM_VARS)) * draw(st.sampled_from([1, -1]))
            for _ in range(num_assumptions)
        ]
        steps.append((clauses, assumptions))
    return steps


@settings(max_examples=120, deadline=None)
@given(incremental_plan())
def test_incremental_cdcl_agrees_with_references(plan):
    incremental = CdclSolver()
    incremental.ensure_num_vars(_NUM_VARS)
    accumulated = []
    for clauses, assumptions in plan:
        for clause in clauses:
            incremental.add_clause(clause)
            accumulated.append(clause)
        sat, model = incremental.solve(assumptions=assumptions)

        # Reference: the accumulated clauses plus the assumptions as units,
        # solved from scratch by an independent DPLL and a fresh CDCL.
        reference = cnf_from_clauses(
            _NUM_VARS, accumulated + [(literal,) for literal in assumptions]
        )
        expected, _ = dpll_solve(reference)
        fresh, fresh_model = cdcl_solve(reference)
        assert fresh == expected
        assert sat == expected, (accumulated, assumptions)

        if sat:
            # The incremental model satisfies the clauses *and* assumptions.
            assert check_model(reference, model)
            assert check_model(reference, fresh_model)
        else:
            # The reported final conflict is a subset of the assumptions and
            # is itself sufficient for unsatisfiability.
            failed = incremental.last_conflict
            assert set(failed) <= set(assumptions)
            conflict_cnf = cnf_from_clauses(
                _NUM_VARS, accumulated + [(literal,) for literal in failed]
            )
            assert dpll_solve(conflict_cnf)[0] is False


# ---------------------------------------------------------------------------
# Regression tests for solver internals: learned-clause watch order, heap
# rebuild on activity rescale, and propagation-counter semantics.
# ---------------------------------------------------------------------------


class TestSolverInternals:
    @staticmethod
    def _decide_at_level(solver, literal):
        """Open a decision level and assign ``literal``, as the search does."""
        solver._trail_limits.append(len(solver._trail))
        assert solver._enqueue(literal_code(literal), _NO_REASON)

    @staticmethod
    def _learn(solver, literals):
        """Store ``literals`` as a learned clause; returns its arena id."""
        return solver._add_learned([literal_code(literal) for literal in literals])

    @staticmethod
    def _stored(solver, index):
        """The arena clause ``index`` as DIMACS literals, in stored order."""
        return [code_literal(code) for code in solver._arena[index]]

    @staticmethod
    def _value(solver, literal):
        return solver._value[literal_code(literal)]

    def test_learned_clause_watches_highest_level_falsified_literal(self):
        # Regression: _add_learned used to watch whatever literal happened to
        # sit at position 1.  The watch invariant requires the falsified
        # literal of the *highest* decision level there.
        solver = CdclSolver()
        solver.ensure_num_vars(4)
        self._decide_at_level(solver, 1)   # x1 true at level 1
        self._decide_at_level(solver, 2)   # x2 true at level 2
        self._decide_at_level(solver, 3)   # x3 true at level 3
        index = self._learn(solver, [4, -1, -3, -2])
        stored = self._stored(solver, index)
        assert stored[0] == 4
        assert stored[1] == -3  # level 3, the highest among the falsified

    def test_learned_clause_propagates_after_deeper_backjump(self):
        # The scenario the watch order exists for: a learned clause survives a
        # backjump below its own backjump level, one of its literals is
        # re-falsified later, and the implication must fire.  With the wrong
        # watch (on the level-1 literal) the clause is never revisited and the
        # implication is silently lost.
        solver = CdclSolver()
        solver.ensure_num_vars(3)
        self._decide_at_level(solver, -2)  # x2 false at level 1
        self._decide_at_level(solver, -3)  # x3 false at level 2
        index = self._learn(solver, [1, 2, 3])
        assert self._stored(solver, index)[:2] == [1, 3]
        # The asserting enqueue, as the search loop would do it.
        assert solver._enqueue(literal_code(1), index)
        assert solver._propagate() is None
        # A deeper backjump retracts x3 (and with it x1), keeping only x2.
        solver._backjump(1)
        assert self._value(solver, 1) == 0 and self._value(solver, 3) == 0
        # Re-falsify x3 at a fresh level: the clause is unit on x1 again and
        # must enqueue exactly that one implication.
        self._decide_at_level(solver, -3)
        before = solver.stats.propagations
        assert solver._propagate() is None
        assert solver.stats.propagations == before + 1
        assert self._value(solver, 1) == 1

    def test_bump_rescale_rebuilds_stale_heap_priorities(self):
        # Regression: the 1e-100 activity rescale used to leave pre-rescale
        # priorities in the order heap, so one anciently-bumped variable
        # outranked every later bump forever.
        solver = CdclSolver()
        solver.ensure_num_vars(4)
        solver._activity_increment = 1e100
        solver._bump(1)  # heap entry (-1e100, 1)
        solver._bump(2)
        solver._bump(2)  # crosses 1e100 -> rescale + heap rebuild
        assert all(priority > -1e50 for priority, _ in solver._heap)
        for priority, variable in solver._heap:
            assert priority == -solver._activity[variable]
        # x2 is now the most active variable and must be decided first (the
        # search pops the heap top); the stale entry would have handed the
        # decision to x1.
        assert solver._heap[0][1] == 2

    def test_rescale_rebuilds_restricted_heap_too(self):
        solver = CdclSolver()
        solver.ensure_num_vars(4)
        solver._rebuild_heap({1, 2})  # a restricted solve's decision heap
        solver._activity_increment = 1e100
        solver._bump(1)
        solver._bump(2)
        solver._bump(2)  # rescale while a restricted solve is in flight
        assert solver._heap_scope == {1, 2}
        assert all(priority > -1e50 for priority, _ in solver._heap)
        assert {variable for _, variable in solver._heap} == {1, 2}

    def test_propagations_count_implications_enqueued(self):
        # x1 implies x2, x3, x4 through a mix of binary and ternary clauses:
        # exactly three implications are enqueued.  Decisions and assumptions
        # are not implications and must not count.
        cnf = cnf_from_clauses(4, [(-1, 2), (-1, -2, 3), (-3, 4)])
        solver = CdclSolver(cnf)
        sat, model = solver.solve(assumptions=[1])
        assert sat is True
        assert model[2] and model[3] and model[4]
        assert solver.stats.propagations == 3

    def test_pigeonhole_learns_clauses(self):
        # Pigeonhole 5 into 4: the refutation needs learned clauses.
        def var(pigeon, hole):
            return pigeon * 4 + hole + 1

        clauses = []
        for pigeon in range(5):
            clauses.append(tuple(var(pigeon, hole) for hole in range(4)))
        for hole in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    clauses.append((-var(p1, hole), -var(p2, hole)))
        solver = CdclSolver(cnf_from_clauses(20, clauses))
        assert solver.solve()[0] is False
        assert solver.stats.learned_clauses > 0

    def test_long_churn_agrees_with_fresh_solvers(self):
        """One solver re-queried under many assumption sets on a hard-ish
        random instance keeps every learned clause and still answers as a
        fresh solver does; its arena only ever grows, by plain literal lists."""
        rng = random.Random(11)
        clauses = []
        for _ in range(170):
            vs = rng.sample(range(1, 41), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        reused = CdclSolver(cnf_from_clauses(40, clauses))
        arena_sizes = [len(reused._arena)]
        arng = random.Random(12)
        for _ in range(25):
            assumptions = [
                v if arng.random() < 0.5 else -v
                for v in arng.sample(range(1, 41), 5)
            ]
            verdict, model = reused.solve(assumptions=assumptions)
            fresh = CdclSolver(cnf_from_clauses(40, clauses))
            assert verdict == fresh.solve(assumptions=assumptions)[0]
            if verdict:
                reference = cnf_from_clauses(
                    40, clauses + [(literal,) for literal in assumptions]
                )
                assert check_model(reference, model)
            arena_sizes.append(len(reused._arena))
        assert reused.stats.learned_clauses > 0
        assert arena_sizes == sorted(arena_sizes)
        assert all(isinstance(clause, list) and len(clause) >= 2 for clause in reused._arena)
