"""Restricted solves (``decision_vars``) and the CDCL decision heap.

The incremental session decides only the variables in the cone of a query;
every other clause it holds is a Tseitin gate definition.  These tests build
instances of exactly that shape with :class:`CnfBuilder`'s gate emitters and
check restricted answers against the DPLL reference, and they check that the
decision heap stays bounded across many restricted solves while every free
decision is still the unassigned variable of highest activity.  A real check's
session is audited too: every decision set it passes is closed under gate
inputs, the precondition of ``solve_values``.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.core.equivalence import check_language_equivalence
from repro.scenarios import get
from repro.smt.aig import TRUE_REF
from repro.smt.incremental import IncrementalSession
from repro.smt.sat.brute import check_model
from repro.smt.sat.cnf import Cnf, CnfBuilder
from repro.smt.sat.dpll import dpll_solve
from repro.smt.sat.solver import _NO_REASON, CdclSolver


class GateInstance:
    """Inputs plus Tseitin gates over earlier literals, with their cones."""

    def __init__(self, num_inputs):
        self.builder = CnfBuilder()
        self.inputs = [self.builder.new_var() for _ in range(num_inputs)]
        self.operands = {}  # gate output variable -> operand literals

    def add_gate(self, kind, operands):
        output = self.builder.new_var()
        if kind == "and":
            self.builder.emit_and(output, operands)
        elif kind == "or":
            self.builder.emit_or(output, operands)
        else:
            self.builder.emit_iff(output, operands[0], operands[1])
        self.operands[output] = list(operands)
        return output

    @property
    def num_vars(self):
        return self.builder.num_vars

    @property
    def clauses(self):
        return self.builder.clauses

    def cone(self, literals):
        """Every variable the given literals' gates are defined over."""
        cone = set()
        stack = [abs(literal) for literal in literals]
        while stack:
            variable = stack.pop()
            if variable not in cone:
                cone.add(variable)
                stack.extend(abs(operand) for operand in self.operands.get(variable, ()))
        return cone

    def cnf(self, units=()):
        cnf = Cnf(num_vars=self.num_vars, clauses=list(self.clauses))
        for literal in units:
            cnf.add_clause([literal])
        return cnf


def random_instance(rng, num_inputs, num_gates):
    instance = GateInstance(num_inputs)
    literals = list(instance.inputs)
    for _ in range(num_gates):
        kind = rng.choice(("and", "or", "iff"))
        width = 2 if kind == "iff" else rng.randint(2, 3)
        operands = [rng.choice(literals) * rng.choice((1, -1)) for _ in range(width)]
        literals.append(instance.add_gate(kind, operands))
    return instance


def _signed(rng, variables, count):
    return [variable * rng.choice((1, -1)) for variable in rng.sample(variables, count)]


# ---------------------------------------------------------------------------
# Differential: restricted CDCL solves vs DPLL on gate instances.
# ---------------------------------------------------------------------------


@st.composite
def restricted_plan(draw):
    """A gate instance plus queries: (assumptions, extra decision variables).

    The extra variables are closed under gate inputs, as every decision set
    the incremental session passes is: ``solve_values`` requires it, since a
    gate output decided without its inputs need not extend to a model.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    instance = random_instance(
        rng, draw(st.integers(2, 6)), draw(st.integers(1, 12))
    )
    variables = list(range(1, instance.num_vars + 1))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        assumptions = _signed(rng, variables, draw(st.integers(1, 3)))
        extra = instance.cone(
            rng.sample(variables, draw(st.integers(0, len(variables))))
        )
        queries.append((assumptions, extra))
    return instance, queries


def _open_cone_plan():
    """The shape that once broke this test: gate 13 decided, its inputs not.

    Gate 13 is ``5 ↔ ¬2`` with ``5 = ¬2 ∧ ¬1``; with input 1 false it is
    true whatever 2 is, so deciding 13 false without its cone (2 and 5)
    leaves a remainder with no model.  Closed under cones, the query is
    an ordinary restricted solve.
    """
    instance = GateInstance(3)
    for kind, operands in (
        ("iff", [1, 3]), ("and", [-2, -2, -1]), ("iff", [-4, 4]),
        ("iff", [-2, -4]), ("iff", [-7, -7]), ("and", [-4, -7, 6]),
        ("and", [-7, -1]), ("or", [4, 5]), ("iff", [-6, -6]),
        ("iff", [5, -2]), ("or", [-12, 13, 2]),
    ):
        instance.add_gate(kind, operands)
    return instance, [([12, -6], instance.cone([13]))]


@settings(max_examples=150, deadline=None)
@given(restricted_plan())
@example(_open_cone_plan())
def test_restricted_solves_agree_with_dpll(plan):
    instance, queries = plan
    solver = CdclSolver(instance.cnf())
    for assumptions, extra in queries:
        decision_vars = instance.cone(assumptions) | extra
        sat, values = solver.solve_values(
            assumptions=assumptions, decision_vars=decision_vars
        )
        reference = instance.cnf(assumptions)
        assert sat == dpll_solve(reference)[0], (assumptions, decision_vars)
        if sat:
            assigned = [
                variable if values[variable] == 1 else -variable
                for variable in range(1, instance.num_vars + 1)
                if values[variable] != 0
            ]
            # The decided part of the model satisfies the assumptions, no
            # clause is falsified by it, and it extends to a total model.
            assert set(assumptions) <= set(assigned)
            for clause in instance.clauses:
                assert not all(
                    values[abs(literal)] == (-1 if literal > 0 else 1)
                    for literal in clause
                ), clause
            assert dpll_solve(instance.cnf(assigned))[0] is True
            if set(instance.inputs) <= decision_vars:
                # Every input decided: the gates leave nothing unassigned.
                model = {variable: values[variable] == 1
                         for variable in range(1, instance.num_vars + 1)}
                assert 0 not in values[1:]
                assert check_model(reference, model)
        else:
            failed = solver.last_conflict
            assert set(failed) <= set(assumptions)
            assert dpll_solve(instance.cnf(failed))[0] is False


# ---------------------------------------------------------------------------
# The decision heap: bounded across restricted solves, same decision order.
# ---------------------------------------------------------------------------


class DecisionOracle:
    """A ``stop`` event that never fires and audits every free decision.

    The search polls ``stop`` at the top of each step, right after enqueueing
    the previous step's decision.  When that was a free decision (not an
    assumption), it must be what a freshly rebuilt heap would pop: the
    unassigned variable of the decision scope with the highest activity,
    ties going to the lowest index, on its saved phase.
    """

    def __init__(self, solver, num_assumptions, scope=None):
        self.solver = solver
        self.num_assumptions = num_assumptions
        self.scope = scope
        self.checked = 0

    def is_set(self):
        solver = self.solver
        trail, limits = solver._trail, solver._trail_limits
        if len(limits) > self.num_assumptions and limits[-1] == len(trail) - 1:
            code = trail[-1]
            decided = code >> 1
            assert solver._reason[decided] == _NO_REASON
            assert code & 1 == solver._polarity[decided]
            candidates = [
                variable
                for variable in (self.scope or range(1, solver.num_vars + 1))
                if variable == decided or solver._value[2 * variable] == 0
            ]
            best = max(candidates, key=lambda v: (solver._activity[v], -v))
            assert decided == best
            self.checked += 1
        return False


def test_heap_stays_bounded_and_decides_by_activity():
    rng = random.Random(20220613)
    instance = random_instance(rng, num_inputs=14, num_gates=70)
    solver = CdclSolver(instance.cnf())
    gates = sorted(instance.operands)
    audited = 0
    for _ in range(500):
        assumptions = _signed(rng, gates, rng.randint(1, 3))
        scope = instance.cone(assumptions)
        oracle = DecisionOracle(solver, len(assumptions), scope)
        solver.solve_values(assumptions=assumptions, decision_vars=scope, stop=oracle)
        assert len(solver._heap) <= 2 * solver.num_vars + 64
        audited += oracle.checked
    assert audited > 0
    # The all-variable heap comes back for an unrestricted solve, and its
    # decisions follow the activities the restricted solves accumulated.
    oracle = DecisionOracle(solver, 0)
    assert solver.solve(stop=oracle)[0] is True
    assert oracle.checked > 0
    assert len(solver._heap) <= 2 * solver.num_vars + 64


# ---------------------------------------------------------------------------
# The session's decision sets are closed under gate inputs.
# ---------------------------------------------------------------------------


def _gate_inputs(session):
    """SAT variable → the SAT variables its emitted graph node is defined over."""
    emitter, aig = session._emitter, session._aig
    inputs = {}
    for index, var in emitter._vars.items():
        operands = set()
        for operand in aig.operands(index):
            inner = abs(operand)
            operands.add(
                abs(emitter.builder.constant(True)) if inner == TRUE_REF
                else emitter.var_of(inner)
            )
        inputs[var] = operands
    return inputs


def test_session_decision_sets_are_cone_closed(monkeypatch):
    sessions, solves = [], []
    init, solve_values = IncrementalSession.__init__, CdclSolver.solve_values

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sessions.append(self)

    def recording_solve(self, *args, **kwargs):
        if kwargs.get("decision_vars") is not None:
            solves.append((self, frozenset(kwargs["decision_vars"])))
        return solve_values(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalSession, "__init__", recording_init)
    monkeypatch.setattr(CdclSolver, "solve_values", recording_solve)
    assert check_language_equivalence(*get("mini_edge").automata()).verdict
    assert sessions and solves
    gate_inputs = {id(session._solver): _gate_inputs(session) for session in sessions}
    for solver, decision_vars in solves:
        inputs = gate_inputs[id(solver)]
        for var in decision_vars:
            assert inputs.get(var, set()) <= decision_vars, var
