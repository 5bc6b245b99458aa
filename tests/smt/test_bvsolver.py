"""Tests for bit-blasting, the QF_BV decision procedure, CEGIS and backends."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import folbv
from repro.logic.folbv import BEq, BVConcatT, BVConst, BVExtract, BVVar, b_and, b_not, b_or
from repro.p4a.bitvec import Bits
from repro.smt.backend import (
    ExternalBackend,
    InternalBackend,
    available_external_solvers,
    BackendError,
)
from repro.smt.bitblast import BitblastError, Bitblaster, bitblast
from repro.smt.bvsolver import InternalBVSolver, SatStatus
from repro.smt.cegis import solve_exists_forall, substitute

A = BVVar("a", 4)
B = BVVar("b", 4)
C2 = BVVar("c", 2)


class TestBitblast:
    def test_variable_bit_allocation(self):
        result = bitblast(BEq(A, BVConst(Bits("1010"))))
        assert len(result.variable_bits["a"]) == 4

    def test_width_conflict_detected(self):
        blaster = Bitblaster()
        blaster.variable_bits("a", 4)
        with pytest.raises(BitblastError):
            blaster.variable_bits("a", 2)

    def test_model_decoding(self):
        solver = InternalBVSolver()
        result = solver.check_sat(BEq(A, BVConst(Bits("1010"))))
        assert result.is_sat
        assert result.model["a"] == Bits("1010")

    def test_extract_and_concat(self):
        solver = InternalBVSolver()
        formula = b_and(
            [
                BEq(BVExtract(A, 0, 1), BVConst(Bits("11"))),
                BEq(BVConcatT(BVExtract(A, 2, 3), C2), BVConst(Bits("0110"))),
            ]
        )
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["a"] == Bits("1101")
        assert result.model["c"] == Bits("10")

    def test_unsat_detection(self):
        solver = InternalBVSolver()
        formula = b_and([BEq(A, BVConst(Bits("0000"))), BEq(A, BVConst(Bits("1111")))])
        assert solver.check_sat(formula).is_unsat

    def test_validity_check(self):
        solver = InternalBVSolver()
        assert solver.check_valid(b_or([BEq(A, B), b_not(BEq(A, B))])).is_unsat
        assert solver.check_valid(BEq(A, B)).is_sat

    def test_dpll_engine(self):
        solver = InternalBVSolver(engine="dpll")
        assert solver.check_sat(BEq(A, BVConst(Bits("0001")))).is_sat

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            InternalBVSolver(engine="cryptominisat")

    def test_statistics_accumulate(self):
        solver = InternalBVSolver()
        solver.check_sat(BEq(A, BVConst(Bits("0001"))))
        solver.check_sat(b_and([BEq(A, BVConst(Bits("0000"))), BEq(A, BVConst(Bits("1111")))]))
        stats = solver.statistics
        assert stats.queries == 2
        assert stats.sat_queries == 1 and stats.unsat_queries == 1
        assert stats.percentile_time(0.99) >= 0.0


_values4 = st.integers(0, 15)


@settings(max_examples=60, deadline=None)
@given(_values4, _values4, st.integers(0, 3), st.integers(0, 3))
def test_bitblast_agrees_with_evaluation(a_value, b_value, lo, hi):
    """The SAT result of a fully-constrained formula matches direct evaluation."""
    if lo > hi:
        lo, hi = hi, lo
    formula = b_and(
        [
            BEq(A, BVConst(Bits.from_int(a_value, 4))),
            BEq(B, BVConst(Bits.from_int(b_value, 4))),
            BEq(BVExtract(A, lo, hi), BVExtract(B, lo, hi)),
        ]
    )
    expected = folbv.eval_formula(
        formula, {"a": Bits.from_int(a_value, 4), "b": Bits.from_int(b_value, 4)}
    )
    result = InternalBVSolver().check_sat(formula)
    assert result.is_sat == expected


# Tiny ∃∀ matrices for the exactness property: every variable is at most 3
# bits wide, so both blocks can be enumerated outright.
_EXISTENTIAL = {"e0": 2, "e1": 3}
_UNIVERSAL = {"u0": 3, "u1": 2}
_ALL_VARS = {**_EXISTENTIAL, **_UNIVERSAL}


def _bits(width):
    return st.integers(0, 2 ** width - 1).map(lambda value: Bits.from_int(value, width))


@st.composite
def _terms(draw, width):
    if draw(st.booleans()):
        return BVConst(draw(_bits(width)))
    name = draw(st.sampled_from([n for n, w in _ALL_VARS.items() if w >= width]))
    variable = BVVar(name, _ALL_VARS[name])
    if _ALL_VARS[name] == width and draw(st.booleans()):
        return variable
    lo = draw(st.integers(0, _ALL_VARS[name] - width))
    return BVExtract(variable, lo, lo + width - 1)


_atoms = st.integers(1, 3).flatmap(lambda width: st.builds(BEq, _terms(width), _terms(width)))
_matrices = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(b_not),
        st.lists(children, min_size=2, max_size=3).map(b_and),
        st.lists(children, min_size=2, max_size=3).map(b_or),
    ),
    max_leaves=6,
)
# Complete, partial or absent guesses with arbitrary (mostly wrong) values;
# universal names may appear too and must be ignored.
_guesses = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={name: _bits(w) for name, w in _ALL_VARS.items()}),
)


def _assignments(variables):
    names = list(variables)
    for values in product(*(range(2 ** variables[name]) for name in names)):
        yield {name: Bits.from_int(value, variables[name]) for name, value in zip(names, values)}


def _holds_for_every_universal(matrix, existential_values):
    return all(
        folbv.eval_formula(matrix, {**existential_values, **universal_values})
        for universal_values in _assignments(_UNIVERSAL)
    )


def _brute_force_witnesses(matrix):
    return [
        values for values in _assignments(_EXISTENTIAL)
        if _holds_for_every_universal(matrix, values)
    ]


def _session_and_solver(use_session):
    solver = InternalBVSolver()
    return (solver.incremental_session() if use_session else None), solver


class TestCegis:
    def test_substitution(self):
        formula = BEq(A, B)
        grounded = substitute(formula, {"a": Bits("1010")})
        assert folbv.free_variables(grounded) == {"b": 4}

    def test_no_universals_reduces_to_sat(self):
        result = solve_exists_forall(BEq(A, BVConst(Bits("1010"))), {})
        assert result.holds is True

    def test_exists_forall_true(self):
        # ∃a ∀c. (a[0:1] = a[2:3]) — c unused, a = 0000 works.
        matrix = BEq(BVExtract(A, 0, 1), BVExtract(A, 2, 3))
        result = solve_exists_forall(matrix, {"c": 2})
        assert result.holds is True

    def test_exists_forall_false(self):
        # ∃a ∀b. a = b is false for 4-bit vectors.
        result = solve_exists_forall(BEq(A, B), {"b": 4})
        assert result.holds is False

    def test_exists_forall_with_structure(self):
        # ∃a ∀c. (c = 11 ⇒ a[0:1] = 11): pick a starting with 11.
        matrix = folbv.b_implies(
            BEq(C2, BVConst(Bits("11"))), BEq(BVExtract(A, 0, 1), BVConst(Bits("11")))
        )
        result = solve_exists_forall(matrix, {"c": 2})
        assert result.holds is True
        assert result.witness["a"].slice(0, 1) == Bits("11")

    @pytest.mark.parametrize("use_session", [False, True], ids=["one-shot", "session"])
    @settings(max_examples=100, deadline=None)
    @given(matrix=_matrices, guess=_guesses, seed_with_witness=st.booleans())
    def test_guessed_loop_matches_brute_force(self, use_session, matrix, guess,
                                              seed_with_witness):
        witnesses = _brute_force_witnesses(matrix)
        if seed_with_witness and witnesses:
            guess = witnesses[-1]
        session, solver = _session_and_solver(use_session)
        result = solve_exists_forall(
            matrix, _UNIVERSAL, solver=solver, session=session, guess=guess
        )
        assert result.holds is bool(witnesses)
        if result.holds:
            completed = {name: result.witness.get(name, Bits.zeros(width))
                         for name, width in _EXISTENTIAL.items()}
            assert _holds_for_every_universal(matrix, completed)
        else:
            assert result.witness is None

    @pytest.mark.parametrize("use_session", [False, True], ids=["one-shot", "session"])
    def test_witness_guess_settles_in_one_query(self, use_session):
        # ∃a ∀c. (c = 11 ⇒ a[0:1] = 11): a = 1100 is already a witness.
        matrix = folbv.b_implies(
            BEq(C2, BVConst(Bits("11"))), BEq(BVExtract(A, 0, 1), BVConst(Bits("11")))
        )
        guess = {"a": Bits("1100")}
        session, solver = _session_and_solver(use_session)
        result = solve_exists_forall(
            matrix, {"c": 2}, solver=solver, session=session, guess=guess
        )
        assert result.holds is True
        assert result.rounds == 1
        assert result.witness == guess
        queries = session.queries if use_session else solver.statistics.queries
        assert queries == 1


class TestBackends:
    def test_internal_backend_statistics(self):
        backend = InternalBackend()
        backend.check_sat(BEq(A, BVConst(Bits("0001"))))
        assert backend.statistics.queries == 1

    def test_unknown_external_solver_rejected(self):
        with pytest.raises(BackendError):
            ExternalBackend("not-a-solver")

    def test_external_backends_only_listed_when_present(self):
        for name in available_external_solvers():
            backend = ExternalBackend(name)
            result = backend.check_sat(BEq(A, BVConst(Bits("0101"))))
            assert result.status in (SatStatus.SAT, SatStatus.UNKNOWN)
