"""The entailment checker answers each distinct entailment once.

Definitive outcomes are memoized per checker under the canonical premise and
goal fingerprints; the checker also keeps the ground instances CEGIS found for
each premise and assumes them in later fast-path queries.  Neither may change
an answer: the differential at the end compares a checker that accumulates
instances against a fresh one-shot checker on every check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import counters
from repro.core import entailment
from repro.core.entailment import EntailmentChecker
from repro.logic.confrel import LEFT, RIGHT, CHdr, CLit, CVar
from repro.logic.simplify import mk_and, mk_eq, mk_not, mk_or
from repro.p4a.bitvec import Bits
from repro.smt.backend import InternalBackend

from ..helpers import OneShotBackend

H = CHdr(LEFT, "h", 2)
G = CHdr(RIGHT, "g", 2)
X = CVar("x", 2)

#: ∀x. x = h holds for no h, so it entails anything, but the fast path's
#: shared x cannot see that: CEGIS needs two rounds.
FORALL_EQ = mk_eq(X, H)
GOAL_01 = mk_eq(H, CLit(Bits("01")))

#: ∀x. x = h ∨ h = 11 holds exactly for h = 11, so it does not entail
#: h = 00: CEGIS refutes, with h = 11 in its witness.
FORALL_OR_11 = mk_or([mk_eq(X, H), mk_eq(H, CLit(Bits("11")))])
GOAL_00 = mk_eq(H, CLit(Bits("00")))

#: Both session kinds: the CDCL engine's incremental one and a one-shot one.
MODES = pytest.mark.parametrize(
    "backend_type", [InternalBackend, OneShotBackend], ids=["incremental", "one-shot"]
)


@MODES
def test_a_repeated_check_makes_no_solver_query(backend_type):
    checker = EntailmentChecker(backend_type())
    first = checker.check([FORALL_EQ], GOAL_01)
    assert first.entailed and first.method == "cegis"
    with counters.scope() as ledger:
        repeat = checker.check([FORALL_EQ], GOAL_01)
    assert (repeat.entailed, repeat.method) == (first.entailed, first.method)
    assert ledger["solver.queries"] == 0
    assert ledger["entailment.cegis_rounds"] == 0
    assert ledger["entailment.memo_hits"] == 1
    assert ledger["entailment.checks"] == 1


@MODES
def test_the_memo_key_is_the_canonical_premise_list_and_goal(backend_type):
    checker = EntailmentChecker(backend_type())
    checker.check([FORALL_EQ], GOAL_01)
    with counters.scope() as ledger:
        # Renaming the symbolic variable leaves the canonical query unchanged.
        checker.check([mk_eq(CVar("y", 2), H)], GOAL_01)
        # A different premise order, goal or premise list is a new query.
        checker.check([FORALL_EQ, mk_eq(G, H)], GOAL_01)
        checker.check([mk_eq(G, H), FORALL_EQ], GOAL_01)
        checker.check([FORALL_EQ], GOAL_00)
    assert ledger["entailment.memo_hits"] == 1
    assert ledger["entailment.checks"] == 4


@MODES
@pytest.mark.parametrize("premises, goal, method", [
    ([], GOAL_00, "smt"),
    ([FORALL_OR_11], GOAL_00, "cegis"),
])
def test_mutating_a_returned_model_does_not_change_the_next_answer(
    backend_type, premises, goal, method
):
    checker = EntailmentChecker(backend_type())
    first = checker.check(premises, goal)
    assert not first.entailed and first.method == method
    expected = dict(first.model)
    for name in first.model:
        first.model[name] = Bits.zeros(first.model[name].width)
    first.model["planted"] = Bits("1")
    repeat = checker.check(premises, goal)
    assert repeat.model == expected
    assert repeat.model is not first.model
    # A hit hands out a fresh copy every time, too.
    repeat.model.clear()
    assert checker.check(premises, goal).model == expected
    if method == "cegis":
        assert expected["hdr_L_h"] == Bits("11")


@MODES
def test_unknown_is_never_memoized(backend_type):
    checker = EntailmentChecker(backend_type(), cegis_rounds=1)
    with counters.scope() as ledger:
        assert checker.check([FORALL_EQ], GOAL_01).method == "unknown"
        second = checker.check([FORALL_EQ], GOAL_01)
    assert ledger["entailment.memo_hits"] == 0
    # The first run's refutation is kept as a ground instance, so the
    # re-solve may already settle in the fast path; it must not be a memo
    # hit, and whatever it answers is exact.
    assert second.method in ("unknown", "smt")
    assert second.method == "smt" or ledger["entailment.cegis_rounds"] == 2


def _kept(checker):
    return {key: len(instances) for key, instances in checker._instances.items()}


def _goal(value):
    return mk_eq(H, CLit(Bits(value)))


@MODES
def test_cegis_refutations_become_fast_path_instances(backend_type):
    checker = EntailmentChecker(backend_type())
    # Each CEGIS proof refutes one value of x, kept as an instance c = h.
    assert checker.check([FORALL_EQ], _goal("01")).method == "cegis"
    assert list(_kept(checker).values()) == [1]
    with counters.scope() as ledger:
        assert checker.check([FORALL_EQ], _goal("10")).method == "cegis"
    assert ledger["entailment.instances_reused"] == 1
    assert list(_kept(checker).values()) == [2]
    # Two kept instances pin h to two values at once, so the fast path
    # alone now proves any goal over that premise.
    with counters.scope() as ledger:
        outcome = checker.check([FORALL_EQ], _goal("11"))
    assert outcome.entailed and outcome.method == "smt"
    assert ledger["entailment.instances_reused"] == 2
    assert ledger["entailment.cegis_rounds"] == 0


def test_one_shot_sessions_keep_instances_too():
    checker = EntailmentChecker(OneShotBackend())
    with counters.scope() as ledger:
        methods = [checker.check([FORALL_EQ], _goal(value)).method
                   for value in ("01", "10", "11")]
    assert methods == ["cegis", "cegis", "smt"]
    assert list(_kept(checker).values()) == [2]
    assert ledger["entailment.instances_reused"] == 3
    assert ledger["entailment.cegis_entailed"] == 2


def _fill_instances(checker):
    """Sixteen goals over ∀x,y. x = h ∨ y = g; unbounded, CEGIS keeps 4."""
    premise = mk_or([mk_eq(X, H), mk_eq(CVar("y", 2), G)])
    for value in range(4):
        for other in range(4):
            goal = mk_and([
                mk_eq(H, CLit(Bits(format(value, "02b")))),
                mk_not(mk_eq(G, CLit(Bits(format(other, "02b"))))),
            ])
            checker.check([premise], goal)
    return premise


@pytest.mark.parametrize("bound", [1, 3, entailment.MAX_INSTANCES_PER_PREMISE])
def test_the_per_premise_instance_bound_holds(monkeypatch, bound):
    monkeypatch.setattr(entailment, "MAX_INSTANCES_PER_PREMISE", bound)
    checker = EntailmentChecker()
    premise = _fill_instances(checker)
    kept = min(bound, 4)
    assert list(_kept(checker).values()) == [kept]
    with counters.scope() as ledger:
        checker.check([premise], mk_eq(H, G))
    assert ledger["entailment.instances_reused"] == kept


# ---------------------------------------------------------------------------
# Differential: accumulated instances never change an answer.
# ---------------------------------------------------------------------------

_TERMS = [H, G, CVar("x", 2), CVar("y", 2)] + [
    CLit(Bits(format(value, "02b"))) for value in range(4)
]


@st.composite
def formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        left, right = draw(st.sampled_from(_TERMS)), draw(st.sampled_from(_TERMS))
        return mk_eq(left, right)
    kind = draw(st.sampled_from(("not", "and", "or")))
    if kind == "not":
        return mk_not(draw(formulas(depth - 1)))
    operands = [draw(formulas(depth - 1)) for _ in range(2)]
    return mk_and(operands) if kind == "and" else mk_or(operands)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(formulas(), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), formulas()), min_size=1, max_size=6),
)
def test_instances_agree_with_a_fresh_one_shot_checker(premises, steps):
    session = EntailmentChecker()
    for count, goal in steps:
        prefix = premises[:count]
        reference = EntailmentChecker(OneShotBackend()).check(prefix, goal)
        outcome = session.check(prefix, goal)
        assert reference.method != "unknown"
        assert outcome.entailed == reference.entailed, (prefix, goal)
