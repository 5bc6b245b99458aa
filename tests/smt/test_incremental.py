"""Tests for the incremental assumption-based solving session."""

from repro import counters
from repro.core.entailment import EntailmentChecker
from repro.logic import folbv
from repro.logic.confrel import LEFT, RIGHT, CHdr, CSlice
from repro.logic.folbv import BEq, BVConst, BVVar
from repro.logic.simplify import mk_eq
from repro.p4a.bitvec import Bits
from repro.smt.backend import InternalBackend, OneShotSession
from repro.smt.bvsolver import InternalBVSolver, SatStatus
from repro.smt.cache import CachingBackend
from repro.smt.incremental import IncrementalSession


def var(name, width=4):
    return BVVar(name, width)


def const(bits):
    return BVConst(Bits(bits))


class TestIncrementalSession:
    def test_activated_premises_constrain_the_query(self):
        session = IncrementalSession()
        premise = BEq(var("x"), const("1010"))
        act = session.activation(premise)

        # Without the activation the variable is unconstrained.
        free = session.check(goal=BEq(var("x"), const("0001")),
                             validate_formula=BEq(var("x"), const("0001")))
        assert free.status is SatStatus.SAT

        # With it, a contradictory goal is unsat and a consistent one sat.
        conflicting = session.check([act], goal=BEq(var("x"), const("0001")))
        assert conflicting.status is SatStatus.UNSAT
        consistent = session.check([act], goal=BEq(var("x"), const("1010")),
                                   variables={"x": 4})
        assert consistent.status is SatStatus.SAT
        assert consistent.model["x"] == Bits("1010")

    def test_activation_is_idempotent_per_structure(self):
        session = IncrementalSession()
        first = session.activation(BEq(var("x"), const("1111")))
        # A structurally equal but distinct object maps to the same literal.
        second = session.activation(BEq(var("x"), const("1111")))
        assert first == second

    def test_shared_structure_is_encoded_once(self):
        session = IncrementalSession()
        core = BEq(var("x", 8), var("y", 8))
        session.activation(core)
        clauses_before = session.num_clauses
        # A conjunction embedding the same equality reuses its gates: only the
        # new conjunct and the top-level gate add clauses.
        session.activation(folbv.b_and([core, BEq(var("z", 2), const("11"))]))
        small = session.num_clauses - clauses_before
        fresh = IncrementalSession()
        fresh.activation(folbv.b_and([BEq(var("x", 8), var("y", 8)),
                                      BEq(var("z", 2), const("11"))]))
        assert small < fresh.num_clauses

    def test_model_validation_backstop(self):
        session = IncrementalSession(validate_models=True)
        formula = BEq(var("x"), const("0110"))
        result = session.check(goal=formula, validate_formula=formula,
                               variables={"x": 4})
        assert result.status is SatStatus.SAT
        assert result.model["x"] == Bits("0110")

    def test_same_name_at_different_widths_does_not_alias(self):
        session = IncrementalSession()
        narrow = BEq(var("x", 2), const("11"))
        wide = BEq(var("x", 4), const("0000"))
        act_narrow = session.activation(narrow)
        act_wide = session.activation(wide)
        result = session.check([act_narrow, act_wide],
                               variables={"x": 2})
        assert result.status is SatStatus.SAT
        assert result.model["x"] == Bits("11")

    def test_monotone_premise_stream(self):
        session = IncrementalSession()
        acts = []
        # x = y, y = z, ... chained equalities activated one by one.
        names = ["a", "b", "c", "d"]
        for left, right in zip(names, names[1:]):
            acts.append(session.activation(BEq(var(left), var(right))))
            # a != d is satisfiable until the chain closes.
            result = session.check(acts, goal=folbv.b_not(BEq(var("a"), var("d"))))
            expected = SatStatus.UNSAT if len(acts) == 3 else SatStatus.SAT
            assert result.status is expected

    def test_session_queries_are_counted_in_the_ledger(self):
        session = InternalBVSolver().incremental_session()
        with counters.scope() as ledger:
            session.check(goal=BEq(var("x"), const("1100")))
        assert ledger["solver.queries"] == 1

    def test_dpll_engine_has_a_one_shot_session(self):
        assert isinstance(InternalBVSolver(engine="dpll").incremental_session(), OneShotSession)
        assert isinstance(InternalBackend(engine="dpll").incremental_session(), OneShotSession)

    def test_caching_backend_delegates_session(self, tmp_path):
        session = CachingBackend(InternalBackend(), str(tmp_path)).incremental_session()
        assert isinstance(session, IncrementalSession)


class TestOneShotSession:
    """The one-shot session answers the session protocol with check_sat calls."""

    def test_each_check_is_one_query_on_the_conjunction(self):
        session = OneShotSession(InternalBackend())
        equal = session.activation(BEq(var("a"), var("b")))
        assert session.activation(BEq(var("a"), var("b"))) == equal
        with counters.scope() as ledger:
            unsat = session.check([equal], goal=folbv.b_not(BEq(var("b"), var("a"))))
            sat = session.check([equal], goal=BEq(var("a"), const("0110")))
        assert unsat.status is SatStatus.UNSAT
        assert sat.status is SatStatus.SAT
        assert sat.model["b"] == Bits("0110")
        assert ledger["solver.queries"] == 2

    def test_requested_variables_are_zero_filled(self):
        session = OneShotSession(InternalBackend())
        result = session.check(
            goal=BEq(var("x", 2), const("10")), variables={"x": 2, "unused": 3}
        )
        assert result.model == {"x": Bits("10"), "unused": Bits("000")}


class TestIncrementalEntailment:
    """The entailment checker gives identical verdicts on both session kinds."""

    def _workload(self, incremental):
        backend = InternalBackend()
        session = None if incremental else OneShotSession(backend)
        checker = EntailmentChecker(backend, session=session)
        verdicts = []
        premises = []
        width, step = 16, 4
        with counters.scope() as ledger:
            for i in range(width // step):
                lo, hi = i * step, (i + 1) * step - 1
                goal = mk_eq(CSlice(CHdr(RIGHT, "h", width), 0, hi),
                             CSlice(CHdr(LEFT, "h", width), 0, hi))
                verdicts.append(bool(checker.check(premises, goal)))
                premises.append(mk_eq(CSlice(CHdr(LEFT, "h", width), lo, hi),
                                      CSlice(CHdr(RIGHT, "h", width), lo, hi)))
                verdicts.append(bool(checker.check(premises, goal)))
        return verdicts, checker, ledger

    def test_verdicts_identical_on_both_session_kinds(self):
        incremental, inc_checker, inc_ledger = self._workload(True)
        baseline, base_checker, base_ledger = self._workload(False)
        assert incremental == baseline
        assert inc_ledger["entailment.checks"] == base_ledger["entailment.checks"]
        assert isinstance(inc_checker._session, IncrementalSession)
        assert isinstance(base_checker._session, OneShotSession)

    def test_incremental_entailment_encodes_less(self):
        _, inc_checker, _ = self._workload(True)
        _, _, base_ledger = self._workload(False)
        # The one live CNF stays far smaller than the sum of the one-shot
        # encodings: shared premise structure is bit-blasted exactly once.
        assert inc_checker._session.num_clauses < base_ledger["solver.clauses"]

    def test_session_results_feed_the_query_cache(self, tmp_path):
        backend = CachingBackend(InternalBackend(), str(tmp_path))
        checker = EntailmentChecker(backend)
        premise = mk_eq(CHdr(LEFT, "udp", 8), CHdr(RIGHT, "udp", 8))
        goal = mk_eq(CHdr(RIGHT, "udp", 8), CHdr(LEFT, "udp", 8))
        with counters.scope() as first:
            assert checker.check([premise], goal).entailed
        assert first["cache.stores"] > 0
        # A repeat on the same checker is answered by its outcome memo,
        # without a solver query or a cache lookup.
        with counters.scope() as repeat:
            assert checker.check([premise], goal).entailed
        assert repeat["solver.queries"] == 0
        assert repeat["entailment.memo_hits"] == 1
        assert repeat["cache.hits"] == repeat["cache.misses"] == 0
        # A fresh checker over the same store is answered by the cache.
        fresh = EntailmentChecker(backend)
        with counters.scope() as warm:
            assert fresh.check([premise], goal).entailed
        assert warm["solver.queries"] == 0
        assert warm["cache.hits"] > 0
        backend.close()

    def test_exact_mode_with_universal_premises_still_agrees(self):
        from repro.logic.confrel import CVar

        # The premise mentions a symbolic variable, which the CEGIS fallback
        # treats as universally quantified — this routes both configurations
        # through the CEGIS loop and checks they agree.
        premise = mk_eq(CHdr(LEFT, "h", 4), CVar("v", 4))
        goal = mk_eq(CHdr(LEFT, "h", 4), CHdr(RIGHT, "h", 4))
        backend = InternalBackend()
        incremental = EntailmentChecker(backend)
        one_shot = EntailmentChecker(backend, session=OneShotSession(backend))
        assert (incremental.check([premise], goal).entailed
                == one_shot.check([premise], goal).entailed)


class TestRestrictedDecisionSoundness:
    def test_pigeonhole_behind_activation_is_refuted(self):
        # An unsatisfiable formula behind an activation literal must be
        # refuted by the restricted search, not claimed sat by early exit.
        session = IncrementalSession()
        x = var("p", 2)
        contradictory = folbv.b_and([
            BEq(x, const("01")),
            BEq(x, const("10")),
        ])
        act = session.activation(contradictory)
        assert session.check([act]).status is SatStatus.UNSAT
        # The session survives and still answers satisfiable queries.
        ok = session.check(goal=BEq(x, const("01")), variables={"p": 2})
        assert ok.status is SatStatus.SAT

    def test_inactive_contradiction_does_not_leak(self):
        session = IncrementalSession()
        x = var("q", 2)
        act_bad = session.activation(folbv.b_and([
            BEq(x, const("01")), BEq(x, const("10")),
        ]))
        assert session.check([act_bad]).status is SatStatus.UNSAT
        # Not assuming the contradictory formula leaves the query satisfiable.
        good = session.check(goal=BEq(x, const("11")), variables={"q": 2},
                             validate_formula=BEq(x, const("11")))
        assert good.status is SatStatus.SAT
        assert good.model["q"] == Bits("11")


class TestSessionChurn:
    """Long churn at the session level: one session answering a stream of
    pigeonhole queries behind shared activations agrees, query by query,
    with a fresh session asked the same question."""

    @staticmethod
    def _bit(pigeon, hole):
        return BEq(var(f"p{pigeon}h{hole}", 1), const("1"))

    def _exclusivity(self, pigeons, holes):
        formulas = []
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    formulas.append(folbv.b_not(folbv.b_and(
                        [self._bit(p1, h), self._bit(p2, h)]
                    )))
        return formulas

    def _placed(self, pigeon, holes):
        return folbv.b_or([self._bit(pigeon, h) for h in range(holes)])

    def _fresh_status(self, pigeons, holes, goal):
        session = IncrementalSession(validate_models=False)
        acts = [session.activation(f) for f in self._exclusivity(pigeons, holes)]
        return session.check(acts, goal=goal).status

    def test_long_session_matches_fresh_sessions(self):
        pigeons, holes = 5, 4
        session = IncrementalSession(validate_models=False)
        acts = [session.activation(f) for f in self._exclusivity(pigeons, holes)]
        for _ in range(2):
            # Placing any four of the five pigeons is satisfiable ...
            for excluded in range(pigeons):
                goal = folbv.b_and([
                    self._placed(p, holes)
                    for p in range(pigeons) if p != excluded
                ])
                status = session.check(acts, goal=goal).status
                assert status is SatStatus.SAT
                assert status is self._fresh_status(pigeons, holes, goal)
            # ... all five is the pigeonhole refutation.
            goal = folbv.b_and([self._placed(p, holes) for p in range(pigeons)])
            status = session.check(acts, goal=goal).status
            assert status is SatStatus.UNSAT
            assert status is self._fresh_status(pigeons, holes, goal)
        assert session.queries == 2 * (pigeons + 1)
        assert session._solver.stats.learned_clauses > 0

