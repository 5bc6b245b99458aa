"""Tests for the pre-bisimulation checker, entailment, certificates and baselines."""

import pytest

from repro import counters
from repro.core.algorithm import CheckerConfig, CheckerError, PreBisimulationChecker
from repro.core.certificate import Certificate, verify_certificate
from repro.core.counterexample import CounterexampleSearch
from repro.core.entailment import EntailmentChecker
from repro.core.equivalence import (
    check_initial_store_independence,
    check_language_equivalence,
    check_store_relation,
)
from repro.core.naive import (
    exhaustive_store_equivalence,
    explicit_bisimulation_check,
)
from repro.logic.confrel import LEFT, RIGHT, CBuf, CHdr, CLit, CVar, FFalse, TRUE
from repro.logic.simplify import mk_eq
from repro.p4a.bitvec import Bits
from repro.p4a.semantics import accepts
from repro.protocols import mpls, tiny
from repro.smt.backend import InternalBackend

from ..helpers import OneShotBackend, fixed_length_automaton


class TestEntailmentChecker:
    def test_trivial_goal(self):
        checker = EntailmentChecker()
        assert checker.check([], TRUE).method == "trivial"

    def test_syntactic_alpha_equivalence(self):
        checker = EntailmentChecker()
        premise = mk_eq(CVar("a", 2), CBuf(LEFT, 2))
        goal = mk_eq(CVar("b", 2), CBuf(LEFT, 2))
        assert checker.check([premise], goal).method == "syntactic"

    def test_smt_entailment(self):
        checker = EntailmentChecker()
        premise = mk_eq(CHdr(LEFT, "h", 2), CHdr(RIGHT, "g", 2))
        goal = mk_eq(CHdr(RIGHT, "g", 2), CHdr(LEFT, "h", 2))
        outcome = checker.check([premise], goal)
        assert outcome.entailed

    def test_refutation_produces_model(self):
        checker = EntailmentChecker()
        goal = mk_eq(CHdr(LEFT, "h", 2), CHdr(RIGHT, "g", 2))
        outcome = checker.check([], goal)
        assert not outcome.entailed
        assert outcome.model is not None

    def test_exact_mode_handles_universal_premises(self):
        # Premise: ∀x. buf< = x  (only satisfiable when... never for 1-bit x),
        # so it entails anything, including ⊥ — the fast path cannot see this.
        checker = EntailmentChecker()
        premise = mk_eq(CBuf(LEFT, 1), CVar("x", 1))
        outcome = checker.check([premise], FFalse())
        assert outcome.entailed
        assert outcome.method == "cegis"

    @pytest.mark.parametrize(
        "backend_type", [InternalBackend, OneShotBackend], ids=["incremental", "one-shot"]
    )
    def test_ledger_sums_cegis_rounds(self, backend_type):
        # ∀x. x = h entails h = 01, but the fast path's shared x cannot see
        # it: CEGIS refutes the fast path's guess, then finds no candidate.
        # A repeat on the same checker is a memo hit that adds no rounds; a
        # second checker has a memo of its own and adds its two rounds.
        checker = EntailmentChecker(backend_type())
        premise = mk_eq(CVar("x", 2), CHdr(LEFT, "h", 2))
        goal = mk_eq(CHdr(LEFT, "h", 2), CLit(Bits("01")))
        with counters.scope() as ledger:
            outcome = checker.check([premise], goal)
            assert outcome.entailed and outcome.method == "cegis"
            assert ledger["entailment.cegis_rounds"] == 2
            repeat = checker.check([premise], goal)
            assert repeat.entailed and repeat.method == "cegis"
            assert ledger["entailment.cegis_rounds"] == 2
            assert ledger["entailment.memo_hits"] == 1
            fresh = EntailmentChecker(backend_type())
            assert fresh.check([premise], goal).method == "cegis"
        assert ledger["entailment.cegis_rounds"] == 4
        assert ledger["entailment.memo_hits"] == 1
        assert ledger["entailment.checks"] == 3

    def test_statistics(self):
        checker = EntailmentChecker()
        with counters.scope() as ledger:
            checker.check([], TRUE)
        assert ledger["entailment.checks"] == 1


class TestCheckerConfiguration:
    def test_unknown_start_state(self):
        with pytest.raises(CheckerError):
            PreBisimulationChecker(
                tiny.incremental_bits(), tiny.big_bits(), "nope", "Parse"
            )

    def test_iteration_limit(self):
        config = CheckerConfig(max_iterations=1, track_memory=False)
        checker = PreBisimulationChecker(
            mpls.scaled_reference(2), mpls.scaled_vectorized(2), "q1", "q3", config=config
        )
        with pytest.raises(CheckerError, match="did not converge"):
            checker.run()

    def test_statistics_populated(self):
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse"
        )
        stats = result.statistics
        assert stats.reachable_pairs > 0
        assert stats.solver["queries"] >= 0
        assert stats.runtime_seconds > 0
        assert isinstance(stats.as_dict(), dict)

    def test_memory_untracked_by_default(self, monkeypatch):
        import tracemalloc

        started = []
        monkeypatch.setattr(tracemalloc, "start", lambda *a: started.append(a))
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            config=None,
        )
        assert result.verdict is True
        assert started == [] and not tracemalloc.is_tracing()
        assert result.statistics.peak_memory_bytes == 0


class TestEquivalenceVerdicts:
    def test_trivially_equal_chunkings(self):
        result = check_language_equivalence(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
        )
        assert result.proved

    def test_checked_variants(self):
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse"
        )
        assert result.proved

    def test_mpls_scaled(self):
        result = check_language_equivalence(
            mpls.scaled_reference(3), "q1", mpls.scaled_vectorized(3), "q3"
        )
        assert result.proved

    def test_wrong_length_refuted_with_counterexample(self):
        result = check_language_equivalence(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"
        )
        assert result.refuted
        cex = result.counterexample
        assert cex.left_accepts != cex.right_accepts

    def test_wrong_check_refuted(self):
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_wrong_check(), "Parse"
        )
        assert result.refuted

    def test_broken_mpls_refuted(self):
        result = check_language_equivalence(
            mpls.scaled_reference(3), "q1", mpls.broken_vectorized(3), "q3"
        )
        assert result.refuted
        cex = result.counterexample
        assert accepts(mpls.scaled_reference(3), "q1", cex.packet, cex.left_store) != accepts(
            mpls.broken_vectorized(3), "q3", cex.packet, cex.right_store
        )

    def test_store_dependence_detected(self):
        result = check_initial_store_independence(tiny.store_dependent(), "Start")
        assert result.refuted

    def test_store_independence_proved(self):
        result = check_initial_store_independence(tiny.incremental_bits_checked(), "Start")
        assert result.proved

    def test_ablation_no_leaps(self):
        config = CheckerConfig(use_leaps=False, track_memory=False)
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            config=config,
        )
        assert result.proved

    def test_ablation_no_reachability(self):
        config = CheckerConfig(use_reachability=False, track_memory=False)
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            config=config,
        )
        assert result.proved

    def test_ablation_costs_more(self):
        baseline = check_language_equivalence(
            mpls.scaled_reference(2), "q1", mpls.scaled_vectorized(2), "q3"
        )
        unpruned = check_language_equivalence(
            mpls.scaled_reference(2), "q1", mpls.scaled_vectorized(2), "q3",
            config=CheckerConfig(use_reachability=False, track_memory=False),
        )
        assert unpruned.proved and baseline.proved
        assert unpruned.statistics.reachable_pairs > baseline.statistics.reachable_pairs

    def test_store_relation_self_comparison(self):
        aut = tiny.incremental_bits_checked()
        relation = mk_eq(CHdr(LEFT, "bit0", 1), CHdr(RIGHT, "bit0", 1))
        result = check_store_relation(aut, "Start", aut, "Start", relation)
        assert result.proved


class TestCertificates:
    def test_certificate_verifies(self):
        left, right = mpls.scaled_reference(2), mpls.scaled_vectorized(2)
        result = check_language_equivalence(left, "q1", right, "q3")
        assert result.proved
        check = verify_certificate(result.certificate, left, right)
        assert check.ok, check.failures

    def test_certificate_summary_mentions_parsers(self):
        left, right = tiny.incremental_bits(), tiny.big_bits()
        result = check_language_equivalence(left, "Start", right, "Parse")
        assert "IncrementalBits" in result.certificate.summary()

    def test_tampered_certificate_rejected(self):
        left, right = mpls.scaled_reference(2), mpls.scaled_vectorized(2)
        result = check_language_equivalence(left, "q1", right, "q3")
        cert = result.certificate
        # Drop all conjuncts: acceptance compatibility can no longer be shown.
        tampered = Certificate(
            cert.left_name, cert.right_name, cert.left_start, cert.right_start,
            cert.use_leaps, cert.initial_pure, cert.store_relation,
            cert.require_equal_acceptance, (), cert.reachable_pairs,
        )
        check = verify_certificate(tampered, left, right)
        assert not check.ok

    def test_certificate_with_missing_pairs_rejected(self):
        left, right = tiny.incremental_bits_checked(), tiny.big_bits_checked()
        result = check_language_equivalence(left, "Start", right, "Parse")
        cert = result.certificate
        tampered = Certificate(
            cert.left_name, cert.right_name, cert.left_start, cert.right_start,
            cert.use_leaps, cert.initial_pure, cert.store_relation,
            cert.require_equal_acceptance, cert.relation, (),
        )
        check = verify_certificate(tampered, left, right)
        assert not check.ok

    def test_obligation_budget(self):
        left, right = mpls.scaled_reference(2), mpls.scaled_vectorized(2)
        result = check_language_equivalence(left, "q1", right, "q3")
        check = verify_certificate(result.certificate, left, right, max_obligations=1)
        assert not check.ok
        assert any("budget" in failure for failure in check.failures)


class TestCounterexampleSearch:
    def test_finds_short_distinguishing_packet(self):
        cex = CounterexampleSearch(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"
        ).search()
        assert cex is not None
        assert cex.packet.width in (2, 3)

    def test_no_counterexample_for_equivalent_parsers(self):
        cex = CounterexampleSearch(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
        ).search(max_leaps=6)
        assert cex is None

    def test_counterexample_includes_stores(self):
        cex = CounterexampleSearch(
            tiny.store_dependent(), "Start", tiny.store_dependent(), "Start"
        ).search()
        assert cex is not None
        assert cex.left_store["ghost"] != cex.right_store["ghost"]


class TestExplicitBaselines:
    def test_explicit_check_agrees_positive(self):
        result = explicit_bisimulation_check(
            mpls.scaled_reference(2), "q1", mpls.scaled_vectorized(2), "q3"
        )
        assert result.equivalent

    def test_explicit_check_agrees_negative(self):
        result = explicit_bisimulation_check(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"
        )
        assert not result.equivalent
        assert result.counterexample is not None

    def test_explicit_check_counts_pairs(self):
        result = explicit_bisimulation_check(fixed_length_automaton(3), "s0",
                                              fixed_length_automaton(3), "s0")
        assert result.equivalent and result.visited_pairs > 8

    def test_exhaustive_store_check(self):
        result = exhaustive_store_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse"
        )
        assert result.equivalent
