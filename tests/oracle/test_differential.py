"""Tests for the differential cross-check oracle and the scenario suite."""

import json

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import (
    check_initial_store_independence,
    check_language_equivalence,
)
from repro.oracle.differential import OracleDivergenceError, cross_check
from repro.oracle.suite import (
    mini_scenario_names,
    render_suite,
    run_differential_suite,
    write_reports,
)
from repro.protocols import tiny
from repro.smt.bvsolver import SatResult, SatStatus

from ..helpers import OneShotBackend

QUICK = CheckerConfig(track_memory=False, oracle_packets=80, oracle_seed=0)


class NoModelsBackend(OneShotBackend):
    """Answers every satisfiable query ``unknown``, so no entailment check
    hands out a counter-model."""

    def check_sat(self, formula, stop=None):
        result = super().check_sat(formula, stop=stop)
        if result.status is SatStatus.SAT:
            return SatResult(SatStatus.UNKNOWN)
        return result


class TestCrossCheck:
    def test_equivalent_pair_has_zero_divergences(self):
        report = cross_check(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            packets=150, seed=0,
        )
        assert report.ok
        assert report.packets == 150
        assert report.accepted_left == report.accepted_right

    def test_broken_pair_diverges(self):
        report = cross_check(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_wrong_check(), "Parse",
            packets=150, seed=0,
        )
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.left_accepts != divergence.right_accepts

    def test_store_dependence_exposed_by_independent_stores(self):
        report = cross_check(
            tiny.store_dependent(), "Start", tiny.store_dependent(), "Start",
            packets=150, seed=0,
        )
        assert not report.ok

    def test_deterministic_given_seed(self):
        args = (tiny.incremental_bits_checked(), "Start",
                tiny.big_bits_wrong_check(), "Parse")
        first = cross_check(*args, packets=60, seed=7)
        second = cross_check(*args, packets=60, seed=7)
        assert first.total_divergences == second.total_divergences
        assert [d.packet for d in first.divergences] == [d.packet for d in second.divergences]

    def test_recording_cap_keeps_total_truthful(self):
        report = cross_check(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_wrong_check(), "Parse",
            packets=200, seed=0, max_recorded=3,
        )
        assert len(report.divergences) == 3
        assert report.total_divergences > 3
        assert report.summary()["divergences"] == report.total_divergences


class TestVerdictIntegration:
    def test_proved_verdict_cross_checked(self):
        result = check_language_equivalence(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            config=QUICK,
        )
        assert result.proved
        assert result.statistics.oracle["packets"] == 80
        assert result.statistics.oracle["divergences"] == 0

    def test_refuted_verdict_ships_confirmed_minimized_witness(self):
        result = check_language_equivalence(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse",
            config=QUICK,
        )
        assert result.refuted
        cex = result.counterexample
        from repro.oracle.minimize import confirm_counterexample

        assert confirm_counterexample(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse", cex
        )
        assert result.statistics.oracle["minimized_to"] <= result.statistics.oracle["minimized_from"]

    def test_stuck_verdict_promoted_by_fuzzing(self):
        # Without a counter-model the failed proof yields no witness: the
        # verdict stays unknown unless the oracle finds a divergence.
        stuck = check_initial_store_independence(
            tiny.store_dependent(), "Start",
            config=CheckerConfig(track_memory=False), backend=NoModelsBackend(),
        )
        assert stuck.verdict is None
        result = check_initial_store_independence(
            tiny.store_dependent(), "Start", config=QUICK, backend=NoModelsBackend()
        )
        assert result.refuted
        cex = result.counterexample
        assert cex is not None and cex.left_accepts != cex.right_accepts
        assert result.statistics.oracle["divergences"] > 0

    def test_contradicted_proof_raises(self):
        """A backend that rubber-stamps every entailment produces a bogus
        'equivalent' verdict on a broken pair; the oracle must catch it."""
        from repro.smt.backend import SolverBackend
        from repro.smt.bvsolver import SatResult, SatStatus

        class YesManBackend(SolverBackend):
            name = "yes-man"

            def check_sat(self, formula):
                # Everything is unsat => every entailment holds => any pair
                # "proves" equivalent.
                return SatResult(SatStatus.UNSAT, None, 0.0)

        with pytest.raises(OracleDivergenceError) as excinfo:
            check_language_equivalence(
                tiny.incremental_bits_checked(), "Start",
                tiny.big_bits_wrong_check(), "Parse",
                config=QUICK, backend=YesManBackend(),
            )
        assert "equivalent" in str(excinfo.value)
        assert excinfo.value.report.total_divergences > 0


class TestSuite:
    def test_all_mini_scenarios_match_expectations(self):
        rows = run_differential_suite(
            names=mini_scenario_names(), packets=60, seed=20220613
        )
        # Four mini graphs plus the six protocol families' pairs and the
        # synthetic family's pair (each an equivalent and a broken variant),
        # plus the checked-in distilled campaign catch.
        assert len(rows) == 19
        assert all(row.ok for row in rows), render_suite(rows)
        graph_rows = [row for row in rows if row.kind == "graph"]
        pair_rows = [row for row in rows if row.kind == "pair"]
        assert len(graph_rows) == 4 and len(pair_rows) == 15
        # Both the self- and the translation cross-check must actually run on
        # graph scenarios; pair scenarios have no hardware translation.
        assert all(row.translation_report is not None for row in graph_rows)
        assert all(row.translation_report is None for row in pair_rows)
        assert all(row.self_report.accepted_left > 0 for row in graph_rows)
        # Expected-inequivalent rows must demonstrate a divergence (fuzzed or
        # recovered by the symbolic fallback).
        for row in pair_rows:
            if not row.expected_equivalent:
                assert row.divergences > 0, render_suite(rows)

    def test_full_scenarios_sampled_cleanly(self):
        rows = run_differential_suite(names=["edge"], packets=30, seed=1)
        [row] = rows
        assert row.ok
        assert row.extra["hardware_entries"] > 0

    def test_reports_written_and_reloadable(self, tmp_path):
        rows = run_differential_suite(names=["mini_edge"], packets=20, seed=3)
        paths = write_reports(rows, str(tmp_path / "reports"))
        summary = json.loads(open(paths[0]).read())
        assert summary["ok"] is True
        assert summary["rows"][0]["scenario"] == "mini_edge"
        assert summary["rows"][0]["seed"] == 3

    def test_divergence_report_carries_reproduction_data(self, tmp_path):
        """Force a divergence by comparing two different scenarios."""
        from repro.oracle.differential import cross_check
        from repro.oracle.suite import ScenarioOracleRow
        from repro.parsergen import graph_to_p4a, scenario

        left, left_start = graph_to_p4a(scenario("mini_edge"))
        right, right_start = graph_to_p4a(scenario("mini_enterprise"))
        report = cross_check(left, left_start, right, right_start, packets=120, seed=0)
        assert not report.ok
        row = ScenarioOracleRow(
            scenario="mismatched", packets=120, seed=0, self_report=report
        )
        import os

        paths = write_reports([row], str(tmp_path))
        divergence_files = [p for p in paths if os.path.basename(p).startswith("divergence")]
        assert divergence_files
        record = json.loads(open(divergence_files[0]).read())
        first = record["self"]["divergences"][0]
        assert set(first) >= {"packet", "left_store", "right_store",
                              "left_accepts", "right_accepts"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_differential_suite(names=["nope"], packets=1)
