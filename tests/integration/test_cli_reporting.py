"""Tests for the reporting metrics and the command-line interface."""

import pytest

from repro.cli import main
from repro.p4a.pretty import pretty
from repro.protocols import mpls, tiny
from repro.reporting.metrics import CaseMetrics, attach_run_statistics, structural_metrics
from repro.reporting.table import render_markdown, render_text
from repro.core.equivalence import check_language_equivalence


class TestMetrics:
    def test_structural_metrics_match_table2_columns(self):
        metrics = structural_metrics(
            "Speculative loop", mpls.reference_parser(), mpls.vectorized_parser()
        )
        assert metrics.states == 5
        assert metrics.branched_bits == 1 + 2
        assert metrics.total_bits == (32 + 64) + (32 + 32 + 32 + 64)

    def test_attach_run_statistics(self):
        result = check_language_equivalence(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
        )
        metrics = structural_metrics("tiny", tiny.incremental_bits(), tiny.big_bits())
        attach_run_statistics(metrics, result.statistics, result.verdict)
        assert metrics.verdict is True
        assert metrics.runtime_seconds >= 0
        assert "runtime_seconds" in metrics.as_dict()

    def test_render_handles_unknown_verdict(self):
        rows = [CaseMetrics("pending", 2, 1, 4)]
        assert "-" in render_text(rows)
        assert "| pending |" in render_markdown(rows)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Speculative loop" in output

    def test_check_command_equivalent(self, tmp_path, capsys):
        left = tmp_path / "left.p4a"
        right = tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits_checked()))
        right.write_text(pretty(tiny.big_bits_checked()))
        code = main([
            "check", str(left), str(right), "--left-start", "Start", "--right-start", "Parse",
        ])
        assert code == 0
        assert "PROVED" in capsys.readouterr().out

    def test_check_command_refuted(self, tmp_path, capsys):
        left = tmp_path / "left.p4a"
        right = tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits()))
        right.write_text(pretty(tiny.big_bits_wrong_length()))
        code = main([
            "check", str(left), str(right), "--left-start", "Start", "--right-start", "Parse",
        ])
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_table_command_subset(self, capsys):
        code = main(["table", "--case", "Speculative loop", "--markdown"])
        assert code == 0
        assert "Speculative loop" in capsys.readouterr().out

    def test_table_reports_memory(self, monkeypatch, capsys):
        # The table is where the Memory column is shown, so only it traces.
        import repro.cli as cli

        rows = []
        real_run_cases = cli.run_cases

        def spy_run_cases(**kwargs):
            rows.extend(real_run_cases(**kwargs))
            return rows

        monkeypatch.setattr(cli, "run_cases", spy_run_cases)
        assert main(["table", "--case", "Header initialization"]) == 0
        [row] = rows
        assert row.peak_memory_mb > 0

    @pytest.mark.parametrize("argv, env, passed, resolved", [
        ([], "1", None, True),
        ([], "0", None, False),
        (["--full"], "0", True, True),
    ])
    def test_table_size_follows_flag_then_environment(
        self, monkeypatch, argv, env, passed, resolved
    ):
        # Only the size decision is under test: the engine is faked, so no
        # row (least of all a paper-sized one) is checked.
        import repro.cli as cli
        from repro.core.engine import EquivalenceEngine, JobResult
        from repro.reporting.runner import CaseOutcome

        received, sizes = [], []
        real_run_cases = cli.run_cases

        def spy_run_cases(**kwargs):
            received.append(kwargs["full"])
            return real_run_cases(**kwargs)

        def fake_run(self, jobs, on_result=None):
            sizes.extend(job.full for job in jobs)
            return [
                JobResult(job.label, "ok",
                          value=CaseOutcome(CaseMetrics(job.case, 1, 0, 1), True))
                for job in jobs
            ]

        monkeypatch.setenv("LEAPFROG_FULL", env)
        monkeypatch.setattr(cli, "run_cases", spy_run_cases)
        monkeypatch.setattr(EquivalenceEngine, "run", fake_run)
        assert main(["table", "--case", "Edge", *argv]) == 0
        assert received == [passed]
        assert sizes == [resolved]

    def test_dump_scenario(self, capsys):
        code = main(["dump-scenario", "mini_edge", "--hardware"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ethernet" in output and "Match:" in output


class TestScenariosCli:
    def test_list_all(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        assert "mini_vxlan_gre" in output and "not_equivalent" in output

    def test_list_filtered_json(self, capsys):
        import json

        assert main(["scenarios", "list", "--family", "tunnel",
                     "--size", "mini", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in records} == {
            "mini_vxlan_gre", "mini_vxlan_gre_broken",
            "mini_geneve", "mini_geneve_broken",
        }
        assert all(r["states"] > 0 and r["header_bits"] > 0 for r in records)

    def test_show(self, capsys):
        assert main(["scenarios", "show", "mini_qinq_broken"]) == 0
        output = capsys.readouterr().out
        assert "service-provider" in output and "not_equivalent" in output

    def test_run_matches_equivalent_expectation(self, capsys):
        assert main(["scenarios", "run", "mini_qinq"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_matches_inequivalent_expectation(self, capsys):
        assert main(["scenarios", "run", "mini_arp_icmp_broken"]) == 0
        output = capsys.readouterr().out
        assert "REFUTED" in output and "OK" in output

    def test_unknown_scenario_suggests_near_miss(self, capsys):
        assert main(["scenarios", "show", "mini_qinc"]) == 2
        assert "mini_qinq" in capsys.readouterr().err

    def test_dump_scenario_rejects_pair_scenarios(self, capsys):
        assert main(["dump-scenario", "mini_qinq"]) == 2
        err = capsys.readouterr().err
        assert "automaton pair" in err and "scenarios show" in err


class TestOracleCli:
    def test_check_with_oracle_packets(self, tmp_path, capsys):
        left = tmp_path / "left.p4a"
        right = tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits_checked()))
        right.write_text(pretty(tiny.big_bits_checked()))
        code = main([
            "check", str(left), str(right), "--left-start", "Start",
            "--right-start", "Parse", "--oracle-packets", "40", "--seed", "9",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "PROVED" in output
        assert "0 divergences over 40 packets" in output

    def test_check_refuted_reports_minimized_packet(self, tmp_path, capsys):
        left = tmp_path / "left.p4a"
        right = tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits()))
        right.write_text(pretty(tiny.big_bits_wrong_length()))
        code = main([
            "check", str(left), str(right), "--left-start", "Start",
            "--right-start", "Parse",
        ])
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_oracle_command_mini_scenarios(self, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        code = main([
            "oracle", "--scenario", "mini_edge", "--scenario", "mini_datacenter",
            "--packets", "30", "--seed", "4", "--report-dir", str(report_dir),
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "mini_edge" in output and "mini_datacenter" in output
        assert (report_dir / "summary.json").exists()

    def test_oracle_command_env_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("LEAPFROG_ORACLE", "25")
        monkeypatch.setenv("LEAPFROG_SEED", "77")
        code = main(["oracle", "--scenario", "mini_enterprise", "--no-translation"])
        output = capsys.readouterr().out
        assert code == 0
        assert "25" in output and "77" in output

    def test_table_with_oracle_shows_divergence_column(self, capsys):
        code = main([
            "table", "--case", "Speculative loop", "--oracle-packets", "30",
            "--seed", "1",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "Divergences" in output
