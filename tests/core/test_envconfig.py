"""Tests for the validated LEAPFROG_* environment parsing."""

import pytest

from repro import envconfig
from repro.envconfig import EnvConfigError, resolve_checker_config


class TestParseJobs:
    def test_defaults_to_one(self):
        assert envconfig.parse_jobs(None) == 1
        assert envconfig.parse_jobs("") == 1
        assert envconfig.parse_jobs("  ") == 1

    def test_valid_values(self):
        assert envconfig.parse_jobs("1") == 1
        assert envconfig.parse_jobs(" 8 ") == 8

    def test_non_numeric_rejected_with_variable_name(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_JOBS.*'abc'"):
            envconfig.parse_jobs("abc")

    def test_zero_and_negative_rejected(self):
        with pytest.raises(EnvConfigError, match=">= 1"):
            envconfig.parse_jobs("0")
        with pytest.raises(EnvConfigError, match=">= 1"):
            envconfig.parse_jobs("-3")

    def test_source_names_the_flag(self):
        with pytest.raises(EnvConfigError, match="--jobs"):
            envconfig.parse_jobs("x", source="--jobs")

    def test_jobs_from_env(self):
        assert envconfig.jobs_from_env({}) == 1
        assert envconfig.jobs_from_env({"LEAPFROG_JOBS": "4"}) == 4
        with pytest.raises(EnvConfigError):
            envconfig.jobs_from_env({"LEAPFROG_JOBS": "many"})


class TestCacheDir:
    def test_unset_and_empty_are_none(self):
        assert resolve_checker_config({}, {}).cache_dir is None
        assert resolve_checker_config({}, {"LEAPFROG_CACHE_DIR": ""}).cache_dir is None

    def test_value_passed_through(self):
        environ = {"LEAPFROG_CACHE_DIR": "/tmp/cache"}
        assert resolve_checker_config({}, environ).cache_dir == "/tmp/cache"


class TestIncrementalFlag:
    def test_unset_is_none(self):
        assert envconfig.parse_flag(None, "LEAPFROG_INCREMENTAL") is None
        assert envconfig.parse_flag(" ", "LEAPFROG_INCREMENTAL") is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy(self, value):
        assert envconfig.parse_flag(value, "LEAPFROG_INCREMENTAL") is True

    @pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
    def test_falsy(self, value):
        assert envconfig.parse_flag(value, "LEAPFROG_INCREMENTAL") is False

    def test_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_INCREMENTAL"):
            resolve_checker_config({}, {"LEAPFROG_INCREMENTAL": "maybe"})


class TestOraclePackets:
    def test_unset_is_none(self):
        assert envconfig.parse_oracle_packets(None) is None
        assert envconfig.parse_oracle_packets("  ") is None
        assert envconfig.oracle_packets_from_env({}) is None

    def test_integer_values(self):
        assert envconfig.parse_oracle_packets("0") == 0
        assert envconfig.parse_oracle_packets(" 128 ") == 128
        assert envconfig.oracle_packets_from_env({"LEAPFROG_ORACLE": "32"}) == 32

    def test_boolean_words(self):
        assert envconfig.parse_oracle_packets("on") == envconfig.DEFAULT_ORACLE_PACKETS
        assert envconfig.parse_oracle_packets("true") == envconfig.DEFAULT_ORACLE_PACKETS
        assert envconfig.parse_oracle_packets("off") == 0
        assert envconfig.parse_oracle_packets("FALSE") == 0

    def test_negative_and_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match=">= 0"):
            envconfig.parse_oracle_packets("-1")
        with pytest.raises(EnvConfigError, match="LEAPFROG_ORACLE"):
            envconfig.parse_oracle_packets("lots")

    def test_source_names_the_flag(self):
        with pytest.raises(EnvConfigError, match="--oracle-packets"):
            envconfig.parse_oracle_packets("x", source="--oracle-packets")


class TestClauseDb:
    def test_unset_is_none(self):
        assert envconfig.parse_clause_db(None) is None
        assert envconfig.parse_clause_db("  ") is None

    def test_integer_values(self):
        assert envconfig.parse_clause_db("0") == 0
        assert envconfig.parse_clause_db(" 2000 ") == 2000
        assert resolve_checker_config({}, {"LEAPFROG_CLAUSE_DB": "512"}).clause_db_max == 512

    def test_boolean_words(self):
        assert envconfig.parse_clause_db("on") == envconfig.DEFAULT_CLAUSE_DB_MAX
        assert envconfig.parse_clause_db("true") == envconfig.DEFAULT_CLAUSE_DB_MAX
        assert envconfig.parse_clause_db("off") == 0
        assert envconfig.parse_clause_db("FALSE") == 0

    def test_negative_and_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match=">= 0"):
            envconfig.parse_clause_db("-1")
        with pytest.raises(EnvConfigError, match="LEAPFROG_CLAUSE_DB"):
            envconfig.parse_clause_db("lots")

    def test_source_names_the_flag(self):
        with pytest.raises(EnvConfigError, match="--clause-db-max"):
            envconfig.parse_clause_db("x", source="--clause-db-max")

    def test_default_matches_the_solver_default(self):
        # envconfig duplicates the solver's default so parsing environment
        # variables never imports the solver stack; this pins the two.
        from repro.smt.sat.solver import DEFAULT_CLAUSE_DB_MAX

        assert envconfig.DEFAULT_CLAUSE_DB_MAX == DEFAULT_CLAUSE_DB_MAX


class TestSeed:
    def test_unset_is_none(self):
        assert envconfig.parse_seed(None) is None
        assert envconfig.seed_from_env({}) is None
        assert envconfig.seed_from_env({"LEAPFROG_SEED": " "}) is None

    def test_any_integer_accepted(self):
        assert envconfig.parse_seed("0") == 0
        assert envconfig.parse_seed("-7") == -7
        assert envconfig.seed_from_env({"LEAPFROG_SEED": "20220613"}) == 20220613

    def test_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_SEED"):
            envconfig.seed_from_env({"LEAPFROG_SEED": "lucky"})


class TestSolver:
    def test_unset_is_none(self):
        assert envconfig.parse_solver(None) is None
        assert envconfig.parse_solver("  ") is None

    @pytest.mark.parametrize("value", ["internal", "cdcl", "dpll", "z3", " CVC5 "])
    def test_known_choices_normalised(self, value):
        assert envconfig.parse_solver(value) == value.strip().lower()

    def test_typo_rejected_with_choices(self):
        # The classic "z33" typo must be an error, never a silent fallback
        # to the internal solver.
        with pytest.raises(EnvConfigError, match="LEAPFROG_SOLVER.*'z33'"):
            envconfig.parse_solver("z33")
        with pytest.raises(EnvConfigError, match="z3"):
            resolve_checker_config({}, {"LEAPFROG_SOLVER": "yices"})

    def test_source_names_the_flag(self):
        with pytest.raises(EnvConfigError, match="--solver"):
            envconfig.parse_solver("z33", source="--solver")

    def test_vocabulary_is_internal_plus_external(self):
        assert envconfig.SOLVER_CHOICES == (
            envconfig.INTERNAL_SOLVERS + envconfig.EXTERNAL_SOLVERS
        )


class TestPortfolioFlag:
    def test_unset_is_none(self):
        assert envconfig.parse_flag(None, "LEAPFROG_PORTFOLIO") is None
        assert resolve_checker_config({}, {"LEAPFROG_PORTFOLIO": ""}).portfolio is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy(self, value):
        assert resolve_checker_config({}, {"LEAPFROG_PORTFOLIO": value}).portfolio is True

    @pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
    def test_falsy(self, value):
        assert resolve_checker_config({}, {"LEAPFROG_PORTFOLIO": value}).portfolio is False

    def test_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_PORTFOLIO"):
            resolve_checker_config({}, {"LEAPFROG_PORTFOLIO": "maybe"})


class TestCliIntegration:
    def test_cli_reports_env_error_cleanly(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("LEAPFROG_JOBS", "not-a-number")
        code = main(["table", "--case", "Header initialization"])
        captured = capsys.readouterr()
        assert code == 2
        assert "LEAPFROG_JOBS" in captured.err

    def test_cli_rejects_bad_jobs_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table", "--jobs", "0"])
        assert "--jobs" in capsys.readouterr().err

    def test_cli_reports_solver_typo_cleanly(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("LEAPFROG_SOLVER", "z33")
        code = main(["table", "--case", "Header initialization"])
        captured = capsys.readouterr()
        assert code == 2
        assert "LEAPFROG_SOLVER" in captured.err
        assert "z33" in captured.err

    def test_cli_rejects_unknown_solver_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "x", "y", "--left-start", "a",
                  "--right-start", "b", "--solver", "z33"])
        assert "--solver" in capsys.readouterr().err

    def test_cli_rejects_portfolio_with_external_solver(self, capsys, monkeypatch):
        import shutil as _shutil

        from repro.cli import main

        monkeypatch.delenv("LEAPFROG_SOLVER", raising=False)
        monkeypatch.setattr(_shutil, "which", lambda name: f"/usr/bin/{name}")
        code = main(["table", "--case", "Header initialization",
                     "--solver", "z3", "--portfolio"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot be combined" in captured.err

    def test_cli_rejects_missing_external_solver(self, capsys, monkeypatch):
        import shutil as _shutil

        from repro.cli import main

        monkeypatch.setattr(_shutil, "which", lambda name: None)
        code = main(["table", "--case", "Header initialization",
                     "--solver", "z3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not on PATH" in captured.err


# Per field of CHECKER_VARIABLES: (raw variable value, its parsed value, a
# flag value).  The variable differs from the CheckerConfig default and the
# flag from the variable, so each precedence level is visible.
_PRECEDENCE = {
    "cache_dir": ("/tmp/env-cache", "/tmp/env-cache", "/tmp/flag-cache"),
    "use_incremental": ("0", False, True),
    "use_aig": ("off", False, True),
    "oracle_packets": ("32", 32, 8),
    "oracle_seed": ("7", 7, 9),
    "solver": ("dpll", "dpll", "internal"),
    "portfolio": ("on", True, False),
    "clause_db_max": ("512", 512, 100),
}


class TestResolveCheckerConfig:
    def test_precedence_table_covers_every_variable(self):
        assert set(_PRECEDENCE) == set(envconfig.CHECKER_VARIABLES)

    @pytest.mark.parametrize("field", sorted(_PRECEDENCE))
    def test_flag_beats_variable_beats_default(self, field):
        from repro.core.algorithm import CheckerConfig

        raw, parsed, flag = _PRECEDENCE[field]
        variable, _ = envconfig.CHECKER_VARIABLES[field]
        default = getattr(CheckerConfig(), field)
        assert parsed != default and flag != parsed
        assert getattr(resolve_checker_config({}, {}), field) == default
        assert getattr(resolve_checker_config({field: None}, {variable: raw}), field) == parsed
        assert getattr(resolve_checker_config({field: flag}, {variable: raw}), field) == flag

    def test_given_flag_skips_the_variable(self):
        config = resolve_checker_config({"oracle_packets": 4}, {"LEAPFROG_ORACLE": "lots"})
        assert config.oracle_packets == 4

    def test_fields_without_a_variable_come_from_flags_or_base(self):
        from repro.core.algorithm import CheckerConfig

        config = resolve_checker_config(
            {"use_leaps": False}, {"LEAPFROG_ORACLE": "5"},
            base=CheckerConfig(track_memory=True, oracle_packets=64),
        )
        assert config.use_leaps is False
        assert config.track_memory is True
        assert config.oracle_packets == 5

    def test_unset_solver_is_internal(self):
        from repro.smt.backend import InternalBackend, backend_for_solver

        config = resolve_checker_config({}, {})
        assert config.solver is None and config.portfolio is False
        assert isinstance(backend_for_solver(config.solver), InternalBackend)


class TestCommandsResolveOnce:
    """Every checking command hands out the resolved config, so a
    ``LEAPFROG_*`` variable reaches the checker whatever the command."""

    @pytest.fixture(autouse=True)
    def _aig_off(self, monkeypatch):
        monkeypatch.setenv("LEAPFROG_AIG", "0")
        monkeypatch.delenv("LEAPFROG_SERVER", raising=False)

    @staticmethod
    def _spy_checks(monkeypatch):
        import repro.cli as cli

        configs = []
        real = cli.check_language_equivalence

        def spy(*args, config=None, **kwargs):
            configs.append(config)
            return real(*args, config=config, **kwargs)

        monkeypatch.setattr(cli, "check_language_equivalence", spy)
        return configs

    def test_check(self, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.p4a.pretty import pretty
        from repro.protocols import tiny

        configs = self._spy_checks(monkeypatch)
        left, right = tmp_path / "left.p4a", tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits_checked()))
        right.write_text(pretty(tiny.big_bits_checked()))
        assert main(["check", str(left), str(right),
                     "--left-start", "Start", "--right-start", "Parse"]) == 0
        assert [config.use_aig for config in configs] == [False]

    def test_table(self, monkeypatch, capsys):
        import repro.cli as cli

        configs = []
        real = cli.run_cases

        def spy(**kwargs):
            configs.append(kwargs["config"])
            return real(**kwargs)

        monkeypatch.setattr(cli, "run_cases", spy)
        assert cli.main(["table", "--case", "Header initialization"]) == 0
        [config] = configs
        assert config.use_aig is False and config.track_memory is True

    def test_scenarios_run(self, monkeypatch, capsys):
        from repro.cli import main

        configs = self._spy_checks(monkeypatch)
        assert main(["scenarios", "run", "mini_qinq"]) == 0
        assert [config.use_aig for config in configs] == [False]

    def test_synth_run(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.core.engine import EquivalenceEngine

        configs = []
        real = EquivalenceEngine.run

        def spy(self, jobs, on_result=None):
            configs.extend(job.config for job in jobs)
            return real(self, jobs, on_result)

        monkeypatch.setattr(EquivalenceEngine, "run", spy)
        assert main(["synth", "run", "--count", "2", "--seed", "5"]) == 0
        assert len(configs) == 2
        assert all(config.use_aig is False for config in configs)
        assert all(config.oracle_packets == envconfig.DEFAULT_ORACLE_PACKETS
                   and config.oracle_seed == 5 for config in configs)
