"""Tests for the validated LEAPFROG_* environment parsing."""

import pytest

from repro import envconfig
from repro.envconfig import EnvConfigError


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
        assert envconfig.cache_dir_from_env({}) is None
        assert envconfig.cache_dir_from_env({"LEAPFROG_CACHE_DIR": ""}) is None

    def test_value_passed_through(self):
        environ = {"LEAPFROG_CACHE_DIR": "/tmp/cache"}
        assert envconfig.cache_dir_from_env(environ) == "/tmp/cache"


class TestIncrementalFlag:
    def test_unset_is_none(self):
        assert envconfig.incremental_from_env({}) is None
        assert envconfig.incremental_from_env({"LEAPFROG_INCREMENTAL": ""}) is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy(self, value):
        assert envconfig.incremental_from_env({"LEAPFROG_INCREMENTAL": value}) is True

    @pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
    def test_falsy(self, value):
        assert envconfig.incremental_from_env({"LEAPFROG_INCREMENTAL": value}) is False

    def test_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_INCREMENTAL"):
            envconfig.incremental_from_env({"LEAPFROG_INCREMENTAL": "maybe"})


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
        assert envconfig.clause_db_from_env({}) is None

    def test_integer_values(self):
        assert envconfig.parse_clause_db("0") == 0
        assert envconfig.parse_clause_db(" 2000 ") == 2000
        assert envconfig.clause_db_from_env({"LEAPFROG_CLAUSE_DB": "512"}) == 512

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
        assert envconfig.solver_from_env({}) is None

    @pytest.mark.parametrize("value", ["internal", "cdcl", "dpll", "z3", " CVC5 "])
    def test_known_choices_normalised(self, value):
        assert envconfig.parse_solver(value) == value.strip().lower()

    def test_typo_rejected_with_choices(self):
        # The classic "z33" typo must be an error, never a silent fallback
        # to the internal solver.
        with pytest.raises(EnvConfigError, match="LEAPFROG_SOLVER.*'z33'"):
            envconfig.parse_solver("z33")
        with pytest.raises(EnvConfigError, match="z3"):
            envconfig.solver_from_env({"LEAPFROG_SOLVER": "yices"})

    def test_source_names_the_flag(self):
        with pytest.raises(EnvConfigError, match="--solver"):
            envconfig.parse_solver("z33", source="--solver")

    def test_vocabulary_is_internal_plus_external(self):
        assert envconfig.SOLVER_CHOICES == (
            envconfig.INTERNAL_SOLVERS + envconfig.EXTERNAL_SOLVERS
        )


class TestPortfolioFlag:
    def test_unset_is_none(self):
        assert envconfig.portfolio_from_env({}) is None
        assert envconfig.portfolio_from_env({"LEAPFROG_PORTFOLIO": ""}) is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy(self, value):
        assert envconfig.portfolio_from_env({"LEAPFROG_PORTFOLIO": value}) is True

    @pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
    def test_falsy(self, value):
        assert envconfig.portfolio_from_env({"LEAPFROG_PORTFOLIO": value}) is False

    def test_garbage_rejected(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_PORTFOLIO"):
            envconfig.portfolio_from_env({"LEAPFROG_PORTFOLIO": "maybe"})


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
