"""The campaign runner: config validation, determinism, checkpoints, exits."""

import json
import multiprocessing

import pytest

from repro.campaign import CampaignConfig, CampaignError, run_campaign
from repro.campaign.runner import _stack_config, available_stacks
from repro.core.engine import EquivalenceEngine

SEED = 20220613


def _run(config, **kwargs):
    return run_campaign(config, **kwargs)


class TestConfigValidation:
    def test_negative_pairs_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(pairs=-1)

    def test_zero_shards_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(pairs=1, shards=0)

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(pairs=4, shards=2, shard=2)

    def test_unknown_stack_rejected(self):
        with pytest.raises(CampaignError, match="unknown stacks"):
            CampaignConfig(pairs=1, stacks=("internal", "quantum"))

    def test_retired_portfolio_stack_rejected(self):
        with pytest.raises(CampaignError, match="unknown stacks"):
            CampaignConfig(pairs=1, stacks=("portfolio",))

    def test_empty_stacks_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(pairs=1, stacks=())

    def test_unknown_size_rejected(self):
        with pytest.raises(Exception):
            CampaignConfig(pairs=1, size="jumbo")

    def test_zero_chunk_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(pairs=1, chunk_size=0)


class TestSharding:
    def test_strided_indices_partition_the_campaign(self):
        config = CampaignConfig(pairs=10, shards=3, seed=SEED)
        slices = [config.shard_indices(k) for k in range(3)]
        assert slices[0] == [0, 3, 6, 9]
        assert slices[1] == [1, 4, 7]
        assert sorted(i for s in slices for i in s) == list(range(10))

    def test_fingerprint_keys_the_checked_work(self):
        base = CampaignConfig(pairs=10, shards=2, seed=SEED)
        assert base.fingerprint() == CampaignConfig(
            pairs=10, shards=2, seed=SEED
        ).fingerprint()
        for variant in (
            CampaignConfig(pairs=11, shards=2, seed=SEED),
            CampaignConfig(pairs=10, shards=3, seed=SEED),
            CampaignConfig(pairs=10, shards=2, seed=SEED + 1),
            CampaignConfig(pairs=10, shards=2, seed=SEED, size="full"),
        ):
            assert variant.fingerprint() != base.fingerprint()
        # Jobs/chunking change the execution, not which pairs get checked.
        assert CampaignConfig(
            pairs=10, shards=2, seed=SEED, jobs=4, chunk_size=5
        ).fingerprint() == base.fingerprint()

    def test_available_stacks(self):
        assert available_stacks(False) == ("internal",)
        differential = available_stacks(True)
        assert differential[:2] == ("internal", "aig-off")

    def test_aig_off_stack_builds_a_solver_without_aig(self):
        from repro.core.algorithm import PreBisimulationChecker
        from repro.protocols import tiny

        config = _stack_config("aig-off", CampaignConfig(pairs=1, differential=True))
        assert config.use_aig is False and config.solver is None
        aut = tiny.incremental_bits_checked()
        checker = PreBisimulationChecker(aut, aut, "Start", "Start", config=config)
        assert checker.backend._solver.use_aig is False
        assert checker.entailment._session._use_aig is False

    def test_differential_adds_the_first_installed_external_solver(self, monkeypatch):
        import repro.smt.backend as backend

        monkeypatch.setattr(backend, "available_external_solvers", lambda: ["z3"])
        stacks = available_stacks(True)
        assert stacks == ("internal", "aig-off", "z3")
        config = CampaignConfig(pairs=1, differential=True)
        assert config.resolved_stacks() == stacks
        assert _stack_config("z3", config).solver == "z3"


class TestDeterminism:
    def test_two_runs_report_identical_bytes(self):
        config = CampaignConfig(pairs=8, shards=2, seed=SEED, chunk_size=3)
        first = _run(config).as_dict()
        second = _run(config).as_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["totals"]["completed"] == 8
        assert first["totals"]["disagreements"] == 0

    def test_single_shard_run_matches_the_full_run_slice(self):
        full = _run(CampaignConfig(pairs=6, shards=2, seed=SEED))
        only_one = _run(CampaignConfig(pairs=6, shards=2, seed=SEED, shard=1))
        assert only_one.as_dict()["shards"] == [full.as_dict()["shards"][1]]

    def test_pooled_report_matches_inline_byte_for_byte(self):
        # chunk_size=5 splits the 12 pairs over three map() and three run()
        # calls, all served by the pooled side's one set of workers.
        reports = [
            json.dumps(
                _run(CampaignConfig(pairs=12, seed=SEED, chunk_size=5, jobs=jobs)).as_dict(),
                sort_keys=True,
            )
            for jobs in (1, 2)
        ]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["totals"]["agreements"] == 12

    def test_pooled_campaign_starts_one_pool(self, monkeypatch):
        import repro.core.engine as engine_module

        started = []

        class CountingWorker(engine_module._Worker):
            def __init__(self, context):
                started.append(self)
                super().__init__(context)

        monkeypatch.setattr(engine_module, "_Worker", CountingWorker)
        report = _run(CampaignConfig(pairs=12, seed=SEED, chunk_size=5, jobs=2))
        assert report.totals["agreements"] == 12
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_elapsed_stays_out_of_the_payload(self):
        report = _run(CampaignConfig(pairs=2, seed=SEED))
        assert report.elapsed > 0
        assert report.pairs_per_second > 0
        assert "elapsed" not in json.dumps(report.as_dict())


class _AbortAfterChunks(EquivalenceEngine):
    """Raises after N run() calls — simulates a campaign killed mid-shard."""

    def __init__(self, chunks: int, jobs: int = 1):
        super().__init__(jobs=jobs)
        self._left = chunks

    def run(self, jobs, on_result=None):
        if self._left == 0:
            raise KeyboardInterrupt("campaign interrupted")
        self._left -= 1
        return super().run(jobs, on_result=on_result)


class TestCheckpoints:
    CONFIG = dict(pairs=8, shards=2, seed=SEED, chunk_size=2)

    def test_interrupted_run_resumes_and_reports_identically(self, tmp_path):
        state = str(tmp_path / "state")
        plain = _run(CampaignConfig(**self.CONFIG)).as_dict()

        aborted = CampaignConfig(**self.CONFIG, state_dir=state)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(aborted, engine_factory=lambda jobs: _AbortAfterChunks(3))
        resumed = _run(CampaignConfig(**self.CONFIG, state_dir=state))
        assert resumed.as_dict()["shards"] == plain["shards"]
        # Something really was restored, not recomputed from scratch.
        assert any(s.get("completed") for s in resumed.as_dict()["shards"])

    def test_interrupted_pooled_run_leaves_no_workers(self):
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                CampaignConfig(**self.CONFIG, jobs=2),
                engine_factory=lambda jobs: _AbortAfterChunks(1, jobs=jobs),
            )
        assert multiprocessing.active_children() == []

    def test_completed_campaign_resumes_without_rechecking(self, tmp_path):
        state = str(tmp_path / "state")
        config = CampaignConfig(**self.CONFIG, state_dir=state)
        first = _run(config).as_dict()

        calls = []

        def counting_factory(jobs):
            engine = EquivalenceEngine(jobs=jobs)
            original = engine.run

            def run(jobs_list, on_result=None):
                calls.append(len(jobs_list))
                return original(jobs_list, on_result=on_result)

            engine.run = run
            return engine

        second = run_campaign(config, engine_factory=counting_factory).as_dict()
        assert second == first
        assert calls == []  # every shard resumed at 100%

    def test_foreign_checkpoints_are_ignored(self, tmp_path):
        state = str(tmp_path / "state")
        _run(CampaignConfig(**self.CONFIG, state_dir=state))
        # A different campaign (other seed) must not resume from these.
        other = CampaignConfig(
            pairs=8, shards=2, seed=SEED + 1, chunk_size=2, state_dir=state
        )
        report = _run(other)
        assert report.as_dict()["totals"]["completed"] == 8

    def test_corrupt_checkpoint_is_a_campaign_error(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "shard-0000.json").write_text("{not json")
        with pytest.raises(CampaignError, match="unreadable checkpoint"):
            _run(CampaignConfig(**self.CONFIG, state_dir=str(state)))


class TestExitCodes:
    def test_clean_run_exits_zero(self):
        report = _run(CampaignConfig(pairs=4, seed=SEED))
        assert report.exit_code == 0
        assert report.totals["agreements"] == 4

    def test_failures_trump_disagreements(self):
        from repro.campaign.runner import CampaignReport

        shard = {
            "shard": 0, "pairs": 1, "completed": 1,
            "checked": {"equivalent": 1, "not_equivalent": 0},
            "agreements": 0,
            "disagreements": [{"kind": "label"}],
            "failures": [{"status": "timeout"}],
            "cross_stack": [],
        }
        report = CampaignReport(config={}, shards=[shard], distilled=[])
        assert report.exit_code == 2
        shard["failures"] = []
        assert report.exit_code == 1
        shard["disagreements"] = []
        assert report.exit_code == 0
