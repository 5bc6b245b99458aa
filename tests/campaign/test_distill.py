"""Disagreement distillation: delta debugging, witness shrinking, and the
planted-lie end-to-end pipeline the whole campaign subsystem exists for."""

import dataclasses
import importlib.util
import sys
from types import SimpleNamespace

import pytest

from repro.campaign import (
    CampaignConfig,
    delta_debug_chain,
    minimize_pair_witness,
    rebuild_pair,
    render_scenario_module,
    run_campaign,
    scenario_name_for,
)
from repro.core.engine import EquivalenceEngine
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.synth import (
    NOT_EQUIVALENT,
    campaign_config_for_size,
    synthesize_pair,
)

SEED = 20220613
#: Campaign index whose pair the planted bug lies about: odd (ground truth
#: ``not_equivalent``) with a 3-step transform chain for the reducer to chew.
PLANTED_INDEX = 13
PLANTED_SEED = SEED + PLANTED_INDEX


def _planted_pair():
    return synthesize_pair(
        PLANTED_SEED,
        config=campaign_config_for_size("mini"),
        verdict=NOT_EQUIVALENT,
    )


class LyingEngine(EquivalenceEngine):
    """An engine with a planted bug: it claims the planted pair (and every
    reduction of it — same pair name) is equivalent.  Stands in for a real
    solver defect so the tests can prove the campaign catches one."""

    LIE_PREFIX = f"pair{PLANTED_SEED}:"

    def run(self, jobs, on_result=None):
        results = super().run(jobs)
        doctored = []
        for result in results:
            if result.ok and result.job_id.startswith(self.LIE_PREFIX):
                result = dataclasses.replace(
                    result, value=SimpleNamespace(verdict=True)
                )
            doctored.append(result)
            if on_result is not None:
                on_result(result)
        return doctored


def _lying_factory(jobs):
    return LyingEngine(jobs=1)


class TestRebuildPair:
    def test_full_chain_rebuilds_the_original_right_side(self):
        pair = _planted_pair()
        rebuilt = rebuild_pair(pair, pair.chain)
        assert rebuilt is not None
        assert rebuilt.right == pair.right
        assert rebuilt.right_start == pair.right_start

    def test_broken_reductions_reconfirm_their_witness(self):
        pair = _planted_pair()
        mutation_only = rebuild_pair(pair, pair.chain[-1:])
        assert mutation_only is not None
        assert mutation_only.witness is not None
        assert mutation_only.replay_witness()


class TestDeltaDebug:
    def test_reduces_to_the_mutation_when_predicate_is_permissive(self):
        pair = _planted_pair()
        assert len(pair.chain) == 3
        reduced = delta_debug_chain(pair, lambda candidate: True)
        assert len(reduced.chain) == 1  # the mutation is protected
        assert reduced.transforms == (pair.transforms[-1],)
        assert reduced.replay_witness()

    def test_keeps_the_chain_when_no_reduction_reproduces(self):
        pair = _planted_pair()
        reduced = delta_debug_chain(pair, lambda candidate: False)
        assert reduced.chain == pair.chain
        assert reduced is pair

    def test_equivalent_pairs_can_reduce_to_empty_chains(self):
        pair = synthesize_pair(
            SEED, config=campaign_config_for_size("mini"), verdict="equivalent"
        )
        reduced = delta_debug_chain(pair, lambda candidate: True)
        assert reduced.chain == ()
        assert reduced.right == pair.left  # no steps: right is the base


class TestWitnessShrinking:
    def test_minimized_witness_still_separates_the_pair(self):
        pair = _planted_pair()
        shrunk = minimize_pair_witness(pair)
        assert shrunk.witness is not None
        assert shrunk.witness.width <= pair.witness.width
        assert accepts(
            shrunk.left, shrunk.left_start, shrunk.witness
        ) != accepts(shrunk.right, shrunk.right_start, shrunk.witness)

    def test_equivalent_pairs_pass_through(self):
        pair = synthesize_pair(
            SEED, config=campaign_config_for_size("mini"), verdict="equivalent"
        )
        assert minimize_pair_witness(pair) is pair


class TestKeptPairs:
    def test_only_label_disagreements_are_kept_for_distillation(self):
        from repro.campaign.runner import ShardOutcome, _check_chunk

        config = CampaignConfig(pairs=PLANTED_INDEX + 2, seed=SEED)
        chunk = [PLANTED_INDEX - 1, PLANTED_INDEX, PLANTED_INDEX + 1]
        outcome = ShardOutcome(shard=0, indices=len(chunk))
        kept = {}
        _check_chunk(
            config, LyingEngine(jobs=1), config.resolved_stacks(), chunk, outcome, kept
        )
        assert outcome.completed == len(chunk)
        assert [d["index"] for d in outcome.disagreements] == [PLANTED_INDEX]
        assert list(kept) == [PLANTED_INDEX]
        assert kept[PLANTED_INDEX] == _planted_pair()


class TestPlantedLieEndToEnd:
    """The acceptance scenario: a planted engine bug must come out the other
    end as a registered, replayable regression test that fails on the buggy
    engine and passes on the honest one."""

    def _campaign(self, tmp_path):
        config = CampaignConfig(
            pairs=PLANTED_INDEX + 1,
            shards=2,
            seed=SEED,
            chunk_size=4,
            distill_dir=str(tmp_path / "distilled"),
        )
        return config, run_campaign(config, engine_factory=_lying_factory)

    def test_lie_is_caught_reduced_and_serialized(self, tmp_path):
        config, report = self._campaign(tmp_path)
        assert report.exit_code == 1
        payload = report.as_dict()
        all_disagreements = [
            d for shard in payload["shards"] for d in shard["disagreements"]
        ]
        assert [d["index"] for d in all_disagreements] == [PLANTED_INDEX]
        assert all_disagreements[0]["observed"] == "equivalent"
        assert all_disagreements[0]["expected"] == NOT_EQUIVALENT

        [entry] = payload["distilled"]
        assert entry["scenario"] == f"distilled_mini_{PLANTED_SEED}_internal"
        assert entry["steps_before"] == 3
        assert entry["steps_after"] == 1
        assert entry["witness_bits"] is not None
        module_path = tmp_path / "distilled" / entry["module"]
        assert module_path.exists()

    def test_distilled_module_is_deterministic(self, tmp_path):
        _, first = self._campaign(tmp_path)
        [entry] = first.as_dict()["distilled"]
        module_path = tmp_path / "distilled" / entry["module"]
        before = module_path.read_text()
        _, second = self._campaign(tmp_path)
        assert module_path.read_text() == before
        assert second.as_dict() == first.as_dict()

    @pytest.fixture
    def imported_scenario(self, tmp_path):
        """Run the campaign, import the distilled module (which registers
        its scenario), and unregister again afterwards so the global
        registry stays clean for the rest of the session."""
        _, report = self._campaign(tmp_path)
        [entry] = report.as_dict()["distilled"]
        module_path = tmp_path / "distilled" / entry["module"]

        module_key = "tests_campaign_distilled_planted"
        spec = importlib.util.spec_from_file_location(
            module_key, str(module_path)
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_key] = module
        spec.loader.exec_module(module)
        try:
            yield entry, module
        finally:
            from repro.scenarios.registry import _REGISTRY

            _REGISTRY.pop(entry["scenario"], None)
            sys.modules.pop(module_key, None)

    def test_scenario_fails_on_buggy_engine_and_passes_after_fix(
        self, imported_scenario
    ):
        entry, module = imported_scenario

        from repro.scenarios.registry import get

        scenario = get(entry["scenario"])
        assert scenario.family == "distilled"
        assert scenario.verdict == NOT_EQUIVALENT
        left, left_start, right, right_start = scenario.automata()

        # The recorded witness replays its divergence from the source text.
        from repro.p4a.bitvec import Bits

        witness = Bits(module.WITNESS)
        assert accepts(left, left_start, witness) != accepts(
            right, right_start, witness
        )

        # Before the fix (the lying engine): the scenario is judged
        # equivalent — contradicting EXPECTED, i.e. the regression fails.
        from repro.core.engine import EquivalenceJob

        [lying] = LyingEngine(jobs=1).run([
            EquivalenceJob(
                left, left_start, right, right_start,
                job_id=f"pair{PLANTED_SEED}:replay",
            )
        ])
        assert lying.value.verdict is True
        assert module.EXPECTED == NOT_EQUIVALENT  # test would fail

        # After the fix (the honest engine): verdict matches EXPECTED.
        honest = check_language_equivalence(left, left_start, right, right_start)
        assert honest.verdict is False


class TestRendering:
    def test_renderer_guards_against_docstring_collisions(self):
        pair = _planted_pair()
        source = render_scenario_module(
            pair, size="mini", stack="internal", observed="equivalent",
            campaign_seed=SEED, original_steps=len(pair.chain),
        )
        assert source.count('"""') % 2 == 0
        assert scenario_name_for(pair, "mini", "internal") in source
        compile(source, "<distilled>", "exec")  # syntactically valid module
