"""Witnesses read off the failed conjunct's WP chain, against the reference search.

A refuted check stops at the first start-pair conjunct the initial formula
does not entail and builds its witness from that conjunct's counter-model
and WP chain (:func:`repro.core.counterexample.chain_counterexample`).  The
independent forward search (:class:`CounterexampleSearch`) stays as the
reference: on every case here it must agree on whether a witness exists.
"""

from dataclasses import replace

import pytest

from repro.core.algorithm import CheckerConfig, PreBisimulationChecker
from repro.core.counterexample import CounterexampleSearch
from repro.core.equivalence import check_language_equivalence
from repro.oracle.minimize import confirm_counterexample, minimize_counterexample
from repro.p4a.bitvec import Bits
from repro.protocols import tiny
from repro.scenarios import get, mini_names, names
from repro.synth.pairs import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    campaign_config_for_size,
    synthesize_pair,
)

CAMPAIGN_SEED = 20220613
CAMPAIGN_PAIRS = 64


def _refuted_scenarios():
    return [name for name in names() if get(name).kind == "pair"
            and not get(name).expected_equivalent]


def _campaign_pair(index):
    verdict = EQUIVALENT if index % 2 == 0 else NOT_EQUIVALENT
    return synthesize_pair(
        CAMPAIGN_SEED + index, config=campaign_config_for_size("mini"), verdict=verdict
    )


def _assert_chain_witness(left, left_start, right, right_start, config):
    """The check refutes with a confirmed chain witness; the search agrees."""
    raw = check_language_equivalence(
        left, left_start, right, right_start,
        config=replace(config, minimize_counterexamples=False),
    )
    assert raw.refuted
    assert raw.statistics.replay_divergences == 0
    cex = raw.counterexample
    assert confirm_counterexample(left, left_start, right, right_start, cex)
    assert sum(cex.leap_widths) == cex.packet.width
    assert cex.leap_widths == tuple(width for _, width in raw.raw.failure_path)
    # What a minimizing check ships: the same witness, shrunk by replay.
    shipped = minimize_counterexample(left, left_start, right, right_start, cex)
    assert confirm_counterexample(
        left, left_start, right, right_start, shipped.counterexample
    )

    reference = CounterexampleSearch(left, left_start, right, right_start).search(max_leaps=24)
    assert reference is not None


@pytest.mark.parametrize("name", _refuted_scenarios())
def test_refuted_scenario_ships_a_chain_witness(name):
    _assert_chain_witness(*get(name).automata(), CheckerConfig())


@pytest.mark.parametrize("name", [n for n in mini_names() if "broken" in n])
@pytest.mark.parametrize("option", ["use_leaps", "use_reachability"])
def test_ablated_broken_mini_ships_a_chain_witness(name, option):
    config = replace(CheckerConfig(), **{option: False})
    _assert_chain_witness(*get(name).automata(), config)


@pytest.mark.parametrize("index", range(CAMPAIGN_PAIRS))
def test_campaign_pair_agrees_with_the_reference(index):
    pair = _campaign_pair(index)
    automata = (pair.left, pair.left_start, pair.right, pair.right_start)
    if pair.verdict == NOT_EQUIVALENT:
        _assert_chain_witness(*automata, CheckerConfig())
        return
    assert check_language_equivalence(*automata).proved
    assert CounterexampleSearch(*automata).search(max_leaps=24) is None


def test_some_chain_reuses_a_leap_name():
    """A deeper step reuses a name once its own variable was simplified away;
    the witness reads each name at its outermost step only."""
    paths = [
        check_language_equivalence(*get(scenario).automata()).raw.failure_path
        for scenario in _refuted_scenarios()
    ]
    assert any(len({name for name, _ in path}) < len(path) for path in paths)


def test_divergent_failure_model_is_not_a_refutation(monkeypatch):
    """A counter-model whose packet does not replay to a mismatch is counted
    and warned about, and never becomes a refutation."""
    run = PreBisimulationChecker.run

    def corrupted(self):
        result = run(self)
        if result.failure_model is not None:
            result.failure_model = {
                name: Bits.zeros(value.width) for name, value in result.failure_model.items()
            }
        return result

    monkeypatch.setattr(PreBisimulationChecker, "run", corrupted)
    # The mismatch needs the two ghost headers to differ; all zeros agree.
    with pytest.warns(RuntimeWarning, match="diverged from concrete replay"):
        result = check_language_equivalence(
            tiny.store_dependent(), "Start", tiny.store_dependent(), "Start"
        )
    assert not result.refuted
    assert result.counterexample is None
    assert result.statistics.replay_divergences == 1
