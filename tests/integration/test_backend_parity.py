"""Differential parity: every backend must agree with the internal solver.

Each registry mini scenario runs through the internal CDCL backend with its
incremental session, and again through the internal DPLL engine, through
monolithic (one fresh query per entailment) solving, and (when one is on
PATH) an external SMT solver; the verdicts must agree, and every extracted
counterexample must replay concretely — ``accepts`` really diverging on the
witness packet — whatever backend found it.
"""

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.scenarios import get, mini_names
from repro.smt.backend import available_external_solvers

#: Quick configs: structural work dominates these scenarios, so memory
#: tracking is noise and the oracle is unnecessary (replay is asserted here).
def _config(**overrides):
    return CheckerConfig(track_memory=False, **overrides)


def _run(name, config):
    left, left_start, right, right_start = get(name).automata()
    return check_language_equivalence(
        left, left_start, right, right_start,
        config=config, find_counterexamples=True,
    )


def _assert_witness_replays(name, result):
    if result.counterexample is None:
        return
    left, left_start, right, right_start = get(name).automata()
    witness = result.counterexample
    left_accepts = accepts(left, left_start, witness.packet, witness.left_store)
    right_accepts = accepts(right, right_start, witness.packet, witness.right_store)
    assert left_accepts == witness.left_accepts
    assert right_accepts == witness.right_accepts
    assert left_accepts != right_accepts, (
        f"{name}: witness packet does not distinguish the parsers"
    )


def _assert_agreement(name, baseline, other, label):
    assert other.verdict == baseline.verdict, (
        f"{name}: {label} verdict {other.verdict} != internal {baseline.verdict}"
    )
    _assert_witness_replays(name, baseline)
    _assert_witness_replays(name, other)


@pytest.mark.parametrize("name", mini_names())
def test_dpll_matches_internal(name):
    baseline = _run(name, _config())
    dpll = _run(name, _config(solver="dpll"))
    _assert_agreement(name, baseline, dpll, "dpll")
    assert dpll.verdict is get(name).expected_equivalent


@pytest.mark.parametrize("name", mini_names())
def test_monolithic_matches_incremental(name):
    baseline = _run(name, _config())
    monolithic = _run(name, _config(use_incremental=False))
    _assert_agreement(name, baseline, monolithic, "monolithic")
    assert (monolithic.statistics.relation_size
            == baseline.statistics.relation_size)


@pytest.mark.parametrize("name", mini_names())
def test_external_solver_matches_internal(name):
    external = available_external_solvers()
    if not external:
        pytest.skip("no external SMT solver on PATH")
    baseline = _run(name, _config())
    shelled = _run(name, _config(solver=external[0], use_incremental=False))
    _assert_agreement(name, baseline, shelled, external[0])
