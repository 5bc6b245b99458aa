"""Differential parity of the AIG pipeline at the verification level.

The AIG lowering layer must be invisible to the algorithm above it: for any
pair of automata, running the full equivalence check with ``use_aig`` on and
off must produce the same verdict, the same relation size and the same number
of reachable template pairs.  This is exercised over every registry mini
scenario (real protocol families, both healthy and broken variants) and over
a batch of mutation-synthesized pairs with known labels.
"""

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.scenarios import get, mini_names
from repro.synth import synthesize_batch

_SEED = 20220613


def _both_modes(left, left_start, right, right_start):
    results = {}
    for use_aig in (True, False):
        # Counterexample search stays on so refuted cases settle on a real
        # False verdict (and so the CEGIS search runs under both modes too).
        results[use_aig] = check_language_equivalence(
            left, left_start, right, right_start,
            config=CheckerConfig(use_aig=use_aig),
        )
    return results[True], results[False]


@pytest.mark.parametrize("name", mini_names())
def test_registry_mini_scenarios_agree(name):
    scenario = get(name)
    with_aig, without_aig = _both_modes(*scenario.automata())
    assert with_aig.verdict == without_aig.verdict
    assert with_aig.verdict is scenario.expected_equivalent
    assert (with_aig.statistics.relation_size
            == without_aig.statistics.relation_size)
    assert (with_aig.statistics.reachable_pairs
            == without_aig.statistics.reachable_pairs)


@pytest.mark.parametrize("index", range(6))
def test_synthesized_pairs_agree(index):
    pair = synthesize_batch(6, _SEED)[index]
    with_aig, without_aig = _both_modes(
        pair.left, pair.left_start, pair.right, pair.right_start
    )
    assert with_aig.verdict == without_aig.verdict
    assert with_aig.verdict is pair.expected_equivalent
    assert (with_aig.statistics.relation_size
            == without_aig.statistics.relation_size)
    assert (with_aig.statistics.reachable_pairs
            == without_aig.statistics.reachable_pairs)
