"""Differential parity: every backend must agree with the internal solver.

Each registry mini scenario runs through the internal CDCL backend with its
incremental session, and again through the internal DPLL engine, through the
CDCL backend behind a one-shot session (one fresh query per check), and
(when one is on PATH) an external SMT solver; the verdicts must agree, and
every extracted counterexample must replay concretely — ``accepts`` really
diverging on the witness packet — whatever backend found it.
"""

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.scenarios import get, mini_names
from repro.smt.backend import InternalBackend, SolverBackend, available_external_solvers
from repro.smt.bvsolver import InternalBVSolver

from ..helpers import OneShotBackend

#: Quick configs: structural work dominates these scenarios, so memory
#: tracking is noise and the oracle is unnecessary (replay is asserted here).
def _config(**overrides):
    return CheckerConfig(track_memory=False, **overrides)


def _run(name, config, backend=None):
    left, left_start, right, right_start = get(name).automata()
    return check_language_equivalence(
        left, left_start, right, right_start,
        config=config, backend=backend,
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
    monolithic = _run(name, _config(), backend=OneShotBackend())
    _assert_agreement(name, baseline, monolithic, "monolithic")
    assert monolithic.verdict is get(name).expected_equivalent
    assert (monolithic.statistics.relation_size
            == baseline.statistics.relation_size)


class _CountingBackend:
    """Count the ``check_sat`` calls a check makes on its backend."""

    calls = 0

    def check_sat(self, formula, stop=None):
        self.calls += 1
        return super().check_sat(formula, stop=stop)


class _CountingInternal(_CountingBackend, InternalBackend):
    pass


class _CountingOneShot(_CountingBackend, OneShotBackend):
    pass


@pytest.mark.parametrize("name", ["mini_qinq", "mini_qinq_broken"])
def test_session_is_used_exactly_when_the_backend_offers_one(name):
    # With a session every entailment query runs inside it; without one,
    # each goes to the backend as its own check_sat call.
    with_session, one_shot = _CountingInternal(), _CountingOneShot()
    baseline = _run(name, _config(), backend=with_session)
    fallback = _run(name, _config(), backend=one_shot)
    _assert_agreement(name, baseline, fallback, "one-shot")
    assert with_session.calls == 0
    assert one_shot.calls > 0


class _CountingSolver(SolverBackend):
    """A solver with only ``check_sat``: it takes the protocol's one-shot session."""

    name = "counting"

    def __init__(self):
        self.calls = 0
        self._solver = InternalBVSolver()

    def check_sat(self, formula, stop=None):
        self.calls += 1
        return self._solver.check_sat(formula, stop=stop)


@pytest.mark.parametrize("name", ["mini_edge", "mini_ipv6_ext_broken"])
def test_every_query_reaches_the_chosen_solver(name):
    # CEGIS rounds included: none may be solved on a private solver.
    backend = _CountingSolver()
    result = _run(name, _config(), backend=backend)
    assert result.verdict is get(name).expected_equivalent
    assert result.statistics.entailment["cegis_rounds"] > 0
    assert backend.calls == result.statistics.solver["queries"] > 0


@pytest.mark.parametrize("name", mini_names())
def test_external_solver_matches_internal(name):
    external = available_external_solvers()
    if not external:
        pytest.skip("no external SMT solver on PATH")
    baseline = _run(name, _config())
    shelled = _run(name, _config(solver=external[0]))
    _assert_agreement(name, baseline, shelled, external[0])
