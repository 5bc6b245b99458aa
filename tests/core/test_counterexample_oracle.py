"""Tests for the counterexample search's dedup, statistics and divergences."""

import pytest

from repro.core.counterexample import CounterexampleSearch, CounterexampleStatistics
from repro.p4a.bitvec import Bits
from repro.protocols import mpls, tiny
from repro.smt.backend import InternalBackend, SolverBackend
from repro.smt.bvsolver import SatResult, SatStatus

from ..helpers import OneShotBackend


class TestVisitedSetDedup:
    def test_loopy_self_comparison_expansion_drop(self):
        """Without the visited set, the MPLS loop re-expands fingerprint-equal
        nodes until max_leaps; with it the loop is collapsed after one lap."""
        left = mpls.scaled_reference(2)
        without = CounterexampleStatistics()
        CounterexampleSearch(left, "q1", left, "q1", statistics=without).search(
            max_leaps=8, dedup=False
        )
        with_dedup = CounterexampleStatistics()
        CounterexampleSearch(left, "q1", left, "q1", statistics=with_dedup).search(
            max_leaps=8, dedup=True
        )
        assert with_dedup.deduped > 0
        assert with_dedup.expanded < without.expanded
        assert with_dedup.successors < without.successors
        # Fewer nodes must also mean fewer solver calls.
        assert with_dedup.sat_checks < without.sat_checks

    def test_dedup_does_not_lose_counterexamples(self):
        for dedup in (False, True):
            cex = CounterexampleSearch(
                tiny.incremental_bits_checked(), "Start",
                tiny.big_bits_wrong_check(), "Parse",
            ).search(dedup=dedup)
            assert cex is not None
            assert cex.left_accepts != cex.right_accepts

    def test_dedup_preserves_equivalence_answer(self):
        for dedup in (False, True):
            assert CounterexampleSearch(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            ).search(max_leaps=6, dedup=dedup) is None


class TestDominancePruning:
    """The visited set prunes only twins dominated on BOTH budget axes."""

    def _node(self, leap_widths):
        from repro.core.counterexample import _SearchNode
        from repro.core.templates import Template, TemplatePair
        from repro.logic.confrel import CLit, CVar, TRUE

        empty = CLit(Bits(""))
        return _SearchNode(
            pair=TemplatePair(Template("s", 0), Template("s", 0)),
            condition=TRUE,
            left_env={},
            right_env={},
            left_buffer=empty,
            right_buffer=empty,
            leap_vars=tuple(CVar(f"v{i}", w) for i, w in enumerate(leap_widths)),
        )

    def test_loop_iteration_is_dominated(self):
        from repro.core.counterexample import _VisitedSet

        visited = _VisitedSet()
        assert not visited.dominated(self._node((4,)))
        # Same live state, strictly more consumed and deeper: pruned.
        assert visited.dominated(self._node((4, 4)))

    def test_cheaper_twin_is_still_explored(self):
        from repro.core.counterexample import _VisitedSet

        visited = _VisitedSet()
        assert not visited.dominated(self._node((16,)))
        # Same depth but fewer consumed bits: more budget left, not pruned.
        assert not visited.dominated(self._node((4,)))
        # ...and the frontier now prunes against the cheaper twin too.
        assert visited.dominated(self._node((8,)))

    def test_incomparable_twins_both_kept(self):
        from repro.core.counterexample import _VisitedSet

        visited = _VisitedSet()
        assert not visited.dominated(self._node((2, 2)))      # 4 bits, depth 2
        assert not visited.dominated(self._node((16,)))       # 16 bits, depth 1
        assert visited.dominated(self._node((8, 8)))          # dominated by (2,2)
        assert visited.dominated(self._node((16, 1)))         # dominated by both


class _ZeroModelBackend(SolverBackend):
    """Forwards to the internal solver but zeroes every model value,
    simulating a solver (or cache) handing back wrong models."""

    name = "zero-model"

    def __init__(self):
        self._inner = InternalBackend(validate_models=False)

    def check_sat(self, formula):
        result = self._inner.check_sat(formula)
        if result.status is SatStatus.SAT and result.model:
            zeroed = {name: Bits.zeros(value.width) for name, value in result.model.items()}
            return SatResult(SatStatus.SAT, zeroed, result.elapsed)
        return result


class TestReplayDivergences:
    def test_bad_models_counted_and_warned(self):
        """store_dependent's mismatch needs ghost< != ghost>; an all-zero
        model replays to agreement, which must be counted, warned about and
        rejected rather than silently discarded."""
        stats = CounterexampleStatistics()
        with pytest.warns(RuntimeWarning, match="diverged from concrete replay"):
            cex = CounterexampleSearch(
                tiny.store_dependent(), "Start", tiny.store_dependent(), "Start",
                backend=_ZeroModelBackend(),
                statistics=stats,
            ).search()
        assert cex is None
        assert stats.replay_divergences >= 1
        assert stats.extractions >= stats.replay_divergences

    def test_healthy_search_has_zero_divergences(self):
        stats = CounterexampleStatistics()
        cex = CounterexampleSearch(
            tiny.store_dependent(), "Start", tiny.store_dependent(), "Start",
            statistics=stats,
        ).search()
        assert cex is not None
        assert stats.replay_divergences == 0


class TestIncrementalSearchParity:
    def test_session_and_oneshot_agree(self):
        pairs = [
            (tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"),
            (tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"),
            (tiny.incremental_bits_checked(), "Start", tiny.big_bits_wrong_check(), "Parse"),
        ]
        for left, left_start, right, right_start in pairs:
            with_session = CounterexampleSearch(
                left, left_start, right, right_start
            ).search(max_leaps=6)
            one_shot = CounterexampleSearch(
                left, left_start, right, right_start, backend=OneShotBackend(),
            ).search(max_leaps=6)
            assert (with_session is None) == (one_shot is None)
            if with_session is not None:
                assert with_session.packet.width == one_shot.packet.width

    def test_search_reuse_across_calls(self):
        """One search object serves repeated (re-solving) calls."""
        search = CounterexampleSearch(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"
        )
        first = search.search(max_leaps=6)
        assert first is not None
        again = search.search(max_leaps=6)
        assert again is not None and again.packet.width == first.packet.width

    def test_leap_widths_recorded(self):
        cex = CounterexampleSearch(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse"
        ).search()
        assert sum(cex.leap_widths) == cex.packet.width
