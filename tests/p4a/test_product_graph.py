"""Tests for disjoint sums, renaming and the state-graph utilities."""


from repro.p4a import ACCEPT, REJECT, Bits, accepts, disjoint_sum, rename_automaton
from repro.p4a.graph import (
    adjacency,
    has_cycle,
    reachable_states,
    to_dot,
    unreachable_states,
)
from repro.protocols import ip_tcp_udp, mpls, tiny


class TestRenaming:
    def test_rename_prefixes_states_and_headers(self):
        renamed, state_map = rename_automaton(mpls.reference_parser(), "L_")
        assert set(renamed.states) == {"L_q1", "L_q2"}
        assert set(renamed.headers) == {"L_mpls", "L_udp"}
        assert state_map == {"q1": "L_q1", "q2": "L_q2"}

    def test_rename_preserves_language(self):
        original = mpls.scaled_reference(2)
        renamed, state_map = rename_automaton(original, "X_")
        label = Bits("01")
        packet = label.concat(Bits("1011"))
        assert accepts(original, "q1", packet) == accepts(renamed, state_map["q1"], packet)

    def test_rename_keeps_final_states(self):
        renamed, _ = rename_automaton(tiny.incremental_bits(), "Y_")
        assert renamed.state("Y_Next").transition.target == ACCEPT


class TestDisjointSum:
    def test_sum_contains_both_sides(self):
        result = disjoint_sum(mpls.reference_parser(), mpls.vectorized_parser())
        assert set(result.left_states.values()) <= set(result.automaton.states)
        assert set(result.right_states.values()) <= set(result.automaton.states)
        assert len(result.automaton.states) == 2 + 3

    def test_sum_preserves_each_language(self):
        left = tiny.incremental_bits_checked()
        right = tiny.big_bits_checked()
        combined = disjoint_sum(left, right)
        packet = Bits("11")
        assert accepts(combined.automaton, combined.left_states["Start"], packet)
        assert accepts(combined.automaton, combined.right_states["Parse"], packet)
        assert not accepts(combined.automaton, combined.left_states["Start"], Bits("01"))

    def test_sum_is_well_typed(self):
        from repro.p4a import check_automaton

        result = disjoint_sum(ip_tcp_udp.reference_parser(), ip_tcp_udp.combined_parser())
        check_automaton(result.automaton)


class TestGraph:
    def test_reachable_states(self):
        aut = ip_tcp_udp.reference_parser()
        assert reachable_states(aut, "parse_ip") == {
            "parse_ip", "parse_udp", "parse_tcp", ACCEPT, REJECT,
        }

    def test_unreachable_states(self):
        aut = ip_tcp_udp.reference_parser()
        assert unreachable_states(aut, "parse_udp") == {"parse_ip", "parse_tcp"}

    def test_cycle_detection(self):
        assert has_cycle(mpls.reference_parser())          # the MPLS label loop
        assert not has_cycle(ip_tcp_udp.reference_parser())

    def test_adjacency_covers_all_states(self):
        aut = mpls.vectorized_parser()
        assert set(adjacency(aut)) == set(aut.states)

    def test_dot_output_mentions_every_state(self):
        aut = mpls.reference_parser()
        dot = to_dot(aut, start="q1")
        for state in aut.states:
            assert state in dot
        assert "digraph" in dot
