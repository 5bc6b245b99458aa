"""Tests for the concrete P4A semantics (Definitions 3.1–3.6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracle.sampler import PacketSampler
from repro.p4a import Assign, Bits, Extract, P4ASemanticsError, P4Automaton, State
from repro.p4a.semantics import (
    BlockRunner,
    accepts,
    eval_expr,
    eval_transition,
    exec_ops,
    initial_configuration,
    initial_store,
    language_sample,
    multi_step,
    parse_packet,
    run_trace,
    step,
)
from repro.p4a.syntax import ACCEPT, BVLit, Concat, Goto, HeaderRef, REJECT, Slice
from repro.protocols import mpls, tiny
from repro.scenarios.registry import get, mini_names
from repro.synth import synthesize_batch

from ..helpers import chained_automaton, fixed_length_automaton, one_bit_automaton


class TestExpressions:
    def test_header_lookup(self):
        assert eval_expr(HeaderRef("h"), {"h": Bits("1010")}) == Bits("1010")

    def test_literal(self):
        assert eval_expr(BVLit(Bits("01")), {}) == Bits("01")

    def test_concat_and_slice(self):
        store = {"a": Bits("10"), "b": Bits("01")}
        expr = Slice(Concat(HeaderRef("a"), HeaderRef("b")), 1, 2)
        assert eval_expr(expr, store) == Bits("00")

    def test_missing_header_raises(self):
        from repro.p4a.errors import P4ASemanticsError

        with pytest.raises(P4ASemanticsError):
            eval_expr(HeaderRef("h"), {})


class TestOperations:
    def test_extract_consumes_in_order(self):
        aut = mpls.vectorized_parser()
        store = initial_store(aut)
        data = Bits("1" * 32 + "0" * 32)
        result = exec_ops(aut, aut.state("q3"), store, data)
        assert result["old"] == Bits("1" * 32)
        assert result["new"] == Bits("0" * 32)

    def test_assignment_uses_updated_store(self):
        aut = mpls.vectorized_parser()
        store = initial_store(aut)
        data = Bits("1" * 32)
        result = exec_ops(aut, aut.state("q5"), store, data)
        # q5 extracts tmp then sets udp := new ++ tmp.
        assert result["tmp"] == Bits("1" * 32)
        assert result["udp"] == store["new"].concat(Bits("1" * 32))

    def test_wrong_data_width_raises(self):
        from repro.p4a.errors import P4ASemanticsError

        aut = mpls.reference_parser()
        with pytest.raises(P4ASemanticsError):
            exec_ops(aut, aut.state("q1"), initial_store(aut), Bits("1"))


class TestTransitions:
    def test_goto(self):
        assert eval_transition(Goto("accept"), {}) == ACCEPT

    def test_select_first_match_wins(self):
        aut = mpls.vectorized_parser()
        select = aut.state("q3").transition
        store = {"old": Bits("0" * 32), "new": Bits("0" * 32)}
        assert eval_transition(select, store) == "q3"
        store = {"old": Bits("0" * 32), "new": Bits("0" * 23 + "1" + "0" * 8)}
        assert eval_transition(select, store) == "q4"
        store = {"old": Bits("0" * 23 + "1" + "0" * 8), "new": Bits("1" * 32)}
        assert eval_transition(select, store) == "q5"

    def test_select_falls_through_to_reject(self):
        aut = tiny.big_bits_checked()
        select = aut.state("Parse").transition
        assert eval_transition(select, {"bits": Bits("00")}) == REJECT


class TestDynamics:
    def test_buffering_until_op_size(self):
        aut = fixed_length_automaton(3)
        config = initial_configuration(aut, "s0")
        config = step(aut, config, 1)
        assert config.state == "s0" and config.buffer == Bits("1")
        config = step(aut, config, 0)
        assert config.buffer == Bits("10")
        config = step(aut, config, 1)
        assert config.state == ACCEPT and config.buffer.width == 0

    def test_accept_steps_to_reject(self):
        aut = fixed_length_automaton(1)
        config = multi_step(aut, initial_configuration(aut, "s0"), Bits("1"))
        assert config.state == ACCEPT
        assert step(aut, config, 0).state == REJECT

    def test_reject_is_absorbing(self):
        aut = one_bit_automaton("1")
        config = multi_step(aut, initial_configuration(aut, "s0"), Bits("00"))
        assert config.state == REJECT
        assert step(aut, config, 1).state == REJECT

    def test_invalid_bit(self):
        from repro.p4a.errors import P4ASemanticsError

        aut = one_bit_automaton()
        with pytest.raises(P4ASemanticsError):
            step(aut, initial_configuration(aut, "s0"), 2)

    def test_acceptance_requires_exact_length(self):
        aut = fixed_length_automaton(4)
        assert accepts(aut, "s0", Bits("1011"))
        assert not accepts(aut, "s0", Bits("101"))
        assert not accepts(aut, "s0", Bits("10111"))

    def test_run_trace_length(self):
        aut = fixed_length_automaton(2)
        trace = list(run_trace(aut, "s0", Bits("10")))
        assert len(trace) == 3
        assert trace[-1].is_accepting()

    def test_parse_packet_returns_store(self):
        aut = mpls.reference_parser()
        label = Bits("0" * 23 + "1" + "0" * 8)
        packet = label.concat(Bits("1" * 64))
        accepted, store = parse_packet(aut, "q1", packet)
        assert accepted
        assert store["mpls"] == label
        assert store["udp"] == Bits("1" * 64)

    def test_language_sample_enumerates_short_packets(self):
        aut = one_bit_automaton("1")
        assert list(language_sample(aut, "s0", 2)) == [Bits("1")]

    def test_configuration_str_and_store(self):
        aut = one_bit_automaton()
        config = initial_configuration(aut, "s0")
        assert "s0" in str(config)
        assert config.store_dict() == initial_store(aut)


class TestMplsBehaviour:
    """Concrete behavioural checks of the Figure 1 parsers."""

    def label(self, bottom: bool, bits: int = 32) -> Bits:
        value = ["0"] * bits
        value[23] = "1" if bottom else "0"
        return Bits("".join(value))

    def test_reference_accepts_one_label(self):
        aut = mpls.reference_parser()
        packet = self.label(True).concat(Bits("0" * 64))
        assert accepts(aut, "q1", packet)

    def test_reference_requires_bottom_of_stack(self):
        aut = mpls.reference_parser()
        packet = self.label(False).concat(Bits("0" * 64))
        assert not accepts(aut, "q1", packet)

    def test_vectorized_matches_reference_on_samples(self):
        reference = mpls.reference_parser()
        vectorized = mpls.vectorized_parser()
        rng = random.Random(7)
        for labels in range(1, 5):
            packet = Bits("")
            for index in range(labels):
                packet = packet.concat(self.label(index == labels - 1))
            packet = packet.concat(Bits("".join(rng.choice("01") for _ in range(64))))
            assert accepts(reference, "q1", packet)
            assert accepts(vectorized, "q3", packet)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="01", max_size=40))
    def test_scaled_parsers_agree_on_random_packets(self, bits):
        reference = mpls.scaled_reference(2)
        vectorized = mpls.scaled_vectorized(2)
        packet = Bits(bits)
        assert accepts(reference, "q1", packet) == accepts(vectorized, "q3", packet)


class TestChained:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.text(alphabet="01", max_size=16))
    def test_chained_accepts_exactly_total_length(self, chunks, bits):
        aut = chained_automaton(tuple(chunks))
        assert accepts(aut, "s0", Bits(bits)) == (len(bits) == sum(chunks))


class TestEdgeCases:
    """Corner cases of Definitions 3.4–3.6 the oracle's sampler leans on."""

    def test_empty_packet_never_accepted_when_bits_needed(self):
        aut = fixed_length_automaton(2)
        assert not accepts(aut, "s0", Bits(""))
        accepted, store = parse_packet(aut, "s0", Bits(""))
        assert not accepted
        assert store == initial_store(aut)  # nothing was extracted

    def test_empty_packet_run_is_the_initial_configuration(self):
        aut = fixed_length_automaton(3)
        config = multi_step(aut, initial_configuration(aut, "s0"), Bits(""))
        assert config == initial_configuration(aut, "s0")

    def test_bits_remaining_after_accept_reject_but_keep_store(self):
        aut = fixed_length_automaton(2)
        accepted, store = parse_packet(aut, "s0", Bits("10"))
        assert accepted and store["data"] == Bits("10")
        # One stray bit: the verdict flips to reject but the store survives
        # (accept steps to reject without clearing extracted headers).
        overrun, overrun_store = parse_packet(aut, "s0", Bits("101"))
        assert not overrun
        assert overrun_store["data"] == Bits("10")

    def test_buffered_bits_block_acceptance(self):
        aut = fixed_length_automaton(4)
        final = multi_step(aut, initial_configuration(aut, "s0"), Bits("101"))
        assert final.state == "s0" and final.buffer == Bits("101")
        assert not final.is_accepting()

    def test_missing_store_header_defaults_until_referenced(self):
        from repro.p4a.errors import P4ASemanticsError

        aut = tiny.store_dependent()
        # A partial store is fine as long as the run never reads the hole...
        partial = {"data": Bits("0")}
        config = initial_configuration(aut, "Start", partial)
        assert config.store_dict() == partial
        # ...but the transition reads "ghost", which must fail loudly rather
        # than silently defaulting.
        with pytest.raises(P4ASemanticsError, match="ghost"):
            multi_step(aut, config, Bits("0"))

    def test_default_store_is_all_zeros(self):
        aut = tiny.store_dependent()
        explicit = {"data": Bits("0"), "ghost": Bits("0")}
        assert parse_packet(aut, "Start", Bits("1")) == parse_packet(
            aut, "Start", Bits("1"), explicit
        )

    def test_parse_packet_matches_run_trace_final_configuration(self):
        aut = mpls.reference_parser()
        label = Bits("0" * 23 + "1" + "0" * 8)
        packet = label.concat(Bits("01" * 32))
        accepted, store = parse_packet(aut, "q1", packet)
        trace = list(run_trace(aut, "q1", packet))
        final = trace[-1]
        assert accepted == final.is_accepting()
        assert store == final.store_dict()
        assert len(trace) == packet.width + 1

    def test_parse_packet_matches_run_trace_on_rejections(self):
        aut = mpls.reference_parser()
        packet = Bits("1" * 40)  # not a valid label stack prefix length
        accepted, store = parse_packet(aut, "q1", packet)
        final = list(run_trace(aut, "q1", packet))[-1]
        assert accepted == final.is_accepting()
        assert store == final.store_dict()


# ---------------------------------------------------------------------------
# The block runner against the bit-level reference (Definitions 3.5/3.6)
# ---------------------------------------------------------------------------


def _registry_automata():
    automata = []
    for name in mini_names():
        left, left_start, right, right_start = get(name).automata()
        automata.append((f"{name}:left", left, left_start))
        automata.append((f"{name}:right", right, right_start))
    return automata


def _synthesized_automata():
    automata = []
    for pair in synthesize_batch(50, 20220613):
        automata.append((f"{pair.name}:left", pair.left, pair.left_start))
        automata.append((f"{pair.name}:right", pair.right, pair.right_start))
    return automata


_DIFFERENTIAL_AUTOMATA = _registry_automata() + _synthesized_automata()


def _reference_run(aut, state, packet, store):
    """``(accepted, store)`` from the literal bit-at-a-time δ*, or the error."""
    try:
        final = multi_step(aut, initial_configuration(aut, state, store), packet)
    except P4ASemanticsError as error:
        return "error", str(error)
    return final.is_accepting(), final.store_dict()


def _block_run(run, *args):
    try:
        return run(*args)
    except P4ASemanticsError as error:
        return "error", str(error)


def _assert_runner_matches_reference(runner, start, packet, store):
    expected = _reference_run(runner.aut, start, packet, store)
    assert _block_run(runner.parse_packet, start, packet, store) == expected
    assert _block_run(parse_packet, runner.aut, start, packet, store) == expected
    if expected[0] == "error":
        assert _block_run(runner.accepts, start, packet, store) == expected
    else:
        assert runner.accepts(start, packet, store) is expected[0]
        assert accepts(runner.aut, start, packet, store) is expected[0]


class TestBlockRunnerMatchesReference:
    """``BlockRunner`` (and so ``accepts``/``parse_packet``) must equal
    ``multi_step``'s final configuration on every mini registry scenario and
    50 synthesized pairs: acceptance, final store and raised errors."""

    @pytest.mark.parametrize(
        "aut,start",
        [(aut, start) for _, aut, start in _DIFFERENTIAL_AUTOMATA],
        ids=[label for label, _, _ in _DIFFERENTIAL_AUTOMATA],
    )
    @settings(settings.get_profile("ci"), max_examples=4)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sampled_packets_and_stores(self, aut, start, seed):
        rng = random.Random(seed)
        runner = BlockRunner(aut)
        walks = (
            PacketSampler(aut, start, rng=rng),  # steered, default biases
            PacketSampler(aut, start, rng=rng, truncate_bias=1.0),
            PacketSampler(aut, start, rng=rng, truncate_bias=0.0, overrun_bias=1.0),
        )
        for sampler in walks:
            store = sampler.random_store()
            packet = sampler.random_packet(store)
            _assert_runner_matches_reference(runner, start, packet, store)
            _assert_runner_matches_reference(runner, start, packet, None)
            # A partial store: whichever header is missing may be read.
            partial = {h: v for h, v in store.items() if rng.random() < 0.5}
            _assert_runner_matches_reference(runner, start, packet, partial)
        noise = Bits("".join(rng.choice("01") for _ in range(rng.randint(0, 160))))
        _assert_runner_matches_reference(runner, start, noise, walks[0].random_store())
        _assert_runner_matches_reference(runner, start, noise, None)

    def test_zero_extract_state_fed_a_bit_raises_in_both(self):
        aut = P4Automaton("zero", {"h": 2}, {"s": State("s", (), Goto(ACCEPT))})
        runner = BlockRunner(aut)
        expected = _reference_run(aut, "s", Bits("1"), None)
        assert expected == ("error", "state 's' expects 0 bits, got 1")
        _assert_runner_matches_reference(runner, "s", Bits("1"), None)
        _assert_runner_matches_reference(runner, "s", Bits(""), None)
        with pytest.raises(P4ASemanticsError):
            runner.accepts("s", Bits("01"))

    def test_wrong_width_assignment_raises_in_both(self):
        aut = P4Automaton(
            "widths",
            {"h": 2, "g": 3},
            {"s": State("s", (Extract("h"), Assign("g", HeaderRef("h"))), Goto(ACCEPT))},
        )
        expected = _reference_run(aut, "s", Bits("10"), None)
        assert expected[0] == "error" and "expected 3" in expected[1]
        _assert_runner_matches_reference(BlockRunner(aut), "s", Bits("10"), None)

    def test_missing_header_read_raises_the_same_error(self):
        aut = tiny.store_dependent()
        partial = {"data": Bits("0")}
        expected = _reference_run(aut, "Start", Bits("0"), partial)
        assert expected[0] == "error" and "ghost" in expected[1]
        _assert_runner_matches_reference(BlockRunner(aut), "Start", Bits("0"), partial)
        # The run never reaches the read: no error on either side.
        _assert_runner_matches_reference(BlockRunner(aut), "Start", Bits(""), partial)
