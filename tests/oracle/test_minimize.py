"""Tests for counterexample confirmation and greedy minimization."""

from repro.core.counterexample import Counterexample, CounterexampleSearch
from repro.core.equivalence import check_language_equivalence
from repro.oracle.minimize import confirm_counterexample, minimize_counterexample
from repro.p4a import Bits
from repro.p4a.builder import AutomatonBuilder
from repro.protocols import tiny


def wide_then_narrow():
    """Accepts 0000+28 bits via X *and* bbbb+2 bits via Y (bbbb != 0)."""
    builder = AutomatonBuilder("WideThenNarrow")
    builder.header("b", 4).header("x", 28).header("y", 2)
    builder.state("A").extract("b").select("b", [("0000", "X"), ("_", "Y")])
    builder.state("X").extract("x").accept()
    builder.state("Y").extract("y").accept()
    return builder.build()


def wide_only_rejecting():
    """Reads the same 4+28 bit shape but accepts nothing."""
    builder = AutomatonBuilder("WideOnly")
    builder.header("b", 4).header("x", 28)
    builder.state("A").extract("b").goto("X")
    builder.state("X").extract("x").reject()
    return builder.build()


class TestConfirm:
    def test_confirms_real_witness(self):
        left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
        cex = Counterexample(Bits("00"), {"bit0": Bits("0"), "bit1": Bits("0")},
                             {"bits": Bits("000")}, True, False)
        assert confirm_counterexample(left, "Start", right, "Parse", cex)

    def test_rejects_fabricated_witness(self):
        left, right = tiny.incremental_bits(), tiny.big_bits()
        cex = Counterexample(Bits("00"), {"bit0": Bits("0"), "bit1": Bits("0")},
                             {"bits": Bits("00")}, True, False)
        assert not confirm_counterexample(left, "Start", right, "Parse", cex)


class TestChainWitness:
    def test_checker_ships_the_narrow_witness_directly(self):
        """The failed conjunct's WP chain runs through the 4+2 bit branch, so
        the check reports the 6-bit witness with no symbolic re-solve."""
        left, right = wide_then_narrow(), wide_only_rejecting()
        result = check_language_equivalence(left, "A", right, "A")
        assert result.refuted
        cex = result.counterexample
        assert cex.packet.width == 6
        assert cex.minimized_from is None
        assert confirm_counterexample(left, "A", right, "A", cex)


class TestGreedyDrops:
    def test_bit_drop_without_search(self):
        """A fuzz-found witness (no leap structure) still shrinks bit-wise:
        any 3-bit packet distinguishes the wrong-length pair, but so does any
        2-bit one."""
        left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
        cex = Counterexample(
            Bits("000"), {"bit0": Bits("0"), "bit1": Bits("0")},
            {"bits": Bits("000")}, False, True,
        )
        assert confirm_counterexample(left, "Start", right, "Parse", cex)
        result = minimize_counterexample(left, "Start", right, "Parse", cex)
        assert result.bit_drops >= 1
        assert result.counterexample.packet.width == 2
        assert confirm_counterexample(left, "Start", right, "Parse",
                                      result.counterexample)

    def test_leap_drop_preserves_disagreement(self):
        left, right = wide_then_narrow(), wide_only_rejecting()
        # A 6-bit witness assembled from leaps (4, 2): neither leap can be
        # dropped (4 bits alone or 2 bits alone distinguish nothing), so the
        # minimizer must keep it intact rather than break it.
        cex = Counterexample(
            Bits("000100"),
            {"b": Bits("0001"), "x": Bits.zeros(28), "y": Bits("00")},
            {"b": Bits("0001"), "x": Bits.zeros(28)},
            True, False, leap_widths=(4, 2),
        )
        result = minimize_counterexample(left, "A", right, "A", cex)
        assert result.counterexample.packet.width == 6
        assert confirm_counterexample(left, "A", right, "A", result.counterexample)

    def test_minimization_is_idempotent(self):
        left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
        cex = CounterexampleSearch(left, "Start", right, "Parse").search(max_leaps=8)
        once = minimize_counterexample(left, "Start", right, "Parse", cex)
        twice = minimize_counterexample(left, "Start", right, "Parse", once.counterexample)
        assert twice.counterexample.packet.width == once.counterexample.packet.width
