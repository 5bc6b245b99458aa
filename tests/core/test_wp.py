"""Tests for symbolic execution and the weakest-precondition operator.

The key property (Lemma 4.8 / Theorem 5.7) is checked by brute force on small
automata: a configuration pair satisfies the WP formula exactly when every
continuation by the leap's packet bits that lands in the target templates
satisfies the target formula.
"""

from itertools import product

import pytest

from repro.core.templates import GuardedFormula, Template, TemplatePair, leap_size
from repro.core.wp import (
    LeapTable,
    WpError,
    exec_ops_symbolic,
    initial_symbolic_store,
    leap_variable_name,
    symbolic_leap,
    transition_conditions,
    translate_expr,
    wp_formula,
    wp_set,
)
from repro.logic.confrel import (
    LEFT,
    RIGHT,
    CBuf,
    CHdr,
    CVar,
    FFalse,
    FTrue,
    eval_expr,
    formula_variables,
    holds_for_all_valuations,
)
from repro.logic.simplify import mk_eq, simplify_formula
from repro.p4a.bitvec import Bits
from repro.p4a.semantics import Configuration, multi_step
from repro.p4a.syntax import ACCEPT, REJECT, HeaderRef, Slice
from repro.protocols import mpls

LEFT_AUT = mpls.scaled_reference(2)      # 2-bit labels, 4-bit UDP
RIGHT_AUT = mpls.scaled_vectorized(2)


def all_stores(aut):
    names = sorted(aut.headers)
    widths = [aut.headers[n] for n in names]
    total = sum(widths)
    for assignment in product("01", repeat=total):
        store = {}
        position = 0
        for name, width in zip(names, widths):
            store[name] = Bits("".join(assignment[position : position + width]))
            position += width
        yield store


def configurations_at(aut, template, store_samples):
    """Concrete configurations matching a template (buffer contents enumerated)."""
    for store in store_samples:
        for buffer_bits in product("01", repeat=template.pos):
            yield Configuration.make(template.state, store, Bits("".join(buffer_bits)))


class TestSymbolicExecution:
    def test_translate_expr_matches_concrete_eval(self):
        env = initial_symbolic_store(LEFT_AUT, LEFT)
        expr = Slice(HeaderRef("mpls"), 0, 1)
        symbolic = translate_expr(expr, env)
        config = Configuration.make("q1", {"mpls": Bits("10"), "udp": Bits("0110")}, Bits(""))
        assert eval_expr(symbolic, config, config) == Bits("10")

    def test_translate_expr_clamps_slices(self):
        env = initial_symbolic_store(LEFT_AUT, LEFT)
        expr = Slice(HeaderRef("mpls"), 1, 99)
        assert translate_expr(expr, env).width == 1

    def test_exec_ops_symbolic_wrong_width(self):
        env = initial_symbolic_store(LEFT_AUT, LEFT)
        with pytest.raises(WpError):
            exec_ops_symbolic(LEFT_AUT, "q1", env, CVar("x", 1))

    def test_exec_ops_symbolic_assignment(self):
        env = initial_symbolic_store(RIGHT_AUT, RIGHT)
        data = CVar("x", 2)
        post = exec_ops_symbolic(RIGHT_AUT, "q5", env, data)
        # q5: extract(tmp); udp := new ++ tmp
        assert post["tmp"] == data
        assert post["udp"].width == 4

    def test_transition_conditions_cover_all_targets(self):
        env = initial_symbolic_store(LEFT_AUT, LEFT)
        conditions = transition_conditions(LEFT_AUT, "q1", env)
        assert set(conditions) == {"q1", "q2", REJECT}

    def test_transition_conditions_goto(self):
        env = initial_symbolic_store(LEFT_AUT, LEFT)
        conditions = transition_conditions(LEFT_AUT, "q2", env)
        assert conditions == {ACCEPT: FTrue()}

    def test_leap_variable_is_the_smallest_free_leap_name(self):
        assert leap_variable_name(FTrue()) == "leap_0"
        taken = mk_eq(CVar("leap_0", 2), CVar("leap_2", 2))
        assert leap_variable_name(taken) == "leap_1"


class TestLeapTable:
    def test_repeated_leap_is_computed_once(self):
        table = LeapTable(LEFT_AUT, RIGHT_AUT)
        var = CVar("leap_0", 2)
        first = table.outcomes(LEFT, Template("q1", 0), 2, var)
        assert table.outcomes(LEFT, Template("q1", 0), 2, var) is first
        assert first == symbolic_leap(LEFT_AUT, LEFT, Template("q1", 0), 2, var)

    def test_sides_and_variables_are_separate_entries(self):
        table = LeapTable(LEFT_AUT, RIGHT_AUT)
        left = table.outcomes(LEFT, Template("q1", 0), 2, CVar("leap_0", 2))
        other_var = table.outcomes(LEFT, Template("q1", 0), 2, CVar("leap_1", 2))
        right = table.outcomes(RIGHT, Template("q3", 0), 2, CVar("leap_0", 2))
        assert left != other_var
        assert right == symbolic_leap(RIGHT_AUT, RIGHT, Template("q3", 0), 2, CVar("leap_0", 2))

    def test_wp_with_a_table_equals_wp_without(self):
        table = LeapTable(LEFT_AUT, RIGHT_AUT)
        target = GuardedFormula(
            TemplatePair(Template("q2", 0), Template("q5", 0)),
            mk_eq(CHdr(LEFT, "mpls", 2), CHdr(RIGHT, "old", 2)),
        )
        source = TemplatePair(Template("q1", 0), Template("q3", 2))
        for _ in range(2):
            assert wp_formula(LEFT_AUT, RIGHT_AUT, target, source, leaps=table) == wp_formula(
                LEFT_AUT, RIGHT_AUT, target, source
            )

    def test_wp_names_its_leap_apart_from_the_target(self):
        target = GuardedFormula(
            TemplatePair(Template("q1", 1), Template("q3", 1)),
            mk_eq(CBuf(LEFT, 1), CVar("leap_0", 1)),
        )
        source = TemplatePair(Template("q1", 0), Template("q3", 0))
        precondition = wp_formula(LEFT_AUT, RIGHT_AUT, target, source, use_leaps=False)
        assert set(formula_variables(precondition.pure)) == {"leap_0", "leap_1"}


class TestSymbolicLeap:
    def test_buffering_leap(self):
        var = CVar("x", 2)
        outcomes = symbolic_leap(RIGHT_AUT, RIGHT, Template("q3", 0), 2, var)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.target == Template("q3", 2)
        assert outcome.buffer == var          # empty buffer ++ x simplifies to x
        assert outcome.condition == FTrue()

    def test_transition_leap_produces_all_targets(self):
        var = CVar("x", 2)
        outcomes = symbolic_leap(LEFT_AUT, LEFT, Template("q1", 0), 2, var)
        assert {o.target.state for o in outcomes} == {"q1", "q2", REJECT}
        assert all(o.buffer.width == 0 for o in outcomes)

    def test_final_state_leap(self):
        var = CVar("x", 3)
        outcomes = symbolic_leap(LEFT_AUT, LEFT, Template(ACCEPT, 0), 3, var)
        assert len(outcomes) == 1 and outcomes[0].target == Template(REJECT, 0)

    def test_overshooting_leap_rejected(self):
        with pytest.raises(WpError):
            symbolic_leap(LEFT_AUT, LEFT, Template("q1", 0), 3, CVar("x", 3))

    def test_wrong_variable_width_rejected(self):
        with pytest.raises(WpError):
            symbolic_leap(LEFT_AUT, LEFT, Template("q1", 0), 2, CVar("x", 1))


class TestWpSemantics:
    """Brute-force validation of the WP correctness statement."""

    def _check_wp_on_pair(self, target: GuardedFormula, source: TemplatePair) -> None:
        precondition = wp_formula(LEFT_AUT, RIGHT_AUT, target, source)
        leap = leap_size(LEFT_AUT, RIGHT_AUT, source)
        left_stores = list(all_stores(LEFT_AUT))[::7]     # sample stores to keep it fast
        right_stores = list(all_stores(RIGHT_AUT))[::97]
        for left_config in configurations_at(LEFT_AUT, source.left, left_stores):
            for right_config in configurations_at(RIGHT_AUT, source.right, right_stores):
                wp_holds = holds_for_all_valuations(precondition.pure, left_config, right_config)
                continuations_ok = True
                for word in product("01", repeat=leap):
                    packet = Bits("".join(word))
                    left_after = multi_step(LEFT_AUT, left_config, packet)
                    right_after = multi_step(RIGHT_AUT, right_config, packet)
                    landed = TemplatePair(
                        Template(left_after.state, left_after.buffer.width),
                        Template(right_after.state, right_after.buffer.width),
                    )
                    if landed != target.pair:
                        continue
                    if not holds_for_all_valuations(target.pure, left_after, right_after):
                        continuations_ok = False
                        break
                assert wp_holds == continuations_ok, (
                    f"WP mismatch at {source} for target {target.pair}: "
                    f"wp={wp_holds} continuations={continuations_ok}"
                )

    def test_wp_of_false_at_accept_mismatch(self):
        target = GuardedFormula(
            TemplatePair(Template(ACCEPT, 0), Template("q3", 0)), FFalse()
        )
        source = TemplatePair(Template("q2", 2), Template("q3", 2))
        self._check_wp_on_pair(target, source)

    def test_wp_of_buffer_equality(self):
        target = GuardedFormula(
            TemplatePair(Template("q2", 2), Template("q3", 2)),
            mk_eq(CBuf(LEFT, 2), CBuf(RIGHT, 2)),
        )
        source = TemplatePair(Template("q1", 0), Template("q3", 0))
        self._check_wp_on_pair(target, source)

    def test_wp_of_header_relation(self):
        target = GuardedFormula(
            TemplatePair(Template("q2", 0), Template("q5", 0)),
            mk_eq(CHdr(LEFT, "mpls", 2), CHdr(RIGHT, "old", 2)),
        )
        source = TemplatePair(Template("q1", 0), Template("q3", 2))
        self._check_wp_on_pair(target, source)

    def test_wp_unreachable_target_is_trivial(self):
        # From (q2, q4) both sides go to accept; landing in (q1, q3) is impossible.
        target = GuardedFormula(
            TemplatePair(Template("q1", 0), Template("q3", 0)), FFalse()
        )
        source = TemplatePair(Template("q2", 2), Template("q4", 2))
        precondition = wp_formula(LEFT_AUT, RIGHT_AUT, target, source)
        assert isinstance(simplify_formula(precondition.pure), FTrue)

    def test_wp_set_drops_trivial_formulas(self):
        target = GuardedFormula(
            TemplatePair(Template("q1", 0), Template("q3", 0)), FFalse()
        )
        sources = [
            TemplatePair(Template("q2", 2), Template("q4", 2)),
            TemplatePair(Template("q1", 0), Template("q3", 2)),
        ]
        results = wp_set(LEFT_AUT, RIGHT_AUT, target, sources)
        assert all(r.pair in sources for r in results)
        assert all(not isinstance(r.pure, FTrue) for r in results)

    def test_bit_mode_uses_single_bit_variable(self):
        target = GuardedFormula(
            TemplatePair(Template("q1", 1), Template("q3", 1)),
            mk_eq(CBuf(LEFT, 1), CBuf(RIGHT, 1)),
        )
        source = TemplatePair(Template("q1", 0), Template("q3", 0))
        precondition = wp_formula(LEFT_AUT, RIGHT_AUT, target, source, use_leaps=False)
        assert set(formula_variables(precondition.pure).values()) <= {1}
