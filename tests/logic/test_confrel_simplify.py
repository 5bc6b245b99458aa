"""Tests for the ConfRel logic and its smart-constructor simplifier.

The central property is that simplification preserves the denotational
semantics of Definition 4.3; it is checked against randomly generated
expressions and configuration pairs with hypothesis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import confrel
from repro.logic.confrel import (
    FALSE,
    LEFT,
    RIGHT,
    TRUE,
    CBuf,
    CConcat,
    CHdr,
    CLit,
    CSlice,
    CVar,
    ConfRelError,
    FAnd,
    FEq,
    FFalse,
    FImpl,
    FNot,
    FOr,
    FTrue,
    canonicalize_variables,
    eval_expr,
    eval_formula,
    formula_variables,
    holds_for_all_valuations,
    rename_variables,
)
from repro.logic.simplify import (
    concat_parts,
    mk_and,
    mk_concat,
    mk_concat_all,
    mk_eq,
    mk_impl,
    mk_not,
    mk_or,
    mk_slice,
    simplify_expr,
    simplify_formula,
)
from repro.p4a.bitvec import Bits
from repro.p4a.semantics import Configuration

# A small fixed configuration pair used throughout: one header per side plus a
# buffer on the left.
LEFT_CONFIG = Configuration.make("q1", {"h": Bits("1011")}, Bits("01"))
RIGHT_CONFIG = Configuration.make("q2", {"g": Bits("0010")}, Bits(""))

H_LEFT = CHdr(LEFT, "h", 4)
G_RIGHT = CHdr(RIGHT, "g", 4)
BUF_LEFT = CBuf(LEFT, 2)
VAR_X = CVar("x", 2)


def evaluate(expr, valuation=None):
    return eval_expr(expr, LEFT_CONFIG, RIGHT_CONFIG, valuation or {"x": Bits("10")})


class TestEvaluation:
    def test_header_and_buffer_lookup(self):
        assert evaluate(H_LEFT) == Bits("1011")
        assert evaluate(G_RIGHT) == Bits("0010")
        assert evaluate(BUF_LEFT) == Bits("01")

    def test_variable_lookup(self):
        assert evaluate(VAR_X) == Bits("10")

    def test_missing_variable_raises(self):
        with pytest.raises(ConfRelError):
            eval_expr(VAR_X, LEFT_CONFIG, RIGHT_CONFIG, {})

    def test_slice_and_concat(self):
        expr = CSlice(CConcat(H_LEFT, BUF_LEFT), 2, 4)
        assert evaluate(expr) == Bits("110")

    def test_width_mismatch_detected(self):
        wrong = CHdr(LEFT, "h", 5)
        with pytest.raises(ConfRelError):
            evaluate(wrong)

    def test_formula_evaluation(self):
        formula = FEq(CSlice(H_LEFT, 0, 1), CLit(Bits("10")))
        assert eval_formula(formula, LEFT_CONFIG, RIGHT_CONFIG)
        assert not eval_formula(FNot(formula), LEFT_CONFIG, RIGHT_CONFIG)
        assert eval_formula(FImpl(FALSE, formula), LEFT_CONFIG, RIGHT_CONFIG)
        assert eval_formula(FOr((FALSE, formula)), LEFT_CONFIG, RIGHT_CONFIG)
        assert not eval_formula(FAnd((formula, FALSE)), LEFT_CONFIG, RIGHT_CONFIG)

    def test_holds_for_all_valuations(self):
        tautology = FEq(VAR_X, VAR_X)
        assert holds_for_all_valuations(tautology, LEFT_CONFIG, RIGHT_CONFIG)
        contingent = FEq(VAR_X, CLit(Bits("10")))
        assert not holds_for_all_valuations(contingent, LEFT_CONFIG, RIGHT_CONFIG)

    def test_holds_for_all_valuations_refuses_wide_vars(self):
        wide = FEq(CVar("w", 30), CLit(Bits.zeros(30)))
        with pytest.raises(ConfRelError):
            holds_for_all_valuations(wide, LEFT_CONFIG, RIGHT_CONFIG)


class TestWidths:
    def test_eq_width_mismatch_rejected(self):
        with pytest.raises(ConfRelError):
            FEq(H_LEFT, BUF_LEFT)

    def test_slice_out_of_range_rejected(self):
        with pytest.raises(ConfRelError):
            CSlice(H_LEFT, 2, 7)

    def test_variable_width_conflict_detected(self):
        formula = FAnd((FEq(CVar("x", 2), BUF_LEFT), FEq(CVar("x", 4), H_LEFT)))
        with pytest.raises(ConfRelError):
            formula_variables(formula)


class TestVariables:
    def test_formula_variables(self):
        formula = FAnd((FEq(VAR_X, BUF_LEFT), FEq(CVar("y", 4), H_LEFT)))
        assert formula_variables(formula) == {"x": 2, "y": 4}

    def test_rename_variables(self):
        formula = FEq(VAR_X, BUF_LEFT)
        renamed = rename_variables(formula, {"x": "z"})
        assert formula_variables(renamed) == {"z": 2}

    def test_canonicalize_is_width_indexed(self):
        formula = FAnd((FEq(CVar("a", 2), BUF_LEFT), FEq(CVar("b", 4), H_LEFT)))
        canonical = canonicalize_variables(formula)
        assert set(formula_variables(canonical)) == {"v2_0", "v4_0"}

    def test_canonicalize_gives_alpha_equivalence(self):
        one = FEq(CVar("a", 2), BUF_LEFT)
        two = FEq(CVar("b", 2), BUF_LEFT)
        assert canonicalize_variables(one) == canonicalize_variables(two)


class TestSmartConstructors:
    def test_slice_of_literal(self):
        assert mk_slice(CLit(Bits("1010")), 1, 2) == CLit(Bits("01"))

    def test_full_slice_is_identity(self):
        assert mk_slice(H_LEFT, 0, 3) == H_LEFT

    def test_slice_of_slice_composes(self):
        assert mk_slice(CSlice(H_LEFT, 1, 3), 1, 2) == CSlice(H_LEFT, 2, 3)

    def test_slice_of_concat_pushes_in(self):
        expr = mk_slice(CConcat(H_LEFT, G_RIGHT), 2, 5)
        assert expr == CConcat(CSlice(H_LEFT, 2, 3), CSlice(G_RIGHT, 0, 1))

    def test_concat_drops_empty(self):
        assert mk_concat(CLit(Bits("")), H_LEFT) == H_LEFT
        assert mk_concat(H_LEFT, CLit(Bits(""))) == H_LEFT

    def test_concat_fuses_literals(self):
        assert mk_concat(CLit(Bits("10")), CLit(Bits("01"))) == CLit(Bits("1001"))

    def test_concat_merges_adjacent_slices(self):
        merged = mk_concat(CSlice(H_LEFT, 0, 1), CSlice(H_LEFT, 2, 3))
        assert merged == H_LEFT

    def test_concat_all_and_parts(self):
        expr = mk_concat_all([H_LEFT, G_RIGHT, CLit(Bits(""))])
        assert concat_parts(expr) == [H_LEFT, G_RIGHT]

    def test_eq_identical_terms(self):
        assert mk_eq(H_LEFT, H_LEFT) == TRUE

    def test_eq_literals(self):
        assert mk_eq(CLit(Bits("10")), CLit(Bits("10"))) == TRUE
        assert mk_eq(CLit(Bits("10")), CLit(Bits("01"))) == FALSE

    def test_eq_zero_width_is_true(self):
        assert mk_eq(CLit(Bits("")), CLit(Bits(""))) == TRUE

    def test_eq_splits_aligned_concats(self):
        lhs = CConcat(H_LEFT, BUF_LEFT)
        rhs = CConcat(G_RIGHT, VAR_X)
        result = mk_eq(lhs, rhs)
        assert isinstance(result, FAnd)
        assert FEq(H_LEFT, G_RIGHT) in result.operands

    def test_boolean_constant_folding(self):
        assert mk_and([TRUE, TRUE]) == TRUE
        assert mk_and([TRUE, FALSE]) == FALSE
        assert mk_or([FALSE]) == FALSE
        assert mk_or([TRUE, FALSE]) == TRUE
        assert mk_not(TRUE) == FALSE
        assert mk_not(mk_not(FEq(H_LEFT, G_RIGHT))) == FEq(H_LEFT, G_RIGHT)
        assert mk_impl(FALSE, FALSE) == TRUE
        assert mk_impl(TRUE, FEq(H_LEFT, G_RIGHT)) == FEq(H_LEFT, G_RIGHT)
        assert mk_impl(FEq(H_LEFT, G_RIGHT), FEq(H_LEFT, G_RIGHT)) == TRUE

    def test_and_flattens_and_dedups(self):
        inner = FEq(H_LEFT, G_RIGHT)
        result = mk_and([FAnd((inner,)), inner])
        assert result == inner

    def test_trivial_predicates(self):
        assert isinstance(simplify_formula(FImpl(FEq(H_LEFT, G_RIGHT), TRUE)), FTrue)
        assert isinstance(
            simplify_formula(FAnd((FALSE, FEq(H_LEFT, G_RIGHT)))), FFalse
        )


# ---------------------------------------------------------------------------
# Property-based: simplification preserves the semantics
# ---------------------------------------------------------------------------

_atoms = st.sampled_from([H_LEFT, G_RIGHT, BUF_LEFT, VAR_X, CLit(Bits("1101"))])


def _exprs(depth: int):
    if depth == 0:
        return _atoms
    sub = _exprs(depth - 1)
    def make_slice(draw_expr, lo, hi):
        width = draw_expr.width
        lo = lo % width
        hi = lo + (hi % (width - lo))
        return CSlice(draw_expr, lo, hi) if (lo, hi) != (0, width - 1) else draw_expr
    return st.one_of(
        _atoms,
        st.builds(CConcat, sub, sub),
        st.builds(make_slice, sub, st.integers(0, 7), st.integers(0, 7)),
    )


@settings(max_examples=120, deadline=None)
@given(_exprs(2), st.sampled_from([Bits("00"), Bits("01"), Bits("11")]))
def test_simplify_expr_preserves_semantics(expr, x_value):
    valuation = {"x": x_value}
    simplified = simplify_expr(expr)
    assert simplified.width == expr.width
    assert eval_expr(simplified, LEFT_CONFIG, RIGHT_CONFIG, valuation) == eval_expr(
        expr, LEFT_CONFIG, RIGHT_CONFIG, valuation
    )


@settings(max_examples=120, deadline=None)
@given(_exprs(2), _exprs(2), st.sampled_from([Bits("00"), Bits("10"), Bits("11")]))
def test_simplify_formula_preserves_semantics(left, right, x_value):
    if left.width != right.width:
        left = CConcat(left, CLit(Bits.zeros(max(0, right.width - left.width))))
        right = CConcat(right, CLit(Bits.zeros(max(0, left.width - right.width))))
    if left.width != right.width:
        return
    formula = FNot(FEq(left, right))
    valuation = {"x": x_value}
    simplified = simplify_formula(formula)
    assert eval_formula(simplified, LEFT_CONFIG, RIGHT_CONFIG, valuation) == eval_formula(
        formula, LEFT_CONFIG, RIGHT_CONFIG, valuation
    )
