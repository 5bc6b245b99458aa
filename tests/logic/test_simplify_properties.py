"""Property-based tests: ConfRel simplification preserves semantics.

The smart constructors in :mod:`repro.logic.simplify` claim to be
semantics-preserving rewrites.  These tests check the claim the direct way:
draw a random FOL(BV) formula over symbolic variables and literals, draw a
random assignment for its variables, and require the simplified formula to
evaluate identically (and the simplified expressions to keep their value and
width).  Variables encode their width in the name (``v<width>_<i>``), so a
name can never be drawn at two widths.
"""

from hypothesis import given, settings, strategies as st

from repro.logic.confrel import (
    CConcat,
    CLit,
    CSlice,
    CVar,
    FAnd,
    FEq,
    FFalse,
    FImpl,
    FNot,
    FOr,
    FTrue,
    eval_expr,
    eval_formula,
    formula_variables,
)
from repro.logic.simplify import (
    simplify_expr,
    simplify_formula,
)
from repro.p4a.bitvec import Bits
from repro.p4a.semantics import Configuration

# The formulas under test mention no buffers or headers, so any pair of
# configurations works for evaluation.
_DUMMY = Configuration.make("q", {})

_MAX_VAR_WIDTH = 4
_VARS_PER_WIDTH = 3


def _bits(draw, width: int) -> Bits:
    return Bits.from_int(draw(st.integers(0, (1 << width) - 1)), width)


@st.composite
def bv_exprs(draw, width: int, depth: int = 3):
    """A ConfRel bitvector expression of exactly ``width`` bits."""
    choices = ["lit"]
    if width <= _MAX_VAR_WIDTH:
        choices.append("var")
    if depth > 0:
        choices.append("slice")
        if width >= 2:
            choices.append("concat")
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        return CLit(_bits(draw, width))
    if kind == "var":
        index = draw(st.integers(0, _VARS_PER_WIDTH - 1))
        return CVar(f"v{width}_{index}", width)
    if kind == "slice":
        inner_width = width + draw(st.integers(0, 3))
        inner = draw(bv_exprs(width=inner_width, depth=depth - 1))
        lo = draw(st.integers(0, inner_width - width))
        return CSlice(inner, lo, lo + width - 1)
    left_width = draw(st.integers(1, width - 1))
    return CConcat(
        draw(bv_exprs(width=left_width, depth=depth - 1)),
        draw(bv_exprs(width=width - left_width, depth=depth - 1)),
    )


@st.composite
def formulas(draw, depth: int = 3):
    """A ConfRel formula over variables and literals only."""
    if depth == 0 or draw(st.booleans()):
        width = draw(st.integers(1, 6))
        return FEq(
            draw(bv_exprs(width=width, depth=2)),
            draw(bv_exprs(width=width, depth=2)),
        )
    kind = draw(st.sampled_from(["not", "and", "or", "impl"]))
    sub = formulas(depth=depth - 1)
    if kind == "not":
        return FNot(draw(sub))
    if kind == "impl":
        return FImpl(draw(sub), draw(sub))
    operands = tuple(draw(st.lists(sub, min_size=1, max_size=3)))
    return FAnd(operands) if kind == "and" else FOr(operands)


@st.composite
def formulas_with_valuations(draw):
    formula = draw(formulas())
    valuation = {
        name: _bits(draw, width)
        for name, width in sorted(formula_variables(formula).items())
    }
    return formula, valuation


@settings(max_examples=200, deadline=None)
@given(formulas_with_valuations())
def test_simplify_formula_preserves_semantics(case):
    formula, valuation = case
    simplified = simplify_formula(formula)
    assert eval_formula(simplified, _DUMMY, _DUMMY, valuation) == eval_formula(
        formula, _DUMMY, _DUMMY, valuation
    )


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_simplify_formula_is_idempotent(formula):
    simplified = simplify_formula(formula)
    assert simplify_formula(simplified) == simplified


@settings(max_examples=100, deadline=None)
@given(formulas_with_valuations())
def test_trivial_verdicts_are_sound(case):
    formula, valuation = case
    value = eval_formula(formula, _DUMMY, _DUMMY, valuation)
    simplified = simplify_formula(formula)
    if isinstance(simplified, FTrue):
        assert value is True
    if isinstance(simplified, FFalse):
        assert value is False


@st.composite
def exprs_with_valuations(draw):
    width = draw(st.integers(1, 8))
    expr = draw(bv_exprs(width=width, depth=3))
    # Walk the expression for its variables (reuse the formula helper by
    # wrapping in a trivially-true equality with itself).
    valuation = {
        name: _bits(draw, var_width)
        for name, var_width in sorted(formula_variables(FEq(expr, expr)).items())
    }
    return expr, valuation


@settings(max_examples=200, deadline=None)
@given(exprs_with_valuations())
def test_simplify_expr_preserves_value_and_width(case):
    expr, valuation = case
    simplified = simplify_expr(expr)
    assert simplified.width == expr.width
    assert eval_expr(simplified, _DUMMY, _DUMMY, valuation) == eval_expr(
        expr, _DUMMY, _DUMMY, valuation
    )


@settings(max_examples=50, deadline=None)
@given(formulas())
def test_self_implication_simplifies_to_true(formula):
    assert isinstance(simplify_formula(FImpl(formula, formula)), FTrue)
