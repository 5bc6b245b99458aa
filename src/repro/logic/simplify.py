"""Smart constructors and algebraic simplification for ConfRel.

The paper (Section 6.2, step 1) applies local algebraic rewrites via smart
constructors so that repeated weakest-precondition applications do not blow up
formula size.  The rewrites implemented here are:

* slices of literals are evaluated,
* slices of concatenations are pushed into the operands,
* nested slices are composed,
* full-width slices are dropped,
* concatenations of adjacent literals are fused and zero-width operands are
  dropped,
* equalities between syntactically equal or literal expressions are decided,
* equalities whose sides are concatenations are split component-wise when the
  boundaries line up,
* the boolean connectives constant-fold, flatten and de-duplicate.

All constructors preserve the denotational semantics of
:mod:`repro.logic.confrel`; this is checked by property-based tests.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..p4a.bitvec import Bits
from .confrel import (
    FALSE,
    TRUE,
    BVExpr,
    CConcat,
    CLit,
    CSlice,
    FAnd,
    FEq,
    FFalse,
    FImpl,
    FNot,
    FOr,
    FTrue,
    Formula,
)


# ---------------------------------------------------------------------------
# Expression constructors
# ---------------------------------------------------------------------------


def mk_slice(expr: BVExpr, lo: int, hi: int) -> BVExpr:
    """Build ``expr[lo:hi]`` (inclusive), simplifying where possible."""
    width = expr.width
    if not (0 <= lo <= hi < width):
        raise ValueError(f"slice [{lo}:{hi}] out of range for width {width}")
    if lo == 0 and hi == width - 1:
        return expr
    if isinstance(expr, CLit):
        return CLit(expr.value.slice(lo, hi))
    if isinstance(expr, CSlice):
        return mk_slice(expr.expr, expr.lo + lo, expr.lo + hi)
    if isinstance(expr, CConcat):
        left_width = expr.left.width
        if hi < left_width:
            return mk_slice(expr.left, lo, hi)
        if lo >= left_width:
            return mk_slice(expr.right, lo - left_width, hi - left_width)
        return mk_concat(
            mk_slice(expr.left, lo, left_width - 1),
            mk_slice(expr.right, 0, hi - left_width),
        )
    return CSlice(expr, lo, hi)


def mk_concat(left: BVExpr, right: BVExpr) -> BVExpr:
    """Build ``left ++ right``, dropping empty operands and fusing literals."""
    if left.width == 0:
        return right
    if right.width == 0:
        return left
    if isinstance(left, CLit) and isinstance(right, CLit):
        return CLit(left.value.concat(right.value))
    # Merge adjacent slices of the same base expression.
    if (
        isinstance(left, CSlice)
        and isinstance(right, CSlice)
        and left.expr == right.expr
        and left.hi + 1 == right.lo
    ):
        return mk_slice(left.expr, left.lo, right.hi)
    # Right-associate so that literal fusion across nesting has a chance.
    if isinstance(left, CConcat):
        return mk_concat(left.left, mk_concat(left.right, right))
    if isinstance(right, CConcat) and isinstance(left, CLit) and isinstance(right.left, CLit):
        return mk_concat(CLit(left.value.concat(right.left.value)), right.right)
    return CConcat(left, right)


def mk_concat_all(exprs: Sequence[BVExpr]) -> BVExpr:
    """Concatenate a sequence of expressions (empty sequence → empty literal)."""
    result: BVExpr = CLit(Bits(""))
    for expr in reversed(exprs):
        result = mk_concat(expr, result)
    return result


def concat_parts(expr: BVExpr) -> List[BVExpr]:
    """Flatten nested concatenations into a list of non-concat parts."""
    if isinstance(expr, CConcat):
        return concat_parts(expr.left) + concat_parts(expr.right)
    if expr.width == 0:
        return []
    return [expr]


# ---------------------------------------------------------------------------
# Formula constructors
# ---------------------------------------------------------------------------


def mk_eq(left: BVExpr, right: BVExpr) -> Formula:
    """Build ``left = right``, splitting aligned concatenations and folding."""
    if left.width != right.width:
        raise ValueError(f"equality between widths {left.width} and {right.width}")
    if left.width == 0:
        return TRUE
    if left == right:
        return TRUE
    if isinstance(left, CLit) and isinstance(right, CLit):
        return TRUE if left.value == right.value else FALSE
    left_parts = concat_parts(left)
    right_parts = concat_parts(right)
    if len(left_parts) > 1 or len(right_parts) > 1:
        split = _split_aligned(left_parts, right_parts)
        if split is not None:
            return mk_and([mk_eq(a, b) for a, b in split])
    return FEq(left, right)


def _split_aligned(
    left_parts: List[BVExpr], right_parts: List[BVExpr]
) -> List[Tuple[BVExpr, BVExpr]]:
    """Split two concatenations into equal-width component pairs.

    The split always succeeds because any part can itself be sliced; the result
    is a list of pairs whose widths match.  Returns ``None`` when there is
    nothing to gain (a single pair covering everything).
    """
    pairs: List[Tuple[BVExpr, BVExpr]] = []
    left_queue = list(left_parts)
    right_queue = list(right_parts)
    while left_queue and right_queue:
        a = left_queue[0]
        b = right_queue[0]
        if a.width == b.width:
            pairs.append((a, b))
            left_queue.pop(0)
            right_queue.pop(0)
        elif a.width < b.width:
            pairs.append((a, mk_slice(b, 0, a.width - 1)))
            left_queue.pop(0)
            right_queue[0] = mk_slice(b, a.width, b.width - 1)
        else:
            pairs.append((mk_slice(a, 0, b.width - 1), b))
            right_queue.pop(0)
            left_queue[0] = mk_slice(a, b.width, a.width - 1)
    if len(pairs) <= 1:
        return None
    return pairs


def mk_not(operand: Formula) -> Formula:
    if isinstance(operand, FTrue):
        return FALSE
    if isinstance(operand, FFalse):
        return TRUE
    if isinstance(operand, FNot):
        return operand.operand
    return FNot(operand)


def mk_and(operands: Iterable[Formula]) -> Formula:
    flat: List[Formula] = []
    for operand in operands:
        if isinstance(operand, FFalse):
            return FALSE
        if isinstance(operand, FTrue):
            continue
        if isinstance(operand, FAnd):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    deduped: List[Formula] = []
    for operand in flat:
        if operand not in deduped:
            deduped.append(operand)
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return FAnd(tuple(deduped))


def mk_or(operands: Iterable[Formula]) -> Formula:
    flat: List[Formula] = []
    for operand in operands:
        if isinstance(operand, FTrue):
            return TRUE
        if isinstance(operand, FFalse):
            continue
        if isinstance(operand, FOr):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    deduped: List[Formula] = []
    for operand in flat:
        if operand not in deduped:
            deduped.append(operand)
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return FOr(tuple(deduped))


def mk_impl(premise: Formula, conclusion: Formula) -> Formula:
    if isinstance(premise, FFalse) or isinstance(conclusion, FTrue):
        return TRUE
    if isinstance(premise, FTrue):
        return conclusion
    if isinstance(conclusion, FFalse):
        return mk_not(premise)
    if premise == conclusion:
        return TRUE
    return FImpl(premise, conclusion)


def simplify_formula(formula: Formula) -> Formula:
    """Bottom-up re-application of all smart constructors."""
    if isinstance(formula, FEq):
        return mk_eq(simplify_expr(formula.left), simplify_expr(formula.right))
    if isinstance(formula, FNot):
        return mk_not(simplify_formula(formula.operand))
    if isinstance(formula, FAnd):
        return mk_and([simplify_formula(op) for op in formula.operands])
    if isinstance(formula, FOr):
        return mk_or([simplify_formula(op) for op in formula.operands])
    if isinstance(formula, FImpl):
        return mk_impl(simplify_formula(formula.premise), simplify_formula(formula.conclusion))
    return formula


def simplify_expr(expr: BVExpr) -> BVExpr:
    if isinstance(expr, CSlice):
        return mk_slice(simplify_expr(expr.expr), expr.lo, expr.hi)
    if isinstance(expr, CConcat):
        return mk_concat(simplify_expr(expr.left), simplify_expr(expr.right))
    return expr
