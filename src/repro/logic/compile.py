"""The verified compilation chain ConfRel → ConfRelSimp → FOL(Conf) → FOL(BV).

This module mirrors the lowering pipeline of Figure 6:

1. **Algebraic simplification** — re-running the ConfRel smart constructors
   (:mod:`repro.logic.simplify`); skipped with ``simplify=False`` for
   formulas that are in normal form as built.
2. **Template filtering** — performed by the caller (the algorithm keeps its
   relation indexed by template guard, so only same-guard premises are handed
   to :func:`compile_entailment`).
3. **FOL compilation** — translating pure ConfRel formulas into FOL(Conf),
   where header and buffer references become finite-map lookups.
4. **Store elimination** — replacing the finite-map lookups by plain
   bitvector variables, yielding FOL(BV).

The end-to-end :func:`compile_entailment` builds the negated validity query
``premises ∧ ¬goal`` whose unsatisfiability establishes the entailment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from . import confrel, folbv, folconf
from .confrel import (
    BVExpr,
    CBuf,
    CConcat,
    CHdr,
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
    Formula,
)
from .simplify import simplify_formula


class CompileError(Exception):
    """Raised when a formula cannot be lowered."""


def variable_name(name: str) -> str:
    """FOL(BV) name of a symbolic ConfRel variable."""
    return f"var_{name}"


# ---------------------------------------------------------------------------
# ConfRel → FOL(Conf)
# ---------------------------------------------------------------------------


def expr_to_folconf(expr: BVExpr) -> folbv.Term:
    """Lower a ConfRel bitvector expression into a FOL(Conf) term."""
    if isinstance(expr, CLit):
        return folbv.BVConst(expr.value)
    if isinstance(expr, CBuf):
        return folconf.BufferSel(expr.side, expr.buf_width)
    if isinstance(expr, CHdr):
        return folconf.StoreSelect(expr.side, expr.name, expr.hdr_width)
    if isinstance(expr, CVar):
        return folbv.BVVar(variable_name(expr.name), expr.var_width)
    if isinstance(expr, CSlice):
        return folbv.BVExtract(expr_to_folconf(expr.expr), expr.lo, expr.hi)
    if isinstance(expr, CConcat):
        return folbv.BVConcatT(expr_to_folconf(expr.left), expr_to_folconf(expr.right))
    raise CompileError(f"unknown ConfRel expression {expr!r}")


def formula_to_folconf(formula: Formula) -> folbv.BFormula:
    """Lower a pure ConfRel formula into FOL(Conf)."""
    if isinstance(formula, FTrue):
        return folbv.B_TRUE
    if isinstance(formula, FFalse):
        return folbv.B_FALSE
    if isinstance(formula, FEq):
        left = expr_to_folconf(formula.left)
        right = expr_to_folconf(formula.right)
        if left.width == 0:
            return folbv.B_TRUE
        return folbv.BEq(left, right)
    if isinstance(formula, FNot):
        return folbv.b_not(formula_to_folconf(formula.operand))
    if isinstance(formula, FAnd):
        return folbv.b_and([formula_to_folconf(op) for op in formula.operands])
    if isinstance(formula, FOr):
        return folbv.b_or([formula_to_folconf(op) for op in formula.operands])
    if isinstance(formula, FImpl):
        return folbv.b_implies(
            formula_to_folconf(formula.premise), formula_to_folconf(formula.conclusion)
        )
    raise CompileError(f"unknown ConfRel formula {formula!r}")


# ---------------------------------------------------------------------------
# Full lowering
# ---------------------------------------------------------------------------


def lower_formula(formula: Formula, simplify: bool = True) -> folbv.BFormula:
    """ConfRel → FOL(BV): simplify, compile to FOL(Conf), eliminate stores.

    Callers whose formulas are already in normal form (everything Algorithm 1
    builds) pass ``simplify=False``; simplifying them again changes nothing.
    """
    if simplify:
        formula = simplify_formula(formula)
    folconf_formula = formula_to_folconf(formula)
    lowered = folconf.eliminate_stores(folconf_formula)
    if folconf.contains_store_terms(lowered):
        raise CompileError("store elimination left finite-map terms behind")
    return lowered


@dataclass
class EntailmentQuery:
    """A compiled entailment check.

    ``formula`` is the FOL(BV) formula ``premises ∧ ¬goal``; the entailment
    holds exactly when this formula is unsatisfiable.  ``variables`` lists the
    free variables and their widths (headers, buffers and symbolic variables
    of both sides).
    """

    premises: Tuple[folbv.BFormula, ...]
    goal: folbv.BFormula
    formula: folbv.BFormula
    variables: Dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """A rough size measure (number of terms) used for statistics."""
        return sum(1 for _ in folbv.iter_terms(self.formula))


def compile_entailment(
    premises: Sequence[Formula], goal: Formula, simplify: bool = True
) -> EntailmentQuery:
    """Compile ``⋀ premises ⊨ goal`` into a FOL(BV) satisfiability query.

    The caller has already performed template filtering, so all formulas refer
    to the same pair of templates and hence agree on buffer widths.
    """
    lowered_premises = tuple(lower_formula(premise, simplify) for premise in premises)
    lowered_goal = lower_formula(goal, simplify)
    query = folbv.b_and(list(lowered_premises) + [folbv.b_not(lowered_goal)])
    variables = folbv.free_variables(query)
    return EntailmentQuery(lowered_premises, lowered_goal, query, variables)


def compile_validity(goal: Formula, simplify: bool = True) -> EntailmentQuery:
    """Compile a validity check of ``goal`` (an entailment with no premises)."""
    return compile_entailment([], goal, simplify)
