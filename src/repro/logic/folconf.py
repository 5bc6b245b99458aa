"""FOL(Conf): first-order logic over bitvectors and configuration stores.

This is the intermediate logic between ConfRelSimp and FOL(BV) in the paper's
compilation chain (Figure 6).  Terms may still refer to a configuration's
store through ``StoreSelect`` (a finite-map lookup) and to its buffer through
``BufferSel``; the *store elimination* pass replaces those by plain first-order
bitvector variables, producing FOL(BV).
"""

from __future__ import annotations

from . import folbv
from .folbv import BFormula, Term


class FolConfError(Exception):
    """Raised on ill-formed FOL(Conf) terms."""


# ---------------------------------------------------------------------------
# Terms specific to FOL(Conf)
# ---------------------------------------------------------------------------


class StoreSelect(Term):
    """``store(side)[header]``: a finite-map lookup into one side's store."""

    __slots__ = ("side", "header", "hdr_width")

    def _init(self) -> None:
        self._derive("width", self.hdr_width)

    def __str__(self) -> str:
        return f"store{self.side}[{self.header}]"


class BufferSel(Term):
    """The unread buffer of one side."""

    __slots__ = ("side", "buf_width")

    def _init(self) -> None:
        self._derive("width", self.buf_width)

    def __str__(self) -> str:
        return f"buffer{self.side}"


# ---------------------------------------------------------------------------
# Store elimination
# ---------------------------------------------------------------------------


def _mangle_side(side: str) -> str:
    return "L" if side == "<" else "R"


def store_variable_name(side: str, header: str) -> str:
    """The FOL(BV) variable standing for header ``header`` of ``side``."""
    return f"hdr_{_mangle_side(side)}_{header}"


def buffer_variable_name(side: str) -> str:
    """The FOL(BV) variable standing for the buffer of ``side``."""
    return f"buf_{_mangle_side(side)}"


def eliminate_stores_term(term: Term) -> Term:
    """Replace store and buffer lookups in a term by plain variables."""
    if isinstance(term, StoreSelect):
        return folbv.BVVar(store_variable_name(term.side, term.header), term.hdr_width)
    if isinstance(term, BufferSel):
        return folbv.BVVar(buffer_variable_name(term.side), term.buf_width)
    if isinstance(term, folbv.BVExtract):
        return folbv.BVExtract(eliminate_stores_term(term.term), term.lo, term.hi)
    if isinstance(term, folbv.BVConcatT):
        return folbv.BVConcatT(
            eliminate_stores_term(term.left), eliminate_stores_term(term.right)
        )
    if isinstance(term, (folbv.BVVar, folbv.BVConst)):
        return term
    raise FolConfError(f"unknown term {term!r}")


def eliminate_stores(formula: BFormula) -> BFormula:
    """The store-elimination pass: FOL(Conf) → FOL(BV).

    After this pass the formula contains only ``BVVar``, ``BVConst``,
    ``BVExtract`` and ``BVConcatT`` terms and can be handed to the bitvector
    decision procedure or printed as SMT-LIB.
    """
    if isinstance(formula, folbv.BEq):
        return folbv.BEq(
            eliminate_stores_term(formula.left), eliminate_stores_term(formula.right)
        )
    if isinstance(formula, folbv.BNot):
        return folbv.b_not(eliminate_stores(formula.operand))
    if isinstance(formula, folbv.BAnd):
        return folbv.b_and([eliminate_stores(op) for op in formula.operands])
    if isinstance(formula, folbv.BOr):
        return folbv.b_or([eliminate_stores(op) for op in formula.operands])
    if isinstance(formula, folbv.BImplies):
        return folbv.b_implies(
            eliminate_stores(formula.premise), eliminate_stores(formula.conclusion)
        )
    if isinstance(formula, (folbv.BTrue, folbv.BFalse)):
        return formula
    raise FolConfError(f"unknown formula {formula!r}")


def contains_store_terms(formula: BFormula) -> bool:
    """Whether any finite-map (store/buffer) term remains in the formula."""

    def term_has_store(term: Term) -> bool:
        if isinstance(term, (StoreSelect, BufferSel)):
            return True
        if isinstance(term, folbv.BVExtract):
            return term_has_store(term.term)
        if isinstance(term, folbv.BVConcatT):
            return term_has_store(term.left) or term_has_store(term.right)
        return False

    return any(term_has_store(term) for term in folbv.iter_terms(formula))
