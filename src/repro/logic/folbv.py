"""FOL(BV): the low-level first-order logic of bitvectors.

This is the last stage of the paper's compilation chain (Figure 6): a pure
bitvector logic with variables, constants, extraction, concatenation and
equality under boolean structure.  It is what gets bit-blasted by the internal
solver or pretty-printed to SMT-LIB for an external solver.

Bit index 0 is the first (most significant) bit, consistent with the rest of
the code base; the SMT-LIB printer performs the index flip required by the
SMT-LIB convention (bit 0 = least significant).

Nodes are hash-consed within a check (:mod:`repro.logic.hashcons`): a term
or formula built twice is one object, and every term knows its ``width``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from ..p4a.bitvec import Bits
from .hashcons import Node, constant, memo


class FolBVError(Exception):
    """Raised on ill-formed FOL(BV) terms or formulas."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(Node):
    """Base class of FOL(BV) terms; ``width`` is set when a term is built."""

    __slots__ = ("width",)


class BVVar(Term):
    __slots__ = ("name", "var_width")

    def _init(self) -> None:
        self._derive("width", self.var_width)

    def __str__(self) -> str:
        return self.name


class BVConst(Term):
    __slots__ = ("value",)

    def _init(self) -> None:
        self._derive("width", self.value.width)

    def __str__(self) -> str:
        return f"#b{self.value.to_bitstring()}"


class BVExtract(Term):
    """The inclusive slice ``term[lo:hi]`` (paper indexing, bit 0 first)."""

    __slots__ = ("term", "lo", "hi")

    def _init(self) -> None:
        if not (0 <= self.lo <= self.hi < self.term.width):
            raise FolBVError(
                f"extract [{self.lo}:{self.hi}] out of range for width {self.term.width}"
            )
        self._derive("width", self.hi - self.lo + 1)

    def __str__(self) -> str:
        return f"{self.term}[{self.lo}:{self.hi}]"


class BVConcatT(Term):
    __slots__ = ("left", "right")

    def _init(self) -> None:
        self._derive("width", self.left.width + self.right.width)

    def __str__(self) -> str:
        return f"({self.left} ++ {self.right})"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class BFormula(Node):
    __slots__ = ()


class BTrue(BFormula):
    __slots__ = ()

    def __new__(cls):
        return B_TRUE

    def __str__(self) -> str:
        return "true"


class BFalse(BFormula):
    __slots__ = ()

    def __new__(cls):
        return B_FALSE

    def __str__(self) -> str:
        return "false"


class BEq(BFormula):
    __slots__ = ("left", "right")

    def _init(self) -> None:
        if self.left.width != self.right.width:
            raise FolBVError(
                f"equality between widths {self.left.width} and {self.right.width}"
            )

    def __str__(self) -> str:
        return f"({self.left} = {self.right})"


class BNot(BFormula):
    __slots__ = ("operand",)

    def __str__(self) -> str:
        return f"(not {self.operand})"


class BAnd(BFormula):
    __slots__ = ("operands",)

    def __str__(self) -> str:
        return "(and " + " ".join(str(op) for op in self.operands) + ")"


class BOr(BFormula):
    __slots__ = ("operands",)

    def __str__(self) -> str:
        return "(or " + " ".join(str(op) for op in self.operands) + ")"


class BImplies(BFormula):
    __slots__ = ("premise", "conclusion")

    def __str__(self) -> str:
        return f"(=> {self.premise} {self.conclusion})"


B_TRUE = constant(BTrue)
B_FALSE = constant(BFalse)


def b_and(operands) -> BFormula:
    ops = [op for op in operands if not isinstance(op, BTrue)]
    if any(isinstance(op, BFalse) for op in ops):
        return B_FALSE
    if not ops:
        return B_TRUE
    if len(ops) == 1:
        return ops[0]
    return BAnd(tuple(ops))


def b_or(operands) -> BFormula:
    ops = [op for op in operands if not isinstance(op, BFalse)]
    if any(isinstance(op, BTrue) for op in ops):
        return B_TRUE
    if not ops:
        return B_FALSE
    if len(ops) == 1:
        return ops[0]
    return BOr(tuple(ops))


def b_not(operand: BFormula) -> BFormula:
    if isinstance(operand, BTrue):
        return B_FALSE
    if isinstance(operand, BFalse):
        return B_TRUE
    if isinstance(operand, BNot):
        return operand.operand
    return BNot(operand)


def b_implies(premise: BFormula, conclusion: BFormula) -> BFormula:
    if isinstance(premise, BFalse) or isinstance(conclusion, BTrue):
        return B_TRUE
    if isinstance(premise, BTrue):
        return conclusion
    if isinstance(conclusion, BFalse):
        return b_not(premise)
    return BImplies(premise, conclusion)


# ---------------------------------------------------------------------------
# Traversals and evaluation
# ---------------------------------------------------------------------------


def iter_terms(formula: BFormula) -> Iterator[Term]:
    if isinstance(formula, BEq):
        yield formula.left
        yield formula.right
    elif isinstance(formula, BNot):
        yield from iter_terms(formula.operand)
    elif isinstance(formula, (BAnd, BOr)):
        for operand in formula.operands:
            yield from iter_terms(operand)
    elif isinstance(formula, BImplies):
        yield from iter_terms(formula.premise)
        yield from iter_terms(formula.conclusion)
    elif isinstance(formula, (BTrue, BFalse)):
        return
    else:
        raise FolBVError(f"unknown formula {formula!r}")


def term_variables(term: Term, out: Dict[str, int]) -> None:
    if isinstance(term, BVVar):
        existing = out.get(term.name)
        if existing is not None and existing != term.var_width:
            raise FolBVError(f"variable {term.name!r} used at widths {existing} and {term.var_width}")
        out[term.name] = term.var_width
    elif isinstance(term, BVExtract):
        term_variables(term.term, out)
    elif isinstance(term, BVConcatT):
        term_variables(term.left, out)
        term_variables(term.right, out)
    elif isinstance(term, BVConst):
        return
    else:
        raise FolBVError(f"unknown term {term!r}")


def free_variables(formula: BFormula) -> Dict[str, int]:
    """Free variables of ``formula`` and their widths, in order of occurrence.

    A query conjoins the same premises again and again, so within a check
    each conjunct's variables are collected once (:func:`~repro.logic.hashcons.memo`).
    """
    collected = memo("free_variables")
    out: Dict[str, int] = {}
    for conjunct in formula.operands if isinstance(formula, BAnd) else (formula,):
        variables = collected.get(conjunct)
        if variables is None:
            variables = {}
            for term in iter_terms(conjunct):
                term_variables(term, variables)
            collected[conjunct] = variables
        for name, width in variables.items():
            existing = out.setdefault(name, width)
            if existing != width:
                raise FolBVError(f"variable {name!r} used at widths {existing} and {width}")
    return out


def eval_term(term: Term, assignment: Mapping[str, Bits]) -> Bits:
    if isinstance(term, BVVar):
        value = assignment[term.name]
        if value.width != term.var_width:
            raise FolBVError(
                f"assignment for {term.name!r} has width {value.width}, expected {term.var_width}"
            )
        return value
    if isinstance(term, BVConst):
        return term.value
    if isinstance(term, BVExtract):
        return eval_term(term.term, assignment).slice(term.lo, term.hi)
    if isinstance(term, BVConcatT):
        return eval_term(term.left, assignment).concat(eval_term(term.right, assignment))
    raise FolBVError(f"unknown term {term!r}")


def eval_formula(formula: BFormula, assignment: Mapping[str, Bits]) -> bool:
    """Evaluate a FOL(BV) formula under a total assignment (used by tests and
    to validate models returned by the solvers)."""
    if isinstance(formula, BTrue):
        return True
    if isinstance(formula, BFalse):
        return False
    if isinstance(formula, BEq):
        return eval_term(formula.left, assignment) == eval_term(formula.right, assignment)
    if isinstance(formula, BNot):
        return not eval_formula(formula.operand, assignment)
    if isinstance(formula, BAnd):
        return all(eval_formula(op, assignment) for op in formula.operands)
    if isinstance(formula, BOr):
        return any(eval_formula(op, assignment) for op in formula.operands)
    if isinstance(formula, BImplies):
        return (not eval_formula(formula.premise, assignment)) or eval_formula(
            formula.conclusion, assignment
        )
    raise FolBVError(f"unknown formula {formula!r}")
