"""The configuration-relation logic ConfRel (Figure 3 of the paper).

Formulas in this logic describe relations on pairs of configurations drawn
from two P4 automata (the "left" and "right" side, written ``<`` and ``>`` in
the paper).  Bitvector expressions can mention the buffers and header values
of either side as well as symbolic variables (used by the weakest-precondition
operator to stand for packet bits that have not been read yet).

Every expression carries a static width, which is possible because the
algorithm only ever builds formulas under a *template guard* that fixes the
buffer length of each side (Definition 4.7).  Nodes are hash-consed within a
check (:mod:`repro.logic.hashcons`).

The module also provides the denotational semantics ``eval_formula`` of
Definition 4.3, used by tests and by the certificate re-checker to validate
formulas against concrete configuration pairs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from ..p4a.bitvec import Bits
from ..p4a.semantics import Configuration
from .hashcons import Node, constant, memo

# Side tags.
LEFT = "<"
RIGHT = ">"
SIDES = (LEFT, RIGHT)


class ConfRelError(Exception):
    """Raised on ill-formed ConfRel expressions or formulas."""


# ---------------------------------------------------------------------------
# Bitvector expressions over configuration pairs
# ---------------------------------------------------------------------------


class BVExpr(Node):
    """Base class of symbolic bitvector expressions (``be`` in Figure 3);
    ``width`` is set when an expression is built."""

    __slots__ = ("width",)


class CLit(BVExpr):
    """A bitvector literal."""

    __slots__ = ("value",)

    def _init(self) -> None:
        self._derive("width", self.value.width)

    def __str__(self) -> str:
        return f"0b{self.value.to_bitstring()}" if self.value.width else "ε"


class CBuf(BVExpr):
    """The buffer of one side (``buf<`` / ``buf>``).

    The width is the buffer length fixed by the enclosing template guard.
    """

    __slots__ = ("side", "buf_width")

    def _init(self) -> None:
        self._derive("width", self.buf_width)

    def __str__(self) -> str:
        return f"buf{self.side}"


class CHdr(BVExpr):
    """A header of one side (``h<`` / ``h>``)."""

    __slots__ = ("side", "name", "hdr_width")

    def _init(self) -> None:
        self._derive("width", self.hdr_width)

    def __str__(self) -> str:
        return f"{self.name}{self.side}"


class CVar(BVExpr):
    """A symbolic variable (``x`` in Figure 3), e.g. bits still to be read."""

    __slots__ = ("name", "var_width")

    def _init(self) -> None:
        self._derive("width", self.var_width)

    def __str__(self) -> str:
        return self.name


class CSlice(BVExpr):
    """The inclusive slice ``be[lo:hi]``; bounds must be in range."""

    __slots__ = ("expr", "lo", "hi")

    def _init(self) -> None:
        if not (0 <= self.lo <= self.hi < self.expr.width):
            raise ConfRelError(
                f"slice [{self.lo}:{self.hi}] out of range for width {self.expr.width}"
            )
        self._derive("width", self.hi - self.lo + 1)

    def __str__(self) -> str:
        return f"{self.expr}[{self.lo}:{self.hi}]"


class CConcat(BVExpr):
    """Concatenation ``be1 ++ be2``."""

    __slots__ = ("left", "right")

    def _init(self) -> None:
        self._derive("width", self.left.width + self.right.width)

    def __str__(self) -> str:
        return f"({self.left} ++ {self.right})"


# ---------------------------------------------------------------------------
# Pure formulas
# ---------------------------------------------------------------------------


class Formula(Node):
    """Base class of pure ConfRel formulas (no state or buffer-length atoms;
    those are carried by the enclosing template guard)."""

    __slots__ = ()


class FTrue(Formula):
    __slots__ = ()

    def __new__(cls):
        return TRUE

    def __str__(self) -> str:
        return "⊤"


class FFalse(Formula):
    __slots__ = ()

    def __new__(cls):
        return FALSE

    def __str__(self) -> str:
        return "⊥"


class FEq(Formula):
    """Bitvector equality ``be1 = be2``."""

    __slots__ = ("left", "right")

    def _init(self) -> None:
        if self.left.width != self.right.width:
            raise ConfRelError(
                f"equality between widths {self.left.width} and {self.right.width}: "
                f"{self.left} = {self.right}"
            )

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


class FNot(Formula):
    __slots__ = ("operand",)

    def __str__(self) -> str:
        return f"¬({self.operand})"


class FAnd(Formula):
    __slots__ = ("operands",)

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(op) for op in self.operands) + ")"


class FOr(Formula):
    __slots__ = ("operands",)

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(op) for op in self.operands) + ")"


class FImpl(Formula):
    __slots__ = ("premise", "conclusion")

    def __str__(self) -> str:
        return f"({self.premise} ⟹ {self.conclusion})"


TRUE = constant(FTrue)
FALSE = constant(FFalse)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def iter_subexprs(expr: BVExpr) -> Iterator[BVExpr]:
    yield expr
    if isinstance(expr, CSlice):
        yield from iter_subexprs(expr.expr)
    elif isinstance(expr, CConcat):
        yield from iter_subexprs(expr.left)
        yield from iter_subexprs(expr.right)


def iter_atoms(formula: Formula) -> Iterator[BVExpr]:
    """Yield every leaf expression (CBuf/CHdr/CVar/CLit) in ``formula``."""
    for expr in iter_exprs(formula):
        for sub in iter_subexprs(expr):
            if isinstance(sub, (CBuf, CHdr, CVar, CLit)):
                yield sub


def iter_exprs(formula: Formula) -> Iterator[BVExpr]:
    if isinstance(formula, FEq):
        yield formula.left
        yield formula.right
    elif isinstance(formula, FNot):
        yield from iter_exprs(formula.operand)
    elif isinstance(formula, (FAnd, FOr)):
        for operand in formula.operands:
            yield from iter_exprs(operand)
    elif isinstance(formula, FImpl):
        yield from iter_exprs(formula.premise)
        yield from iter_exprs(formula.conclusion)
    elif isinstance(formula, (FTrue, FFalse)):
        return
    else:
        raise ConfRelError(f"unknown formula {formula!r}")


def formula_variables(formula: Formula) -> Dict[str, int]:
    """Free symbolic variables of a formula, mapped to their widths."""
    variables: Dict[str, int] = {}
    for atom in iter_atoms(formula):
        if isinstance(atom, CVar):
            existing = variables.get(atom.name)
            if existing is not None and existing != atom.var_width:
                raise ConfRelError(
                    f"variable {atom.name!r} used at widths {existing} and {atom.var_width}"
                )
            variables[atom.name] = atom.var_width
    return variables


def rename_variables(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename symbolic variables according to ``mapping`` (identity if absent)."""

    def rename_expr(expr: BVExpr) -> BVExpr:
        if isinstance(expr, CVar):
            return CVar(mapping.get(expr.name, expr.name), expr.var_width)
        if isinstance(expr, CSlice):
            return CSlice(rename_expr(expr.expr), expr.lo, expr.hi)
        if isinstance(expr, CConcat):
            return CConcat(rename_expr(expr.left), rename_expr(expr.right))
        return expr

    return map_formula_exprs(formula, rename_expr)


def map_formula_exprs(formula: Formula, fn) -> Formula:
    """Rebuild ``formula`` applying ``fn`` to every top-level expression."""
    if isinstance(formula, FEq):
        return FEq(fn(formula.left), fn(formula.right))
    if isinstance(formula, FNot):
        return FNot(map_formula_exprs(formula.operand, fn))
    if isinstance(formula, FAnd):
        return FAnd(tuple(map_formula_exprs(op, fn) for op in formula.operands))
    if isinstance(formula, FOr):
        return FOr(tuple(map_formula_exprs(op, fn) for op in formula.operands))
    if isinstance(formula, FImpl):
        return FImpl(
            map_formula_exprs(formula.premise, fn), map_formula_exprs(formula.conclusion, fn)
        )
    if isinstance(formula, (FTrue, FFalse)):
        return formula
    raise ConfRelError(f"unknown formula {formula!r}")


def canonicalize_variables(formula: Formula, prefix: str = "v") -> Formula:
    """Rename variables to canonical, width-indexed names.

    Variables are renamed to ``{prefix}{width}_{i}`` where ``i`` counts the
    variables of that width in order of first occurrence.  Canonical names make
    alpha-equivalent formulas structurally equal and align the variables of
    different formulas that talk about the same future packet bits (variables
    of different widths are never conflated, so the renaming stays well-typed).
    Within a check each formula is renamed once (:func:`~repro.logic.hashcons.memo`).
    """
    renamed = memo("canonicalize_variables")
    key = (formula, prefix)
    canonical = renamed.get(key)
    if canonical is None:
        canonical = renamed[key] = rename_variables(formula, canonical_names(formula, prefix))
    return canonical


def canonical_names(formula: Formula, prefix: str = "v") -> Dict[str, str]:
    """The renaming :func:`canonicalize_variables` applies: name → canonical name."""
    order: Dict[str, str] = {}
    per_width: Dict[int, int] = {}
    for atom in iter_atoms(formula):
        if isinstance(atom, CVar) and atom.name not in order:
            index = per_width.get(atom.var_width, 0)
            per_width[atom.var_width] = index + 1
            order[atom.name] = f"{prefix}{atom.var_width}_{index}"
    return order


# ---------------------------------------------------------------------------
# Denotational semantics (Definition 4.3)
# ---------------------------------------------------------------------------


def eval_expr(
    expr: BVExpr,
    left: Configuration,
    right: Configuration,
    valuation: Optional[Mapping[str, Bits]] = None,
) -> Bits:
    """⟦be⟧B over a pair of concrete configurations and a valuation."""
    valuation = valuation or {}
    if isinstance(expr, CLit):
        return expr.value
    if isinstance(expr, CBuf):
        config = left if expr.side == LEFT else right
        value = config.buffer
    elif isinstance(expr, CHdr):
        config = left if expr.side == LEFT else right
        value = config.store_dict().get(expr.name)
        if value is None:
            raise ConfRelError(f"header {expr.name!r} missing from the {expr.side} store")
    elif isinstance(expr, CVar):
        if expr.name not in valuation:
            raise ConfRelError(f"valuation does not bind variable {expr.name!r}")
        value = valuation[expr.name]
    elif isinstance(expr, CSlice):
        return eval_expr(expr.expr, left, right, valuation).slice(expr.lo, expr.hi)
    elif isinstance(expr, CConcat):
        return eval_expr(expr.left, left, right, valuation).concat(
            eval_expr(expr.right, left, right, valuation)
        )
    else:
        raise ConfRelError(f"unknown expression {expr!r}")
    if value.width != expr.width:
        raise ConfRelError(
            f"expression {expr} has declared width {expr.width} but value width {value.width}"
        )
    return value


def eval_formula(
    formula: Formula,
    left: Configuration,
    right: Configuration,
    valuation: Optional[Mapping[str, Bits]] = None,
) -> bool:
    """⟦φ⟧ at a configuration pair under one valuation."""
    if isinstance(formula, FTrue):
        return True
    if isinstance(formula, FFalse):
        return False
    if isinstance(formula, FEq):
        return eval_expr(formula.left, left, right, valuation) == eval_expr(
            formula.right, left, right, valuation
        )
    if isinstance(formula, FNot):
        return not eval_formula(formula.operand, left, right, valuation)
    if isinstance(formula, FAnd):
        return all(eval_formula(op, left, right, valuation) for op in formula.operands)
    if isinstance(formula, FOr):
        return any(eval_formula(op, left, right, valuation) for op in formula.operands)
    if isinstance(formula, FImpl):
        return (not eval_formula(formula.premise, left, right, valuation)) or eval_formula(
            formula.conclusion, left, right, valuation
        )
    raise ConfRelError(f"unknown formula {formula!r}")


def holds_for_all_valuations(
    formula: Formula, left: Configuration, right: Configuration
) -> bool:
    """⟦φ⟧L: the formula holds at the pair under *every* valuation.

    Exponential in the number of variable bits; only usable in tests and the
    certificate re-checker on small instances.
    """
    from itertools import product

    variables = formula_variables(formula)
    names = list(variables)
    widths = [variables[name] for name in names]
    total_bits = sum(widths)
    if total_bits > 20:
        raise ConfRelError(
            f"refusing to enumerate {total_bits} variable bits; use the SMT backend instead"
        )
    for assignment in product("01", repeat=total_bits):
        valuation: Dict[str, Bits] = {}
        position = 0
        for name, width in zip(names, widths):
            valuation[name] = Bits("".join(assignment[position : position + width]))
            position += width
        if not eval_formula(formula, left, right, valuation):
            return False
    return True
