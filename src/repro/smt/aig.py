"""A structurally-hashed and-inverter graph between FOL(BV) and CNF.

This module is the single lowering pipeline shared by the one-shot
bit-blaster (:mod:`repro.smt.bitblast`) and the incremental session
(:mod:`repro.smt.incremental`).  FOL(BV) formulas lower to graph nodes in
exactly one place (:class:`FolbvToAig`), simplification runs on the graph
(:class:`Aig`), and a single Tseitin emitter (:class:`AigToCnf`) produces
clauses on demand — so the encoding rules can never drift between the two
solving paths again.

The graph is a classic AIG extended in two pragmatic ways:

* **word-level bit atoms** — terms lower to tuples of references, one per
  bit, so extraction and concatenation are free slicing on the word level
  and never materialize nodes;
* **fused equivalence nodes** — bit equalities are the dominant gate in
  this fragment (equalities over headers and buffers), and a dedicated
  two-input ``iff`` node keeps their CNF at the optimal four clauses
  instead of the nine an AND/NOT expansion would cost.

References are signed integers: node ``n`` is referenced as ``n`` and its
negation as ``-n`` (so double negation is free), with ``+1``/``-1``
reserved for the constants true/false.  Structural hashing interns every
node; with ``simplify`` on, AND construction additionally runs constant
propagation, idempotence/absorption, complement detection, bounded
flattening and operand subsumption, which lets entire queries collapse to
a constant before any CNF exists.  With ``simplify`` off the same code
path performs only the interning the legacy encoders already did, which
is what makes ``use_aig=False`` (the differential campaign's ``aig-off``
stack) an honest baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import counters
from ..logic import folbv
from ..logic.fingerprint import folbv_fingerprint  # noqa: F401 # perfbench hook "fingerprint"
from ..logic.folbv import BFormula, Term
from .sat.cnf import CnfBuilder

#: Reference to the constant-true node; ``-TRUE_REF`` is constant false.
TRUE_REF = 1
FALSE_REF = -1

#: AND children with at most this many operands are inlined into the parent
#: during simplification.  Keeping the bound small preserves sharing of wide
#: conjunctions while still exposing premise structure to subsumption.
FLATTEN_LIMIT = 32

#: Subsumption only inspects AND operands up to this size; beyond it the
#: quadratic set probing would dominate construction time.
SUBSUME_LIMIT = 512

_INPUT = "input"
_AND = "and"
_IFF = "iff"


class AigError(Exception):
    """Raised on malformed graph construction."""


class Aig:
    """The structurally-hashed graph of AND/IFF nodes over input bits."""

    def __init__(self, simplify: bool = True) -> None:
        self.simplify = simplify
        # Node storage, indexed by positive node id; ids 0 and 1 are padding
        # and the constant-true node respectively.
        self._kinds: List[str] = ["pad", "const"]
        self._operands: List[Tuple[int, ...]] = [(), ()]
        # Structural-hash tables: operand tuple -> node ref.
        self._and_cache: Dict[Tuple[int, ...], int] = {}
        self._iff_cache: Dict[Tuple[int, int], int] = {}
        # Cached operand frozensets of AND nodes, for subsumption probing.
        self._operand_sets: Dict[int, frozenset] = {}
        # Graph shape and rewrite counters of this graph.  Nodes built and
        # clauses avoided (an estimate) are also counted in the check's
        # ledger as ``aig.nodes`` and ``aig.clauses_saved``.
        self.num_inputs = 0
        self.num_ands = 0
        self.num_iffs = 0
        self.cache_hits = 0
        self.folds = 0
        self.subsumptions = 0

    # -- node inspection -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.num_inputs + self.num_ands + self.num_iffs

    def kind(self, index: int) -> str:
        return self._kinds[index]

    def operands(self, index: int) -> Tuple[int, ...]:
        return self._operands[index]

    def _operand_set(self, index: int) -> frozenset:
        cached = self._operand_sets.get(index)
        if cached is None:
            cached = frozenset(self._operands[index])
            self._operand_sets[index] = cached
        return cached

    # -- construction ----------------------------------------------------------

    def _new_node(self, kind: str, operands: Tuple[int, ...]) -> int:
        counters.add("aig.nodes")
        self._kinds.append(kind)
        self._operands.append(operands)
        return len(self._kinds) - 1

    def new_input(self) -> int:
        """A fresh input bit (one SAT variable once emitted)."""
        self.num_inputs += 1
        return self._new_node(_INPUT, ())

    def const(self, value: bool) -> int:
        return TRUE_REF if value else FALSE_REF

    def not_(self, ref: int) -> int:
        return -ref

    def and_(self, refs: Iterable[int]) -> int:
        """The conjunction of ``refs``, simplified and structurally hashed."""
        if self.simplify:
            operands = self._simplified_operands(refs)
            if isinstance(operands, int):
                return operands
        else:
            # Interning only — the dedupe/sort/unit collapse the legacy
            # CnfBuilder gates already performed, nothing more.
            operands = tuple(sorted(set(refs)))
        if not operands:
            return TRUE_REF
        if len(operands) == 1:
            return operands[0]
        cached = self._and_cache.get(operands)
        if cached is not None:
            self.cache_hits += 1
            return cached
        node = self._new_node(_AND, operands)
        self.num_ands += 1
        self._and_cache[operands] = node
        return node

    def _simplified_operands(self, refs: Iterable[int]):
        """Rewrite an operand list; returns a tuple, or an int collapse."""
        collected: List[int] = []
        for ref in refs:
            # One-level flattening of small positive AND children; children
            # were themselves flattened at construction, so small conjunction
            # trees end up fully flat.
            if ref > TRUE_REF and self._kinds[ref] == _AND:
                inner = self._operands[ref]
                if len(inner) <= FLATTEN_LIMIT:
                    collected.extend(inner)
                    continue
            collected.append(ref)
        # Clause savings are estimated against the flattened arity, so
        # flattening itself (which widens the operand list) never counts
        # negatively.
        original = len(collected)
        seen = set()
        operands: List[int] = []
        for ref in collected:
            if ref == TRUE_REF or ref in seen:
                continue
            if ref == FALSE_REF or -ref in seen:
                return self._fold_to(FALSE_REF, original)
            seen.add(ref)
            operands.append(ref)
        # Subsumption against the full operand set.  Dropping an operand is
        # sound because its justification is another operand (or, along an
        # acyclic chain, one that itself remains), so the reduced conjunction
        # is equivalent to the original.
        kept: List[int] = []
        for ref in operands:
            index = -ref if ref < 0 else ref
            if index > TRUE_REF and self._kinds[index] == _AND:
                inner = self._operand_set(index)
                if len(inner) <= SUBSUME_LIMIT:
                    if ref < 0:
                        if inner <= seen:
                            # AND(S) forces every conjunct of AND(Y) while
                            # also asserting ¬AND(Y): contradiction.
                            self.subsumptions += 1
                            return self._fold_to(FALSE_REF, original)
                        if any(-y in seen for y in inner):
                            # Some conjunct of AND(Y) is already false, so
                            # ¬AND(Y) holds for free: drop it.
                            self.subsumptions += 1
                            counters.add("aig.clauses_saved")
                            continue
                    elif any(-y in seen for y in inner):
                        # A kept (un-flattened) AND child contradicts a
                        # sibling operand.
                        self.subsumptions += 1
                        return self._fold_to(FALSE_REF, original)
            kept.append(ref)
        if len(kept) != original and original >= 2:
            self.folds += 1
            counters.add("aig.clauses_saved", original - len(kept))
        if not kept:
            return ()
        if len(kept) == 1:
            return kept[0]
        return tuple(sorted(kept))

    def _fold_to(self, ref: int, original_arity: int) -> int:
        self.folds += 1
        if original_arity >= 2:
            # A k-ary Tseitin AND gate costs k+1 clauses; collapsing to a
            # constant or literal avoids all of them.
            counters.add("aig.clauses_saved", original_arity + 1)
        return ref

    def or_(self, refs: Iterable[int]) -> int:
        return -self.and_([-ref for ref in refs])

    def implies(self, premise: int, conclusion: int) -> int:
        return self.or_([-premise, conclusion])

    def iff(self, a: int, b: int) -> int:
        """Bit equivalence ``a ↔ b`` as a fused two-input node.

        The constant/identity rules below mirror what both legacy encoders
        did in ``_bit_equal``, so they apply in simplify and interning mode
        alike; only structural hashing keeps repeats shared.
        """
        if a == TRUE_REF:
            return b
        if a == FALSE_REF:
            return -b
        if b == TRUE_REF:
            return a
        if b == FALSE_REF:
            return -a
        if a == b:
            return TRUE_REF
        if a == -b:
            return FALSE_REF
        # Canonical form: both operands positive (iff(-a, b) = -iff(a, b),
        # iff(-a, -b) = iff(a, b)), smaller id first.
        sign = 1
        if a < 0:
            a, b = -a, -b
        if b < 0:
            sign, b = -1, -b
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._iff_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return sign * cached
        node = self._new_node(_IFF, key)
        self.num_iffs += 1
        self._iff_cache[key] = node
        return sign * node


class FolbvToAig:
    """Lowers FOL(BV) terms and formulas into one :class:`Aig`.

    Terms lower to tuples of bit references (index 0 = first bit, matching
    :class:`~repro.p4a.bitvec.Bits`), formulas to a single reference.  Both
    are memoized by node: nodes are hash-consed within a check
    (:mod:`repro.logic.hashcons`), so a formula rebuilt by a later query is
    the same object and shares its whole lowered cone at the cost of one
    identity hit.  Variables key on ``(name, width)``: distinct queries may
    reuse a canonical name at different widths and must never alias.
    """

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self._variable_bits: Dict[Tuple[str, int], Tuple[int, ...]] = {}
        self._term_cache: Dict[Term, Tuple[int, ...]] = {}
        self._formula_cache: Dict[BFormula, int] = {}

    def variable_bits(self, name: str, width: int) -> Tuple[int, ...]:
        key = (name, width)
        bits = self._variable_bits.get(key)
        if bits is None:
            bits = tuple(self.aig.new_input() for _ in range(width))
            self._variable_bits[key] = bits
        return bits

    def lower_term(self, term: Term) -> Tuple[int, ...]:
        cached = self._term_cache.get(term)
        if cached is not None:
            return cached
        if isinstance(term, folbv.BVVar):
            refs = self.variable_bits(term.name, term.var_width)
        elif isinstance(term, folbv.BVConst):
            refs = tuple(TRUE_REF if bit == 1 else FALSE_REF for bit in term.value)
        elif isinstance(term, folbv.BVExtract):
            refs = self.lower_term(term.term)[term.lo : term.hi + 1]
        elif isinstance(term, folbv.BVConcatT):
            refs = self.lower_term(term.left) + self.lower_term(term.right)
        else:
            raise AigError(f"cannot lower term {term!r}")
        if len(refs) != term.width:
            raise AigError(
                f"term {term} lowered to {len(refs)} bits, expected {term.width}"
            )
        self._term_cache[term] = refs
        return refs

    def lower_formula(self, formula: BFormula) -> int:
        cached = self._formula_cache.get(formula)
        if cached is not None:
            return cached
        aig = self.aig
        if isinstance(formula, folbv.BTrue):
            ref = TRUE_REF
        elif isinstance(formula, folbv.BFalse):
            ref = FALSE_REF
        elif isinstance(formula, folbv.BEq):
            left = self.lower_term(formula.left)
            right = self.lower_term(formula.right)
            ref = aig.and_([aig.iff(a, b) for a, b in zip(left, right)])
        elif isinstance(formula, folbv.BNot):
            ref = -self.lower_formula(formula.operand)
        elif isinstance(formula, folbv.BAnd):
            ref = aig.and_([self.lower_formula(op) for op in formula.operands])
        elif isinstance(formula, folbv.BOr):
            ref = aig.or_([self.lower_formula(op) for op in formula.operands])
        elif isinstance(formula, folbv.BImplies):
            ref = aig.implies(
                self.lower_formula(formula.premise),
                self.lower_formula(formula.conclusion),
            )
        else:
            raise AigError(f"cannot lower formula {formula!r}")
        self._formula_cache[formula] = ref
        return ref


class AigToCnf:
    """Emits the cone of a reference into a :class:`CnfBuilder` on demand.

    Each node gets one SAT variable the first time something in its cone is
    requested; nodes never referenced by a query cost no clauses at all.
    Emission is iterative (an explicit stack), so deeply nested formulas
    cannot overflow the Python recursion limit.
    """

    def __init__(self, aig: Aig, builder: CnfBuilder) -> None:
        self.aig = aig
        self.builder = builder
        self._vars: Dict[int, int] = {}

    def var_of(self, index: int) -> Optional[int]:
        """The SAT variable of an emitted node, or ``None``."""
        return self._vars.get(index)

    def literal(self, ref: int) -> int:
        """The SAT literal equivalent to ``ref``, emitting its cone."""
        if ref == TRUE_REF or ref == FALSE_REF:
            return self.builder.constant(ref > 0)
        index = -ref if ref < 0 else ref
        var = self._vars.get(index)
        if var is None:
            self._emit(index)
            var = self._vars[index]
        return -var if ref < 0 else var

    def _emit(self, root: int) -> None:
        aig = self.aig
        builder = self.builder
        stack = [root]
        while stack:
            index = stack[-1]
            if index in self._vars:
                stack.pop()
                continue
            kind = aig.kind(index)
            if kind == _INPUT:
                var = builder.new_var()
                self._vars[index] = var
                stack.pop()
                continue
            operands = aig.operands(index)
            pending = [
                abs(ref)
                for ref in operands
                if abs(ref) != TRUE_REF and abs(ref) not in self._vars
            ]
            if pending:
                stack.extend(pending)
                continue
            literals = [self.literal(ref) for ref in operands]
            output = builder.new_var()
            if kind == _AND:
                builder.emit_and(output, literals)
            elif kind == _IFF:
                builder.emit_iff(output, literals[0], literals[1])
            else:
                raise AigError(f"cannot emit node kind {kind!r}")
            self._vars[index] = output
            stack.pop()

    def cone(self, ref: int) -> frozenset:
        """The SAT variables in the emitted cone of ``ref``.

        Restricted solves decide exactly the union of the active formulas'
        cones, so a query never assigns structure it does not mention.  The
        cone is computed over emitted nodes only (call :meth:`literal`
        first); folded-away structure genuinely has no variables.
        """
        if ref == TRUE_REF or ref == FALSE_REF:
            literal = self.builder.constant(ref > 0)
            return frozenset((abs(literal),))
        cone: set = set()
        seen = set()
        stack = [abs(ref)]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            var = self._vars.get(index)
            if var is None:
                continue
            cone.add(var)
            for operand in self.aig.operands(index):
                inner = -operand if operand < 0 else operand
                if inner == TRUE_REF:
                    cone.add(abs(self.builder.constant(True)))
                else:
                    stack.append(inner)
        return frozenset(cone)


def aig_to_cnf(
    aig: Aig, refs: Sequence[int], builder: Optional[CnfBuilder] = None
) -> Tuple[CnfBuilder, List[int]]:
    """Emit the cones of ``refs`` and return ``(builder, literals)``."""
    builder = builder if builder is not None else CnfBuilder()
    emitter = AigToCnf(aig, builder)
    return builder, [emitter.literal(ref) for ref in refs]
