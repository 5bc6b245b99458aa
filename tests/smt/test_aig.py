"""The structurally-hashed AIG lowering layer.

Unit tests for the graph itself (hash-consing, the simplification passes,
the interning-only ablation mode), the FOL(BV) lowerer, the Tseitin emitter,
and differential property tests: a random FOL(BV) formula must get the same
verdict — and, when satisfiable, a model that actually satisfies it — with
the simplifying pipeline on and off, both through one-shot solving and
through the incremental session.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import counters
from repro.logic.folbv import (
    BEq,
    BVConcatT,
    BVConst,
    BVExtract,
    BVVar,
    b_and,
    b_implies,
    b_not,
    b_or,
    eval_formula,
    free_variables,
)
from repro.p4a.bitvec import Bits
from repro.smt.aig import FALSE_REF, TRUE_REF, Aig, AigToCnf, FolbvToAig
from repro.smt.bitblast import BitblastError, bitblast
from repro.smt.bvsolver import InternalBVSolver
from repro.smt.incremental import IncrementalSession
from repro.smt.sat.cnf import CnfBuilder


class TestAigConstruction:
    def test_constants(self):
        aig = Aig()
        assert aig.const(True) == TRUE_REF
        assert aig.const(False) == FALSE_REF
        assert aig.not_(TRUE_REF) == FALSE_REF

    def test_structural_hashing_shares_nodes(self):
        aig = Aig()
        a, b = aig.new_input(), aig.new_input()
        first = aig.and_([a, b])
        before = aig.num_nodes
        second = aig.and_([b, a])  # operand order is canonicalised
        assert first == second
        assert aig.num_nodes == before
        assert aig.cache_hits >= 1

    def test_double_negation_is_free(self):
        aig = Aig()
        a = aig.new_input()
        assert aig.not_(aig.not_(a)) == a

    def test_idempotence_and_constants(self):
        aig = Aig()
        a = aig.new_input()
        assert aig.and_([a, a, TRUE_REF]) == a
        assert aig.and_([a, FALSE_REF]) == FALSE_REF
        assert aig.and_([]) == TRUE_REF

    def test_complement_pair_collapses(self):
        aig = Aig()
        a, b = aig.new_input(), aig.new_input()
        assert aig.and_([a, b, -a]) == FALSE_REF
        assert aig.or_([a, -a]) == TRUE_REF

    def test_absorption_through_negated_conjunction(self):
        # a ∧ ¬(a ∧ b) simplifies: the ¬AND operand contains a complement
        # of nothing, but ¬(a ∧ b) with both a and b asserted is FALSE.
        aig = Aig()
        a, b = aig.new_input(), aig.new_input()
        inner = aig.and_([a, b])
        assert aig.and_([a, b, -inner]) == FALSE_REF
        # ∃ complementary literal inside the negated cone → operand dropped.
        assert aig.and_([a, aig.not_(aig.and_([-a, b]))]) == a

    def test_flattening_shares_subtrees(self):
        aig = Aig()
        a, b, c = aig.new_input(), aig.new_input(), aig.new_input()
        nested = aig.and_([aig.and_([a, b]), c])
        flat = aig.and_([a, b, c])
        assert nested == flat

    def test_iff_rules(self):
        aig = Aig()
        a, b = aig.new_input(), aig.new_input()
        assert aig.iff(a, a) == TRUE_REF
        assert aig.iff(a, -a) == FALSE_REF
        assert aig.iff(a, TRUE_REF) == a
        assert aig.iff(a, FALSE_REF) == -a
        # Sign canonicalisation: one node serves all four polarity layouts.
        node = aig.iff(a, b)
        assert aig.iff(b, a) == node
        assert aig.iff(-a, -b) == node
        assert aig.iff(-a, b) == -node

    def test_interning_mode_keeps_structure(self):
        plain = Aig(simplify=False)
        a, b = plain.new_input(), plain.new_input()
        # Interning still canonicalises order and collapses trivial cases...
        assert plain.and_([a, b]) == plain.and_([b, a])
        assert plain.and_([a]) == a
        # ...but performs no rewrites: a complement pair stays a real node.
        node = plain.and_([a, -a])
        assert node not in (TRUE_REF, FALSE_REF)
        assert plain.folds == 0 and plain.subsumptions == 0

    def test_clauses_saved_is_never_negative(self):
        with counters.scope() as ledger:
            aig = Aig()
            bits = [aig.new_input() for _ in range(8)]
            aig.and_([aig.and_(bits[:4]), aig.and_(bits[4:]), bits[0], -bits[1]])
            aig.and_([bits[2], aig.not_(aig.and_([bits[2], bits[3]]))])
        assert ledger["aig.clauses_saved"] >= 0
        assert ledger["aig.nodes"] == aig.num_nodes


class TestLowererAndEmitter:
    def _solve(self, aig, builder, root_literal):
        from repro.smt.sat.dpll import dpll_solve

        builder.add_clause([root_literal])
        sat, model = dpll_solve(builder.cnf)
        return model if sat else None

    def test_equality_roundtrip(self):
        aig = Aig()
        lowerer = FolbvToAig(aig)
        formula = BEq(BVVar("x", 4), BVConst(Bits("1010")))
        ref = lowerer.lower_formula(formula)
        builder = CnfBuilder()
        emitter = AigToCnf(aig, builder)
        model = self._solve(aig, builder, emitter.literal(ref))
        assert model is not None
        bits = lowerer.variable_bits("x", 4)
        decoded = "".join(
            "1" if model.get(emitter.var_of(abs(ref_)), False) else "0"
            for ref_ in bits
        )
        assert decoded == "1010"

    def test_lowering_is_memoized(self):
        aig = Aig()
        lowerer = FolbvToAig(aig)
        formula = BEq(BVVar("x", 8), BVVar("y", 8))
        first = lowerer.lower_formula(formula)
        nodes = aig.num_nodes
        assert lowerer.lower_formula(formula) == first
        assert aig.num_nodes == nodes

    def test_extract_concat_lowering(self):
        aig = Aig()
        lowerer = FolbvToAig(aig)
        x = BVVar("x", 4)
        # x[0:1] ++ x[2:3] == x must hold structurally: same input refs.
        ref = lowerer.lower_formula(
            BEq(BVConcatT(BVExtract(x, 0, 1), BVExtract(x, 2, 3)), x)
        )
        assert ref == TRUE_REF

    def test_cone_covers_only_reachable_nodes(self):
        aig = Aig()
        a, b, c = aig.new_input(), aig.new_input(), aig.new_input()
        left = aig.and_([a, b])
        aig.and_([b, c])  # unrelated node, never emitted
        builder = CnfBuilder()
        emitter = AigToCnf(aig, builder)
        emitter.literal(left)
        cone = emitter.cone(left)
        assert emitter.var_of(c) is None
        assert len(cone) == 3  # a, b, and the AND gate


class TestDecodeModelRegression:
    def test_missing_bit_raises(self):
        result = bitblast(BEq(BVVar("x", 4), BVConst(Bits("1010"))))
        var = result.variable_bits["x"][0]
        model = {v: True for v in range(1, result.cnf.num_vars + 1)}
        del model[var]
        with pytest.raises(BitblastError) as excinfo:
            result.decode_model(model)
        assert "missing variable" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Differential parity: simplifying pipeline vs interning-only pipeline
# ---------------------------------------------------------------------------

_MAX_WIDTH = 4
_VARS_PER_WIDTH = 2


@st.composite
def bv_terms(draw, width: int, depth: int = 2):
    choices = ["const"]
    if width <= _MAX_WIDTH:
        choices.append("var")
    if depth > 0:
        choices.append("extract")
        if width >= 2:
            choices.append("concat")
    kind = draw(st.sampled_from(choices))
    if kind == "const":
        value = draw(st.integers(0, (1 << width) - 1))
        return BVConst(Bits.from_int(value, width))
    if kind == "var":
        index = draw(st.integers(0, _VARS_PER_WIDTH - 1))
        return BVVar(f"v{width}_{index}", width)
    if kind == "extract":
        inner_width = width + draw(st.integers(0, 2))
        inner = draw(bv_terms(width=inner_width, depth=depth - 1))
        lo = draw(st.integers(0, inner_width - width))
        return BVExtract(inner, lo, lo + width - 1)
    left_width = draw(st.integers(1, width - 1))
    return BVConcatT(
        draw(bv_terms(width=left_width, depth=depth - 1)),
        draw(bv_terms(width=width - left_width, depth=depth - 1)),
    )


@st.composite
def bv_formulas(draw, depth: int = 3):
    if depth == 0:
        width = draw(st.integers(1, _MAX_WIDTH))
        return BEq(draw(bv_terms(width=width)), draw(bv_terms(width=width)))
    kind = draw(st.sampled_from(["eq", "not", "and", "or", "implies"]))
    if kind == "eq":
        width = draw(st.integers(1, _MAX_WIDTH))
        return BEq(draw(bv_terms(width=width)), draw(bv_terms(width=width)))
    if kind == "not":
        return b_not(draw(bv_formulas(depth=depth - 1)))
    if kind == "implies":
        return b_implies(
            draw(bv_formulas(depth=depth - 1)), draw(bv_formulas(depth=depth - 1))
        )
    operands = draw(
        st.lists(bv_formulas(depth=depth - 1), min_size=1, max_size=3)
    )
    return b_and(operands) if kind == "and" else b_or(operands)


class TestDifferentialParity:
    @settings(max_examples=60, deadline=None)
    @given(bv_formulas())
    def test_one_shot_verdict_and_model_parity(self, formula):
        with_aig = InternalBVSolver(use_aig=True).check_sat(formula)
        without = InternalBVSolver(use_aig=False).check_sat(formula)
        assert with_aig.is_sat == without.is_sat
        for result in (with_aig, without):
            if result.is_sat:
                model = dict(result.model)
                for name, width in free_variables(formula).items():
                    model.setdefault(name, Bits.zeros(width))
                assert eval_formula(formula, model)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(bv_formulas(depth=2), min_size=1, max_size=4))
    def test_session_verdict_parity(self, formulas):
        sessions = {
            mode: IncrementalSession(use_aig=mode) for mode in (True, False)
        }
        verdicts = {True: [], False: []}
        activations = {True: [], False: []}
        for formula in formulas:
            for mode, session in sessions.items():
                activations[mode].append(session.activation(formula))
                result = session.check(
                    assumptions=activations[mode][:-1], goal=formula
                )
                verdicts[mode].append(result.is_sat)
        assert verdicts[True] == verdicts[False]
