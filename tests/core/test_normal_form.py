"""Formulas are in normal form as built, and the leap table is exact.

Algorithm 1 takes every formula it builds as final: it never re-simplifies a
candidate, a WP or a premise, and the entailment checker lowers them without
simplifying.  That is sound only while ``simplify_formula(f) == f`` holds for
every formula the WP operator, the initial relation and the protocol builders
produce; these tests pin that invariant.  They also check that a WP read
through a run's :class:`~repro.core.wp.LeapTable` equals one computed from a
fresh symbolic leap.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.algorithm import PreBisimulationChecker
from repro.core.init_rels import initial_relation
from repro.core.reachability import ReachabilityAnalysis
from repro.core.templates import GuardedFormula, Template, TemplatePair
from repro.core.wp import LeapTable, wp_formula
from repro.logic.confrel import (
    LEFT,
    RIGHT,
    CBuf,
    CConcat,
    CHdr,
    CSlice,
    CVar,
    FAnd,
    FEq,
    FImpl,
    FNot,
    FOr,
)
from repro.logic.simplify import simplify_formula
from repro.p4a.syntax import ACCEPT
from repro.protocols import ethernet_ip, mpls
from repro.scenarios import get, mini_names

LEFT_AUT = mpls.scaled_reference(2)
RIGHT_AUT = mpls.scaled_vectorized(2)
_START = TemplatePair(Template("q1", 0), Template("q3", 0))
_REACH = ReachabilityAnalysis(LEFT_AUT, RIGHT_AUT, [_START])
#: Reachable pairs with at least one predecessor, so every draw has a WP.
_TARGET_PAIRS = sorted(pair for pair in _REACH.reachable if _REACH.predecessors(pair))


def _is_normal(formula) -> bool:
    return simplify_formula(formula) == formula


def _atoms(pair: TemplatePair):
    """The bitvector symbols a formula at ``pair`` may mention."""
    atoms = [CHdr(LEFT, name, width) for name, width in sorted(LEFT_AUT.headers.items())]
    atoms += [CHdr(RIGHT, name, width) for name, width in sorted(RIGHT_AUT.headers.items())]
    for side, template in ((LEFT, pair.left), (RIGHT, pair.right)):
        if template.pos:
            atoms.append(CBuf(side, template.pos))
    atoms += [CVar("leap_0", 1), CVar("leap_1", 2)]
    return atoms


@st.composite
def _exprs(draw, atoms, width):
    """A ``width``-bit slice of one symbol, or a concatenation of two."""
    if width >= 2 and draw(st.booleans()):
        split = draw(st.integers(1, width - 1))
        return CConcat(draw(_exprs(atoms, split)), draw(_exprs(atoms, width - split)))
    atom = draw(st.sampled_from([atom for atom in atoms if atom.width >= width]))
    if atom.width == width:
        return atom
    lo = draw(st.integers(0, atom.width - width))
    return CSlice(atom, lo, lo + width - 1)


@st.composite
def _raw_formulas(draw, atoms, depth=2):
    if depth == 0 or draw(st.booleans()):
        width = draw(st.integers(1, 4))
        return FEq(draw(_exprs(atoms, width)), draw(_exprs(atoms, width)))
    kind = draw(st.sampled_from(["not", "and", "or", "impl"]))
    sub = _raw_formulas(atoms, depth - 1)
    if kind == "not":
        return FNot(draw(sub))
    if kind == "impl":
        return FImpl(draw(sub), draw(sub))
    operands = tuple(draw(st.lists(sub, min_size=1, max_size=3)))
    return FAnd(operands) if kind == "and" else FOr(operands)


@st.composite
def _targets(draw):
    """A normal-form target at a reachable pair, and one of its predecessors."""
    pair = draw(st.sampled_from(_TARGET_PAIRS))
    pure = simplify_formula(draw(_raw_formulas(_atoms(pair))))
    source = draw(st.sampled_from(_REACH.predecessors(pair)))
    return GuardedFormula(pair, pure), source


@settings(max_examples=150, deadline=None)
@given(_targets(), st.booleans())
# Both sides extract ``udp`` from the same leap, so substitution turns the
# target into ``leap_0 = leap_0``: only re-normalizing it yields ⊤.
@example(
    (
        GuardedFormula(
            TemplatePair(Template(ACCEPT, 0), Template(ACCEPT, 0)),
            FEq(CHdr(LEFT, "udp", 4), CHdr(RIGHT, "udp", 4)),
        ),
        TemplatePair(Template("q2", 0), Template("q4", 0)),
    ),
    True,
)
def test_wp_of_a_normal_target_is_normal_and_matches_a_fresh_leap(drawn, use_leaps):
    target, source = drawn
    leaps = LeapTable(LEFT_AUT, RIGHT_AUT)
    precondition = wp_formula(
        LEFT_AUT, RIGHT_AUT, target, source, use_leaps=use_leaps, leaps=leaps
    )
    assert _is_normal(precondition.pure)
    assert precondition == wp_formula(LEFT_AUT, RIGHT_AUT, target, source, use_leaps=use_leaps)
    # A second read hits the table and must not change the answer.
    assert precondition == wp_formula(
        LEFT_AUT, RIGHT_AUT, target, source, use_leaps=use_leaps, leaps=leaps
    )


@pytest.mark.parametrize("name", mini_names())
def test_scenario_formulas_are_normal_and_table_backed_wp_is_exact(name):
    left, left_start, right, right_start = get(name).automata()
    result = PreBisimulationChecker(left, right, left_start, right_start).run()
    start = TemplatePair(Template(left_start, 0), Template(right_start, 0))
    reach = ReachabilityAnalysis(left, right, [start])
    for entry in initial_relation(reach):
        assert _is_normal(entry.pure)
    # One table across the whole relation, as in a run.
    leaps = LeapTable(left, right)
    for entry in result.relation:
        assert _is_normal(entry.pure)
        for source in reach.predecessors(entry.pair):
            precondition = wp_formula(left, right, entry, source, leaps=leaps)
            assert _is_normal(precondition.pure)
            assert precondition == wp_formula(left, right, entry, source)


def test_protocol_relations_are_normal():
    sloppy, strict = ethernet_ip.sloppy_parser(), ethernet_ip.strict_parser()
    start = TemplatePair(Template(ethernet_ip.START, 0), Template(ethernet_ip.START, 0))
    reach = ReachabilityAnalysis(sloppy, strict, [start])
    relation = ethernet_ip.store_correspondence(sloppy, strict)
    assert _is_normal(relation)
    for entry in initial_relation(reach, store_relation=relation):
        assert _is_normal(entry.pure)
    extra = ethernet_ip.external_filter_initial_relation(sloppy, strict, reach)
    assert extra
    for entry in extra:
        assert _is_normal(entry.pure)
    for side, aut in ((LEFT, sloppy), (RIGHT, strict)):
        assert _is_normal(ethernet_ip.known_type_formula(side, aut))
