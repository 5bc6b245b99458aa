"""Symbolic execution and weakest preconditions over template-guarded formulas.

This module implements the WP operator of Sections 4.3 and 5.2.  Given a
template-guarded formula φ = (t1, t2 ⟹ ψ) and a *source* template pair, it
computes a formula that holds at a source configuration pair exactly when all
configurations reached after consuming the next ``k`` packet bits (``k`` = 1 in
bit-by-bit mode, ``k`` = the leap size otherwise) that land in (t1, t2) satisfy
ψ.  The next packet bits are represented by a fresh symbolic variable shared
between both sides — both automata read the same wire.  It is named
``leap_k`` for the smallest ``k`` not free in ψ, so the same step always gets
the same name (the entailment checker canonicalizes names, so verdicts never
depend on them).

The computation has two parts:

* :func:`symbolic_leap` symbolically executes one side from a source template:
  either the leap only fills the buffer, or it completes the operation block,
  in which case the block is executed symbolically (extracts slice the input,
  assignments evaluate expressions over the symbolic store) and the transition
  condition for each possible target state is produced.
* :func:`wp_formula` combines the two sides: for each pair of outcomes landing
  in the target templates it substitutes the post-state expressions into ψ and
  guards the result with both path conditions.

A :class:`LeapTable` keeps each side's leaps for the length of one checker run:
Algorithm 1 takes WPs from the same few hundred source templates thousands of
times, and a leap depends only on (side, source template, leap size, leap
variable).

Every formula here is built through the smart constructors of
:mod:`repro.logic.simplify`, so it is in normal form when built and no caller
re-simplifies it; substitution alone re-normalizes, because replacing a
header by its post-state value can expose new rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.confrel import (
    LEFT,
    RIGHT,
    BVExpr,
    CBuf,
    CConcat,
    CHdr,
    CLit,
    CSlice,
    CVar,
    Formula,
    FTrue,
    formula_variables,
    map_formula_exprs,
)
from ..logic.simplify import (
    mk_and,
    mk_concat,
    mk_eq,
    mk_impl,
    mk_not,
    mk_or,
    mk_slice,
    simplify_formula,
)
from ..p4a import syntax as p4a_syntax
from ..p4a.bitvec import Bits
from ..p4a.syntax import (
    Assign,
    BVLit,
    Concat,
    ExactPattern,
    Expr,
    Extract,
    Goto,
    HeaderRef,
    P4Automaton,
    Select,
    Slice,
    WildcardPattern,
)
from .templates import GuardedFormula, Template, TemplatePair, leap_size


class WpError(Exception):
    """Raised on internal errors during weakest-precondition computation."""


# ---------------------------------------------------------------------------
# Symbolic environments
# ---------------------------------------------------------------------------


def initial_symbolic_store(aut: P4Automaton, side: str) -> Dict[str, BVExpr]:
    """The symbolic store where every header maps to its pre-state value."""
    return {name: CHdr(side, name, size) for name, size in aut.headers.items()}


def translate_expr(expr: Expr, env: Dict[str, BVExpr]) -> BVExpr:
    """Translate a P4A expression into a ConfRel expression under ``env``.

    Slices follow the clamped semantics of Definition 3.1 so the translation
    agrees with concrete evaluation even for out-of-range indices.
    """
    if isinstance(expr, HeaderRef):
        try:
            return env[expr.name]
        except KeyError:
            raise WpError(f"header {expr.name!r} missing from symbolic store") from None
    if isinstance(expr, BVLit):
        return CLit(expr.value)
    if isinstance(expr, Slice):
        inner = translate_expr(expr.expr, env)
        if inner.width == 0:
            return CLit(Bits(""))
        lo = min(expr.lo, inner.width - 1)
        hi = min(expr.hi, inner.width - 1)
        if lo > hi:
            return CLit(Bits(""))
        return mk_slice(inner, lo, hi)
    if isinstance(expr, Concat):
        return mk_concat(translate_expr(expr.left, env), translate_expr(expr.right, env))
    raise WpError(f"unknown expression {expr!r}")


def exec_ops_symbolic(
    aut: P4Automaton, state: str, env: Dict[str, BVExpr], data: BVExpr
) -> Dict[str, BVExpr]:
    """Symbolically execute the operation block of ``state`` on input ``data``."""
    expected = aut.op_size(state)
    if data.width != expected:
        raise WpError(
            f"state {state!r} consumes {expected} bits but was given {data.width}"
        )
    current = dict(env)
    position = 0
    for op in aut.state(state).ops:
        if isinstance(op, Extract):
            size = aut.header_size(op.header)
            current[op.header] = mk_slice(data, position, position + size - 1)
            position += size
        elif isinstance(op, Assign):
            value = translate_expr(op.expr, current)
            if value.width != aut.header_size(op.header):
                raise WpError(
                    f"assignment to {op.header!r} has width {value.width}, "
                    f"expected {aut.header_size(op.header)}"
                )
            current[op.header] = value
        else:
            raise WpError(f"unknown operation {op!r}")
    return current


def transition_conditions(
    aut: P4Automaton, state: str, env: Dict[str, BVExpr]
) -> Dict[str, Formula]:
    """The condition under which ``state``'s transition goes to each target.

    Implements the first-match semantics of ``select``: the condition for case
    ``i`` is "no earlier case matches and case ``i`` matches"; the fall-through
    to ``reject`` is "no case matches".  Conditions for the same target are
    disjoined.
    """
    transition = aut.state(state).transition
    conditions: Dict[str, List[Formula]] = {}

    def add(target: str, condition: Formula) -> None:
        conditions.setdefault(target, []).append(condition)

    if isinstance(transition, Goto):
        add(transition.target, FTrue())
    elif isinstance(transition, Select):
        values = [translate_expr(expr, env) for expr in transition.exprs]
        earlier_mismatch: List[Formula] = []
        for case in transition.cases:
            matches = []
            for pattern, value in zip(case.patterns, values):
                if isinstance(pattern, WildcardPattern):
                    continue
                if isinstance(pattern, ExactPattern):
                    matches.append(mk_eq(value, CLit(pattern.value)))
                else:
                    raise WpError(f"unknown pattern {pattern!r}")
            case_match = mk_and(matches)
            add(case.target, mk_and(list(earlier_mismatch) + [case_match]))
            earlier_mismatch.append(mk_not(case_match))
        # Fall-through: no case matched.
        add(p4a_syntax.REJECT, mk_and(earlier_mismatch))
    else:
        raise WpError(f"unknown transition {transition!r}")
    return {target: mk_or(parts) for target, parts in conditions.items()}


# ---------------------------------------------------------------------------
# Leap outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeapOutcome:
    """One possible result of consuming ``k`` bits from a source template.

    ``condition`` is a pure formula over the *source* configuration symbols
    (headers, buffer) and the leap variable; ``headers`` and ``buffer`` give
    the post-state values as expressions over the same symbols.
    """

    target: Template
    condition: Formula
    headers: Dict[str, BVExpr]
    buffer: BVExpr


def symbolic_leap(
    aut: P4Automaton, side: str, source: Template, leap: int, leap_var: CVar
) -> List[LeapOutcome]:
    """All outcomes of consuming exactly ``leap`` bits from ``source``."""
    if leap != leap_var.width:
        raise WpError(f"leap variable has width {leap_var.width}, expected {leap}")
    env = initial_symbolic_store(aut, side)
    if source.is_final():
        # One or more steps from accept/reject always lands in reject with an
        # empty buffer and an unchanged store.
        return [LeapOutcome(Template(p4a_syntax.REJECT, 0), FTrue(), env, CLit(Bits("")))]
    needed = aut.op_size(source.state)
    buffer = CBuf(side, source.pos) if source.pos else CLit(Bits(""))
    data = mk_concat(buffer, leap_var)
    if source.pos + leap < needed:
        # The leap only fills the buffer.
        return [
            LeapOutcome(Template(source.state, source.pos + leap), FTrue(), env, data)
        ]
    if source.pos + leap > needed:
        raise WpError(
            f"leap of {leap} bits overshoots state {source.state!r} "
            f"({source.pos} + {leap} > {needed})"
        )
    # The leap completes the operation block: execute it and branch.
    post_env = exec_ops_symbolic(aut, source.state, env, data)
    outcomes = []
    for target, condition in transition_conditions(aut, source.state, post_env).items():
        outcomes.append(
            LeapOutcome(Template(target, 0), condition, post_env, CLit(Bits("")))
        )
    return outcomes


class LeapTable:
    """The symbolic leaps of one checker run, each computed once.

    Keyed by (side, source template, leap size, leap variable name).  A table
    belongs to one pair of automata and lives as long as the run that owns
    it, so what it holds is freed with the run.  Every caller gets the same
    outcome objects, so callers only read them.
    """

    def __init__(self, left_aut: P4Automaton, right_aut: P4Automaton) -> None:
        self._automata = {LEFT: left_aut, RIGHT: right_aut}
        self._outcomes: Dict[Tuple[str, Template, int, str], List[LeapOutcome]] = {}

    def outcomes(
        self, side: str, source: Template, leap: int, leap_var: CVar
    ) -> List[LeapOutcome]:
        """:func:`symbolic_leap` of ``side``'s automaton, computed on first use."""
        key = (side, source, leap, leap_var.name)
        outcomes = self._outcomes.get(key)
        if outcomes is None:
            outcomes = symbolic_leap(self._automata[side], side, source, leap, leap_var)
            self._outcomes[key] = outcomes
        return outcomes


# ---------------------------------------------------------------------------
# Substitution of post-state expressions into the target formula
# ---------------------------------------------------------------------------


def substitute_configuration(
    formula: Formula,
    left_outcome: LeapOutcome,
    right_outcome: LeapOutcome,
) -> Formula:
    """Replace each side's header and buffer references by post-state values."""

    def substitute_expr(expr: BVExpr) -> BVExpr:
        if isinstance(expr, CHdr):
            outcome = left_outcome if expr.side == LEFT else right_outcome
            value = outcome.headers.get(expr.name)
            if value is None:
                raise WpError(f"header {expr.name!r} missing from {expr.side} outcome")
            if value.width != expr.width:
                raise WpError(
                    f"substitution for {expr} has width {value.width}, expected {expr.width}"
                )
            return value
        if isinstance(expr, CBuf):
            outcome = left_outcome if expr.side == LEFT else right_outcome
            if outcome.buffer.width != expr.width:
                raise WpError(
                    f"substitution for {expr} has width {outcome.buffer.width}, "
                    f"expected {expr.width}"
                )
            return outcome.buffer
        if isinstance(expr, CSlice):
            return mk_slice(substitute_expr(expr.expr), expr.lo, expr.hi)
        if isinstance(expr, CConcat):
            return mk_concat(substitute_expr(expr.left), substitute_expr(expr.right))
        return expr

    return simplify_formula(map_formula_exprs(formula, substitute_expr))


# ---------------------------------------------------------------------------
# Weakest precondition
# ---------------------------------------------------------------------------


def leap_variable_name(formula: Formula) -> str:
    """``leap_k`` for the smallest ``k`` whose name is not free in ``formula``."""
    taken = formula_variables(formula)
    k = 0
    while f"leap_{k}" in taken:
        k += 1
    return f"leap_{k}"


def leap_variable(
    left_aut: P4Automaton,
    right_aut: P4Automaton,
    target: GuardedFormula,
    source_pair: TemplatePair,
    use_leaps: bool = True,
) -> CVar:
    """The packet-bits variable :func:`wp_formula` reads on this step."""
    leap = leap_size(left_aut, right_aut, source_pair) if use_leaps else 1
    return CVar(leap_variable_name(target.pure), leap)


def wp_formula(
    left_aut: P4Automaton,
    right_aut: P4Automaton,
    target: GuardedFormula,
    source_pair: TemplatePair,
    use_leaps: bool = True,
    leaps: Optional[LeapTable] = None,
) -> GuardedFormula:
    """The weakest precondition of ``target`` along a step from ``source_pair``.

    The returned guarded formula holds at a configuration pair matching
    ``source_pair`` exactly when every continuation by the leap's packet bits
    that lands in ``target``'s template pair satisfies ``target``'s pure part
    (Lemma 4.9 / Theorem 5.7).  If no continuation can land in the target
    templates, the result is trivially true.  ``leaps``, the run's table for
    the same two automata, saves re-executing leaps it has seen.
    """
    leap_var = leap_variable(left_aut, right_aut, target, source_pair, use_leaps)
    leap = leap_var.var_width
    if leaps is None:
        leaps = LeapTable(left_aut, right_aut)
    left_outcomes = leaps.outcomes(LEFT, source_pair.left, leap, leap_var)
    right_outcomes = leaps.outcomes(RIGHT, source_pair.right, leap, leap_var)
    conjuncts: List[Formula] = []
    for left_outcome in left_outcomes:
        if left_outcome.target != target.left:
            continue
        for right_outcome in right_outcomes:
            if right_outcome.target != target.right:
                continue
            substituted = substitute_configuration(target.pure, left_outcome, right_outcome)
            condition = mk_and([left_outcome.condition, right_outcome.condition])
            conjuncts.append(mk_impl(condition, substituted))
    return GuardedFormula(source_pair, mk_and(conjuncts))


def wp_set(
    left_aut: P4Automaton,
    right_aut: P4Automaton,
    target: GuardedFormula,
    source_pairs: Sequence[TemplatePair],
    use_leaps: bool = True,
) -> List[GuardedFormula]:
    """WP(φ): one guarded formula per source pair, dropping trivially true ones."""
    leaps = LeapTable(left_aut, right_aut)
    results = []
    for source_pair in source_pairs:
        formula = wp_formula(
            left_aut, right_aut, target, source_pair, use_leaps=use_leaps, leaps=leaps
        )
        if not isinstance(formula.pure, FTrue):
            results.append(formula)
    return results
