"""An incremental, assumption-based solving session over the internal stack.

Algorithm 1 asks thousands of entailment queries ``⋀R ⊨ ψ`` against a
relation ``R`` that only ever grows.  A fresh :func:`~repro.smt.bitblast.bitblast`
plus a fresh :class:`~repro.smt.sat.solver.CdclSolver` per query re-encodes
the whole premise conjunction every time; this module keeps **one** live CNF
and **one** CDCL solver per checker run instead, lowered through the shared
AIG pipeline (:mod:`repro.smt.aig`):

* every lowered subterm and subformula is memoized by node (nodes are
  hash-consed within a check, :mod:`repro.logic.hashcons`), so structure
  shared between ``ψ`` and the growing ``⋀R`` — or between successive
  queries — becomes one graph node and is Tseitin encoded at most once;
* each premise is guarded behind an **activation literal** ``a`` with the
  clause ``¬a ∨ root(premise)``; the monotone relation is pushed into the CNF
  once and every later query merely assumes the activation literals of the
  premises it needs;
* per-query goals (``¬ψ``, CEGIS verification checks, …) are lowered once per
  distinct formula and their root literal passed as a further assumption — the
  Tseitin gates encode full equivalences, so assuming the root literal asserts
  the formula without polluting the clause database;
* with ``use_aig`` on, the conjunction of every query's activated formulas
  (plus its goal) is rebuilt as a graph AND first: when simplification
  collapses it to constant false — e.g. the goal's cone is structurally
  subsumed by the premises — the query is answered **unsat with zero solver
  work**, which is where most of the AIG speedup on Algorithm 1's workload
  comes from;
* the underlying :class:`CdclSolver` keeps its learned clauses, activities and
  saved phases across queries, so conflicts refuted once stay refuted.

Soundness: graph rewrites are equivalence preserving, gate clauses are
definitions (satisfiable under every assignment of the original variables),
activation clauses only constrain when assumed, and an unsat answer under
assumptions therefore implies the conjunction of the activated formulas is
unsatisfiable.  Sat answers are decoded back to bitvector models and — like
the one-shot solver — validated against the original formula when
``validate_models`` is on.

Variables are keyed by ``(name, width)``: distinct queries may reuse a
canonical variable name (``x0``…) at different widths, and each such pairing
gets its own bit block, so cross-query aliasing is impossible.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import counters
from ..logic import folbv
from ..logic.fingerprint import folbv_fingerprint  # noqa: F401 # perfbench hook "fingerprint"
from ..logic.folbv import BFormula
from ..p4a.bitvec import Bits
from .aig import FALSE_REF, Aig, AigToCnf, FolbvToAig
from .bvsolver import SatResult, SatStatus, complete_model
from .sat.cnf import CnfBuilder
from .sat.solver import CdclSolver


class IncrementalSession:
    """One live CNF + CDCL solver shared by a whole stream of related queries.

    ``activation(formula)`` pushes a formula once (idempotently, keyed by
    the formula) and returns the activation literal that turns it on;
    ``check(assumptions, goal=...)`` decides satisfiability of the activated
    conjunction plus an optional per-query goal formula.
    """

    def __init__(self, validate_models: bool = True, use_aig: bool = True) -> None:
        self._aig = Aig(simplify=use_aig)
        self._lowerer = FolbvToAig(self._aig)
        self._builder = CnfBuilder()
        self._emitter = AigToCnf(self._aig, self._builder)
        self._solver = CdclSolver()
        self._use_aig = use_aig
        # formula -> (activation literal, graph ref, encoding cone)
        self._activations: Dict[BFormula, Tuple[int, int, frozenset]] = {}
        # activation literal -> (graph ref, cone), for check() assumption lists
        self._activation_info: Dict[int, Tuple[int, frozenset]] = {}
        # formula -> (graph ref, root literal, cone) for per-query goals
        self._goal_cache: Dict[BFormula, Tuple[int, int, frozenset]] = {}
        # (name, width) -> SAT variable per bit, once every bit is emitted
        self._bit_vars: Dict[Tuple[str, int], Tuple[int, ...]] = {}
        self._clauses_fed = 0
        self._validate_models = validate_models
        # Assumptions of the last graph-collapsed unsat answer; the CDCL
        # final-conflict set is stale after such a query.
        self._shortcut_assumptions: Optional[List[int]] = None
        #: Number of queries answered by this session.
        self.queries = 0
        #: Queries answered by graph-level collapse, without touching CDCL.
        self.aig_shortcuts = 0

    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._builder.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._builder.clauses)

    def _lower(self, formula: BFormula) -> Tuple[int, int, frozenset]:
        """Lower a formula; returns ``(graph ref, root literal, cone)``."""
        ref = self._lowerer.lower_formula(formula)
        literal = self._emitter.literal(ref)
        return ref, literal, self._emitter.cone(ref)

    def activation(self, formula: BFormula) -> int:
        """Encode ``formula`` (once) behind an activation literal and return it."""
        entry = self._activations.get(formula)
        if entry is None:
            ref, root, cone = self._lower(formula)
            literal = self._builder.new_var()
            self._builder.add_clause([-literal, root])
            entry = (literal, ref, cone)
            self._activations[formula] = entry
            self._activation_info[literal] = (ref, cone)
        return entry[0]

    def _sync_solver(self) -> None:
        """Feed clauses produced since the last query into the live solver."""
        builder = self._builder
        self._solver.ensure_num_vars(builder.num_vars)
        clauses = builder.clauses
        for index in range(self._clauses_fed, len(clauses)):
            self._solver.add_clause(clauses[index])
        self._clauses_fed = len(clauses)

    # ------------------------------------------------------------------

    def check(
        self,
        assumptions: Sequence[int] = (),
        goal: Optional[BFormula] = None,
        variables: Optional[Mapping[str, int]] = None,
        validate_formula: Optional[BFormula] = None,
        max_conflicts: Optional[int] = None,
    ) -> SatResult:
        """Satisfiability of the activated conjunction (plus ``goal``).

        ``assumptions`` are activation literals from :meth:`activation`;
        ``goal`` is an extra formula asserted for this query only.  A sat
        answer decodes a model over ``variables`` (name → width; defaults to
        the free variables of ``goal`` and ``validate_formula``) and, when
        model validation is on, checks it against ``validate_formula``.
        """
        start = time.perf_counter()
        assumed = list(assumptions)
        decision_vars = set()
        refs: List[int] = []
        for literal in assumptions:
            ref, cone = self._activation_info[literal]
            decision_vars |= cone
            refs.append(ref)
        if goal is not None:
            entry = self._goal_cache.get(goal)
            if entry is None:
                entry = self._goal_cache[goal] = self._lower(goal)
            goal_ref, goal_literal, goal_cone = entry
            assumed.append(goal_literal)
            decision_vars |= goal_cone
            refs.append(goal_ref)
        if self._use_aig and refs:
            # Graph-level short-circuit: rebuild the query conjunction as one
            # AND node; when rewriting collapses it to false the query is
            # unsat with no CDCL work at all.  (A collapse to true still runs
            # the solver, because sat answers need a model.)
            if self._aig.and_(refs) == FALSE_REF:
                self.aig_shortcuts += 1
                counters.add("aig.shortcuts")
                self._shortcut_assumptions = assumed
                elapsed = time.perf_counter() - start
                self.queries += 1
                counters.record_query(elapsed, self.num_clauses)
                return SatResult(
                    SatStatus.UNSAT, None, elapsed, self.num_clauses, self.num_vars
                )
        self._shortcut_assumptions = None
        self._sync_solver()
        sat, sat_values = self._solver.solve_values(
            max_conflicts=max_conflicts,
            assumptions=assumed,
            decision_vars=decision_vars,
        )
        elapsed = time.perf_counter() - start
        num_clauses = self.num_clauses
        num_vars = self.num_vars
        if sat is None:
            result = SatResult(SatStatus.UNKNOWN, None, elapsed, num_clauses, num_vars)
        elif sat:
            if variables is None:
                variables = {}
                for formula in (goal, validate_formula):
                    if formula is not None:
                        variables.update(folbv.free_variables(formula))
            model = self._decode_model(sat_values, variables)
            if self._validate_models and validate_formula is not None:
                if not folbv.eval_formula(
                    validate_formula, complete_model(validate_formula, model)
                ):
                    raise RuntimeError(
                        "incremental session returned a model that does not "
                        "satisfy the formula"
                    )
            result = SatResult(SatStatus.SAT, model, elapsed, num_clauses, num_vars)
        else:
            result = SatResult(SatStatus.UNSAT, None, elapsed, num_clauses, num_vars)
        self.queries += 1
        counters.record_query(elapsed, num_clauses)
        return result

    def _decode_model(
        self, sat_values: Sequence[int], variables: Mapping[str, int]
    ) -> Dict[str, Bits]:
        values: Dict[str, Bits] = {}
        for name, width in variables.items():
            bit_vars = self._bit_vars.get((name, width))
            if bit_vars is None:
                bit_vars = self._variable_bit_vars(name, width)
            # Variable 0 (a bit never emitted) reads as 0 in ``sat_values``.
            values[name] = Bits(
                "".join(["1" if sat_values[var] == 1 else "0" for var in bit_vars])
            )
        return values

    def _variable_bit_vars(self, name: str, width: int) -> Tuple[int, ...]:
        """The SAT variable of each bit of ``name``, 0 for bits not emitted.

        Bits whose whole cone folded away were never emitted; they are
        unconstrained, so zero is a valid choice (the validation formula
        re-check backstops this).  The tuple is cached once every bit has a
        SAT variable, since an emitted bit keeps its variable for good.
        """
        refs = self._lowerer._variable_bits.get((name, width))
        if refs is None:
            return (0,) * width
        var_of = self._emitter.var_of
        bit_vars = tuple(var_of(ref) or 0 for ref in refs)
        if 0 not in bit_vars:
            self._bit_vars[(name, width)] = bit_vars
        return bit_vars

    # ------------------------------------------------------------------

    def failed_assumptions(self) -> List[int]:
        """After an unsat :meth:`check`: the responsible assumption subset.

        For a graph-collapsed answer there is no CDCL final conflict; the
        full assumption list of that query is returned instead.
        """
        if self._shortcut_assumptions is not None:
            return list(self._shortcut_assumptions)
        return list(self._solver.last_conflict)
