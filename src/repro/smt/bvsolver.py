"""The internal QF_BV decision procedure.

``check_sat`` decides satisfiability of a FOL(BV) formula by bit-blasting it to
CNF (:mod:`repro.smt.bitblast`) and running the CDCL SAT solver.  Models are
decoded back to bitvector values and validated against the original formula,
so a buggy solver or encoder cannot silently return a bogus "sat" answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..logic import folbv
from ..logic.folbv import BFormula
from ..p4a.bitvec import Bits
from .bitblast import Bitblaster
from .sat.dpll import dpll_solve
from .sat.solver import CdclSolver


class SatStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatResult:
    """Outcome of a satisfiability check."""

    status: SatStatus
    model: Optional[Dict[str, Bits]] = None
    elapsed: float = 0.0
    num_clauses: int = 0
    num_variables: int = 0
    #: Why an UNKNOWN is unknown: ``"timeout"``, ``"cancelled"``,
    #: ``"parse-failure"`` or ``"error"`` (``None`` for definitive answers).
    reason: Optional[str] = None
    #: Free-form diagnostics (e.g. an external solver's stderr).
    detail: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT


@dataclass
class SolverStatistics:
    """Aggregate statistics over all queries issued through one solver object."""

    queries: int = 0
    sat_queries: int = 0
    unsat_queries: int = 0
    unknown_queries: int = 0
    total_time: float = 0.0
    max_time: float = 0.0
    total_clauses: int = 0
    query_times: List[float] = field(default_factory=list)
    #: AIG pipeline effectiveness (cumulative over all queries): graph nodes
    #: built, CNF clauses the graph rewrites avoided (an estimate), and
    #: queries answered by graph-level collapse without any CDCL work.
    aig_nodes: int = 0
    aig_clauses_saved: int = 0
    aig_shortcuts: int = 0
    #: External-lane failure modes (see ``ExternalBackend``): queries killed
    #: at the deadline vs. queries whose output the SMT-LIB parser rejected.
    external_timeouts: int = 0
    parse_failures: int = 0
    #: Literals removed from learned clauses by conflict-clause
    #: minimization (see ``repro.smt.sat.solver``).
    minimized_literals: int = 0

    def record(self, result: SatResult) -> None:
        self.queries += 1
        if result.status is SatStatus.SAT:
            self.sat_queries += 1
        elif result.status is SatStatus.UNSAT:
            self.unsat_queries += 1
        else:
            self.unknown_queries += 1
        self.total_time += result.elapsed
        self.max_time = max(self.max_time, result.elapsed)
        self.total_clauses += result.num_clauses
        self.query_times.append(result.elapsed)

    def percentile_time(self, fraction: float) -> float:
        """Time below which ``fraction`` of the queries completed (e.g. 0.99)."""
        if not self.query_times:
            return 0.0
        ordered = sorted(self.query_times)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]


class InternalBVSolver:
    """Bit-blasting QF_BV solver with model validation and statistics."""

    def __init__(
        self,
        engine: str = "cdcl",
        validate_models: bool = True,
        use_aig: bool = True,
    ) -> None:
        if engine not in ("cdcl", "dpll"):
            raise ValueError(f"unknown SAT engine {engine!r}")
        self._engine = engine
        self._validate_models = validate_models
        self.use_aig = use_aig
        self.statistics = SolverStatistics()

    def check_sat(
        self,
        formula: BFormula,
        max_conflicts: Optional[int] = None,
        stop=None,
    ) -> SatResult:
        start = time.perf_counter()
        blaster = Bitblaster(use_aig=self.use_aig)
        for name, width in folbv.free_variables(formula).items():
            blaster.variable_bits(name, width)
        blasted = blaster.result(blaster.assert_formula(formula))
        self.statistics.aig_nodes += blaster.aig.num_nodes
        self.statistics.aig_clauses_saved += blaster.aig.clauses_saved
        if self._engine == "dpll":
            sat, sat_model = dpll_solve(blasted.cnf)
        else:
            sat_solver = CdclSolver(blasted.cnf)
            sat, sat_model = sat_solver.solve(max_conflicts=max_conflicts, stop=stop)
            self.statistics.minimized_literals += sat_solver.stats.minimized_literals
        elapsed = time.perf_counter() - start
        if sat is None:
            reason = "cancelled" if stop is not None and stop.is_set() else None
            result = SatResult(SatStatus.UNKNOWN, None, elapsed, len(blasted.cnf.clauses),
                               blasted.cnf.num_vars, reason=reason)
        elif sat:
            model = blasted.decode_model(sat_model)
            if self._validate_models and not folbv.eval_formula(formula, complete_model(formula, model)):
                raise RuntimeError(
                    "internal solver returned a model that does not satisfy the formula"
                )
            result = SatResult(SatStatus.SAT, model, elapsed, len(blasted.cnf.clauses),
                               blasted.cnf.num_vars)
        else:
            result = SatResult(SatStatus.UNSAT, None, elapsed, len(blasted.cnf.clauses),
                               blasted.cnf.num_vars)
        self.statistics.record(result)
        return result

    def check_valid(self, formula: BFormula) -> SatResult:
        """Validity of ``formula`` = unsatisfiability of its negation.

        The returned status refers to the *negation* query: ``UNSAT`` means the
        formula is valid, and a ``SAT`` model is a counterexample to validity.
        """
        return self.check_sat(folbv.b_not(formula))

    def incremental_session(self):
        """A fresh incremental assumption-based session over this solver.

        Only the CDCL engine supports incremental solving; the DPLL engine
        returns ``None`` and callers fall back to one-shot queries.  The
        session records its query results into this solver's statistics, so
        reporting sees one ledger whichever path answered a query.
        """
        if self._engine != "cdcl":
            return None
        from .incremental import IncrementalSession

        return IncrementalSession(
            validate_models=self._validate_models,
            statistics=self.statistics,
            use_aig=self.use_aig,
        )


def complete_model(formula: BFormula, model: Dict[str, Bits]) -> Dict[str, Bits]:
    """Fill in zero values for variables the SAT model does not mention."""
    completed = dict(model)
    for name, width in folbv.free_variables(formula).items():
        if name not in completed:
            completed[name] = Bits.zeros(width)
    return completed
