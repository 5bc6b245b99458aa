"""The internal QF_BV decision procedure.

``check_sat`` decides satisfiability of a FOL(BV) formula by bit-blasting it to
CNF (:mod:`repro.smt.bitblast`) and running the CDCL SAT solver.  Models are
decoded back to bitvector values and validated against the original formula,
so a buggy solver or encoder cannot silently return a bogus "sat" answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from .. import counters
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


class InternalBVSolver:
    """Bit-blasting QF_BV solver with model validation.

    Each query is counted in the current check's ledger (:mod:`repro.counters`).
    """

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
        if self._engine == "dpll":
            sat, sat_model = dpll_solve(blasted.cnf)
        else:
            sat_solver = CdclSolver(blasted.cnf)
            sat, sat_model = sat_solver.solve(max_conflicts=max_conflicts, stop=stop)
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
        counters.record_query(result.elapsed, result.num_clauses)
        return result

    def check_valid(self, formula: BFormula) -> SatResult:
        """Validity of ``formula`` = unsatisfiability of its negation.

        The returned status refers to the *negation* query: ``UNSAT`` means the
        formula is valid, and a ``SAT`` model is a counterexample to validity.
        """
        return self.check_sat(folbv.b_not(formula))

    def incremental_session(self):
        """A fresh solving session over this solver.

        The CDCL engine keeps one live CNF across checks
        (:class:`~repro.smt.incremental.IncrementalSession`); the DPLL engine
        answers each check with one :meth:`check_sat` call
        (:class:`~repro.smt.backend.OneShotSession`).
        """
        if self._engine != "cdcl":
            from .backend import OneShotSession

            return OneShotSession(self)
        from .incremental import IncrementalSession

        return IncrementalSession(
            validate_models=self._validate_models,
            use_aig=self.use_aig,
        )


def complete_model(formula: BFormula, model: Dict[str, Bits]) -> Dict[str, Bits]:
    """Fill in zero values for variables the SAT model does not mention."""
    completed = dict(model)
    for name, width in folbv.free_variables(formula).items():
        if name not in completed:
            completed[name] = Bits.zeros(width)
    return completed
