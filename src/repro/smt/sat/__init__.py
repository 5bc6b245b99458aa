"""SAT solving: CNF representation, CDCL, DPLL and brute-force reference."""

from .brute import brute_force_solve, check_model
from .cnf import Cnf, CnfBuilder
from .dpll import dpll_solve
from .solver import CdclSolver, SolverStats, cdcl_solve

__all__ = [
    "CdclSolver",
    "Cnf",
    "CnfBuilder",
    "SolverStats",
    "brute_force_solve",
    "cdcl_solve",
    "check_model",
    "dpll_solve",
]
