"""SMT substrate: AIG lowering, bit-blasting, SAT solving, CEGIS and backends."""

from .aig import Aig, AigError, AigToCnf, FolbvToAig, aig_to_cnf
from .backend import (
    BackendError,
    BackendMiddleware,
    ExternalBackend,
    InternalBackend,
    PortfolioBackend,
    SolverBackend,
    SolverCapabilities,
    available_external_solvers,
    backend_for_solver,
)
from .bitblast import Bitblaster, BitblastResult, bitblast
from .bvsolver import InternalBVSolver, SatResult, SatStatus, SolverStatistics
from .cache import CacheStatistics, CachingBackend, PersistentQueryCache, make_backend
from .cegis import ExistsForallResult, solve_exists_forall, substitute

__all__ = [
    "Aig",
    "AigError",
    "AigToCnf",
    "FolbvToAig",
    "aig_to_cnf",
    "BackendError",
    "BackendMiddleware",
    "Bitblaster",
    "BitblastResult",
    "CacheStatistics",
    "CachingBackend",
    "ExistsForallResult",
    "ExternalBackend",
    "InternalBackend",
    "InternalBVSolver",
    "PersistentQueryCache",
    "PortfolioBackend",
    "SatResult",
    "SatStatus",
    "SolverBackend",
    "SolverCapabilities",
    "SolverStatistics",
    "available_external_solvers",
    "backend_for_solver",
    "bitblast",
    "make_backend",
    "solve_exists_forall",
    "substitute",
]
