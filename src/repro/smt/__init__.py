"""SMT substrate: AIG lowering, bit-blasting, SAT solving, CEGIS and backends."""

from .aig import Aig, AigError, AigToCnf, FolbvToAig, aig_to_cnf
from .backend import (
    BackendError,
    ExternalBackend,
    InternalBackend,
    OneShotSession,
    SolverBackend,
    available_external_solvers,
    backend_for_solver,
)
from .bitblast import Bitblaster, BitblastResult, bitblast
from .bvsolver import InternalBVSolver, SatResult, SatStatus
from .cache import CachingBackend, PersistentQueryCache, make_backend
from .cegis import ExistsForallResult, solve_exists_forall, substitute

__all__ = [
    "Aig",
    "AigError",
    "AigToCnf",
    "FolbvToAig",
    "aig_to_cnf",
    "BackendError",
    "Bitblaster",
    "BitblastResult",
    "CachingBackend",
    "ExistsForallResult",
    "ExternalBackend",
    "InternalBackend",
    "InternalBVSolver",
    "OneShotSession",
    "PersistentQueryCache",
    "SatResult",
    "SatStatus",
    "SolverBackend",
    "available_external_solvers",
    "backend_for_solver",
    "bitblast",
    "make_backend",
    "solve_exists_forall",
    "substitute",
]
