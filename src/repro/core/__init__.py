"""The Leapfrog core: symbolic equivalence checking with leaps."""

from .algorithm import (
    CheckerConfig,
    CheckerError,
    CheckerStatistics,
    PreBisimResult,
    PreBisimulationChecker,
)
from .certificate import Certificate, CertificateCheckResult, verify_certificate
from .counterexample import Counterexample
from .engine import (
    CaseJob,
    EngineError,
    EngineStatistics,
    EquivalenceEngine,
    EquivalenceJob,
    JobResult,
)
from .entailment import EntailmentChecker, EntailmentOutcome
from .equivalence import (
    EquivalenceResult,
    check_initial_store_independence,
    check_language_equivalence,
    check_store_relation,
)
from .init_rels import initial_relation
from .naive import (
    ExplicitCheckResult,
    exhaustive_store_equivalence,
    explicit_bisimulation_check,
)
from .reachability import ReachabilityAnalysis
from .templates import GuardedFormula, Template, TemplatePair, guard, leap_size
from .wp import wp_formula, wp_set

__all__ = [
    "CaseJob",
    "Certificate",
    "CertificateCheckResult",
    "CheckerConfig",
    "CheckerError",
    "CheckerStatistics",
    "Counterexample",
    "EngineError",
    "EngineStatistics",
    "EntailmentChecker",
    "EntailmentOutcome",
    "EquivalenceEngine",
    "EquivalenceJob",
    "EquivalenceResult",
    "JobResult",
    "ExplicitCheckResult",
    "GuardedFormula",
    "PreBisimResult",
    "PreBisimulationChecker",
    "ReachabilityAnalysis",
    "Template",
    "TemplatePair",
    "check_initial_store_independence",
    "check_language_equivalence",
    "check_store_relation",
    "exhaustive_store_equivalence",
    "explicit_bisimulation_check",
    "guard",
    "initial_relation",
    "leap_size",
    "verify_certificate",
    "wp_formula",
    "wp_set",
]
