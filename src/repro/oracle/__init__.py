"""Differential concrete-oracle subsystem.

Verification verdicts are only as trustworthy as the pipeline that produces
them: semantics → weakest preconditions → bit-blasting → CDCL.  This package
stress-tests the whole chain against the one component simple enough to trust
by inspection — the concrete interpreter of :mod:`repro.p4a.semantics`:

* :mod:`repro.oracle.sampler` — a seedable, structure-aware random
  packet/store generator (biased toward transition boundaries and
  header-field edge values) that replaces exhaustive ``language_sample``
  enumeration as the way to sample parser behaviours at scale;
* :mod:`repro.oracle.differential` — cross-checks a pair of parsers
  concretely on sampled packets and reports every disagreement;
* :mod:`repro.oracle.minimize` — confirms an extracted counterexample by
  concrete replay and greedily minimizes it (leap drops, then bit drops);
* :mod:`repro.oracle.suite` — the differential fuzz suite over all parser-gen
  scenarios, with divergence telemetry and reproducible JSON reports.
"""

from .differential import (
    Divergence,
    OracleDivergenceError,
    OracleError,
    OracleReport,
    cross_check,
)
from .minimize import MinimizationResult, confirm_counterexample, minimize_counterexample
from .sampler import PacketSampler, sample_store, seeded_language_sample
from .suite import ScenarioOracleRow, render_suite, run_differential_suite, write_reports

__all__ = [
    "Divergence",
    "MinimizationResult",
    "OracleDivergenceError",
    "OracleError",
    "OracleReport",
    "PacketSampler",
    "ScenarioOracleRow",
    "confirm_counterexample",
    "cross_check",
    "minimize_counterexample",
    "render_suite",
    "run_differential_suite",
    "sample_store",
    "seeded_language_sample",
    "write_reports",
]
