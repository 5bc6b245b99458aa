"""Leapfrog reproduction: certified equivalence checking for protocol parsers.

The package is organised as follows:

* :mod:`repro.p4a` — the P4 automaton model (syntax, typing, semantics,
  builders, surface syntax).
* :mod:`repro.logic` — the configuration-relation logic and the lowering chain
  to FOL(BV).
* :mod:`repro.smt` — the solver substrate: bit-blasting, CDCL SAT, CEGIS, and
  pluggable internal/external backends.
* :mod:`repro.core` — the symbolic pre-bisimulation algorithm with leaps and
  reachability pruning, certificates, counterexamples and the
  explicit-state baseline.
* :mod:`repro.protocols` — the case-study parsers (MPLS, IP/TCP/UDP, VLAN,
  IP options, Ethernet/IP, and small examples).
* :mod:`repro.parsergen` — the parse-graph IR, hardware parser tables, the
  compiler between them and the four benchmark scenarios used for the
  applicability and translation-validation studies.
* :mod:`repro.reporting` — measurement and table rendering for the benchmark
  harness.

Quickstart::

    from repro import check_language_equivalence
    from repro.protocols import mpls

    result = check_language_equivalence(
        mpls.reference_parser(), mpls.REFERENCE_START,
        mpls.vectorized_parser(), mpls.VECTORIZED_START,
    )
    assert result.proved
"""

from .core import (
    CheckerConfig,
    EquivalenceResult,
    check_initial_store_independence,
    check_language_equivalence,
    check_store_relation,
    verify_certificate,
)
from .p4a import AutomatonBuilder, Bits, P4Automaton, parse_automaton

__version__ = "1.0.0"

__all__ = [
    "AutomatonBuilder",
    "Bits",
    "CheckerConfig",
    "EquivalenceResult",
    "P4Automaton",
    "check_initial_store_independence",
    "check_language_equivalence",
    "check_store_relation",
    "parse_automaton",
    "verify_certificate",
    "__version__",
]
