"""Configuration-relation logic and the lowering chain to FOL(BV)."""

from . import confrel, fingerprint, folbv, folconf, hashcons, simplify, smtlib
from .compile import EntailmentQuery, compile_entailment, compile_validity, lower_formula
from .fingerprint import confrel_fingerprint, folbv_fingerprint

__all__ = [
    "EntailmentQuery",
    "compile_entailment",
    "compile_validity",
    "confrel",
    "confrel_fingerprint",
    "fingerprint",
    "folbv",
    "folbv_fingerprint",
    "folconf",
    "hashcons",
    "lower_formula",
    "simplify",
    "smtlib",
]
