"""Structural fingerprints: stable digests for keys that outlive a process.

Within a check, logic nodes are hash-consed (:mod:`repro.logic.hashcons`), so
every in-memory memo — the entailment outcomes, the AIG lowering caches, the
session's activations — keys on the node itself.  A digest is needed only
where a key is persisted: the sqlite query cache (:mod:`repro.smt.cache`)
stores each answer under the fingerprint of its query.

A fingerprint is the sha256 of a node's kind, its scalar fields and its
children's fingerprints (a Merkle hash).  Fingerprints are plain hex strings,
safe as dictionary keys, file names or sqlite primary keys, and stable across
processes and Python versions (unlike ``hash()``, which is salted per process
for strings).  Each distinct node is hashed once per check: the digests are
kept in the check's memo (:func:`~repro.logic.hashcons.memo`), so a query
that shares premises with earlier ones hashes only its new nodes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Union

from . import confrel, folbv
from .hashcons import memo

#: Bumped whenever the digest format changes, so persistent caches keyed by
#: old fingerprints are invalidated rather than misread.  Version 1 hashed
#: one S-expression of the whole formula; version 2 hashes each node over its
#: children's digests.
FINGERPRINT_VERSION = "2"

FingerprintableBV = Union[folbv.BFormula, folbv.Term]
FingerprintableConfRel = Union[confrel.Formula, confrel.BVExpr]


class FingerprintError(Exception):
    """Raised when an object cannot be serialized for fingerprinting."""


def _digest(kind: str, key: str) -> str:
    payload = f"{kind}{FINGERPRINT_VERSION}:{key}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _folbv_digest(obj: FingerprintableBV, digests: Dict[object, str]) -> str:
    digest = digests.get(obj)
    if digest is not None:
        return digest
    if isinstance(obj, folbv.BVVar):
        key = f"(v {obj.name} {obj.var_width})"
    elif isinstance(obj, folbv.BVConst):
        key = f"(c {obj.value.to_bitstring()})"
    elif isinstance(obj, folbv.BVExtract):
        key = f"(x {_folbv_digest(obj.term, digests)} {obj.lo} {obj.hi})"
    elif isinstance(obj, folbv.BVConcatT):
        key = f"(++ {_folbv_digest(obj.left, digests)} {_folbv_digest(obj.right, digests)})"
    elif isinstance(obj, folbv.BTrue):
        key = "t"
    elif isinstance(obj, folbv.BFalse):
        key = "f"
    elif isinstance(obj, folbv.BEq):
        key = f"(= {_folbv_digest(obj.left, digests)} {_folbv_digest(obj.right, digests)})"
    elif isinstance(obj, folbv.BNot):
        key = f"(! {_folbv_digest(obj.operand, digests)})"
    elif isinstance(obj, folbv.BAnd):
        key = "(& " + " ".join(_folbv_digest(op, digests) for op in obj.operands) + ")"
    elif isinstance(obj, folbv.BOr):
        key = "(| " + " ".join(_folbv_digest(op, digests) for op in obj.operands) + ")"
    elif isinstance(obj, folbv.BImplies):
        key = (
            f"(> {_folbv_digest(obj.premise, digests)} "
            f"{_folbv_digest(obj.conclusion, digests)})"
        )
    else:
        raise FingerprintError(f"cannot fingerprint FOL(BV) object {obj!r}")
    digest = digests[obj] = _digest("bv", key)
    return digest


def _confrel_digest(obj: FingerprintableConfRel, digests: Dict[object, str]) -> str:
    digest = digests.get(obj)
    if digest is not None:
        return digest
    if isinstance(obj, confrel.CLit):
        key = f"(c {obj.value.to_bitstring()})"
    elif isinstance(obj, confrel.CBuf):
        key = f"(b {obj.side} {obj.buf_width})"
    elif isinstance(obj, confrel.CHdr):
        key = f"(h {obj.side} {obj.name} {obj.hdr_width})"
    elif isinstance(obj, confrel.CVar):
        key = f"(v {obj.name} {obj.var_width})"
    elif isinstance(obj, confrel.CSlice):
        key = f"(x {_confrel_digest(obj.expr, digests)} {obj.lo} {obj.hi})"
    elif isinstance(obj, confrel.CConcat):
        key = f"(++ {_confrel_digest(obj.left, digests)} {_confrel_digest(obj.right, digests)})"
    elif isinstance(obj, confrel.FTrue):
        key = "t"
    elif isinstance(obj, confrel.FFalse):
        key = "f"
    elif isinstance(obj, confrel.FEq):
        key = f"(= {_confrel_digest(obj.left, digests)} {_confrel_digest(obj.right, digests)})"
    elif isinstance(obj, confrel.FNot):
        key = f"(! {_confrel_digest(obj.operand, digests)})"
    elif isinstance(obj, confrel.FAnd):
        key = "(& " + " ".join(_confrel_digest(op, digests) for op in obj.operands) + ")"
    elif isinstance(obj, confrel.FOr):
        key = "(| " + " ".join(_confrel_digest(op, digests) for op in obj.operands) + ")"
    elif isinstance(obj, confrel.FImpl):
        key = (
            f"(> {_confrel_digest(obj.premise, digests)} "
            f"{_confrel_digest(obj.conclusion, digests)})"
        )
    else:
        raise FingerprintError(f"cannot fingerprint ConfRel object {obj!r}")
    digest = digests[obj] = _digest("cr", key)
    return digest


def folbv_fingerprint(obj: FingerprintableBV) -> str:
    """Stable structural digest of a FOL(BV) formula or term."""
    return _folbv_digest(obj, memo("folbv_fingerprint"))


def confrel_fingerprint(obj: FingerprintableConfRel) -> str:
    """Stable structural digest of a pure ConfRel formula or expression."""
    return _confrel_digest(obj, memo("confrel_fingerprint"))


def fingerprint(obj: Union[FingerprintableBV, FingerprintableConfRel]) -> str:
    """Fingerprint any supported logic object (dispatching on its layer)."""
    if isinstance(obj, (folbv.BFormula, folbv.Term)):
        return folbv_fingerprint(obj)
    if isinstance(obj, (confrel.Formula, confrel.BVExpr)):
        return confrel_fingerprint(obj)
    raise FingerprintError(f"cannot fingerprint {obj!r}")
