"""Structural fingerprints for logic objects.

The entailment queries issued by the pre-bisimulation inner loop are highly
repetitive: the same goal is re-checked as the relation grows, the done step
re-proves conjuncts already discharged during the search, and different case
studies share sub-parsers and therefore whole sub-queries.  Recognising a
repeated query syntactically is enough to skip the bit-blasting and SAT work
entirely, because the lowering pipeline is deterministic and the entailment
checker canonicalizes variable names before compiling.

A fingerprint is a stable, collision-resistant digest of the structure of a
FOL(BV) formula/term or a pure ConfRel formula/expression.  Fingerprints are
plain hex strings, safe to use as dictionary keys, file names or sqlite
primary keys, and stable across processes and Python versions (unlike
``hash()``, which is salted per process for strings).

Shared subterms are visited once per fingerprint computation: the serializer
memoizes on object identity within a call, which makes fingerprinting of
DAG-shaped formulas linear in the number of distinct objects.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Union

from . import confrel, folbv

#: Bumped whenever the serialization format changes, so persistent caches
#: keyed by old fingerprints are invalidated rather than misread.
FINGERPRINT_VERSION = "1"

FingerprintableBV = Union[folbv.BFormula, folbv.Term]
FingerprintableConfRel = Union[confrel.Formula, confrel.BVExpr]


class FingerprintError(Exception):
    """Raised when an object cannot be serialized for fingerprinting."""


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _folbv_key(obj: FingerprintableBV, memo: Dict[int, str]) -> str:
    cached = memo.get(id(obj))
    if cached is not None:
        return cached
    if isinstance(obj, folbv.BVVar):
        key = f"(v {obj.name} {obj.var_width})"
    elif isinstance(obj, folbv.BVConst):
        key = f"(c {obj.value.to_bitstring()})"
    elif isinstance(obj, folbv.BVExtract):
        key = f"(x {_folbv_key(obj.term, memo)} {obj.lo} {obj.hi})"
    elif isinstance(obj, folbv.BVConcatT):
        key = f"(++ {_folbv_key(obj.left, memo)} {_folbv_key(obj.right, memo)})"
    elif isinstance(obj, folbv.BTrue):
        key = "t"
    elif isinstance(obj, folbv.BFalse):
        key = "f"
    elif isinstance(obj, folbv.BEq):
        key = f"(= {_folbv_key(obj.left, memo)} {_folbv_key(obj.right, memo)})"
    elif isinstance(obj, folbv.BNot):
        key = f"(! {_folbv_key(obj.operand, memo)})"
    elif isinstance(obj, folbv.BAnd):
        key = "(& " + " ".join(_folbv_key(op, memo) for op in obj.operands) + ")"
    elif isinstance(obj, folbv.BOr):
        key = "(| " + " ".join(_folbv_key(op, memo) for op in obj.operands) + ")"
    elif isinstance(obj, folbv.BImplies):
        key = f"(> {_folbv_key(obj.premise, memo)} {_folbv_key(obj.conclusion, memo)})"
    else:
        raise FingerprintError(f"cannot fingerprint FOL(BV) object {obj!r}")
    memo[id(obj)] = key
    return key


def _confrel_key(obj: FingerprintableConfRel, memo: Dict[int, str]) -> str:
    cached = memo.get(id(obj))
    if cached is not None:
        return cached
    if isinstance(obj, confrel.CLit):
        key = f"(c {obj.value.to_bitstring()})"
    elif isinstance(obj, confrel.CBuf):
        key = f"(b {obj.side} {obj.buf_width})"
    elif isinstance(obj, confrel.CHdr):
        key = f"(h {obj.side} {obj.name} {obj.hdr_width})"
    elif isinstance(obj, confrel.CVar):
        key = f"(v {obj.name} {obj.var_width})"
    elif isinstance(obj, confrel.CSlice):
        key = f"(x {_confrel_key(obj.expr, memo)} {obj.lo} {obj.hi})"
    elif isinstance(obj, confrel.CConcat):
        key = f"(++ {_confrel_key(obj.left, memo)} {_confrel_key(obj.right, memo)})"
    elif isinstance(obj, confrel.FTrue):
        key = "t"
    elif isinstance(obj, confrel.FFalse):
        key = "f"
    elif isinstance(obj, confrel.FEq):
        key = f"(= {_confrel_key(obj.left, memo)} {_confrel_key(obj.right, memo)})"
    elif isinstance(obj, confrel.FNot):
        key = f"(! {_confrel_key(obj.operand, memo)})"
    elif isinstance(obj, confrel.FAnd):
        key = "(& " + " ".join(_confrel_key(op, memo) for op in obj.operands) + ")"
    elif isinstance(obj, confrel.FOr):
        key = "(| " + " ".join(_confrel_key(op, memo) for op in obj.operands) + ")"
    elif isinstance(obj, confrel.FImpl):
        key = f"(> {_confrel_key(obj.premise, memo)} {_confrel_key(obj.conclusion, memo)})"
    else:
        raise FingerprintError(f"cannot fingerprint ConfRel object {obj!r}")
    memo[id(obj)] = key
    return key


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class _IdentityMemo:
    """An ``id()``-keyed digest memo with weakref-based self-cleaning.

    Keying by identity keeps lookups O(1): a dictionary keyed by the objects
    themselves would re-hash the whole tree on every access (frozen-dataclass
    hashing is recursive).  Each entry holds a weak reference whose callback
    evicts the entry when the object dies, so a recycled ``id()`` can never
    alias a stale digest.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, tuple] = {}

    def get(self, obj: object) -> Union[str, None]:
        entry = self._entries.get(id(obj))
        if entry is None:
            return None
        ref, digest = entry
        return digest if ref() is obj else None

    def set(self, obj: object, digest: str) -> None:
        key = id(obj)

        def _evict(_ref, key=key, entries=self._entries):
            entries.pop(key, None)

        try:
            ref = weakref.ref(obj, _evict)
        except TypeError:  # non-weakrefable object: skip memoization
            return
        self._entries[key] = (ref, digest)


_FOLBV_DIGESTS = _IdentityMemo()
_CONFREL_DIGESTS = _IdentityMemo()


def _digest(kind: str, key: str) -> str:
    payload = f"{kind}{FINGERPRINT_VERSION}:{key}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def folbv_fingerprint(obj: FingerprintableBV) -> str:
    """Stable structural digest of a FOL(BV) formula or term."""
    cached = _FOLBV_DIGESTS.get(obj)
    if cached is not None:
        return cached
    digest = _digest("bv", _folbv_key(obj, {}))
    _FOLBV_DIGESTS.set(obj, digest)
    return digest


def confrel_fingerprint(obj: FingerprintableConfRel) -> str:
    """Stable structural digest of a pure ConfRel formula or expression."""
    cached = _CONFREL_DIGESTS.get(obj)
    if cached is not None:
        return cached
    digest = _digest("cr", _confrel_key(obj, {}))
    _CONFREL_DIGESTS.set(obj, digest)
    return digest


def fingerprint(obj: Union[FingerprintableBV, FingerprintableConfRel]) -> str:
    """Fingerprint any supported logic object (dispatching on its layer)."""
    if isinstance(obj, (folbv.BFormula, folbv.Term)):
        return folbv_fingerprint(obj)
    if isinstance(obj, (confrel.Formula, confrel.BVExpr)):
        return confrel_fingerprint(obj)
    raise FingerprintError(f"cannot fingerprint {obj!r}")
