"""Content addressing for check requests.

A check request is a pure function of (a) the two automata with their start
states and (b) the semantics-relevant checker options, so the pair of those
two digests is a *content address* for its verdict: any two requests with
the same address are guaranteed the same verdict, certificate and witness,
and the second one can be served by replaying the first one's result.

Automata are digested through their canonical surface rendering
(:func:`repro.p4a.pretty.pretty`), which round-trips through the surface
parser (see ``tests/p4a/test_builder_surface.py``) and is deterministic for
a given automaton value.  Automaton *names* are included: they appear in
certificate summaries, and byte-identical output on a store hit requires
the stored certificate to carry the same names as a fresh solve would.

The config digest covers exactly the options that change *what* is
reported, :attr:`CheckerConfig.RESULT_FIELDS
<repro.core.algorithm.CheckerConfig.RESULT_FIELDS>`, by value with defaults
included.  Options that only change *how fast* an answer is found (query
cache, AIG simplification, worker count) are left out — the parity tests
assert equal verdicts across them.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..core.algorithm import CheckerConfig
from ..p4a.pretty import pretty
from ..p4a.syntax import P4Automaton

#: Bumped whenever the serialization of pairs or configs changes, so a
#: persistent verdict store keyed by old digests is never misread.
PAIR_FINGERPRINT_VERSION = "2"


def _digest(kind: str, payload: str) -> str:
    blob = f"{kind}:v{PAIR_FINGERPRINT_VERSION}:{payload}".encode()
    return hashlib.sha256(blob).hexdigest()


def automaton_fingerprint(aut: P4Automaton, start: str) -> str:
    """A stable digest of one automaton plus its start state."""
    return _digest("aut", f"{aut.name}\n{start}\n{pretty(aut)}")


def pair_fingerprint(
    left: P4Automaton, left_start: str, right: P4Automaton, right_start: str
) -> str:
    """A stable digest of an ordered automaton pair (the check's subject)."""
    return _digest(
        "pair",
        automaton_fingerprint(left, left_start)
        + automaton_fingerprint(right, right_start),
    )


def config_fingerprint(config: Optional[CheckerConfig] = None) -> str:
    """A digest of the checker options that can change the reported result."""
    effective = config if config is not None else CheckerConfig()
    payload = ";".join(
        f"{name}={getattr(effective, name)!r}" for name in CheckerConfig.RESULT_FIELDS
    )
    return _digest("config", payload)


def store_key(pair_fp: str, config_fp: str) -> str:
    """The verdict store's primary key: pair digest × config digest."""
    return _digest("key", f"{pair_fp}/{config_fp}")
