"""Equivalence-as-a-service: a persistent daemon and its client library.

The one-shot CLI pays interpreter cold-start and a full solve on every
invocation; this package turns the engine into a long-lived local service
that starts once, solves identical concurrent requests once and answers a
repeated request from a verdict store:

* :mod:`repro.service.fingerprints` — content addressing: an automaton pair
  plus the semantics-relevant checker options hash to a stable store key;
* :mod:`repro.service.store` — the content-addressed verdict store, one
  sqlite file mapping store keys to verdict, pickled certificate and
  minimized witness;
* :mod:`repro.service.core` — the transport-independent service core:
  worker pool, request deduplication, priority scheduling, backpressure and
  graceful draining;
* :mod:`repro.service.server` — the ``repro serve`` daemon: a unix-socket
  JSON-lines transport (default) and an opt-in local HTTP transport;
* :mod:`repro.service.client` — the typed client of a running daemon;
* :mod:`repro.service.protocol` — the wire-protocol schema and the endpoint
  registry that the documentation generator renders into ``docs/service.md``.

A store hit is served by *replay* — never by a fresh proof search, and
never by trusting the stored bytes.  A refutation's witness is replayed
concretely through both parsers, which costs a small fraction of a solve.  A
proof is re-checked by :func:`repro.core.certificate.verify_certificate` on a
fresh backend, which today costs about as much as the solve that found it
(more at paper size), so a stored proof buys a re-validated verdict rather
than saved time.
"""

from .client import (  # noqa: F401
    CheckOutcome,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    parse_server_address,
)
from .core import ServiceConfig, ServiceCore  # noqa: F401
from .fingerprints import config_fingerprint, pair_fingerprint, store_key  # noqa: F401
from .store import StoreStatistics, VerdictStore  # noqa: F401
