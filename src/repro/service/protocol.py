"""Wire-protocol schema and the endpoint registry.

The daemon speaks **JSON-lines over a unix stream socket** by default: one
request object per line, one response object per line, pipelining allowed.
The same request/response bodies ride over the opt-in local HTTP transport
(``POST /v1/<endpoint>``).  See ``docs/service.md`` for the full schema.

Envelope::

    request:  {"id": <any>, "endpoint": "<name>", "params": {...}}
    response: {"id": <any>, "ok": true,  "result": {...}}
              {"id": <any>, "ok": false, "error": {"code": "...",
                       "status": <int>, "message": "...",
                       "retry_after": <seconds, only for overloaded>}}

``id`` is echoed verbatim so clients can pipeline.  Over HTTP the envelope
is dropped: the body is ``params``, the response body is ``result`` (or the
``error`` object with the matching HTTP status, including ``Retry-After``
on 429).

:data:`ENDPOINTS` is the single source of truth for the endpoint surface:
the server dispatches only names registered here, and the documentation
generator renders the table in ``docs/service.md`` from it, so the docs
cannot drift from the live handler registry (a ``--check`` CI job enforces
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.algorithm import CheckerConfig

#: Protocol version, echoed by ``ping``. Version 2: the checker options are
#: ``CheckerConfig.RESULT_FIELDS`` on ``check`` and ``case`` alike, and their
#: values are type- and range-checked instead of coerced.
PROTOCOL_VERSION = "2"

#: Error codes an endpoint may return, mapped to their HTTP-style status.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "unknown_endpoint": 404,
    "overloaded": 429,
    "internal": 500,
    "draining": 503,
}


@dataclass(frozen=True)
class Endpoint:
    """One service endpoint: its request parameters and its result shape."""

    name: str
    summary: str
    params: Tuple[Tuple[str, str], ...]  # (field, description)
    result: str


ENDPOINTS: Dict[str, Endpoint] = {}


def _endpoint(endpoint: Endpoint) -> Endpoint:
    ENDPOINTS[endpoint.name] = endpoint
    return endpoint


#: The checker options both work endpoints accept: the result-relevant
#: :class:`~repro.core.algorithm.CheckerConfig` fields.
_CHECKER_OPTIONS = ", ".join(f"`{name}`" for name in CheckerConfig.RESULT_FIELDS)


PING = _endpoint(Endpoint(
    name="ping",
    summary="Liveness and version probe; also used to detect stale sockets.",
    params=(),
    result="`{version, protocol, uptime_seconds, draining}`",
))

CHECK = _endpoint(Endpoint(
    name="check",
    summary=(
        "Language-equivalence check of an automaton pair; served from the "
        "content-addressed verdict store by certificate/witness replay when "
        "possible, deduplicated against identical in-flight requests "
        "otherwise, solved on a warm worker as a last resort."
    ),
    params=(
        ("left", "`{name, source, start}` — left automaton in surface syntax"),
        ("right", "`{name, source, start}` — right automaton in surface syntax"),
        ("options",
         f"optional object: checker options {_CHECKER_OPTIONS}; service "
         "options `priority` (lower runs first; default derived from pair "
         "size, mini before full) and `no_store` (bypass the verdict store "
         "for this request).  An unknown key, or a value of the wrong type or "
         "out of range, is a `bad_request`"),
    ),
    result=(
        "`{verdict, display, source, pair_fingerprint, store_key, "
        "certificate, counterexample, statistics, elapsed_seconds}` — "
        "`source` is one of `solve`, `store`, `dedupe`"
    ),
))

CASE = _endpoint(Endpoint(
    name="case",
    summary=(
        "Run one registered Table 2 case study by name on a warm worker "
        "(deduplicated, not stored: case results carry run-local timing "
        "metrics that are not a pure function of the request)."
    ),
    params=(
        ("name", "registered case-study name (see `leapfrog-repro list`)"),
        ("full", "optional bool: paper-sized variant (default false)"),
        ("options",
         f"optional object: checker options {_CHECKER_OPTIONS}; service "
         "option `priority` (lower runs first; default: mini before full); "
         "validated as for `check`"),
    ),
    result="`{metrics, verdict, source, elapsed_seconds}`",
))

STATS = _endpoint(Endpoint(
    name="stats",
    summary="Snapshot of server, queue, worker and verdict-store statistics.",
    params=(),
    result=(
        "`{server, queue, workers, store}` — `store` holds the counters "
        "documented in the store-statistics table below"
    ),
))

DRAIN = _endpoint(Endpoint(
    name="drain",
    summary=(
        "Stop accepting new check/case work (503 `draining` from then on) "
        "while queued and in-flight requests finish; idempotent."
    ),
    params=(),
    result="`{draining, pending}`",
))

SHUTDOWN = _endpoint(Endpoint(
    name="shutdown",
    summary=(
        "Drain (optionally) and stop the daemon; the response is sent "
        "before the listener closes."
    ),
    params=(
        ("drain",
         "optional bool (default true): finish queued work first; false "
         "cancels queued requests with a `draining` error"),
    ),
    result="`{stopping, pending}`",
))
