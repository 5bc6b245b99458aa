"""Typed client library for the equivalence service.

:class:`ServiceClient` talks to a running daemon — JSON-lines over a unix
socket, or HTTP when given an ``http://`` address.  ``overloaded``
rejections are retried automatically using the server's ``retry_after``
hint (bounded; a saturated server eventually surfaces as
:class:`ServiceOverloadedError`).

Results come back typed: :class:`CheckOutcome` mirrors
:class:`~repro.core.equivalence.EquivalenceResult` closely enough that CLI
code can print it (``str()`` is the server-rendered display line, byte-equal
to the in-process checker's output) and read ``.verdict`` /
``.statistics`` / ``.counterexample`` without caring where the answer came
from.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.algorithm import CACHE_KEYS, ENTAILMENT_KEYS, CheckerStatistics
from ..core.counterexample import Counterexample
from ..counters import Counters
from ..p4a.pretty import pretty
from ..p4a.syntax import P4Automaton
from .store import decode_counterexample

#: Default bound on automatic retries after ``overloaded`` rejections.
DEFAULT_MAX_RETRIES = 8


class ServiceError(Exception):
    """A request the service answered with an error envelope."""

    def __init__(self, code: str, message: str, status: int = 500,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after = retry_after


class ServiceOverloadedError(ServiceError):
    """Backpressure rejection that survived the client's retry budget."""


def parse_server_address(address: str) -> Tuple[str, str]:
    """``LEAPFROG_SERVER`` / ``--server`` value → ``(transport, location)``.

    ``http://host:port`` selects the HTTP transport; ``unix:/path`` or a
    bare filesystem path selects the unix-socket transport.
    """
    address = address.strip()
    if not address:
        raise ValueError("server address is empty")
    if address.startswith("http://") or address.startswith("https://"):
        return "http", address.rstrip("/")
    if address.startswith("unix:"):
        address = address[len("unix:"):]
        if not address:
            raise ValueError("unix: server address is missing the socket path")
    return "unix", address


def _verdict_from_name(name: str) -> Optional[bool]:
    return {"equivalent": True, "not_equivalent": False, "unknown": None}[name]


def _statistics_from_dict(payload: Dict[str, object]) -> CheckerStatistics:
    known = {f.name for f in dataclasses.fields(CheckerStatistics)}
    statistics = CheckerStatistics(**{k: v for k, v in payload.items() if k in known})
    if payload.get("entailment"):
        # The sections render the server's ledger; read its counts back.  Query
        # times do not travel, so the client's solver timings read 0.
        ledger = statistics.ledger = Counters()
        sections = ((ENTAILMENT_KEYS, payload["entailment"]),
                    (CACHE_KEYS, payload.get("cache") or {}))
        for keys, section in sections:
            for key, value in section.items():
                if key in keys:
                    ledger[keys[key]] = value
        ledger["solver.queries"] = payload["solver"]["queries"]
    return statistics


@dataclass
class CheckOutcome:
    """A ``check`` answer, shaped like an ``EquivalenceResult`` for callers.

    ``str(outcome)`` is the display line the in-process checker would have
    printed (rendered server-side from the real result), so CLI output is
    byte-identical whichever path served the request.
    """

    verdict: Optional[bool]
    display: str
    source: str  # "solve" | "store" | "dedupe"
    pair_fingerprint: str
    store_key: str
    statistics: CheckerStatistics
    certificate: Optional[Dict[str, object]] = None
    counterexample_data: Optional[Dict[str, object]] = None
    elapsed_seconds: float = 0.0
    raw: Dict[str, object] = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.verdict is True

    @property
    def refuted(self) -> bool:
        return self.verdict is False

    @property
    def counterexample(self) -> Optional[Counterexample]:
        if self.counterexample_data is None:
            return None
        return decode_counterexample(self.counterexample_data)

    def __str__(self) -> str:
        return self.display

    @classmethod
    def from_result(cls, result: Dict[str, object]) -> "CheckOutcome":
        return cls(
            verdict=_verdict_from_name(result["verdict"]),
            display=result["display"],
            source=result["source"],
            pair_fingerprint=result["pair_fingerprint"],
            store_key=result["store_key"],
            statistics=_statistics_from_dict(result.get("statistics") or {}),
            certificate=result.get("certificate"),
            counterexample_data=result.get("counterexample"),
            elapsed_seconds=float(result.get("elapsed_seconds") or 0.0),
            raw=result,
        )


@dataclass
class CaseResult:
    """A ``case`` answer: the Table 2 metrics row plus the verdict."""

    metrics: Dict[str, object]
    verdict: Optional[bool]
    source: str
    elapsed_seconds: float = 0.0

    @classmethod
    def from_result(cls, result: Dict[str, object]) -> "CaseResult":
        return cls(
            metrics=dict(result.get("metrics") or {}),
            verdict=_verdict_from_name(result["verdict"]),
            source=result["source"],
            elapsed_seconds=float(result.get("elapsed_seconds") or 0.0),
        )


def _automaton_payload(automaton: P4Automaton, start: str) -> Dict[str, str]:
    # Canonical surface rendering: differently formatted sources of the same
    # automaton hash to the same pair fingerprint server-side.
    return {"name": automaton.name, "source": pretty(automaton), "start": start}


class ServiceClient:
    """Client for a running ``repro serve`` daemon."""

    def __init__(self, address: str, timeout: float = 600.0,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        self.transport, self.location = parse_server_address(address)
        self.address = address
        self.timeout = timeout
        self.max_retries = max_retries
        self._request_id = 0

    # -- transport ------------------------------------------------------

    def _roundtrip_unix(self, envelope: Dict[str, object]) -> Dict[str, object]:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(self.timeout)
        try:
            try:
                conn.connect(self.location)
            except OSError as exc:
                raise ServiceError(
                    "unreachable",
                    f"cannot reach daemon at {self.location!r}: {exc} "
                    f"(is `leapfrog-repro serve` running?)",
                ) from None
            conn.sendall(json.dumps(envelope).encode() + b"\n")
            with conn.makefile("rb") as reader:
                line = reader.readline()
        finally:
            conn.close()
        if not line:
            raise ServiceError(
                "unreachable", f"daemon at {self.location!r} closed the connection"
            )
        response = json.loads(line.decode())
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "internal"),
            error.get("message", "unknown server error"),
            status=int(error.get("status", 500)),
            retry_after=error.get("retry_after"),
        )

    def _roundtrip_http(self, endpoint: str,
                        params: Dict[str, object]) -> Dict[str, object]:
        url = f"{self.location}/v1/{endpoint}"
        request = urllib.request.Request(
            url, data=json.dumps(params).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return json.loads(reply.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                error = json.loads(exc.read().decode())
            except ValueError:
                error = {}
            raise ServiceError(
                error.get("code", "internal"),
                error.get("message", f"HTTP {exc.code}"),
                status=exc.code,
                retry_after=error.get("retry_after"),
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                "unreachable",
                f"cannot reach daemon at {self.location!r}: {exc.reason} "
                f"(is `leapfrog-repro serve --http` running?)",
            ) from None

    # -- request with overload retry ------------------------------------

    def request(self, endpoint: str, params: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        params = params or {}
        attempts = 0
        while True:
            try:
                if self.transport == "http":
                    return self._roundtrip_http(endpoint, params)
                self._request_id += 1
                return self._roundtrip_unix({
                    "id": self._request_id, "endpoint": endpoint, "params": params,
                })
            except ServiceError as exc:
                if exc.code != "overloaded":
                    raise
                attempts += 1
                if attempts > self.max_retries:
                    raise ServiceOverloadedError(
                        exc.code,
                        f"server still overloaded after {attempts} attempts: {exc}",
                        status=exc.status, retry_after=exc.retry_after,
                    ) from None
                time.sleep(exc.retry_after or 0.1)

    # -- endpoints ------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request("ping")

    def stats(self) -> Dict[str, object]:
        return self.request("stats")

    def drain(self) -> Dict[str, object]:
        return self.request("drain")

    def shutdown(self, drain: bool = True) -> Dict[str, object]:
        return self.request("shutdown", {"drain": drain})

    def check(
        self,
        left: P4Automaton,
        left_start: str,
        right: P4Automaton,
        right_start: str,
        options: Optional[Dict[str, object]] = None,
    ) -> CheckOutcome:
        params: Dict[str, object] = {
            "left": _automaton_payload(left, left_start),
            "right": _automaton_payload(right, right_start),
        }
        if options:
            params["options"] = dict(options)
        return CheckOutcome.from_result(self.request("check", params))

    def case(
        self,
        name: str,
        full: bool = False,
        options: Optional[Dict[str, object]] = None,
    ) -> CaseResult:
        params: Dict[str, object] = {"name": name, "full": full}
        if options:
            params["options"] = dict(options)
        return CaseResult.from_result(self.request("case", params))

    def close(self) -> None:
        pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
