"""The transport-independent service core.

One :class:`ServiceCore` instance sits behind every transport (unix socket,
HTTP, or the in-process client) and implements the request lifecycle::

    client -> dedupe -> bounded priority queue -> warm worker -> store
                                                      |
                                                      v
                                   store hit: certificate/witness replay
                                   store miss: fresh solve, result stored

* **Dedupe** — concurrent ``check`` requests with the same store key (pair
  fingerprint × config fingerprint) collapse onto one in-flight task; the
  extra requesters attach as waiters and are answered from the single
  result (``source: "dedupe"``).  This is also the batching story: a batch
  of identical queries is exactly one unit of work.
* **Priorities** — tasks carry a numeric priority (lower runs first).  The
  default is derived from the pair's total header bits, so mini-sized
  requests overtake paper-sized ones; requests may override it explicitly.
  Ties run in arrival order.
* **Backpressure** — the queue is bounded (``max_pending``); a submit that
  would exceed the bound is rejected immediately with an ``overloaded``
  error carrying a ``retry_after`` hint (429 over HTTP), instead of letting
  latency grow without bound.
* **Warm workers** — each worker thread owns a persistent
  :class:`~repro.smt.cache.CachingBackend` (in-memory query cache, plus the
  shared persistent sqlite cache when ``cache_dir`` is set) that lives
  across requests, so premise lowering and solver queries stay warm.  The
  in-memory layer is trimmed when it grows past ``memory_cache_cap``.
* **Store** — definitive verdicts land in the content-addressed
  :class:`~repro.service.store.VerdictStore`; a later identical request is
  served by replaying the stored certificate
  (:func:`repro.core.certificate.verify_certificate`) or witness
  (:func:`repro.oracle.minimize.confirm_counterexample`) — never by a
  fresh proof search.  A replay that fails (it never should) evicts the
  entry and falls back to a solve.
* **Draining** — :meth:`drain` stops intake while queued work finishes;
  :meth:`shutdown` optionally cancels the queue and joins the workers.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.algorithm import CheckerConfig, CheckerStatistics
from ..core.certificate import verify_certificate
from ..core.counterexample import Counterexample
from ..core.equivalence import EquivalenceResult, check_language_equivalence
from ..p4a.surface import parse_automaton
from ..p4a.syntax import P4Automaton
from ..smt.cache import make_backend
from .fingerprints import config_fingerprint, pair_fingerprint, store_key
from .protocol import ENDPOINTS, PROTOCOL_VERSION
from .store import VerdictStore, encode_counterexample

#: Default bound on the request queue.
DEFAULT_MAX_PENDING = 64

#: Pairs whose total header bits are at or under this threshold get the
#: high (mini) default priority; everything larger queues behind them.
MINI_BITS_THRESHOLD = 256

#: Default priorities (lower runs first).
PRIORITY_MINI = 10
PRIORITY_FULL = 20

#: Documented meaning of every server-level statistics field rendered into
#: ``docs/service.md`` next to the store counters.
SERVER_STATISTIC_FIELDS: Dict[str, str] = {
    "requests": "requests received, by endpoint name",
    "checks": "check requests admitted (deduped waiters included)",
    "cases": "case requests admitted",
    "solves": "fresh proof searches executed by the workers",
    "dedupe_hits": "check/case requests attached to an identical in-flight task",
    "rejected_overloaded": "requests rejected by backpressure (429)",
    "rejected_draining": "requests rejected or cancelled while draining (503)",
    "task_errors": "tasks that failed with an internal error",
    "queue_high_water": "largest queue depth observed",
    "uptime_seconds": "seconds since the core started (gauge)",
}


class ServiceRequestError(Exception):
    """A request-level failure, mapped onto the wire error envelope."""

    def __init__(self, code: str, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


@dataclass
class ServiceConfig:
    """Tunable behaviour of one :class:`ServiceCore`."""

    workers: int = 1
    store_dir: Optional[str] = None
    max_store_entries: Optional[int] = None
    cache_dir: Optional[str] = None
    max_pending: int = DEFAULT_MAX_PENDING
    memory_cache_cap: int = 50_000
    mini_bits_threshold: int = MINI_BITS_THRESHOLD

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


@dataclass
class _CheckRequest:
    """A parsed, validated ``check`` request."""

    left: P4Automaton
    left_start: str
    right: P4Automaton
    right_start: str
    config: CheckerConfig
    find_counterexamples: bool
    no_store: bool
    priority: int
    pair_fp: str
    config_fp: str
    key: str


@dataclass
class _Task:
    """One unit of queued work; deduplicated requests share a task."""

    kind: str  # "check" | "case"
    key: str
    priority: int
    seq: int
    check: Optional[_CheckRequest] = None
    case_name: Optional[str] = None
    case_full: bool = False
    case_config: Optional[CheckerConfig] = None
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[Dict[str, object]] = None
    error: Optional[ServiceRequestError] = None
    waiters: int = 1

    def finish(self, result: Optional[Dict[str, object]] = None,
               error: Optional[ServiceRequestError] = None) -> None:
        self.result = result
        self.error = error
        self.done.set()


class _WorkerState:
    """Per-worker warm state: a persistent caching backend plus counters."""

    def __init__(self, worker_id: int, cache_dir: Optional[str],
                 memory_cache_cap: int) -> None:
        self.worker_id = worker_id
        self.backend = make_backend(use_cache=True, cache_dir=cache_dir)
        self.memory_cache_cap = memory_cache_cap
        self.solves = 0
        self.replays = 0
        self.memory_cache_trims = 0

    def trim(self) -> None:
        dropped = self.backend.trim_memory(self.memory_cache_cap)
        if dropped:
            self.memory_cache_trims += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "id": self.worker_id,
            "solves": self.solves,
            "replays": self.replays,
            "memory_cache_entries": self.backend.memory_entries,
            "memory_cache_trims": self.memory_cache_trims,
        }


class ServiceCore:
    """Dedupe + priority queue + warm workers + verdict store (no transport)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.store: Optional[VerdictStore] = (
            VerdictStore(self.config.store_dir,
                         max_entries=self.config.max_store_entries)
            if self.config.store_dir else None
        )
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, _Task]] = []
        self._inflight: Dict[str, _Task] = {}
        self._seq = itertools.count()
        self._draining = False
        self._stopped = False
        self._started = time.monotonic()
        self._threads: List[threading.Thread] = []
        self._worker_states: List[_WorkerState] = []
        self._inline_state: Optional[_WorkerState] = None
        # Counters (all guarded by self._lock).
        self.requests: Dict[str, int] = {}
        self.checks = 0
        self.cases = 0
        self.solves = 0
        self.dedupe_hits = 0
        self.rejected_overloaded = 0
        self.rejected_draining = 0
        self.task_errors = 0
        self.queue_high_water = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Spawn the worker pool (no-op when ``workers == 0``)."""
        for worker_id in range(self.config.workers):
            state = _WorkerState(worker_id, self.config.cache_dir,
                                 self.config.memory_cache_cap)
            thread = threading.Thread(
                target=self._worker_loop, args=(state,),
                name=f"leapfrog-worker-{worker_id}", daemon=True,
            )
            self._worker_states.append(state)
            self._threads.append(thread)
            thread.start()

    def drain(self) -> int:
        """Stop intake; return the number of queued tasks still pending."""
        with self._lock:
            self._draining = True
            return len(self._heap)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> int:
        """Drain (or cancel) outstanding work and join the worker pool.

        Returns the number of tasks that were cancelled.  Safe to call more
        than once.
        """
        cancelled: List[_Task] = []
        with self._queue_cond:
            self._draining = True
            if not drain:
                cancelled = [task for _, _, task in self._heap]
                self._heap.clear()
                for task in cancelled:
                    self._inflight.pop(task.key, None)
            self._stopped = True
            self._queue_cond.notify_all()
        for task in cancelled:
            with self._lock:
                self.rejected_draining += task.waiters
            task.finish(error=ServiceRequestError(
                "draining", "server is shutting down; request cancelled"
            ))
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self.store is not None:
            self.store.close()
        return len(cancelled)

    @property
    def draining(self) -> bool:
        return self._draining

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # ------------------------------------------------------------------
    # Request parsing

    def _count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    @staticmethod
    def _parse_side(params: Dict[str, object], side: str) -> Tuple[P4Automaton, str]:
        payload = params.get(side)
        if not isinstance(payload, dict):
            raise ServiceRequestError("bad_request", f"missing automaton object {side!r}")
        for fld in ("name", "source", "start"):
            if not isinstance(payload.get(fld), str) or not payload[fld]:
                raise ServiceRequestError(
                    "bad_request", f"{side}.{fld} must be a non-empty string"
                )
        try:
            automaton = parse_automaton(payload["source"], name=payload["name"])
        except Exception as exc:
            raise ServiceRequestError(
                "bad_request", f"{side} automaton does not parse: {exc}"
            ) from None
        start = payload["start"]
        if start not in automaton.states:
            raise ServiceRequestError(
                "bad_request",
                f"{side} start state {start!r} not in "
                f"{sorted(automaton.states)}",
            )
        return automaton, start

    def _parse_check(self, params: Dict[str, object]) -> _CheckRequest:
        left, left_start = self._parse_side(params, "left")
        right, right_start = self._parse_side(params, "right")
        options = params.get("options") or {}
        if not isinstance(options, dict):
            raise ServiceRequestError("bad_request", "options must be an object")
        known = {
            "use_leaps", "use_reachability", "find_counterexamples",
            "minimize_counterexamples", "oracle_packets", "oracle_seed",
            "priority", "no_store",
        }
        unknown = set(options) - known
        if unknown:
            raise ServiceRequestError(
                "bad_request", f"unknown check options: {sorted(unknown)}"
            )
        oracle_seed = options.get("oracle_seed")
        config = CheckerConfig(
            use_leaps=bool(options.get("use_leaps", True)),
            use_reachability=bool(options.get("use_reachability", True)),
            oracle_packets=int(options.get("oracle_packets") or 0),
            oracle_seed=int(oracle_seed) if oracle_seed is not None else None,
            minimize_counterexamples=bool(
                options.get("minimize_counterexamples", True)
            ),
            cache_dir=None,
        )
        find_counterexamples = bool(options.get("find_counterexamples", True))
        pair_fp = pair_fingerprint(left, left_start, right, right_start)
        config_fp = config_fingerprint(config, find_counterexamples)
        priority = options.get("priority")
        if priority is None:
            total_bits = left.total_header_bits() + right.total_header_bits()
            priority = (
                PRIORITY_MINI if total_bits <= self.config.mini_bits_threshold
                else PRIORITY_FULL
            )
        return _CheckRequest(
            left=left, left_start=left_start, right=right, right_start=right_start,
            config=config, find_counterexamples=find_counterexamples,
            no_store=bool(options.get("no_store", False)),
            priority=int(priority),
            pair_fp=pair_fp, config_fp=config_fp,
            key=store_key(pair_fp, config_fp),
        )

    # ------------------------------------------------------------------
    # Submission (dedupe + backpressure)

    def _submit(self, task: _Task) -> Tuple[_Task, bool]:
        """Enqueue ``task`` or attach to an identical in-flight one.

        Returns ``(task, attached)``; raises on backpressure or draining.
        """
        with self._queue_cond:
            if self._draining:
                self.rejected_draining += 1
                raise ServiceRequestError(
                    "draining", "server is draining; not accepting new work"
                )
            existing = self._inflight.get(task.key)
            if existing is not None:
                existing.waiters += 1
                self.dedupe_hits += 1
                return existing, True
            if len(self._heap) >= self.config.max_pending:
                self.rejected_overloaded += 1
                retry_after = round(max(0.1, 0.05 * len(self._heap)), 3)
                raise ServiceRequestError(
                    "overloaded",
                    f"queue is full ({len(self._heap)} pending); retry later",
                    retry_after=retry_after,
                )
            self._inflight[task.key] = task
            heapq.heappush(self._heap, (task.priority, task.seq, task))
            self.queue_high_water = max(self.queue_high_water, len(self._heap))
            self._queue_cond.notify()
            return task, False

    def _next_task(self) -> Optional[_Task]:
        with self._queue_cond:
            while not self._heap and not self._stopped:
                self._queue_cond.wait(timeout=0.5)
            if self._heap:
                _, _, task = heapq.heappop(self._heap)
                return task
            return None

    def _worker_loop(self, state: _WorkerState) -> None:
        while True:
            task = self._next_task()
            if task is None:
                return
            self._run_task(task, state)

    def _run_task(self, task: _Task, state: _WorkerState) -> None:
        try:
            if task.kind == "check":
                result = self._process_check(task.check, state)
            else:
                result = self._process_case(task, state)
        except ServiceRequestError as exc:
            with self._lock:
                self.task_errors += 1
            self._finish(task, error=exc)
        except Exception as exc:  # noqa: BLE001 - report, don't kill the worker
            with self._lock:
                self.task_errors += 1
            self._finish(task, error=ServiceRequestError(
                "internal", f"{type(exc).__name__}: {exc}"
            ))
        else:
            self._finish(task, result=result)

    def _finish(self, task: _Task,
                result: Optional[Dict[str, object]] = None,
                error: Optional[ServiceRequestError] = None) -> None:
        with self._lock:
            self._inflight.pop(task.key, None)
        task.finish(result=result, error=error)

    # ------------------------------------------------------------------
    # Check processing (store replay, then solve)

    def _process_check(self, request: _CheckRequest,
                       state: _WorkerState) -> Dict[str, object]:
        started = time.perf_counter()
        if self.store is not None and not request.no_store:
            replayed = self._replay_from_store(request, state)
            if replayed is not None:
                state.replays += 1
                return self._check_result(
                    replayed, request, "store", time.perf_counter() - started
                )
        result = check_language_equivalence(
            request.left, request.left_start, request.right, request.right_start,
            config=request.config, backend=state.backend,
            find_counterexamples=request.find_counterexamples,
        )
        elapsed = time.perf_counter() - started
        state.solves += 1
        with self._lock:
            self.solves += 1
        state.trim()
        if (
            self.store is not None and not request.no_store
            and result.verdict is not None
        ):
            self.store.put(
                request.key, request.pair_fp, request.config_fp,
                verdict=result.verdict,
                certificate=result.certificate,
                counterexample=result.counterexample,
                oracle=dict(result.statistics.oracle),
                solve_seconds=elapsed,
            )
        return self._check_result(result, request, "solve", elapsed)

    def _replay_from_store(self, request: _CheckRequest,
                           state: _WorkerState) -> Optional[EquivalenceResult]:
        """A stored verdict revalidated by replay, or ``None`` to solve."""
        entry = self.store.get(request.key)
        if entry is None:
            return None
        if entry.verdict:
            ok = (
                entry.certificate is not None
                and verify_certificate(
                    entry.certificate, request.left, request.right,
                    backend=state.backend,
                ).ok
            )
        else:
            from ..oracle.minimize import confirm_counterexample

            ok = (
                entry.counterexample is not None
                and confirm_counterexample(
                    request.left, request.left_start,
                    request.right, request.right_start,
                    entry.counterexample,
                )
            )
        if not ok:
            self.store.count_replay_failure()
            self.store.discard(request.key)
            return None
        self.store.count_replay()
        statistics = CheckerStatistics(oracle=dict(entry.oracle))
        if entry.verdict:
            return EquivalenceResult(True, entry.certificate, None, statistics)
        return EquivalenceResult(False, None, entry.counterexample, statistics)

    @staticmethod
    def _verdict_name(verdict: Optional[bool]) -> str:
        if verdict is None:
            return "unknown"
        return "equivalent" if verdict else "not_equivalent"

    def _check_result(self, result: EquivalenceResult, request: _CheckRequest,
                      source: str, elapsed: float) -> Dict[str, object]:
        certificate = None
        if result.certificate is not None:
            certificate = {
                "summary": result.certificate.summary(),
                "relation_size": len(result.certificate.relation),
                "reachable_pairs": len(result.certificate.reachable_pairs),
            }
        counterexample = None
        if result.counterexample is not None:
            counterexample = json.loads(encode_counterexample(result.counterexample))
        return {
            "verdict": self._verdict_name(result.verdict),
            "display": str(result),
            "source": source,
            "pair_fingerprint": request.pair_fp,
            "store_key": request.key,
            "certificate": certificate,
            "counterexample": counterexample,
            "statistics": result.statistics.as_dict(),
            "elapsed_seconds": round(elapsed, 6),
        }

    # ------------------------------------------------------------------
    # Case processing

    def _parse_case(self, params: Dict[str, object]) -> _Task:
        name = params.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceRequestError("bad_request", "name must be a non-empty string")
        from ..reporting.runner import case_studies

        if name not in case_studies():
            raise ServiceRequestError(
                "bad_request",
                f"unknown case study {name!r}; known: "
                f"{', '.join(sorted(case_studies()))}",
            )
        full = bool(params.get("full", False))
        options = params.get("options") or {}
        if not isinstance(options, dict):
            raise ServiceRequestError("bad_request", "options must be an object")
        oracle_packets = int(options.get("oracle_packets") or 0)
        oracle_seed = options.get("oracle_seed")
        # A case answers a Table 2 row, whose Memory column needs tracing.
        config = CheckerConfig(
            cache_dir=self.config.cache_dir,
            oracle_packets=oracle_packets,
            oracle_seed=oracle_seed,
            track_memory=True,
        )
        priority = options.get("priority")
        if priority is None:
            priority = PRIORITY_FULL if full else PRIORITY_MINI
        key = f"case/{name}/{'full' if full else 'mini'}/{oracle_packets}/{oracle_seed}"
        return _Task(
            kind="case", key=key, priority=int(priority), seq=next(self._seq),
            case_name=name, case_full=full, case_config=config,
        )

    def _process_case(self, task: _Task, state: _WorkerState) -> Dict[str, object]:
        from ..reporting.runner import case_studies

        started = time.perf_counter()
        outcome = case_studies()[task.case_name](full=task.case_full,
                                                 config=task.case_config)
        elapsed = time.perf_counter() - started
        state.solves += 1
        with self._lock:
            self.solves += 1
        return {
            "metrics": outcome.metrics.as_dict(),
            "verdict": self._verdict_name(outcome.verdict),
            "source": "solve",
            "elapsed_seconds": round(elapsed, 6),
        }

    # ------------------------------------------------------------------
    # Endpoint dispatch (shared by every transport)

    def handle(self, endpoint: str, params: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one request; raises :class:`ServiceRequestError` on failure."""
        if endpoint not in ENDPOINTS:
            raise ServiceRequestError(
                "unknown_endpoint",
                f"unknown endpoint {endpoint!r}; known: {sorted(ENDPOINTS)}",
            )
        self._count_request(endpoint)
        if endpoint == "ping":
            from .. import __version__

            return {
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": round(self.uptime_seconds(), 3),
                "draining": self._draining,
            }
        if endpoint == "stats":
            return self.statistics_snapshot()
        if endpoint == "drain":
            pending = self.drain()
            return {"draining": True, "pending": pending}
        if endpoint == "shutdown":
            # The transport layer stops the listener; the core only reports.
            with self._lock:
                pending = len(self._heap)
            return {"stopping": True, "pending": pending,
                    "drain": bool(params.get("drain", True))}
        if endpoint == "check":
            request = self._parse_check(params)
            with self._lock:
                self.checks += 1
            return self._wait_for(self._submit_check(request))
        if endpoint == "case":
            task = self._parse_case(params)
            with self._lock:
                self.cases += 1
            return self._wait_for(self._submit_task(task))
        raise ServiceRequestError("internal", f"unhandled endpoint {endpoint!r}")

    def _submit_check(self, request: _CheckRequest) -> Tuple[_Task, bool]:
        task = _Task(kind="check", key=request.key, priority=request.priority,
                     seq=next(self._seq), check=request)
        return self._submit(task)

    def _submit_task(self, task: _Task) -> Tuple[_Task, bool]:
        return self._submit(task)

    def _wait_for(self, submitted: Tuple[_Task, bool]) -> Dict[str, object]:
        task, attached = submitted
        if not self._threads:
            # No worker pool (in-process mode): run queued work inline.
            self._run_pending_inline()
        task.done.wait()
        if task.error is not None:
            raise task.error
        result = dict(task.result)
        if attached and result.get("source") in ("solve", "store"):
            result["source"] = "dedupe"
        return result

    # ------------------------------------------------------------------
    # In-process (worker-less) execution

    def _inline_worker(self) -> _WorkerState:
        if self._inline_state is None:
            self._inline_state = _WorkerState(
                -1, self.config.cache_dir, self.config.memory_cache_cap
            )
        return self._inline_state

    def _run_pending_inline(self) -> None:
        state = self._inline_worker()
        while True:
            with self._queue_cond:
                if not self._heap:
                    return
                _, _, task = heapq.heappop(self._heap)
            self._run_task(task, state)

    # ------------------------------------------------------------------
    # Statistics

    def statistics_snapshot(self) -> Dict[str, object]:
        with self._lock:
            server = {
                "requests": dict(self.requests),
                "checks": self.checks,
                "cases": self.cases,
                "solves": self.solves,
                "dedupe_hits": self.dedupe_hits,
                "rejected_overloaded": self.rejected_overloaded,
                "rejected_draining": self.rejected_draining,
                "task_errors": self.task_errors,
                "queue_high_water": self.queue_high_water,
                "uptime_seconds": round(self.uptime_seconds(), 3),
            }
            queue = {
                "pending": len(self._heap),
                "max_pending": self.config.max_pending,
                "draining": self._draining,
            }
        workers = [state.snapshot() for state in self._worker_states]
        if self._inline_state is not None:
            workers.append(self._inline_state.snapshot())
        return {
            "server": server,
            "queue": queue,
            "workers": workers,
            # Explicit None check: VerdictStore defines __len__, so an empty
            # store is falsy and a bare truth test would hide its counters.
            "store": (self.store.snapshot_statistics()
                      if self.store is not None else None),
        }
