"""A job-based execution engine for equivalence-checking workloads.

The Table 2 reproduction and the ablation study run many independent
verification problems; nothing couples one automaton pair to another, so the
engine fans jobs out across long-lived worker processes while keeping the
interface deterministic:

* results are returned **in job-submission order**, whatever the completion
  order of the workers;
* a job is either a :class:`CaseJob` (a registered Table 2 case study, looked
  up by name inside the worker so only strings and configs cross the process
  boundary) or an :class:`EquivalenceJob` (an explicit automaton pair —
  automata are plain frozen dataclasses and pickle cleanly);
* every job can carry a wall-clock **timeout**; in pooled mode an expired
  job's worker is terminated and the job reported as a ``timeout``
  :class:`JobResult`, so a hung case can neither poison the run nor starve
  the queued jobs.  Inline mode cannot interrupt a running job, so it warns
  up front and applies the limit after the fact (an over-budget job is still
  reported as a ``timeout``);
* failures inside a worker are captured per job as ``error`` results.

With ``jobs=1`` (the default) everything runs inline in the calling process —
no pool, no pickling — which is the baseline that parallel runs are required
to reproduce exactly.  With ``jobs > 1`` each :meth:`EquivalenceEngine.run`
call spawns up to ``jobs`` workers, feeds them jobs over pipes (a worker keeps
its imports and memo tables warm from one job to the next) and joins them
before it returns.

The engine has no solver settings of its own: every job carries a whole
:class:`~repro.core.algorithm.CheckerConfig` (resolved once per command by
:func:`repro.envconfig.resolve_checker_config`) and runs with exactly that.
Workers share solver work when the jobs' config sets ``cache_dir``: every
checker then stacks a :class:`~repro.smt.cache.CachingBackend` over the same
sqlite store.

With ``server`` set (an address accepted by
:func:`repro.service.client.parse_server_address`), jobs are not executed
locally at all: each one becomes a request to a running ``repro serve``
daemon, fanned out over ``jobs`` client threads.  The daemon dedupes
identical requests and answers repeats from its content-addressed verdict
store, so a batch re-run against a warm daemon does no solver work.
Results keep their submission order and the same three-state
:class:`JobResult` shape; equivalence jobs come back as
:class:`~repro.service.client.CheckOutcome` (display-compatible with a
local :class:`~repro.core.equivalence.EquivalenceResult`) and case jobs as
:class:`~repro.reporting.runner.CaseOutcome` rebuilt from the wire metrics.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..p4a.syntax import P4Automaton
from .algorithm import CheckerConfig


#: Pooled workers are spawned, never forked: a fresh interpreter inherits no
#: solver state, threads or locks from the engine's process.
_MP_CONTEXT = "spawn"


class EngineError(Exception):
    """Raised on malformed jobs or engine misconfiguration."""


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseJob:
    """Run one registered case study (a Table 2 row) by name."""

    case: str
    full: bool = False
    config: Optional[CheckerConfig] = None
    job_id: Optional[str] = None
    timeout: Optional[float] = None

    @property
    def label(self) -> str:
        return self.job_id if self.job_id is not None else self.case


@dataclass(frozen=True)
class EquivalenceJob:
    """Check language equivalence of an explicit automaton pair."""

    left: P4Automaton
    left_start: str
    right: P4Automaton
    right_start: str
    config: Optional[CheckerConfig] = None
    find_counterexamples: bool = False
    job_id: Optional[str] = None
    timeout: Optional[float] = None

    @property
    def label(self) -> str:
        if self.job_id is not None:
            return self.job_id
        return f"{self.left.name} ~ {self.right.name}"


Job = Union[CaseJob, EquivalenceJob]


@dataclass
class JobResult:
    """Outcome of one engine job, in one of three states.

    ``ok`` — ``value`` holds the job's payload (a
    :class:`~repro.reporting.runner.CaseOutcome` for case jobs, an
    :class:`~repro.core.equivalence.EquivalenceResult` for equivalence jobs);
    ``error`` — ``error`` holds the worker-side exception rendered as text;
    ``timeout`` — the job did not produce a result within its timeout.
    """

    job_id: str
    status: str
    value: object = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class EngineStatistics:
    """Aggregate accounting for one :meth:`EquivalenceEngine.run` call."""

    jobs: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    by_job: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "wall_seconds": round(self.wall_seconds, 3),
            "workers": self.workers,
            "by_job": {name: round(seconds, 3) for name, seconds in self.by_job.items()},
        }


# ---------------------------------------------------------------------------
# Job execution and the pooled worker (top level so they pickle under spawn)
# ---------------------------------------------------------------------------


def _execute_job(job: Job) -> object:
    """Run one job with the config it carries."""
    if isinstance(job, CaseJob):
        from ..reporting.runner import case_studies

        registry = case_studies()
        if job.case not in registry:
            raise EngineError(
                f"unknown case study {job.case!r}; known: {', '.join(sorted(registry))}"
            )
        return registry[job.case](full=job.full, config=job.config)
    if isinstance(job, EquivalenceJob):
        from .equivalence import check_language_equivalence

        return check_language_equivalence(
            job.left, job.left_start, job.right, job.right_start,
            config=job.config, find_counterexamples=job.find_counterexamples,
        )
    raise EngineError(f"unknown job type {type(job).__name__}")


def _worker_loop(conn) -> None:
    """Pooled worker: report ready with ``None``, then answer each
    ``(index, job)`` message with ``(index, status, payload)`` until the
    ``None`` sentinel arrives."""
    with contextlib.suppress(EOFError):  # the engine is gone: just exit
        conn.send(None)
        for index, job in iter(conn.recv, None):
            try:
                reply = (index, "ok", _execute_job(job))
            except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
                reply = (index, "error", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except Exception as exc:  # unpicklable result
                conn.send((index, "error",
                           f"result not transferable: {type(exc).__name__}: {exc}"))


class _Worker:
    """One pooled worker process and the job it is running, if any."""

    def __init__(self, context) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_worker_loop, args=(child,), daemon=True)
        self.process.start()
        child.close()
        self.index, self.job, self.limit = 0, None, None  # the job in flight
        self.started: Optional[float] = None  # None until the worker is ready

    def submit(self, index: int, job: Job, limit: Optional[float]) -> None:
        self.index, self.job, self.limit = index, job, limit
        if self.started is not None:  # a fresh worker's clock starts when ready
            self.started = time.perf_counter()
        with contextlib.suppress(OSError):  # a dead worker: collect() reports it
            self.conn.send((index, job))

    @property
    def deadline(self) -> Optional[float]:
        if self.started is None or self.limit is None:
            return None
        return self.started + self.limit

    def collect(self) -> Optional[JobResult]:
        """The result of the job in flight once it is decided, else ``None``.
        A worker that loses its job (it died, sent an unreadable reply or ran
        out of time) is closed, and the caller drops it from the pool."""
        now = time.perf_counter()
        elapsed = now - self.started if self.started is not None else 0.0
        if self.conn.poll():
            try:
                message = self.conn.recv()
            except (EOFError, ConnectionResetError):  # the worker died
                status, error = "error", None
            except Exception as exc:  # truncated pickle, OSError
                detail = f": {exc}" if str(exc) else ""
                status, error = "error", f"worker result unreadable: {type(exc).__name__}{detail}"
            else:
                if message is None:
                    self.started = now
                    return None
                _, status, payload = message
                job, self.job = self.job, None
                if status == "ok":
                    return JobResult(job.label, "ok", value=payload, elapsed=elapsed)
                return JobResult(job.label, "error", error=payload, elapsed=elapsed)
        elif not self.process.is_alive():
            status, error = "error", None
        elif self.deadline is not None and now > self.deadline:
            status, error = "timeout", f"no result within {self.limit} seconds"
        else:
            return None
        self.close()
        return JobResult(self.job.label, status, elapsed=elapsed,
                         error=error or f"worker exited with code {self.process.exitcode}")

    def close(self) -> None:
        self.process.terminate()  # a no-op once the process has been joined
        self.process.join()
        self.conn.close()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class EquivalenceEngine:
    """Executes equivalence-checking jobs, inline or across worker processes.

    ``jobs`` is the worker count (1 = inline, no subprocesses).  ``timeout``
    is the default per-job wall-clock limit in seconds, overridable per job.
    In pooled mode an expired job's worker is terminated; an inline run has
    nowhere to escape to, so the engine warns up front that it can only
    enforce the limit *after the fact* — an inline job that finishes beyond
    its budget is reported as a ``timeout`` result with its value discarded.
    (The two modes can differ right at the boundary: a pooled worker that
    delivers its result just past the limit but before the engine wakes to
    reap it still counts as ``ok``, whereas inline enforcement is strict.)
    The pooled clock starts when a job's worker is ready for it, so worker
    start-up is not charged to the job.

    ``server`` sends the jobs to a running daemon instead (see the module
    docstring).  Each job runs with the
    :class:`~repro.core.algorithm.CheckerConfig` it carries; the engine adds
    nothing to it.  Remote dispatch forwards only the config's
    semantics-relevant options; the daemon picks its own cache and backend.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        server: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"worker count must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.server = server
        self.statistics = EngineStatistics()

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run every job and return results in submission order.

        ``on_result`` (when given) is called once per job, **in submission
        order**, as soon as that result and every earlier one are available —
        a streaming view of the same ordered list the call returns.  The
        campaign runner uses it for incremental progress and checkpointing;
        a callback that raises aborts the run.
        """
        labels = [job.label for job in jobs]
        if len(set(labels)) != len(labels):
            raise EngineError("job labels must be unique; set job_id to disambiguate")
        start = time.perf_counter()
        self.statistics = EngineStatistics(jobs=len(jobs), workers=min(self.jobs, max(len(jobs), 1)))
        if self.server is not None:
            # Remote jobs run on the daemon, which cannot be preempted from
            # here; timeouts are applied to the observed wall-clock time
            # after the fact, like inline mode.
            results = self._run_remote(jobs, on_result)
        elif self.jobs == 1:
            if any(self._job_limit(job) is not None for job in jobs):
                warnings.warn(
                    "timeouts in inline mode (jobs=1) are enforced only after "
                    "a job finishes: a hung job cannot be interrupted; use "
                    "jobs >= 2 for preemptive enforcement",
                    RuntimeWarning,
                    stacklevel=2,
                )
            results = []
            for job in jobs:
                result = self._run_inline(job)
                if on_result is not None:
                    on_result(result)
                results.append(result)
        else:
            # Pooled even for a single job, so per-job timeouts stay enforced.
            results = self._run_pooled(jobs, on_result)
        self.statistics.wall_seconds = time.perf_counter() - start
        for result in results:
            self.statistics.by_job[result.job_id] = result.elapsed
            if result.status == "ok":
                self.statistics.succeeded += 1
            elif result.status == "timeout":
                self.statistics.timed_out += 1
            else:
                self.statistics.failed += 1
        return results

    # ------------------------------------------------------------------

    def _job_limit(self, job: Job) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.timeout

    def _run_inline(self, job: Job) -> JobResult:
        start = time.perf_counter()
        limit = self._job_limit(job)
        try:
            value = _execute_job(job)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
            elapsed = time.perf_counter() - start
            if limit is not None and elapsed > limit:
                # A pooled worker would have been stopped before it could
                # raise, so the over-budget failure is a timeout there too.
                return self._inline_timeout(job, limit, elapsed)
            return JobResult(
                job.label, "error", error=f"{type(exc).__name__}: {exc}",
                elapsed=elapsed,
            )
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed > limit:
            # Post-hoc enforcement: the job could not be interrupted, so the
            # limit is applied to its wall-clock time after the fact.
            return self._inline_timeout(job, limit, elapsed)
        return JobResult(job.label, "ok", value=value, elapsed=elapsed)

    @staticmethod
    def _inline_timeout(job: Job, limit: float, elapsed: float) -> JobResult:
        return JobResult(
            job.label, "timeout",
            error=f"no result within {limit} seconds "
                  f"(inline job finished after {elapsed:.3f}s)",
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------
    # Remote dispatch (jobs become requests to a `repro serve` daemon)

    def _run_remote(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Fan the jobs out to the daemon over ``self.jobs`` client threads."""
        from concurrent.futures import ThreadPoolExecutor

        workers = min(self.jobs, max(len(jobs), 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = []
            for result in pool.map(self._run_remote_job, jobs):
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results

    def _run_remote_job(self, job: Job) -> JobResult:
        from ..service.client import ServiceClient, ServiceError

        start = time.perf_counter()
        limit = self._job_limit(job)
        try:
            value = self._execute_remote(ServiceClient(self.server), job)
        except ServiceError as exc:
            elapsed = time.perf_counter() - start
            return JobResult(
                job.label, "error", error=f"service {exc.code}: {exc}",
                elapsed=elapsed,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
            elapsed = time.perf_counter() - start
            return JobResult(
                job.label, "error", error=f"{type(exc).__name__}: {exc}",
                elapsed=elapsed,
            )
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed > limit:
            return self._inline_timeout(job, limit, elapsed)
        return JobResult(job.label, "ok", value=value, elapsed=elapsed)

    @staticmethod
    def _execute_remote(client, job: Job) -> object:
        from ..service.client import check_options_from_config

        config = job.config
        if isinstance(job, CaseJob):
            from ..reporting.metrics import CaseMetrics
            from ..reporting.runner import CaseOutcome

            options = {}
            if config is not None and config.oracle_packets:
                options["oracle_packets"] = config.oracle_packets
            if config is not None and config.oracle_seed is not None:
                options["oracle_seed"] = config.oracle_seed
            answer = client.case(job.case, full=job.full, options=options)
            return CaseOutcome(CaseMetrics.from_dict(answer.metrics), answer.verdict)
        if isinstance(job, EquivalenceJob):
            return client.check(
                job.left, job.left_start, job.right, job.right_start,
                options=check_options_from_config(config, job.find_counterexamples),
            )
        raise EngineError(f"unknown job type {type(job).__name__}")

    def _run_pooled(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Up to ``self.jobs`` long-lived workers, started here and joined
        before returning.  Dedicated processes (instead of an executor pool)
        are what make the per-job timeout real: an expired job's worker is
        ``terminate()``d instead of left to starve the queue.  A worker that
        dies or sends an unreadable reply costs only its current job, and a
        lost worker is replaced only while jobs are still pending.
        ``on_result`` streams the contiguous done-prefix in submission order,
        whatever order the workers finish in.
        """
        context = multiprocessing.get_context(_MP_CONTEXT)
        size = min(self.jobs, len(jobs))
        results: List[Optional[JobResult]] = [None] * len(jobs)
        delivered = 0
        pending = deque(enumerate(jobs))
        workers: List[_Worker] = []
        try:
            while True:
                for worker in [w for w in workers if w.job is None and not w.process.is_alive()]:
                    worker.close()  # died while idle: no job lost
                    workers.remove(worker)
                idle = [worker for worker in workers if worker.job is None]
                for _ in range(min(size - len(workers), len(pending) - len(idle))):
                    workers.append(_Worker(context))
                    idle.append(workers[-1])
                for worker in idle[:len(pending)]:
                    index, job = pending.popleft()
                    worker.submit(index, job, self._job_limit(job))
                busy = [worker for worker in workers if worker.job is not None]
                if not busy:
                    break
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                multiprocessing.connection.wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout=max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None,
                )
                for worker in busy:
                    result = worker.collect()
                    if result is not None:
                        results[worker.index] = result
                        if worker.conn.closed:
                            workers.remove(worker)
                if on_result is not None:
                    while delivered < len(jobs) and results[delivered] is not None:
                        on_result(results[delivered])
                        delivered += 1
            for worker in workers:
                with contextlib.suppress(OSError):
                    worker.conn.send(None)  # the sentinel: an idle worker exits
            for worker in workers:
                worker.process.join()
        finally:
            for worker in workers:
                worker.close()
        return [result for result in results if result is not None]
