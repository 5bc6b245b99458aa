"""The layered solver-backend stack.

The paper's tool targets several off-the-shelf SMT solvers behind a single
interface (Z3, CVC4, Boolector), selected by a vernacular command.  This
module provides the analogous abstraction as an explicitly layered stack:

* :class:`SolverBackend` — the protocol.  Every backend *declares* what it
  supports through :class:`SolverCapabilities` and inherits safe defaults
  for every optional operation (no incremental session, no cache, no
  internal solver handle), so callers dispatch on declared capabilities
  instead of ``getattr``-probing.
* :class:`BackendMiddleware` — the delegating base for composable layers;
  :class:`repro.smt.cache.CachingBackend` is the canonical middleware.
* :class:`InternalBackend` — the built-in bit-blasting QF_BV procedure,
  always available and used by default.
* :class:`ExternalBackend` — shells out to any SMT-LIB 2 compliant solver
  found on ``PATH`` via the pretty-printer in :mod:`repro.logic.smtlib`,
  distinguishing timeouts, cancellations and unparseable output.
* :class:`PortfolioBackend` — races the internal solver (in a worker
  thread) against every external solver, first definitive answer wins and
  the losers are cancelled promptly.

:func:`backend_for_solver` maps a validated ``--solver``/``LEAPFROG_SOLVER``
choice (see :func:`repro.envconfig.resolve_checker_config`) to its backend;
an unknown or missing solver is an error, never a silent fallback.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic import folbv, smtlib
from ..logic.folbv import BFormula
from ..p4a.bitvec import Bits
from .bvsolver import InternalBVSolver, SatResult, SatStatus, SolverStatistics


class BackendError(Exception):
    """Raised when a backend cannot answer a query."""


@dataclass(frozen=True)
class SolverCapabilities:
    """What a backend declares it can do.

    Callers branch on these flags instead of probing for attributes:
    ``incremental`` means :meth:`SolverBackend.incremental_session` returns a
    live session, ``models`` that SAT answers carry assignments,
    ``cancellation`` that ``check_sat(stop=...)`` aborts promptly,
    ``caching`` that ``lookup``/``store``/``cache_statistics`` are backed by
    a real cache, and ``internal_solver`` that
    :attr:`SolverBackend.internal_solver` exposes the in-process
    :class:`InternalBVSolver` (needed by the CEGIS loop).
    """

    incremental: bool = False
    models: bool = False
    cancellation: bool = False
    caching: bool = False
    internal_solver: bool = False


class SolverBackend:
    """Interface implemented by every solver backend.

    Optional operations have conservative default implementations, so a
    caller holding any ``SolverBackend`` may invoke the full protocol; the
    :attr:`capabilities` flags say which calls do real work.
    """

    name = "abstract"

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        """Decide satisfiability; ``stop`` (when supported) aborts early."""
        raise NotImplementedError

    @property
    def statistics(self) -> SolverStatistics:
        raise NotImplementedError

    @property
    def capabilities(self) -> SolverCapabilities:
        return SolverCapabilities()

    def incremental_session(self):
        """A live incremental session, or ``None`` when unsupported."""
        return None

    def lookup(self, formula: BFormula, fingerprint: Optional[str] = None) -> Optional[SatResult]:
        """A cached result for ``formula``, or ``None`` (default: no cache)."""
        return None

    def store(self, formula: BFormula, result: SatResult, fingerprint: Optional[str] = None) -> None:
        """Record ``result`` for ``formula`` (default: dropped)."""

    @property
    def cache_statistics(self):
        """Cache hit/miss counters, or ``None`` when there is no cache."""
        return None

    @property
    def internal_solver(self) -> Optional[InternalBVSolver]:
        """The in-process solver when one exists (CEGIS needs it)."""
        return None

    def close(self) -> None:
        """Release external resources (default: nothing to release)."""

    def trim_memory(self, max_entries: int) -> int:
        """Drop in-memory cache entries beyond ``max_entries`` (default: none)."""
        return 0

    @property
    def memory_entries(self) -> int:
        """In-memory cache size (default: no cache, zero entries)."""
        return 0


class BackendMiddleware(SolverBackend):
    """A composable layer that wraps another backend.

    Forwards the entire protocol to ``inner``; subclasses override exactly
    the operations they add behaviour to and extend
    :attr:`capabilities` with the flags they introduce.
    """

    def __init__(self, inner: SolverBackend) -> None:
        self.inner = inner
        self.name = inner.name

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        return self.inner.check_sat(formula, stop=stop)

    @property
    def statistics(self) -> SolverStatistics:
        return self.inner.statistics

    @property
    def capabilities(self) -> SolverCapabilities:
        return self.inner.capabilities

    def incremental_session(self):
        return self.inner.incremental_session()

    def lookup(self, formula: BFormula, fingerprint: Optional[str] = None) -> Optional[SatResult]:
        return self.inner.lookup(formula, fingerprint=fingerprint)

    def store(self, formula: BFormula, result: SatResult, fingerprint: Optional[str] = None) -> None:
        self.inner.store(formula, result, fingerprint=fingerprint)

    @property
    def cache_statistics(self):
        return self.inner.cache_statistics

    @property
    def internal_solver(self) -> Optional[InternalBVSolver]:
        return self.inner.internal_solver

    def close(self) -> None:
        self.inner.close()

    def trim_memory(self, max_entries: int) -> int:
        return self.inner.trim_memory(max_entries)

    @property
    def memory_entries(self) -> int:
        return self.inner.memory_entries


class InternalBackend(SolverBackend):
    """The built-in bit-blasting decision procedure."""

    name = "internal"

    def __init__(
        self,
        engine: str = "cdcl",
        validate_models: bool = True,
        use_aig: bool = True,
        clause_db_max: Optional[int] = None,
    ) -> None:
        self._engine = engine
        self._solver = InternalBVSolver(
            engine=engine,
            validate_models=validate_models,
            use_aig=use_aig,
            clause_db_max=clause_db_max,
        )

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        return self._solver.check_sat(formula, stop=stop)

    def incremental_session(self):
        """Delegate to :meth:`InternalBVSolver.incremental_session`."""
        return self._solver.incremental_session()

    @property
    def statistics(self) -> SolverStatistics:
        return self._solver.statistics

    @property
    def capabilities(self) -> SolverCapabilities:
        return SolverCapabilities(
            incremental=self._engine == "cdcl",
            models=True,
            cancellation=self._engine == "cdcl",
            internal_solver=True,
        )

    @property
    def internal_solver(self) -> InternalBVSolver:
        return self._solver

    @property
    def solver(self) -> InternalBVSolver:
        return self._solver


#: Known external solvers and the command lines that make them read SMT-LIB
#: from a file argument.  The key set mirrors ``envconfig.EXTERNAL_SOLVERS``
#: (the validated ``LEAPFROG_SOLVER`` vocabulary); a test pins them in sync.
EXTERNAL_SOLVER_COMMANDS: Dict[str, Sequence[str]] = {
    "z3": ("z3", "-smt2"),
    "cvc5": ("cvc5", "--lang", "smt2", "--produce-models"),
    "cvc4": ("cvc4", "--lang", "smt2", "--produce-models"),
    "boolector": ("boolector", "--smt2"),
}


def available_external_solvers() -> List[str]:
    """External solvers found on ``PATH``."""
    return [name for name, command in EXTERNAL_SOLVER_COMMANDS.items() if shutil.which(command[0])]


#: How often a running external solver is polled for completion, a pending
#: stop request, or a blown deadline.
_POLL_INTERVAL = 0.05


class ExternalBackend(SolverBackend):
    """An SMT-LIB 2 solver invoked as a subprocess.

    A query that times out, is cancelled through ``stop``, or produces
    output the SMT-LIB parser cannot understand each yield a distinct
    ``UNKNOWN`` result: ``SatResult.reason`` is ``"timeout"``,
    ``"cancelled"`` or ``"parse-failure"`` respectively, and for parse
    failures ``SatResult.detail`` carries the solver's stderr/stdout so the
    diagnosis is never discarded.
    """

    def __init__(
        self,
        solver: str,
        timeout: float = 60.0,
        command: Optional[Sequence[str]] = None,
    ) -> None:
        if command is None:
            if solver not in EXTERNAL_SOLVER_COMMANDS:
                raise BackendError(f"unknown external solver {solver!r}")
            if not shutil.which(EXTERNAL_SOLVER_COMMANDS[solver][0]):
                raise BackendError(f"external solver {solver!r} is not on PATH")
            command = EXTERNAL_SOLVER_COMMANDS[solver]
        self.name = solver
        self._command = tuple(command)
        self._timeout = timeout
        self._statistics = SolverStatistics()
        #: The most recently spawned solver process; tests assert it is
        #: reaped (``poll() is not None``) after every check_sat return.
        self.last_process: Optional[subprocess.Popen] = None

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        import tempfile

        script = smtlib.to_smtlib(formula, comments=[f"query issued to {self.name}"])
        start = time.perf_counter()
        with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as handle:
            handle.write(script)
            path = handle.name
        try:
            result = self._run_solver(formula, path, start, stop)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._statistics.record(result)
        return result

    def _run_solver(
        self,
        formula: BFormula,
        path: str,
        start: float,
        stop: Optional[threading.Event],
    ) -> SatResult:
        deadline = start + self._timeout
        # The solver gets its own process group (session) so that a kill on
        # cancellation/timeout reaps grandchildren too: a wrapper script's
        # child would otherwise keep the stdout pipe open and block the
        # final ``communicate()`` until it exits on its own.
        process = subprocess.Popen(
            list(self._command) + [path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=hasattr(os, "killpg"),
        )
        self.last_process = process
        stdout, stderr = "", ""
        reason = None
        while True:
            if stop is not None and stop.is_set():
                reason = "cancelled"
                break
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                reason = "timeout"
                break
            try:
                stdout, stderr = process.communicate(
                    timeout=min(_POLL_INTERVAL, remaining)
                )
                break
            except subprocess.TimeoutExpired:
                continue
        if reason is not None:
            _kill_process_tree(process)
            stdout, stderr = process.communicate()
        elapsed = time.perf_counter() - start
        if reason == "timeout":
            self._statistics.external_timeouts += 1
            return SatResult(SatStatus.UNKNOWN, None, elapsed, reason="timeout")
        if reason == "cancelled":
            return SatResult(SatStatus.UNKNOWN, None, elapsed, reason="cancelled")
        answer = smtlib.parse_check_sat_result(stdout)
        if answer is None:
            self._statistics.parse_failures += 1
            detail = _solver_diagnostics(stdout, stderr, process.returncode)
            warnings.warn(
                f"external solver {self.name!r} produced no sat/unsat answer: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
            return SatResult(
                SatStatus.UNKNOWN, None, elapsed, reason="parse-failure", detail=detail
            )
        if answer:
            variables = folbv.free_variables(formula)
            model = smtlib.parse_model_values(stdout, variables)
            for name, width in variables.items():
                model.setdefault(name, Bits.zeros(width))
            return SatResult(SatStatus.SAT, model, elapsed)
        return SatResult(SatStatus.UNSAT, None, elapsed)

    @property
    def statistics(self) -> SolverStatistics:
        return self._statistics

    @property
    def capabilities(self) -> SolverCapabilities:
        return SolverCapabilities(models=True, cancellation=True)


def _kill_process_tree(process: subprocess.Popen) -> None:
    """Kill the solver and (where the platform allows) its whole group."""
    if hasattr(os, "killpg"):
        try:
            os.killpg(os.getpgid(process.pid), signal.SIGKILL)
            return
        except (ProcessLookupError, PermissionError, OSError):
            pass  # already gone, or group unavailable: fall through
    process.kill()


def _solver_diagnostics(stdout: str, stderr: str, returncode: Optional[int]) -> str:
    """A compact, non-empty description of what the solver actually said."""
    parts = [f"exit={returncode}"]
    for label, text in (("stderr", stderr), ("stdout", stdout)):
        text = (text or "").strip()
        if text:
            parts.append(f"{label}: {text[:500]}")
    return "; ".join(parts)


class PortfolioBackend(SolverBackend):
    """First-answer-wins race between the internal solver and external lanes.

    Each ``check_sat`` runs every lane in its own thread sharing one stop
    event; the first definitive (SAT/UNSAT) answer wins, the event is set,
    and the remaining lanes cancel promptly — the internal CDCL loop polls
    the event between propagations and external subprocesses are killed.
    Per-lane win/loss/cancel/error counters are kept in
    ``statistics.portfolio_lanes`` and flow into Table 2.

    Lanes that disagree on a definitive answer raise :class:`BackendError`:
    a portfolio must never trade soundness for speed.
    """

    def __init__(
        self,
        use_aig: bool = True,
        validate_models: bool = True,
        solvers: Optional[Sequence[str]] = None,
        external_backends: Optional[Sequence[SolverBackend]] = None,
        timeout: float = 60.0,
        include_internal: bool = True,
        clause_db_max: Optional[int] = None,
    ) -> None:
        self._validate_models = validate_models
        self._internal = (
            InternalBackend(
                validate_models=validate_models,
                use_aig=use_aig,
                clause_db_max=clause_db_max,
            )
            if include_internal
            else None
        )
        if external_backends is not None:
            self._externals = list(external_backends)
        else:
            names = list(solvers) if solvers is not None else available_external_solvers()
            self._externals = [ExternalBackend(name, timeout=timeout) for name in names]
        lanes = ([] if self._internal is None else [("internal", self._internal)])
        lanes += [(backend.name, backend) for backend in self._externals]
        if not lanes:
            raise BackendError("portfolio needs at least one lane")
        self._lanes: List[Tuple[str, SolverBackend]] = lanes
        self.name = "portfolio(" + "+".join(name for name, _ in lanes) + ")"
        self._statistics = SolverStatistics()
        self._statistics.portfolio_lanes = {
            name: {"wins": 0, "losses": 0, "cancelled": 0, "errors": 0}
            for name, _ in lanes
        }

    @property
    def lane_counters(self) -> Dict[str, Dict[str, int]]:
        return self._statistics.portfolio_lanes

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        start = time.perf_counter()
        if len(self._lanes) == 1:
            # A single lane needs no race (the common no-external-solver
            # case); account for it as an uncontested win.
            name, backend = self._lanes[0]
            result = backend.check_sat(formula, stop=stop)
            outcome = self._finish([(name, result)], start, formula)
            self._statistics.record(outcome)
            self._mirror_internal_counters()
            return outcome

        local_stop = threading.Event()
        lock = threading.Lock()
        arrivals: List[Tuple[str, SatResult]] = []
        answered = threading.Event()

        def run_lane(lane_name: str, backend: SolverBackend) -> None:
            try:
                result = backend.check_sat(formula, stop=local_stop)
            except Exception as error:  # noqa: BLE001 - a lane crash must not sink the race
                with lock:
                    self.lane_counters[lane_name]["errors"] += 1
                    arrivals.append(
                        (lane_name, SatResult(SatStatus.UNKNOWN, None, 0.0,
                                              reason="error", detail=str(error)))
                    )
                return
            with lock:
                arrivals.append((lane_name, result))
                if result.status in (SatStatus.SAT, SatStatus.UNSAT):
                    local_stop.set()
                    answered.set()

        threads = [
            threading.Thread(target=run_lane, args=lane, daemon=True)
            for lane in self._lanes
        ]
        for thread in threads:
            thread.start()
        while not answered.is_set() and any(t.is_alive() for t in threads):
            if stop is not None and stop.is_set():
                break
            answered.wait(_POLL_INTERVAL)
        local_stop.set()
        for thread in threads:
            thread.join()
        with lock:
            collected = list(arrivals)
        outcome = self._finish(collected, start, formula)
        self._statistics.record(outcome)
        self._mirror_internal_counters()
        return outcome

    def _finish(
        self,
        arrivals: Sequence[Tuple[str, SatResult]],
        start: float,
        formula: BFormula,
    ) -> SatResult:
        winner_lane, result = self._combine(arrivals)
        elapsed = time.perf_counter() - start
        if result is None:
            reasons = sorted({r.reason for _, r in arrivals if r.reason})
            return SatResult(
                SatStatus.UNKNOWN, None, elapsed,
                reason=";".join(reasons) or "all-lanes-unknown",
            )
        if result.is_sat and self._validate_models and result.model is not None:
            complete = dict(result.model)
            for name, width in folbv.free_variables(formula).items():
                complete.setdefault(name, Bits.zeros(width))
            if not folbv.eval_formula(formula, complete):
                raise BackendError(
                    f"portfolio lane {winner_lane!r} returned a bogus model"
                )
        return SatResult(
            result.status, result.model, elapsed,
            num_clauses=result.num_clauses, num_variables=result.num_variables,
            reason=result.reason, detail=result.detail,
        )

    def _combine(
        self, arrivals: Sequence[Tuple[str, SatResult]]
    ) -> Tuple[Optional[str], Optional[SatResult]]:
        """Pick the winner from arrival-ordered lane results; count the rest.

        Raises :class:`BackendError` when two lanes give contradictory
        definitive answers (the race must be abandoned, not adjudicated).
        """
        definitive = [
            (lane, result)
            for lane, result in arrivals
            if result.status in (SatStatus.SAT, SatStatus.UNSAT)
        ]
        if {result.status for _, result in definitive} == {SatStatus.SAT, SatStatus.UNSAT}:
            detail = ", ".join(f"{lane}={result.status.value}" for lane, result in definitive)
            raise BackendError(f"portfolio lanes disagree: {detail}")
        answered = {lane for lane, _ in arrivals}
        winner = definitive[0] if definitive else None
        for lane, _ in self._lanes:
            counters = self.lane_counters[lane]
            if winner is not None and lane == winner[0]:
                counters["wins"] += 1
            elif any(lane == name for name, _ in definitive):
                counters["losses"] += 1
            elif lane in answered and any(
                name == lane and result.reason == "error" for name, result in arrivals
            ):
                pass  # already counted as an error when the lane crashed
            else:
                counters["cancelled"] += 1
        if winner is None:
            return None, None
        return winner

    def _mirror_internal_counters(self) -> None:
        # The AIG lowering counters live in the internal lane's ledger;
        # surface them on the portfolio's own statistics so the usual
        # SolverStatistics → EntailmentStatistics flow keeps working.
        if self._internal is None:
            return
        inner = self._internal.statistics
        self._statistics.aig_nodes = inner.aig_nodes
        self._statistics.aig_clauses_saved = inner.aig_clauses_saved
        self._statistics.aig_shortcuts = inner.aig_shortcuts
        self._statistics.db_reductions = inner.db_reductions
        self._statistics.clauses_deleted = inner.clauses_deleted
        self._statistics.minimized_literals = inner.minimized_literals
        self._statistics.lbd_sum = inner.lbd_sum
        self._statistics.lbd_clauses = inner.lbd_clauses

    @property
    def statistics(self) -> SolverStatistics:
        return self._statistics

    @property
    def capabilities(self) -> SolverCapabilities:
        return SolverCapabilities(
            models=True,
            cancellation=True,
            internal_solver=self._internal is not None,
        )

    @property
    def internal_solver(self) -> Optional[InternalBVSolver]:
        return None if self._internal is None else self._internal.internal_solver


def backend_for_solver(
    choice: Optional[str],
    use_aig: bool = True,
    validate_models: bool = True,
    clause_db_max: Optional[int] = None,
) -> SolverBackend:
    """The backend for a validated ``--solver``/``LEAPFROG_SOLVER`` choice.

    ``None`` (unset) and the internal spellings yield the built-in solver;
    an external name yields an :class:`ExternalBackend` and raises
    :class:`BackendError` when that solver is not installed — selection
    errors must surface, not silently degrade to a different prover.
    """
    if choice in (None, "", "internal", "cdcl"):
        return InternalBackend(
            validate_models=validate_models,
            use_aig=use_aig,
            clause_db_max=clause_db_max,
        )
    if choice in ("dpll", "internal-dpll"):
        return InternalBackend(engine="dpll", validate_models=validate_models)
    return ExternalBackend(choice)
