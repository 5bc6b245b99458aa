"""The layered solver-backend stack.

The paper's tool targets several off-the-shelf SMT solvers behind a single
interface (Z3, CVC4, Boolector), selected by a vernacular command.  This
module provides the analogous abstraction as an explicitly layered stack:

* :class:`SolverBackend` — the protocol.  Every backend hands out a
  solving session (``incremental_session()``): the internal CDCL engine an
  assumption-based :class:`~repro.smt.incremental.IncrementalSession`, every
  other backend a :class:`OneShotSession` that answers each check with one
  ``check_sat`` call.  The cache operations default to no cache.
* :class:`InternalBackend` — the built-in bit-blasting QF_BV procedure,
  always available and used by default.
* :class:`ExternalBackend` — shells out to any SMT-LIB 2 compliant solver
  found on ``PATH`` via the pretty-printer in :mod:`repro.logic.smtlib`,
  distinguishing timeouts, cancellations and unparseable output.

:class:`repro.smt.cache.CachingBackend` stacks a persistent query cache on
top of any of them.  :func:`backend_for_solver` maps a validated
``--solver``/``LEAPFROG_SOLVER`` choice (see
:func:`repro.envconfig.resolve_checker_config`) to its backend; an unknown
or missing solver is an error, never a silent fallback.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import threading
import time
import warnings
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .. import counters
from ..logic import folbv, smtlib
from ..logic.folbv import BFormula
from ..p4a.bitvec import Bits
from .bvsolver import InternalBVSolver, SatResult, SatStatus


class OneShotSession:
    """The session protocol answered by one ``check_sat`` call per check.

    The degenerate case of assumption-based incremental solving (Eén &
    Sörensson, 2003): :meth:`activation` records a formula once and hands
    out its literal; :meth:`check` conjoins the assumed formulas and the
    goal and asks ``backend`` (anything with a ``check_sat``) once.  No solver state is shared between checks, so it
    suits any solver and is the certificate re-checker's independent path.
    """

    def __init__(self, backend) -> None:
        self._backend = backend
        self._formulas: List[BFormula] = []  # literal - 1 -> formula
        self._literals: Dict[BFormula, int] = {}  # formula -> literal

    def activation(self, formula: BFormula) -> int:
        literal = self._literals.get(formula)
        if literal is None:
            self._formulas.append(formula)
            literal = self._literals[formula] = len(self._formulas)
        return literal

    def check(
        self,
        assumptions: Sequence[int] = (),
        goal: Optional[BFormula] = None,
        variables: Optional[Dict[str, int]] = None,
        validate_formula: Optional[BFormula] = None,
    ) -> SatResult:
        """Satisfiability of the assumed formulas and ``goal``, in one query.

        A sat model covers ``variables`` too, zero-filled where the solver
        left one out.  ``validate_formula`` is accepted for protocol
        compatibility; the backend validates its own models.
        """
        parts = [self._formulas[literal - 1] for literal in assumptions]
        if goal is not None:
            parts.append(goal)
        result = self._backend.check_sat(folbv.b_and(parts))
        if result.is_sat and variables:
            model = dict(result.model or {})
            for name, width in variables.items():
                model.setdefault(name, Bits.zeros(width))
            result = replace(result, model=model)
        return result


class BackendError(Exception):
    """Raised when a backend cannot answer a query."""


class SolverBackend:
    """Interface implemented by every solver backend.

    Optional operations have conservative default implementations, so a
    caller holding any ``SolverBackend`` may invoke the full protocol.
    """

    name = "abstract"

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        """Decide satisfiability; ``stop`` (when supported) aborts early."""
        raise NotImplementedError

    def incremental_session(self):
        """A solving session (default: one ``check_sat`` call per check)."""
        return OneShotSession(self)

    def lookup(self, formula: BFormula, fingerprint: Optional[str] = None) -> Optional[SatResult]:
        """A cached result for ``formula``, or ``None`` (default: no cache)."""
        return None

    def store(self, formula: BFormula, result: SatResult, fingerprint: Optional[str] = None) -> None:
        """Record ``result`` for ``formula`` (default: dropped)."""

    def close(self) -> None:
        """Release external resources (default: nothing to release)."""


class InternalBackend(SolverBackend):
    """The built-in bit-blasting decision procedure."""

    name = "internal"

    def __init__(
        self,
        engine: str = "cdcl",
        validate_models: bool = True,
        use_aig: bool = True,
    ) -> None:
        self._solver = InternalBVSolver(
            engine=engine, validate_models=validate_models, use_aig=use_aig
        )

    def check_sat(self, formula: BFormula, stop: Optional[threading.Event] = None) -> SatResult:
        return self._solver.check_sat(formula, stop=stop)

    def incremental_session(self):
        """Delegate to :meth:`InternalBVSolver.incremental_session`."""
        return self._solver.incremental_session()


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
        counters.record_query(result.elapsed, result.num_clauses)
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
            counters.add("solver.external_timeouts")
            return SatResult(SatStatus.UNKNOWN, None, elapsed, reason="timeout")
        if reason == "cancelled":
            return SatResult(SatStatus.UNKNOWN, None, elapsed, reason="cancelled")
        answer = smtlib.parse_check_sat_result(stdout)
        if answer is None:
            counters.add("solver.parse_failures")
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


def backend_for_solver(
    choice: Optional[str],
    use_aig: bool = True,
    validate_models: bool = True,
) -> SolverBackend:
    """The backend for a validated ``--solver``/``LEAPFROG_SOLVER`` choice.

    ``None`` (unset) and the internal spellings yield the built-in solver;
    an external name yields an :class:`ExternalBackend` and raises
    :class:`BackendError` when that solver is not installed — selection
    errors must surface, not silently degrade to a different prover.
    """
    if choice in (None, "", "internal", "cdcl"):
        return InternalBackend(validate_models=validate_models, use_aig=use_aig)
    if choice in ("dpll", "internal-dpll"):
        return InternalBackend(
            engine="dpll", validate_models=validate_models, use_aig=use_aig
        )
    return ExternalBackend(choice)
