"""Validated parsing of the ``LEAPFROG_*`` environment variables.

Every entry point that reads configuration from the environment (the CLI and
the benchmark harness) goes through these helpers, so a typo like
``LEAPFROG_JOBS=abc`` fails with a message naming the variable and the
accepted values instead of a bare ``ValueError`` from ``int()``, and an
out-of-range value (``0`` worker processes) can never reach the engine.

The checker's own settings are resolved in one place,
:func:`resolve_checker_config`: each checking command calls it once and
hands the resulting :class:`~repro.core.algorithm.CheckerConfig` to its jobs
whole, so nothing downstream reads the environment again.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:
    from .core.algorithm import CheckerConfig


class EnvConfigError(ValueError):
    """Raised when an environment variable holds an unusable value."""


#: Worker count for the equivalence engine (≥ 1; default 1, sequential).
JOBS_VAR = "LEAPFROG_JOBS"
#: Default shard count for ``repro campaign run`` (≥ 1; default 1).
SHARDS_VAR = "LEAPFROG_SHARDS"
#: Directory for the persistent solver-query cache (unset = in-memory only).
CACHE_DIR_VAR = "LEAPFROG_CACHE_DIR"
#: Ablation toggle for the incremental solver session (unset = per-config default).
INCREMENTAL_VAR = "LEAPFROG_INCREMENTAL"
#: Ablation toggle for AIG simplification in the lowering pipeline
#: (unset = per-config default, which is on).
AIG_VAR = "LEAPFROG_AIG"
#: Differential-oracle packet count per verdict; also accepts on/off
#: (on = the default packet budget).  Unset/0/off disables the oracle.
ORACLE_VAR = "LEAPFROG_ORACLE"
#: Seed threaded through every random sampler (oracle, benchmarks, tests).
SEED_VAR = "LEAPFROG_SEED"
#: Address of a running ``repro serve`` daemon: a unix-socket path (bare or
#: ``unix:`` prefixed) or ``http://host:port``.  When set, the CLI commands
#: become thin clients of the daemon; unset = in-process checking.
SERVER_VAR = "LEAPFROG_SERVER"
#: Backend solver selection (unset = the internal CDCL stack).  Accepts the
#: internal engines (``internal``/``cdcl``, ``dpll``/``internal-dpll``) and
#: the external SMT solvers in :data:`EXTERNAL_SOLVERS`; anything else is a
#: configuration error, never a silent fallback.
SOLVER_VAR = "LEAPFROG_SOLVER"
#: Portfolio-mode toggle: race the internal solver against every external
#: solver found on PATH, first definitive answer wins (default off).
PORTFOLIO_VAR = "LEAPFROG_PORTFOLIO"
#: Learned-clause database cap for the internal CDCL solver; also accepts
#: on/off (on = the solver's default cap, off/0 = keep every learned clause).
#: Unset = per-config default, which is the default cap.
CLAUSE_DB_VAR = "LEAPFROG_CLAUSE_DB"

#: The external SMT solvers the backend layer knows how to drive, in
#: preference order.  ``smt.backend.EXTERNAL_SOLVER_COMMANDS`` maps each name
#: to its command line; a test pins the two in sync.
EXTERNAL_SOLVERS = ("z3", "cvc5", "cvc4", "boolector")

#: Spellings that select the internal solver stack.
INTERNAL_SOLVERS = ("internal", "cdcl", "dpll", "internal-dpll")

#: Every value :func:`parse_solver` accepts (the CLI ``--solver`` choices).
SOLVER_CHOICES = INTERNAL_SOLVERS + EXTERNAL_SOLVERS

#: Packet budget used when ``LEAPFROG_ORACLE`` is a bare "on"/"true".
DEFAULT_ORACLE_PACKETS = 64

#: Learned-clause cap used when ``LEAPFROG_CLAUSE_DB`` is a bare "on"/"true".
#: Mirrors ``repro.smt.sat.solver.DEFAULT_CLAUSE_DB_MAX`` (a test pins the
#: two in sync) — duplicated here so parsing an environment variable does not
#: import the solver stack.
DEFAULT_CLAUSE_DB_MAX = 4000

_TRUE_VALUES = ("1", "true", "yes", "on")
_FALSE_VALUES = ("0", "false", "no", "off")


def parse_jobs(raw: Optional[str], source: str = JOBS_VAR) -> int:
    """Parse a worker count: a positive integer, with ``None``/empty = 1.

    ``source`` names the variable (or flag) in error messages.
    """
    if raw is None or raw.strip() == "":
        return 1
    try:
        jobs = int(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{source} must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise EnvConfigError(f"{source} must be >= 1, got {jobs}")
    return jobs


def jobs_from_env(environ: Optional[Mapping[str, str]] = None) -> int:
    """The engine worker count requested via ``LEAPFROG_JOBS`` (default 1)."""
    environ = os.environ if environ is None else environ
    return parse_jobs(environ.get(JOBS_VAR), source=JOBS_VAR)


def shards_from_env(environ: Optional[Mapping[str, str]] = None) -> int:
    """The campaign shard count from ``LEAPFROG_SHARDS`` (default 1).

    Same grammar as ``LEAPFROG_JOBS`` — a positive integer — since a shard
    count is a split factor, not a worker count.
    """
    environ = os.environ if environ is None else environ
    return parse_jobs(environ.get(SHARDS_VAR), source=SHARDS_VAR)


def parse_flag(raw: Optional[str], source: str) -> Optional[bool]:
    """Parse a boolean toggle; ``None``/empty means "not set"."""
    if raw is None or raw.strip() == "":
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise EnvConfigError(
        f"{source} must be one of {_TRUE_VALUES + _FALSE_VALUES}, got {raw!r}"
    )


def parse_oracle_packets(raw: Optional[str], source: str = ORACLE_VAR) -> Optional[int]:
    """Parse an oracle packet budget; ``None``/empty means "not set".

    Accepts a non-negative integer (0 = oracle off) or the boolean words
    accepted by :func:`parse_flag` (``on`` = the default budget of
    ``DEFAULT_ORACLE_PACKETS`` packets).
    """
    if raw is None or raw.strip() == "":
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return DEFAULT_ORACLE_PACKETS
    if value in _FALSE_VALUES:
        return 0
    try:
        packets = int(value)
    except ValueError:
        raise EnvConfigError(
            f"{source} must be a non-negative integer or one of "
            f"{_TRUE_VALUES + _FALSE_VALUES}, got {raw!r}"
        ) from None
    if packets < 0:
        raise EnvConfigError(f"{source} must be >= 0, got {packets}")
    return packets


def oracle_packets_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """The ``LEAPFROG_ORACLE`` packet budget, or ``None`` when unset."""
    environ = os.environ if environ is None else environ
    return parse_oracle_packets(environ.get(ORACLE_VAR), source=ORACLE_VAR)


def parse_clause_db(raw: Optional[str], source: str = CLAUSE_DB_VAR) -> Optional[int]:
    """Parse a learned-clause database cap; ``None``/empty means "not set".

    Accepts a non-negative integer (0 = keep every learned clause forever) or
    the boolean words accepted by :func:`parse_flag` (``on`` = the solver's
    default cap of ``DEFAULT_CLAUSE_DB_MAX`` clauses, ``off`` = 0).
    """
    if raw is None or raw.strip() == "":
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return DEFAULT_CLAUSE_DB_MAX
    if value in _FALSE_VALUES:
        return 0
    try:
        cap = int(value)
    except ValueError:
        raise EnvConfigError(
            f"{source} must be a non-negative integer or one of "
            f"{_TRUE_VALUES + _FALSE_VALUES}, got {raw!r}"
        ) from None
    if cap < 0:
        raise EnvConfigError(f"{source} must be >= 0, got {cap}")
    return cap


def parse_seed(raw: Optional[str], source: str = SEED_VAR) -> Optional[int]:
    """Parse a sampler seed (any integer); ``None``/empty means "not set"."""
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw.strip())
    except ValueError:
        raise EnvConfigError(f"{source} must be an integer, got {raw!r}") from None


def seed_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[int]:
    """The ``LEAPFROG_SEED`` sampler seed, or ``None`` when unset."""
    environ = os.environ if environ is None else environ
    return parse_seed(environ.get(SEED_VAR), source=SEED_VAR)


def parse_solver(raw: Optional[str], source: str = SOLVER_VAR) -> Optional[str]:
    """Parse a solver selection; ``None``/empty means "not set".

    Returns the normalised (lower-cased) solver name.  An unknown name — a
    typo like ``z33`` — is an :class:`EnvConfigError`, not a silent fallback
    to the internal solver: whether the named solver is actually installed is
    checked later by the backend layer, but the *name* must be one we know.
    """
    if raw is None or raw.strip() == "":
        return None
    value = raw.strip().lower()
    if value in SOLVER_CHOICES:
        return value
    raise EnvConfigError(
        f"{source} must be one of {SOLVER_CHOICES}, got {raw!r}"
    )


def server_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """The ``LEAPFROG_SERVER`` daemon address, or ``None`` when unset."""
    environ = os.environ if environ is None else environ
    value = environ.get(SERVER_VAR)
    if value is None or value.strip() == "":
        return None
    return value.strip()


def _parse_path(raw: Optional[str], source: str) -> Optional[str]:
    """A directory path; ``None``/blank means "not set"."""
    if raw is None or raw.strip() == "":
        return None
    return raw


#: The :class:`~repro.core.algorithm.CheckerConfig` fields an environment
#: variable can set: field name -> (variable, parser).
CHECKER_VARIABLES = {
    "cache_dir": (CACHE_DIR_VAR, _parse_path),
    "use_incremental": (INCREMENTAL_VAR, parse_flag),
    "use_aig": (AIG_VAR, parse_flag),
    "oracle_packets": (ORACLE_VAR, parse_oracle_packets),
    "oracle_seed": (SEED_VAR, parse_seed),
    "solver": (SOLVER_VAR, parse_solver),
    "portfolio": (PORTFOLIO_VAR, parse_flag),
    "clause_db_max": (CLAUSE_DB_VAR, parse_clause_db),
}


def resolve_checker_config(
    flags: Optional[Mapping[str, object]] = None,
    environ: Optional[Mapping[str, str]] = None,
    base: Optional[CheckerConfig] = None,
) -> CheckerConfig:
    """The one :class:`~repro.core.algorithm.CheckerConfig` of a command.

    ``flags`` maps config field names to command-line values, ``None``
    meaning "not given".  Each field takes the flag if given, else its
    ``LEAPFROG_*`` variable (:data:`CHECKER_VARIABLES`) if set, else the
    value in ``base`` (default: a plain ``CheckerConfig()``).

    The solver choice is validated here, before any work or worker process
    starts: portfolio mode excludes an external solver, and an external
    solver must be on PATH.  Both raise
    :class:`~repro.smt.backend.BackendError`.
    """
    import dataclasses
    import shutil

    from .core.algorithm import CheckerConfig
    from .smt.backend import EXTERNAL_SOLVER_COMMANDS, BackendError

    environ = os.environ if environ is None else environ
    values = {name: value for name, value in (flags or {}).items() if value is not None}
    for name, (variable, parse) in CHECKER_VARIABLES.items():
        if name not in values:
            value = parse(environ.get(variable), variable)
            if value is not None:
                values[name] = value
    config = dataclasses.replace(base if base is not None else CheckerConfig(), **values)
    if config.portfolio and config.solver not in (None, "internal", "cdcl"):
        raise BackendError(
            "--portfolio already races every available solver; "
            f"it cannot be combined with --solver {config.solver}"
        )
    command = EXTERNAL_SOLVER_COMMANDS.get(config.solver)
    if command is not None and not shutil.which(command[0]):
        raise BackendError(f"external solver {config.solver!r} is not on PATH")
    return config
