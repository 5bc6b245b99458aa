"""Record a normalized benchmark-history entry (``benchmarks/history/``).

Runs the solver-layer speedup workloads from ``bench_smt_queries`` (the
repeated-premise incremental-session comparison and the entailed-sweep AIG
comparison), times each side best-of-three, measures the calibration microbenchmark on the same
machine, and writes one schema-versioned JSON entry.  Usage::

    PYTHONPATH=src python benchmarks/record_history.py <label> [<filename>]

The committed entries form the in-repo perf trajectory (ROADMAP item 5);
``tests/reporting/test_history.py`` validates every file in the directory.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_smt_queries import _entailed_sweep_workload, _repeated_premise_workload

from repro.reporting.history import (
    HistoryEntry,
    calibration_seconds,
    history_dir,
    write_entry,
)


def _best_of(workload, *args, repeats=3):
    return min(workload(*args)[0] for _ in range(repeats))


def measure() -> dict:
    """Best-of-three seconds for every tracked benchmark."""
    # Warm-up: first-touch allocations and imports stay out of the timings.
    _repeated_premise_workload(True)
    _entailed_sweep_workload(True)
    return {
        "repeated_premise.incremental_on": _best_of(_repeated_premise_workload, True),
        "repeated_premise.incremental_off": _best_of(_repeated_premise_workload, False),
        "entailed_sweep.aig_on": _best_of(_entailed_sweep_workload, True),
        "entailed_sweep.aig_off": _best_of(_entailed_sweep_workload, False),
    }


def main(argv) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__)
        return 2
    label = argv[1]
    filename = argv[2] if len(argv) == 3 else f"{label}.json"
    from datetime import date

    entry = HistoryEntry(
        label=label,
        date=date.today().isoformat(),
        calibration_seconds=calibration_seconds(),
        rows=measure(),
        notes="recorded by benchmarks/record_history.py",
    )
    path = write_entry(
        history_dir(Path(__file__).resolve().parent.parent), filename, entry
    )
    print(f"wrote {path}")
    for name in sorted(entry.rows):
        print(f"  {name}: {entry.rows[name]:.4f}s  (normalized {entry.normalized(name):.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
