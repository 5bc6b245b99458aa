"""Record an end-to-end Table 2 history entry (``benchmarks/history/``).

Runs the paper-size Table 2 rows the way ``table --full`` does, one
``run_cases`` call per row with ``tracemalloc`` off, times each tracked row
best-of-three, measures the calibration microbenchmark on the same machine,
and writes one schema-versioned JSON entry.  The tracked rows are Edge,
Translation Validation, and the other fourteen rows summed.  Usage::

    python benchmarks/record_table2_history.py <label> [<filename>]

The entry goes to ``<filename>`` (default ``<label>.json``); an existing
entry is refused, never overwritten.

``tests/integration/test_history.py`` validates every file in the directory.
"""

import sys
import time
from datetime import date
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

_OWN_ROWS = {
    "Edge": "table2_full.edge",
    "Translation Validation": "table2_full.translation_validation",
}


def main(label, filename=None):
    from repro.core.algorithm import CheckerConfig
    from repro.reporting.history import (
        HistoryEntry,
        calibration_seconds,
        history_dir,
        write_entry,
    )
    from repro.reporting.runner import case_studies, run_cases

    def seconds(names):
        start = time.perf_counter()
        for name in names:
            run_cases([name], full=True, config=CheckerConfig(track_memory=False))
        return time.perf_counter() - start

    def best_of(names, repeats=3):
        return min(seconds(names) for _ in range(repeats))

    # Warm-up keeps first-touch imports/allocations out of the timings.
    seconds(["State Rearrangement"])
    others = [name for name in case_studies() if name not in _OWN_ROWS]
    rows = {benchmark: best_of([name]) for name, benchmark in _OWN_ROWS.items()}
    rows["table2_full.other_rows"] = best_of(others)
    entry = HistoryEntry(
        label=label,
        date=date.today().isoformat(),
        calibration_seconds=calibration_seconds(),
        rows=rows,
        notes=(
            "paper-size Table 2 rows, tracemalloc off, best of three; "
            f"other_rows sums the {len(others)} rows besides Edge and "
            "Translation Validation; measured via "
            "benchmarks/record_table2_history.py"
        ),
    )
    path = write_entry(history_dir(REPO), filename or f"{label}.json", entry)
    print("wrote", path)
    for name in sorted(rows):
        print(f"  {name}: {rows[name]:.3f}s")


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        print(__doc__)
        sys.exit(2)
    main(*sys.argv[1:3])
