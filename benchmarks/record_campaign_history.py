"""Record a campaign-throughput history entry (``benchmarks/history/``).

Runs the agreement-gated campaign workload from ``bench_campaign`` at three
execution shapes (inline single worker, a two-process pool, a four-way
sharded sweep), times each best-of-three, measures the calibration
microbenchmark on the same machine, and writes one schema-versioned JSON
entry.  Usage::

    python benchmarks/record_campaign_history.py <label> [<filename>]

The entry goes to ``<filename>`` (default ``<label>.json``); an existing
entry is refused, never overwritten.

``benchmarks/history/0009-campaign.json`` was produced by this script;
``tests/integration/test_history.py`` validates every file in the directory.
"""

import sys
from datetime import date
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))


def main(label, filename=None):
    from bench_campaign import _campaign_round
    from repro.reporting.history import (
        HistoryEntry,
        calibration_seconds,
        history_dir,
        write_entry,
    )

    # Warm-up keeps first-touch imports/allocations out of the timings.
    _campaign_round(pairs=4)

    def best_of(repeats=3, **kwargs):
        return min(_campaign_round(**kwargs)[0] for _ in range(repeats))

    rows = {
        "campaign.single_worker": best_of(jobs=1),
        "campaign.two_workers": best_of(jobs=2),
        "campaign.sharded_x4": best_of(shards=4),
    }
    entry = HistoryEntry(
        label=label,
        date=date.today().isoformat(),
        calibration_seconds=calibration_seconds(),
        rows=rows,
        notes=(
            "campaign runner throughput (16 mini pairs, agreement-gated); "
            "measured via benchmarks/bench_campaign.py:_campaign_round"
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
