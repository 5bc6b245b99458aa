"""Normalized benchmark history (ROADMAP: the in-repo perf trajectory).

Raw wall-clock timings are not comparable across machines, so every history
entry stores each benchmark's seconds *and* its time normalized against a
calibration microbenchmark measured on the same machine in the same session:
``normalized = seconds / calibration_seconds``.  The calibration workload is
a fixed pure-Python integer loop that never touches the code under test, so
its runtime tracks only interpreter-and-hardware speed — a faster machine
shrinks both numerator and denominator and the ratio survives.

Entries are JSON files under ``benchmarks/history/``, one per recorded PR,
written by ``benchmarks/record_history.py`` and validated by the test suite.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

SCHEMA_VERSION = 1

# Tuned so one calibration run takes tens of milliseconds on current
# hardware: long enough to time stably, short enough to repeat.
_CALIBRATION_ITERATIONS = 200_000


class HistoryError(Exception):
    """A malformed or unreadable history entry."""


def calibration_workload() -> int:
    """The fixed integer workload behind the calibration timing.

    Deterministic, allocation-light, and independent of the repository's own
    modules; the returned checksum guards against the loop being optimised
    away and pins the workload's identity in tests.
    """
    accumulator = 0
    value = 0x9E3779B9
    for index in range(_CALIBRATION_ITERATIONS):
        value = (value * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        accumulator ^= value >> 33
        accumulator = (accumulator + index) & (2**64 - 1)
    return accumulator


# The checksum of calibration_workload(), pinned so a silent change to the
# calibration loop (which would skew every cross-PR comparison) fails a test.
CALIBRATION_CHECKSUM = 31117915001


def calibration_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock time of the calibration workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_workload()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class HistoryEntry:
    """One recorded PR's normalized benchmark results."""

    label: str
    date: str
    calibration_seconds: float
    rows: Dict[str, float] = field(default_factory=dict)  # name -> seconds
    notes: str = ""

    def normalized(self, name: str) -> float:
        return self.rows[name] / self.calibration_seconds

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "date": self.date,
            "calibration_seconds": round(self.calibration_seconds, 6),
            "rows": [
                {
                    "benchmark": name,
                    "seconds": round(seconds, 6),
                    "normalized": round(seconds / self.calibration_seconds, 3),
                }
                for name, seconds in sorted(self.rows.items())
            ],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HistoryEntry":
        if payload.get("schema") != SCHEMA_VERSION:
            raise HistoryError(
                f"unsupported history schema {payload.get('schema')!r}"
            )
        try:
            calibration = float(payload["calibration_seconds"])
            if calibration <= 0:
                raise HistoryError("calibration_seconds must be positive")
            rows = {
                row["benchmark"]: float(row["seconds"]) for row in payload["rows"]
            }
            return cls(
                label=payload["label"],
                date=payload["date"],
                calibration_seconds=calibration,
                rows=rows,
                notes=payload.get("notes", ""),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise HistoryError(f"malformed history entry: {error}") from error


def history_dir(root: Path) -> Path:
    return root / "benchmarks" / "history"


def load_history(directory: Path) -> List[HistoryEntry]:
    """Every entry under ``directory``, sorted by filename (the PR order)."""
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise HistoryError(f"{path.name}: invalid JSON: {error}") from error
        try:
            entries.append(HistoryEntry.from_dict(payload))
        except HistoryError as error:
            raise HistoryError(f"{path.name}: {error}") from error
    return entries


def write_entry(directory: Path, filename: str, entry: HistoryEntry) -> Path:
    """Write ``entry`` to a new file; an existing entry is never replaced."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    try:
        with path.open("x") as handle:
            handle.write(json.dumps(entry.as_dict(), indent=2) + "\n")
    except FileExistsError:
        raise HistoryError(f"{path.name} already exists; record under a new label") from None
    return path
