"""The normalized benchmark-history store (ROADMAP item 5, seeded in PR 7).

Every committed entry under ``benchmarks/history/`` must parse against the
current schema, carry a plausible calibration, and have its normalized values
consistent with ``seconds / calibration_seconds``.  The calibration workload
itself is pinned by checksum: silently changing it would skew every cross-PR
comparison.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reporting.history import (
    CALIBRATION_CHECKSUM,
    SCHEMA_VERSION,
    HistoryEntry,
    HistoryError,
    calibration_workload,
    history_dir,
    load_history,
    write_entry,
)

_REPO_ROOT = Path(__file__).resolve().parents[2]
_HISTORY = history_dir(_REPO_ROOT)


class TestCommittedEntries:
    def test_directory_is_seeded(self):
        assert _HISTORY.is_dir()
        assert list(_HISTORY.glob("*.json")), "history must have ≥1 entry"

    def test_every_entry_parses(self):
        entries = load_history(_HISTORY)
        assert entries
        for entry in entries:
            assert entry.label
            assert entry.date
            assert entry.calibration_seconds > 0
            assert entry.rows

    def test_normalized_values_are_consistent(self):
        for path in _HISTORY.glob("*.json"):
            payload = json.loads(path.read_text())
            calibration = payload["calibration_seconds"]
            for row in payload["rows"]:
                expected = row["seconds"] / calibration
                assert row["normalized"] == pytest.approx(expected, rel=0.01), (
                    f"{path.name}: {row['benchmark']} normalized value drifted"
                )

    def test_seed_entry_tracks_the_aig_workloads(self):
        entries = {entry.label: entry for entry in load_history(_HISTORY)}
        seed = entries["pr7-aig-pipeline"]
        assert {"entailed_sweep.aig_on", "entailed_sweep.aig_off"} <= set(seed.rows)
        # The committed measurement must itself exhibit the PR's claim.
        assert seed.normalized("entailed_sweep.aig_off") / seed.normalized(
            "entailed_sweep.aig_on"
        ) >= 1.5

    def test_clause_db_entry_exhibits_the_reduction_speedup(self):
        entries = {entry.label: entry for entry in load_history(_HISTORY)}
        entry = entries["0010-clause-db"]
        assert {"clause_db_churn.capped", "clause_db_churn.unbounded"} <= set(entry.rows)
        # The committed measurement must itself exhibit the PR's claim.
        assert entry.normalized("clause_db_churn.unbounded") / entry.normalized(
            "clause_db_churn.capped"
        ) >= 1.5


class TestSchema:
    def test_calibration_workload_is_pinned(self):
        assert calibration_workload() == CALIBRATION_CHECKSUM

    def test_round_trip(self, tmp_path):
        entry = HistoryEntry(
            label="test", date="2026-08-08", calibration_seconds=0.05,
            rows={"bench.a": 0.1, "bench.b": 0.02},
        )
        write_entry(tmp_path, "test.json", entry)
        [loaded] = load_history(tmp_path)
        assert loaded.label == "test"
        assert loaded.rows == pytest.approx(entry.rows)
        assert loaded.normalized("bench.a") == pytest.approx(2.0)

    def test_existing_entry_is_never_overwritten(self, tmp_path):
        def entry(label):
            return HistoryEntry(
                label=label, date="2026-08-08", calibration_seconds=0.05,
                rows={"bench.a": 0.1},
            )

        write_entry(tmp_path, "entry.json", entry("first"))
        with pytest.raises(HistoryError, match="already exists"):
            write_entry(tmp_path, "entry.json", entry("second"))
        [loaded] = load_history(tmp_path)
        assert loaded.label == "first"

    @pytest.mark.parametrize(
        "script", ["record_campaign_history.py", "record_table2_history.py"]
    )
    def test_recorders_require_a_label(self, script):
        completed = subprocess.run(
            [sys.executable, str(_REPO_ROOT / "benchmarks" / script)],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 2
        assert "<label>" in completed.stdout

    def test_schema_version_is_enforced(self):
        with pytest.raises(HistoryError):
            HistoryEntry.from_dict({"schema": SCHEMA_VERSION + 1})

    def test_malformed_entry_is_reported_with_filename(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(HistoryError) as excinfo:
            load_history(tmp_path)
        assert "bad.json" in str(excinfo.value)

    def test_nonpositive_calibration_rejected(self):
        payload = HistoryEntry(
            label="x", date="d", calibration_seconds=1.0, rows={"a": 1.0}
        ).as_dict()
        payload["calibration_seconds"] = 0.0
        with pytest.raises(HistoryError):
            HistoryEntry.from_dict(payload)
