"""Every counter name a report reads is a name some layer records.

Reports read the ledger by name, and a ledger reads 0 for a name nobody
recorded, so a misspelt name in a column table would render a silent 0.
"""

import re
from pathlib import Path

import repro
from repro.core.algorithm import CACHE_KEYS, ENTAILMENT_KEYS, CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.reporting.metrics import RUN_COLUMNS
from repro.scenarios import get, mini_names

#: A name is recorded by ``counters.add("name"...)`` or ``ledger["name"] +=``.
_RECORDED = re.compile(r'counters\.add\(\s*"([\w.]+)"|ledger\["([\w.]+)"\] \+=')


def _recorded_names():
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for match in _RECORDED.finditer(path.read_text(encoding="utf-8")):
            names.add(match.group(1) or match.group(2))
    return names


def test_table_columns_are_produced_by_the_mini_scenarios():
    produced = set()
    config = CheckerConfig(oracle_packets=32, oracle_seed=1)
    for name in mini_names():
        result = check_language_equivalence(*get(name).automata(), config=config)
        produced |= set(result.statistics.ledger)
    referenced = {column for column in RUN_COLUMNS.values() if isinstance(column, str)}
    assert referenced, "the column table references no ledger name"
    assert referenced <= produced, sorted(referenced - produced)


def test_statistics_sections_read_recorded_names():
    referenced = set(ENTAILMENT_KEYS.values()) | set(CACHE_KEYS.values())
    recorded = _recorded_names()
    assert referenced <= recorded, sorted(referenced - recorded)


def test_entailment_memo_counters_reach_every_report():
    names = {"entailment.memo_hits", "entailment.instances_reused"}
    assert names <= set(ENTAILMENT_KEYS.values())
    assert names <= {column for column in RUN_COLUMNS.values() if isinstance(column, str)}
    # The in-memory query-cache tier is gone, and so is its counter.
    assert "cache.memory_hits" not in set(ENTAILMENT_KEYS.values()) | set(CACHE_KEYS.values())
    assert "cache.memory_hits" not in _recorded_names()
    result = check_language_equivalence(*get("mini_edge").automata())
    row = result.statistics.entailment
    assert row["memo_hits"] > 0 and row["instances_reused"] > 0
