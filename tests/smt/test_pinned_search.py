"""Pinned CDCL search counts over every mini scenario and the scaled table.

The answers a check reports can stay the same while the search underneath
them changes: a different decision order still proves the same pairs.  These
pins sum :class:`~repro.smt.sat.solver.CdclSolver` statistics over every solve
call of a run, so a change to the kernel's storage or decision heap that is
meant to keep the search identical (same decisions, same propagations, same
conflicts) fails here if it does not.
"""

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.reporting import run_cases
from repro.scenarios import get, mini_names
from repro.smt.sat.solver import CdclSolver

_FIELDS = (
    "decisions",
    "propagations",
    "conflicts",
    "learned_clauses",
    "restarts",
    "solve_calls",
)

#: Summed search counts over all mini scenarios, under the default
#: CheckerConfig, in ``_FIELDS`` order.
PINNED_MINI = (1380, 5934, 3, 3, 0, 435)

#: Summed search counts over the scaled Table 2 (``run_cases(full=False)``).
PINNED_TABLE = (4032, 7662, 4, 4, 0, 418)


@pytest.fixture
def search_totals(monkeypatch):
    """Sum every solver's stats deltas over the solve calls of the test."""
    totals = dict.fromkeys(_FIELDS, 0)
    solve_values = CdclSolver.solve_values

    def counted(self, *args, **kwargs):
        before = [getattr(self.stats, field) for field in _FIELDS]
        try:
            return solve_values(self, *args, **kwargs)
        finally:
            for field, value in zip(_FIELDS, before):
                totals[field] += getattr(self.stats, field) - value

    monkeypatch.setattr(CdclSolver, "solve_values", counted)
    return totals


def _summed(totals) -> tuple:
    return tuple(totals[field] for field in _FIELDS)


def test_mini_scenario_search_is_pinned(search_totals):
    for name in mini_names():
        check_language_equivalence(*get(name).automata())
    assert _summed(search_totals) == PINNED_MINI


def test_table_search_is_pinned(search_totals):
    run_cases(full=False, config=CheckerConfig())
    assert _summed(search_totals) == PINNED_TABLE
