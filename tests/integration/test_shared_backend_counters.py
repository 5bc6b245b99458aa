"""Counters stay per check when several checks share one backend.

:func:`~repro.core.equivalence.check_language_equivalence` accepts a
caller's backend, and a caller may hand the same one to several checks.
Each check must still report only its own solver, entailment and cache
counts: the first check on a fresh shared backend reports what an
owned-backend run reports, and later checks on the same backend report
identical counts instead of a running total.  Repeats within a check are
answered by that check's own entailment memo, so nothing one check learns
carries over to the next.  A service worker, which builds a backend per
request from the request's config, reports the same per-check counts.
"""

from repro.core.equivalence import check_language_equivalence
from repro.p4a.pretty import pretty
from repro.scenarios import get
from repro.service.core import ServiceConfig, ServiceCore
from repro.smt.cache import make_backend

#: Timings differ from run to run; everything else in ``solver`` is a count.
_TIMINGS = ("total_time", "max_time", "p99_time")


def _counts(statistics: dict) -> dict:
    return {
        "solver": {key: value for key, value in statistics["solver"].items()
                   if key not in _TIMINGS},
        "entailment": statistics["entailment"],
        "cache": statistics["cache"],
    }


def _shared_backend_runs(count: int = 3):
    backend = make_backend()
    automata = get("mini_edge").automata()
    return [
        _counts(check_language_equivalence(*automata, backend=backend).statistics.as_dict())
        for _ in range(count)
    ]


def test_first_check_on_a_shared_backend_matches_an_owned_backend():
    first = _shared_backend_runs(1)[0]
    owned = _counts(check_language_equivalence(*get("mini_edge").automata())
                    .statistics.as_dict())
    assert first == owned
    assert first["solver"]["queries"] == 198
    assert first["entailment"]["aig_nodes"] == 332
    assert first["entailment"]["memo_hits"] == 136


def test_warm_checks_on_a_shared_backend_report_their_own_counts():
    first, second, third = _shared_backend_runs()
    assert second == third
    # Without a cache directory the shared backend holds no query cache,
    # so a later check repeats the first one's work count for count.
    assert second == first
    assert second["cache"] == {}
    assert second["solver"]["queries"] > 0


def test_service_worker_reports_per_check_counters():
    left, left_start, right, right_start = get("mini_edge").automata()
    params = {
        "left": {"name": left.name, "source": pretty(left), "start": left_start},
        "right": {"name": right.name, "source": pretty(right), "start": right_start},
        "options": {"no_store": True},
    }
    core = ServiceCore(ServiceConfig())
    core.start()
    try:
        first, second, third = (
            _counts(core.handle("check", params)["statistics"]) for _ in range(3)
        )
    finally:
        core.shutdown()
    owned = _counts(check_language_equivalence(left, left_start, right, right_start)
                    .statistics.as_dict())
    assert first == owned
    assert second == third


def test_warm_persistent_cache_answers_every_fast_path_query(tmp_path):
    backend = make_backend(cache_dir=str(tmp_path))
    automata = get("mini_edge").automata()
    cold, warm = (
        _counts(check_language_equivalence(*automata, backend=backend)
                .statistics.as_dict())
        for _ in range(2)
    )
    backend.close()
    assert cold["cache"]["misses"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == cold["cache"]["hits"] + cold["cache"]["misses"]
    assert warm["solver"]["queries"] < cold["solver"]["queries"]
    # Answers do not depend on where they came from.
    assert warm["entailment"]["checks"] == cold["entailment"]["checks"]
