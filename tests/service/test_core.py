"""Tests for the transport-independent service core.

The deterministic lifecycle properties — dedupe, priority ordering,
backpressure, draining — are exercised at the queue level: work is queued
on a core whose workers are not started yet, so there are no races to
time.  Replay and parity are exercised end to end through a live daemon
(the ``unix_daemon`` and ``start_daemon`` fixtures of ``conftest.py``).
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.protocols import mpls, tiny
from repro.service.client import ServiceClient
from repro.service.core import (
    PRIORITY_FULL,
    PRIORITY_MINI,
    ServiceConfig,
    ServiceCore,
    ServiceRequestError,
)
from repro.service.fingerprints import config_fingerprint
from repro.service.protocol import ENDPOINTS
from repro.smt.backend import SolverBackend
from repro.smt.bvsolver import SatResult, SatStatus


def _check_params(left=None, right=None, options=None):
    left = left if left is not None else tiny.incremental_bits()
    right = right if right is not None else tiny.big_bits()
    from repro.p4a.pretty import pretty

    params = {
        "left": {"name": left.name, "source": pretty(left), "start": "Start"},
        "right": {"name": right.name, "source": pretty(right), "start": "Parse"},
    }
    if options:
        params["options"] = options
    return params


class TestConfigValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_a_core_without_workers(self, workers):
        with pytest.raises(ValueError):
            ServiceConfig(workers=workers)

    def test_rejects_empty_queue(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)


class TestRequestParsing:
    def test_unknown_endpoint(self):
        core = ServiceCore(ServiceConfig())
        with pytest.raises(ServiceRequestError) as err:
            core.handle("nope", {})
        assert err.value.code == "unknown_endpoint"

    def test_missing_automaton(self):
        core = ServiceCore(ServiceConfig())
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", {"left": {"name": "x"}})
        assert err.value.code == "bad_request"

    def test_unparseable_source(self):
        core = ServiceCore(ServiceConfig())
        params = _check_params()
        params["left"]["source"] = "this is not an automaton"
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", params)
        assert err.value.code == "bad_request"
        assert "does not parse" in str(err.value)

    def test_unknown_start_state(self):
        core = ServiceCore(ServiceConfig())
        params = _check_params()
        params["left"]["start"] = "NoSuchState"
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", params)
        assert err.value.code == "bad_request"

    def test_unknown_option_is_rejected(self):
        core = ServiceCore(ServiceConfig())
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", _check_params(options={"jobs": 4}))
        assert err.value.code == "bad_request"
        assert "jobs" in str(err.value)

    def test_unknown_case_name_lists_known(self):
        core = ServiceCore(ServiceConfig())
        with pytest.raises(ServiceRequestError) as err:
            core.handle("case", {"name": "definitely-not-registered"})
        assert err.value.code == "bad_request"
        assert "known:" in str(err.value)


class TestPriorities:
    def test_small_pairs_default_to_mini_priority(self):
        core = ServiceCore(ServiceConfig())
        request = core._parse_check(_check_params())
        assert request.priority == PRIORITY_MINI

    def test_threshold_pushes_pairs_to_full_priority(self):
        core = ServiceCore(ServiceConfig(mini_bits_threshold=0))
        request = core._parse_check(_check_params())
        assert request.priority == PRIORITY_FULL

    def test_explicit_priority_option_wins(self):
        core = ServiceCore(ServiceConfig())
        request = core._parse_check(_check_params(options={"priority": 3}))
        assert request.priority == 3

    def test_queue_pops_mini_first_and_ties_in_arrival_order(self):
        core = ServiceCore(ServiceConfig())
        full = core._parse_check(_check_params(options={"priority": PRIORITY_FULL}))
        mini_a = core._parse_check(
            _check_params(options={"priority": PRIORITY_MINI, "oracle_seed": 1})
        )
        mini_b = core._parse_check(
            _check_params(options={"priority": PRIORITY_MINI, "oracle_seed": 2})
        )
        submitted = [core._submit_check(req)[0] for req in (full, mini_a, mini_b)]
        popped = [core._next_task() for _ in range(3)]
        assert popped == [submitted[1], submitted[2], submitted[0]]
        for task in popped:  # unblock anything waiting; nothing ran
            task.finish(result={})


class TestDedupe:
    def test_identical_requests_share_one_task(self):
        core = ServiceCore(ServiceConfig())
        first, attached_first = core._submit_check(core._parse_check(_check_params()))
        second, attached_second = core._submit_check(core._parse_check(_check_params()))
        assert second is first
        assert not attached_first and attached_second
        assert core.dedupe_hits == 1
        core.start()
        assert first.done.wait(timeout=60)
        core.shutdown()
        assert first.result["verdict"] == "equivalent"
        assert core.solves == 1  # one unit of work for two requests

    def test_different_options_do_not_dedupe(self):
        core = ServiceCore(ServiceConfig())
        first, _ = core._submit_check(core._parse_check(_check_params()))
        second, attached = core._submit_check(core._parse_check(
            _check_params(options={"use_leaps": False})
        ))
        assert second is not first and not attached
        assert core.shutdown(drain=False) == 2

    def test_concurrent_requests_agree_and_share_work(self):
        # The racy end-to-end version: worker threads plus client threads.
        # Timing decides how many requests dedupe, so the assertions pin the
        # accounting identity rather than one particular interleaving.
        core = ServiceCore(ServiceConfig(workers=2))
        core.start()
        try:
            results, errors = [], []

            def submit():
                try:
                    results.append(core.handle("check", _check_params()))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(results) == 4
            displays = {result["display"] for result in results}
            assert len(displays) == 1  # every requester saw the same answer
            sources = sorted(result["source"] for result in results)
            assert sources.count("solve") == core.solves
            assert sources.count("dedupe") == core.dedupe_hits
            assert core.solves + core.dedupe_hits == 4
        finally:
            core.shutdown()


class TestBackpressure:
    def test_overloaded_rejection_carries_retry_after(self):
        core = ServiceCore(ServiceConfig(max_pending=1))
        core._submit_check(core._parse_check(_check_params()))
        with pytest.raises(ServiceRequestError) as err:
            core._submit_check(core._parse_check(
                _check_params(options={"use_leaps": False})
            ))
        assert err.value.code == "overloaded"
        assert err.value.retry_after >= 0.1
        assert core.rejected_overloaded == 1
        assert core.shutdown(drain=False) == 1

    def test_dedupe_is_exempt_from_backpressure(self):
        # A duplicate of queued work adds no load; it must attach even when
        # the queue is at capacity.
        core = ServiceCore(ServiceConfig(max_pending=1))
        first, _ = core._submit_check(core._parse_check(_check_params()))
        second, attached = core._submit_check(core._parse_check(_check_params()))
        assert attached and second is first
        assert core.shutdown(drain=False) == 1


class TestDraining:
    def test_drain_stops_intake(self):
        core = ServiceCore(ServiceConfig())
        assert core.handle("drain", {}) == {"draining": True, "pending": 0}
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", _check_params())
        assert err.value.code == "draining"
        assert core.rejected_draining == 1

    def test_shutdown_without_drain_cancels_queued_tasks(self):
        core = ServiceCore(ServiceConfig())
        task, _ = core._submit_check(core._parse_check(_check_params()))
        cancelled = core.shutdown(drain=False)
        assert cancelled == 1
        assert task.error is not None and task.error.code == "draining"


class TestStoreReplay:
    def test_solve_then_store_replay_parity(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            left, right = tiny.incremental_bits(), tiny.big_bits()
            first = client.check(left, "Start", right, "Parse")
            second = client.check(left, "Start", right, "Parse")
            local = check_language_equivalence(left, "Start", right, "Parse")
            assert first.source == "solve" and second.source == "store"
            assert first.proved and second.proved
            assert str(first) == str(second) == str(local)
            stats = client.stats()["store"]
            assert stats["stores"] == 1 and stats["replays"] == 1
            assert stats["replay_failures"] == 0

    def test_replay_never_borrows_the_solving_backend(self, unix_daemon, monkeypatch):
        # A stored proof whose certificate does not hold must fail replay
        # even when the backend the checks solve on (query cache included)
        # would claim every obligation: the re-checker solves on a fresh
        # backend of its own.
        class ClaimsUnsat(SolverBackend):
            def check_sat(self, formula, stop=None):
                return SatResult(SatStatus.UNSAT)

            def lookup(self, formula, fingerprint=None):
                return SatResult(SatStatus.UNSAT)

        socket_path, server = unix_daemon
        left, right = mpls.scaled_reference(2), mpls.scaled_vectorized(2)
        with ServiceClient(socket_path) as client:
            assert client.check(left, "q1", right, "q3").source == "solve"
            store = server.core.store
            (key,) = store.keys()
            entry = store.get(key)
            store.put(
                key, entry.pair_fingerprint, entry.config_fingerprint, verdict=True,
                certificate=dataclasses.replace(entry.certificate, relation=()),
            )
            monkeypatch.setattr("repro.core.algorithm.make_backend",
                                lambda **_options: ClaimsUnsat())
            again = client.check(left, "q1", right, "q3")
            stats = client.stats()["store"]
        assert again.source == "solve"
        assert stats["replays"] == 0
        assert stats["replay_failures"] == 1

    def test_refutation_witness_replays_concretely(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
            first = client.check(left, "Start", right, "Parse")
            second = client.check(left, "Start", right, "Parse")
            assert first.refuted and second.refuted
            assert second.source == "store"
            witness = second.counterexample
            assert witness is not None
            assert accepts(left, "Start", witness.packet) != \
                accepts(right, "Parse", witness.packet)

    def test_store_survives_a_daemon_restart(self, tmp_path, start_daemon):
        # The crash-recovery story: a fresh daemon over the same store
        # directory answers by replay, not by re-solving.
        socket_path = str(tmp_path / "daemon.sock")
        config = ServiceConfig(store_dir=str(tmp_path / "store"))
        left, right = tiny.incremental_bits(), tiny.big_bits()
        first = start_daemon(socket_path, config)
        with ServiceClient(socket_path) as client:
            cold = client.check(left, "Start", right, "Parse")
            assert cold.source == "solve"
        first.request_shutdown(drain=True)
        assert first.finished.wait(timeout=30)
        start_daemon(socket_path, config)
        with ServiceClient(socket_path) as client:
            warm = client.check(left, "Start", right, "Parse")
            assert warm.source == "store"
            assert str(warm) == str(cold)
        # The store is one sqlite file (plus its WAL/SHM files).
        assert all(name.startswith("verdicts_")
                   for name in os.listdir(tmp_path / "store"))

    def test_no_store_option_bypasses_the_store(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            left, right = tiny.incremental_bits(), tiny.big_bits()
            client.check(left, "Start", right, "Parse", options={"no_store": True})
            again = client.check(left, "Start", right, "Parse",
                                 options={"no_store": True})
            assert again.source == "solve"
            assert client.stats()["store"]["stores"] == 0

    def test_stats_shape(self):
        core = ServiceCore(ServiceConfig())
        core.start()
        try:
            stats = core.handle("stats", {})
        finally:
            core.shutdown()
        assert set(stats) == {"server", "queue", "workers", "store"}
        assert stats["workers"] == [{"id": 0, "solves": 0, "replays": 0}]
        assert stats["store"] is None  # no store configured

    def test_case_endpoint_returns_metrics_row(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            answer = client.case("Synthetic Cascade")
        assert answer.verdict is True
        assert answer.source == "solve"
        assert answer.metrics["states"] > 0


class TestWorkerBackends:
    @pytest.mark.parametrize("endpoint", ["check", "case"])
    def test_daemon_cache_dir_reaches_every_request_config(self, endpoint):
        # The daemon's query cache is where a check's backend comes from,
        # not a result option: it reaches the config but not the store key.
        cached = ServiceCore(ServiceConfig(cache_dir="/srv/query-cache"))
        plain = ServiceCore(ServiceConfig())
        if endpoint == "check":
            with_cache = cached._parse_check(_check_params())
            without = plain._parse_check(_check_params())
            configs = (with_cache.config, without.config)
        else:
            with_cache = cached._parse_case({"name": "Speculative loop"})
            without = plain._parse_case({"name": "Speculative loop"})
            configs = (with_cache.case_config, without.case_config)
        assert configs[0].cache_dir == "/srv/query-cache"
        assert configs[1].cache_dir is None
        assert with_cache.key == without.key

    def test_requests_run_on_the_worker_threads(self, monkeypatch):
        import repro.service.core as core_module

        threads = []
        solve = core_module.check_language_equivalence

        def recording(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(core_module, "check_language_equivalence", recording)
        core = ServiceCore(ServiceConfig(workers=2))
        core.start()
        try:
            answer = core.handle("check", _check_params())
            workers = core.handle("stats", {})["workers"]
        finally:
            core.shutdown()
        assert answer["verdict"] == "equivalent"
        assert threads in (["leapfrog-worker-0"], ["leapfrog-worker-1"])
        assert sum(worker["solves"] for worker in workers) == 1

    def test_each_check_builds_and_closes_its_own_backend(self, tmp_path, monkeypatch):
        import repro.core.algorithm as algorithm

        built, closed = [], []
        make_backend = algorithm.make_backend

        def recording(**options):
            backend = make_backend(**options)
            close = backend.close

            def close_and_record():
                closed.append(backend)
                close()

            backend.close = close_and_record
            built.append((backend, options["cache_dir"]))
            return backend

        monkeypatch.setattr(algorithm, "make_backend", recording)
        cache_dir = str(tmp_path / "query-cache")
        core = ServiceCore(ServiceConfig(cache_dir=cache_dir))
        core.start()
        try:
            for _ in range(2):
                assert core.handle("check", _check_params())["source"] == "solve"
        finally:
            core.shutdown()
        assert len(built) == 2
        assert built[0][0] is not built[1][0]
        assert [directory for _, directory in built] == [cache_dir, cache_dir]
        assert [id(backend) for backend in closed] == [id(backend) for backend, _ in built]


def test_workload_modules_load_no_service_module():
    # The benchmarked entry points (Table 2 rows, campaigns, scenarios, the
    # engine) must not pay for the daemon's imports.
    code = (
        "import sys\n"
        "import repro.reporting.runner, repro.campaign.runner\n"
        "import repro.scenarios, repro.core.engine\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    output = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert output.strip() == "[]"


def _non_default(name):
    """A value of result field ``name`` other than its default."""
    default = getattr(CheckerConfig(), name)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    assert default is None, f"no non-default value known for {name!r}"
    return 7


class TestWireOptions:
    def test_defaults_serialize_to_empty_options(self):
        assert CheckerConfig().to_options() == {}
        # Fields outside RESULT_FIELDS never travel.
        assert CheckerConfig(cache_dir="/tmp/x", track_memory=True).to_options() == {}

    def test_only_deviations_travel(self):
        options = CheckerConfig(use_leaps=False, oracle_packets=5, oracle_seed=9).to_options()
        assert options == {"use_leaps": False, "oracle_packets": 5, "oracle_seed": 9}

    @pytest.mark.parametrize("name", CheckerConfig.RESULT_FIELDS)
    def test_every_result_field_travels_parses_and_keys_the_store(self, name):
        config = dataclasses.replace(CheckerConfig(), **{name: _non_default(name)})
        options = config.to_options()
        assert options == {name: getattr(config, name)}
        params = json.loads(json.dumps(_check_params(options=options)))
        core = ServiceCore(ServiceConfig())
        request = core._parse_check(params)
        assert request.config == config
        assert request.config_fp == config_fingerprint(config)
        assert request.config_fp != config_fingerprint(CheckerConfig())
        case = core._parse_case({"name": "Speculative loop", "options": options})
        assert case.case_config.to_options() == options
        for endpoint in ("check", "case"):
            assert f"`{name}`" in dict(ENDPOINTS[endpoint].params)["options"]

    @pytest.mark.parametrize("options", [
        {"use_leaps": "false"},
        {"oracle_packets": -3},
        {"oracle_packets": "abc"},
        {"oracle_seed": True},
        {"find_counterexamples": False},
        {"priority": "abc"},
    ])
    def test_malformed_options_are_bad_requests(self, options):
        core = ServiceCore(ServiceConfig())
        for endpoint, params in (
            ("check", _check_params(options=options)),
            ("case", {"name": "Speculative loop", "options": options}),
        ):
            with pytest.raises(ServiceRequestError) as err:
                core.handle(endpoint, params)
            assert err.value.code == "bad_request"
            assert next(iter(options)) in str(err.value)
