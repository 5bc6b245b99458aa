"""Tests for the transport-independent service core.

The deterministic lifecycle properties — dedupe, priority ordering,
backpressure, draining — are exercised at the queue level (no worker
threads, so there are no races to time); replay and parity are exercised
end to end through :class:`InProcessClient`, which runs the identical
dispatch path the daemon uses.
"""

import dataclasses
import json
import threading

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.protocols import mpls, tiny
from repro.service.client import InProcessClient, ServiceError
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
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=-1)

    def test_rejects_empty_queue(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)


class TestRequestParsing:
    def test_unknown_endpoint(self):
        core = ServiceCore(ServiceConfig(workers=0))
        with pytest.raises(ServiceRequestError) as err:
            core.handle("nope", {})
        assert err.value.code == "unknown_endpoint"

    def test_missing_automaton(self):
        core = ServiceCore(ServiceConfig(workers=0))
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", {"left": {"name": "x"}})
        assert err.value.code == "bad_request"

    def test_unparseable_source(self):
        core = ServiceCore(ServiceConfig(workers=0))
        params = _check_params()
        params["left"]["source"] = "this is not an automaton"
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", params)
        assert err.value.code == "bad_request"
        assert "does not parse" in str(err.value)

    def test_unknown_start_state(self):
        core = ServiceCore(ServiceConfig(workers=0))
        params = _check_params()
        params["left"]["start"] = "NoSuchState"
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", params)
        assert err.value.code == "bad_request"

    def test_unknown_option_is_rejected(self):
        core = ServiceCore(ServiceConfig(workers=0))
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", _check_params(options={"jobs": 4}))
        assert err.value.code == "bad_request"
        assert "jobs" in str(err.value)

    def test_unknown_case_name_lists_known(self):
        core = ServiceCore(ServiceConfig(workers=0))
        with pytest.raises(ServiceRequestError) as err:
            core.handle("case", {"name": "definitely-not-registered"})
        assert err.value.code == "bad_request"
        assert "known:" in str(err.value)


class TestPriorities:
    def test_small_pairs_default_to_mini_priority(self):
        core = ServiceCore(ServiceConfig(workers=0))
        request = core._parse_check(_check_params())
        assert request.priority == PRIORITY_MINI

    def test_threshold_pushes_pairs_to_full_priority(self):
        core = ServiceCore(ServiceConfig(workers=0, mini_bits_threshold=0))
        request = core._parse_check(_check_params())
        assert request.priority == PRIORITY_FULL

    def test_explicit_priority_option_wins(self):
        core = ServiceCore(ServiceConfig(workers=0))
        request = core._parse_check(_check_params(options={"priority": 3}))
        assert request.priority == 3

    def test_queue_pops_mini_first_and_ties_in_arrival_order(self):
        core = ServiceCore(ServiceConfig(workers=0))
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
        core = ServiceCore(ServiceConfig(workers=0))
        first, attached_first = core._submit_check(core._parse_check(_check_params()))
        second, attached_second = core._submit_check(core._parse_check(_check_params()))
        assert second is first
        assert not attached_first and attached_second
        assert core.dedupe_hits == 1
        core._run_pending_inline()
        assert first.done.is_set()
        assert first.result["verdict"] == "equivalent"
        assert core.solves == 1  # one unit of work for two requests

    def test_different_options_do_not_dedupe(self):
        core = ServiceCore(ServiceConfig(workers=0))
        first, _ = core._submit_check(core._parse_check(_check_params()))
        second, attached = core._submit_check(core._parse_check(
            _check_params(options={"use_leaps": False})
        ))
        assert second is not first and not attached
        core._run_pending_inline()

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
        core = ServiceCore(ServiceConfig(workers=0, max_pending=1))
        core._submit_check(core._parse_check(_check_params()))
        with pytest.raises(ServiceRequestError) as err:
            core._submit_check(core._parse_check(
                _check_params(options={"use_leaps": False})
            ))
        assert err.value.code == "overloaded"
        assert err.value.retry_after >= 0.1
        assert core.rejected_overloaded == 1
        core._run_pending_inline()

    def test_dedupe_is_exempt_from_backpressure(self):
        # A duplicate of queued work adds no load; it must attach even when
        # the queue is at capacity.
        core = ServiceCore(ServiceConfig(workers=0, max_pending=1))
        first, _ = core._submit_check(core._parse_check(_check_params()))
        second, attached = core._submit_check(core._parse_check(_check_params()))
        assert attached and second is first
        core._run_pending_inline()


class TestDraining:
    def test_drain_stops_intake(self):
        core = ServiceCore(ServiceConfig(workers=0))
        assert core.handle("drain", {}) == {"draining": True, "pending": 0}
        with pytest.raises(ServiceRequestError) as err:
            core.handle("check", _check_params())
        assert err.value.code == "draining"
        assert core.rejected_draining == 1

    def test_shutdown_without_drain_cancels_queued_tasks(self):
        core = ServiceCore(ServiceConfig(workers=0))
        task, _ = core._submit_check(core._parse_check(_check_params()))
        cancelled = core.shutdown(drain=False)
        assert cancelled == 1
        assert task.error is not None and task.error.code == "draining"


class TestInProcessClient:
    def test_solve_then_store_replay_parity(self, tmp_path):
        config = ServiceConfig(workers=0, store_dir=str(tmp_path / "store"))
        with InProcessClient(config) as client:
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

    def test_replay_never_borrows_the_worker_backend(self, tmp_path):
        # A stored proof whose certificate does not hold must fail replay
        # even when the worker's backend (query cache included) would claim
        # every obligation: the re-checker solves on a fresh backend.
        class ClaimsUnsat(SolverBackend):
            def check_sat(self, formula, stop=None):
                return SatResult(SatStatus.UNSAT)

            def lookup(self, formula, fingerprint=None):
                return SatResult(SatStatus.UNSAT)

        config = ServiceConfig(workers=0, store_dir=str(tmp_path / "store"))
        left, right = mpls.scaled_reference(2), mpls.scaled_vectorized(2)
        with InProcessClient(config) as client:
            assert client.check(left, "q1", right, "q3").source == "solve"
            store = client.core.store
            (key,) = store.keys()
            entry = store.get(key)
            store.put(
                key, entry.pair_fingerprint, entry.config_fingerprint, verdict=True,
                certificate=dataclasses.replace(entry.certificate, relation=()),
            )
            client.core._inline_worker().backend = ClaimsUnsat()
            again = client.check(left, "q1", right, "q3")
            stats = client.stats()["store"]
        assert again.source == "solve"
        assert stats["replays"] == 0
        assert stats["replay_failures"] == 1

    def test_refutation_witness_replays_concretely(self, tmp_path):
        config = ServiceConfig(workers=0, store_dir=str(tmp_path / "store"))
        with InProcessClient(config) as client:
            left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
            first = client.check(left, "Start", right, "Parse")
            second = client.check(left, "Start", right, "Parse")
            assert first.refuted and second.refuted
            assert second.source == "store"
            witness = second.counterexample
            assert witness is not None
            assert accepts(left, "Start", witness.packet) != \
                accepts(right, "Parse", witness.packet)

    def test_store_survives_client_restart(self, tmp_path):
        # The crash-recovery story: a fresh daemon over the same store
        # directory answers by replay, not by re-solving.
        store_dir = str(tmp_path / "store")
        left, right = tiny.incremental_bits(), tiny.big_bits()
        with InProcessClient(ServiceConfig(workers=0, store_dir=store_dir)) as first:
            cold = first.check(left, "Start", right, "Parse")
            assert cold.source == "solve"
        with InProcessClient(ServiceConfig(workers=0, store_dir=store_dir)) as second:
            warm = second.check(left, "Start", right, "Parse")
            assert warm.source == "store"
            assert str(warm) == str(cold)

    def test_no_store_option_bypasses_the_store(self, tmp_path):
        config = ServiceConfig(workers=0, store_dir=str(tmp_path / "store"))
        with InProcessClient(config) as client:
            left, right = tiny.incremental_bits(), tiny.big_bits()
            client.check(left, "Start", right, "Parse", options={"no_store": True})
            again = client.check(left, "Start", right, "Parse",
                                 options={"no_store": True})
            assert again.source == "solve"
            assert client.stats()["store"]["stores"] == 0

    def test_errors_surface_as_service_errors(self):
        with InProcessClient() as client:
            with pytest.raises(ServiceError) as err:
                client.request("no-such-endpoint")
            assert err.value.code == "unknown_endpoint"
            assert err.value.status == 404

    def test_ping_and_stats_shapes(self):
        with InProcessClient() as client:
            ping = client.ping()
            assert ping["protocol"] == "2" and not ping["draining"]
            stats = client.stats()
            assert set(stats) == {"server", "queue", "workers", "store"}
            assert stats["store"] is None  # no store configured

    def test_case_endpoint_returns_metrics_row(self):
        with InProcessClient() as client:
            answer = client.case("Synthetic Cascade")
            assert answer.verdict is True
            assert answer.source == "solve"
            assert answer.metrics["states"] > 0


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
        core = ServiceCore(ServiceConfig(workers=0))
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
        core = ServiceCore(ServiceConfig(workers=0))
        for endpoint, params in (
            ("check", _check_params(options=options)),
            ("case", {"name": "Speculative loop", "options": options}),
        ):
            with pytest.raises(ServiceRequestError) as err:
                core.handle(endpoint, params)
            assert err.value.code == "bad_request"
            assert next(iter(options)) in str(err.value)
