"""Client-side behaviour: typed outcomes, overload retries, engine routing."""

import pytest

from repro.core.engine import EquivalenceEngine, EquivalenceJob
from repro.core.equivalence import check_language_equivalence
from repro.protocols import tiny
from repro.service.client import (
    CheckOutcome,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
)


class TestOutcomeDecoding:
    def test_check_outcome_from_wire_result(self):
        outcome = CheckOutcome.from_result({
            "verdict": "equivalent",
            "display": "PROVED: the parsers are equivalent",
            "source": "store",
            "pair_fingerprint": "abc",
            "store_key": "def",
            "statistics": {"iterations": 3, "not_a_real_field": 1},
            "certificate": {"relation_size": 4},
            "counterexample": None,
            "elapsed_seconds": 0.25,
        })
        assert outcome.proved and not outcome.refuted
        assert str(outcome) == "PROVED: the parsers are equivalent"
        assert outcome.statistics.iterations == 3  # unknown fields dropped
        assert outcome.counterexample is None
        assert outcome.elapsed_seconds == 0.25

    def test_statistics_counts_survive_the_wire(self, unix_daemon):
        socket_path, _ = unix_daemon
        left, right = tiny.incremental_bits(), tiny.big_bits()
        local = check_language_equivalence(left, "Start", right, "Parse").statistics
        with ServiceClient(socket_path) as client:
            remote = client.check(left, "Start", right, "Parse").statistics
        assert remote.entailment == local.entailment
        assert remote.cache == local.cache
        assert remote.solver["queries"] == local.solver["queries"]

    def test_unknown_verdict_maps_to_none(self):
        outcome = CheckOutcome.from_result({
            "verdict": "unknown", "display": "UNKNOWN", "source": "solve",
            "pair_fingerprint": "a", "store_key": "b", "statistics": {},
        })
        assert outcome.verdict is None
        assert not outcome.proved and not outcome.refuted


class TestOverloadRetry:
    def _client_with_scripted_responses(self, monkeypatch, script):
        client = ServiceClient("/tmp/unused.sock", max_retries=2)
        calls = []

        def fake_roundtrip(envelope):
            calls.append(envelope)
            action = script.pop(0)
            if isinstance(action, Exception):
                raise action
            return action

        monkeypatch.setattr(client, "_roundtrip_unix", fake_roundtrip)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda _s: None)
        return client, calls

    def test_overloaded_is_retried_until_success(self, monkeypatch):
        overloaded = ServiceError("overloaded", "full", status=429,
                                  retry_after=0.01)
        client, calls = self._client_with_scripted_responses(
            monkeypatch, [overloaded, overloaded, {"pong": True}]
        )
        assert client.request("ping") == {"pong": True}
        assert len(calls) == 3

    def test_retry_budget_is_bounded(self, monkeypatch):
        overloaded = ServiceError("overloaded", "full", status=429,
                                  retry_after=0.01)
        client, calls = self._client_with_scripted_responses(
            monkeypatch, [overloaded, overloaded, overloaded, overloaded]
        )
        with pytest.raises(ServiceOverloadedError):
            client.request("ping")
        assert len(calls) == 3  # initial attempt + max_retries=2

    def test_other_errors_are_not_retried(self, monkeypatch):
        client, calls = self._client_with_scripted_responses(
            monkeypatch, [ServiceError("bad_request", "nope", status=400)]
        )
        with pytest.raises(ServiceError) as err:
            client.request("ping")
        assert err.value.code == "bad_request"
        assert len(calls) == 1


class TestEngineRemoteMode:
    def test_engine_routes_jobs_through_the_daemon(self, unix_daemon):
        socket_path, server = unix_daemon
        engine = EquivalenceEngine(jobs=2, server=socket_path)
        jobs = [
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
                job_id="equivalent",
            ),
            EquivalenceJob(
                tiny.incremental_bits(), "Start",
                tiny.big_bits_wrong_length(), "Parse",
                job_id="broken",
            ),
        ]
        results = engine.run(jobs)
        assert [r.job_id for r in results] == ["equivalent", "broken"]
        assert results[0].ok and results[0].value.proved
        assert results[1].ok and results[1].value.refuted
        assert server.core.checks == 2  # the daemon did the solving

    def test_remote_engine_errors_are_reported_not_raised(self, tmp_path):
        engine = EquivalenceEngine(jobs=1, server=str(tmp_path / "absent.sock"))
        results = engine.run([
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
                job_id="unreachable",
            ),
        ])
        assert len(results) == 1
        assert results[0].error is not None
        assert "unreachable" in results[0].error
