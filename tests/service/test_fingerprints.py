"""Tests for the content addressing of check requests."""

from repro.core.algorithm import CheckerConfig
from repro.p4a.surface import parse_automaton
from repro.p4a.pretty import pretty
from repro.protocols import tiny
from repro.service.fingerprints import (
    automaton_fingerprint,
    config_fingerprint,
    pair_fingerprint,
    store_key,
)


class TestAutomatonFingerprint:
    def test_deterministic_across_constructions(self):
        assert automaton_fingerprint(tiny.incremental_bits(), "Start") == \
            automaton_fingerprint(tiny.incremental_bits(), "Start")

    def test_round_trip_through_surface_syntax_is_stable(self):
        # The canonical rendering is the content address, so an automaton
        # reparsed from its own pretty() output must hash identically —
        # this is what lets a remote client send source text and still hit
        # the same store entry as a local object.
        original = tiny.incremental_bits()
        reparsed = parse_automaton(pretty(original), name=original.name)
        assert automaton_fingerprint(original, "Start") == \
            automaton_fingerprint(reparsed, "Start")

    def test_start_state_and_name_matter(self):
        aut = tiny.incremental_bits()
        assert automaton_fingerprint(aut, "Start") != \
            automaton_fingerprint(aut, sorted(aut.states)[0]) or \
            sorted(aut.states)[0] == "Start"
        renamed = parse_automaton(pretty(aut), name="other_name")
        assert automaton_fingerprint(aut, "Start") != \
            automaton_fingerprint(renamed, "Start")

    def test_different_automata_differ(self):
        assert automaton_fingerprint(tiny.incremental_bits(), "Start") != \
            automaton_fingerprint(tiny.big_bits(), "Parse")


class TestPairFingerprint:
    def test_order_matters(self):
        left, right = tiny.incremental_bits(), tiny.big_bits()
        assert pair_fingerprint(left, "Start", right, "Parse") != \
            pair_fingerprint(right, "Parse", left, "Start")


class TestConfigFingerprint:
    def test_default_config_equals_none(self):
        assert config_fingerprint(None) == config_fingerprint(CheckerConfig())

    def test_perf_only_options_are_excluded(self):
        # Cache and AIG settings change how fast an answer is found, never
        # what it is; they must not fragment the store.
        base = config_fingerprint(CheckerConfig())
        assert base == config_fingerprint(CheckerConfig(cache_dir="/tmp/x"))
        assert base == config_fingerprint(CheckerConfig(use_aig=False))

    def test_semantics_relevant_options_are_included(self):
        base = config_fingerprint(CheckerConfig())
        assert base != config_fingerprint(CheckerConfig(use_leaps=False))
        assert base != config_fingerprint(CheckerConfig(use_reachability=False))
        assert base != config_fingerprint(CheckerConfig(oracle_packets=10))
        assert base != config_fingerprint(CheckerConfig(oracle_seed=7))
        assert base != config_fingerprint(
            CheckerConfig(minimize_counterexamples=False)
        )

    def test_options_no_client_can_send_are_excluded(self):
        # Only CheckerConfig.RESULT_FIELDS travel on the wire, so only they
        # may key the store.
        base = config_fingerprint(CheckerConfig())
        assert base == config_fingerprint(CheckerConfig(max_iterations=10))
        assert base == config_fingerprint(CheckerConfig(track_memory=True))

    def test_digests_are_pinned(self):
        # Persisted verdict stores are keyed by these digests; a change to
        # the hashed fields or their values would orphan every stored entry.
        assert config_fingerprint(CheckerConfig()) == (
            "79102308bafc3b6dbe7d32a8ea1056ea94c8ec8e7b21f35589aef72f3b228efd"
        )
        assert config_fingerprint(CheckerConfig(use_leaps=False)) == (
            "dea5a1b1bbf058526bb41ab4aca6b92cdbc579c094193036c94787884f862fc5"
        )
        assert config_fingerprint(CheckerConfig(oracle_packets=64, oracle_seed=7)) == (
            "6809e6002e645064c6ab9f1385d59245d1aef8075a8decfebd55962a9999ed09"
        )


class TestStoreKey:
    def test_key_depends_on_both_digests(self):
        pair_a = pair_fingerprint(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
        )
        pair_b = pair_fingerprint(
            tiny.big_bits(), "Parse", tiny.incremental_bits(), "Start"
        )
        config_a = config_fingerprint(CheckerConfig())
        config_b = config_fingerprint(CheckerConfig(use_leaps=False))
        keys = {
            store_key(pair_a, config_a), store_key(pair_a, config_b),
            store_key(pair_b, config_a), store_key(pair_b, config_b),
        }
        assert len(keys) == 4
