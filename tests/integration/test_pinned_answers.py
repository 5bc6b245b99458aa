"""Pinned digests of the concrete answers: synthesis, the oracle, a campaign.

CI diffs a run only against another run of the same commit, so a change to
the RNG draw order or to the concrete semantics that moves a synthesized
label, a witness, a sampled packet or a campaign verdict would pass
unnoticed.  These digests pin the answers themselves.  A change that moves
one on purpose must say why, and update the digest in the same commit.
"""

import hashlib
import json

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.oracle.differential import cross_check
from repro.p4a.semantics import accepts
from repro.scenarios import get
from repro.synth import MINI_CONFIG, campaign_config_for_size, synthesize_batch

SEED = 20220613

#: Each digest is the sha256 of ``json.dumps(payload, sort_keys=True)``.
PINNED = {
    "synth": "0dd1f4b9355a9c5aa444fff799b88e942f53202b50cbf470c0cda022640e2a74",
    "oracle": "7a34c24d6372abd2b4647d7570d9c808780c23b1d5e33da4d90ee88edc9704a2",
    "campaign": "d6fda876fe928f3e07f7895587d9ca31433240c01cb9208885d3dde96ef6fd65",
}

ORACLE_SCENARIOS = ("mini_edge", "mini_qinq_broken", "mini_synthetic_broken")


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _synth_payload():
    """64 mini pairs from each of the registry and campaign generators, each
    with the replayed verdicts of its witness."""
    rows = []
    for config in (MINI_CONFIG, campaign_config_for_size("mini")):
        for pair in synthesize_batch(64, SEED, config=config):
            row = pair.as_dict()
            if pair.witness is not None:
                row["replay"] = [
                    accepts(pair.left, pair.left_start, pair.witness),
                    accepts(pair.right, pair.right_start, pair.witness),
                ]
            rows.append(row)
    return rows


def _oracle_payload():
    """Full cross-check reports (counts, recorded packets and stores)."""
    payload = {}
    for name in ORACLE_SCENARIOS:
        left, left_start, right, right_start = get(name).automata()
        payload[name] = cross_check(
            left, left_start, right, right_start, packets=150, seed=SEED
        ).as_dict()
    return payload


def _campaign_payload():
    return run_campaign(CampaignConfig(pairs=32, seed=SEED)).as_dict()


PAYLOADS = {"synth": _synth_payload, "oracle": _oracle_payload, "campaign": _campaign_payload}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_answers_are_pinned(name):
    assert _digest(PAYLOADS[name]()) == PINNED[name]


def test_oracle_divergence_counts():
    # The counts behind the oracle digest, readable when it moves.
    counts = {
        name: (report["total_divergences"], report["accepted_left"], report["accepted_right"])
        for name, report in _oracle_payload().items()
    }
    assert counts == {
        "mini_edge": (0, 21, 21),
        "mini_qinq_broken": (1, 25, 26),
        "mini_synthetic_broken": (61, 30, 31),
    }
