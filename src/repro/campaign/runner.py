"""Sharded self-labeled fuzz campaigns over the equivalence engine.

A *campaign* checks a large batch of synthesized pairs — each carrying its
ground-truth verdict by construction (:mod:`repro.synth`) — against the
engine and cross-checks every verdict against the label.  Under
``differential`` mode each pair is additionally checked through several
*backend stacks* (:data:`BACKEND_STACKS`): the internal solver pipeline, the
same pipeline with AIG simplification disabled, and (when one is on ``PATH``)
the first external SMT solver.  Any stack contradicting the label, or
two stacks contradicting each other, is a *disagreement* — the campaign's
entire purpose — and is handed to :mod:`repro.campaign.distill` to become a
permanent regression scenario.

Scale machinery:

* **sharding** — pair index ``i`` belongs to shard ``i % shards``; a shard is
  a self-contained strided slice of the campaign, so shards can run in
  separate CI jobs (``--shard K``) and their reports merge by construction;
* **chunked execution** — each shard feeds the engine fixed-size chunks of
  jobs, streaming verdict evaluation through the engine's ordered
  ``on_result`` callback.  The whole campaign runs inside one ``with
  engine:`` block, so pooled workers live across chunks and shards, and a
  chunk's pairs are synthesized by :meth:`EquivalenceEngine.map` in the same
  workers that then check them;
* **checkpoints** — with a state directory, a shard records its progress
  after every chunk (atomic rename, keyed by a fingerprint of the campaign
  parameters), and a re-run of the same campaign resumes after the last
  completed chunk instead of re-checking from scratch;
* **deterministic reports** — the JSON report is a pure function of the
  campaign parameters and verdicts: same invocation, same bytes.  Wall-clock
  throughput lives on the report object (``elapsed``/``pairs_per_second``)
  but deliberately outside :meth:`CampaignReport.as_dict`.

Everything synthesizes from ``seed + index`` with parity-pinned verdicts
(even index = equivalent), matching :func:`repro.synth.synthesize_batch`, so
growing ``pairs`` extends a campaign without changing the pairs already in
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.algorithm import CheckerConfig
from ..core.engine import EquivalenceEngine, EquivalenceJob, JobResult
from ..envconfig import EXTERNAL_SOLVERS
from ..synth.pairs import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    SynthesizedPair,
    campaign_config_for_size,
    synthesize_pair,
)
from .distill import (
    delta_debug_chain,
    minimize_pair_witness,
    render_scenario_module,
    scenario_name_for,
)


class CampaignError(ValueError):
    """Raised on invalid campaign parameters or corrupt checkpoints."""


#: Backend stacks a differential campaign races against each other.  Each
#: entry is a set of :class:`~repro.core.algorithm.CheckerConfig` overrides;
#: ``internal`` is the everyday default pipeline and the only stack of a
#: non-differential campaign.  Each external solver is a stack of its own,
#: named after the solver.
BACKEND_STACKS: Dict[str, Dict[str, object]] = {
    "internal": {},
    "aig-off": {"use_aig": False},
    **{name: {"solver": name} for name in EXTERNAL_SOLVERS},
}

#: Checkpoint schema version (bumped on incompatible layout changes).
CHECKPOINT_SCHEMA = 1

#: Report schema version.
REPORT_SCHEMA = 1


def available_stacks(differential: bool) -> Tuple[str, ...]:
    """The stacks a campaign runs: just ``internal``, or ``internal``,
    ``aig-off`` and the first external solver found on PATH, if any."""
    if not differential:
        return ("internal",)
    from ..smt.backend import available_external_solvers

    return ("internal", "aig-off", *available_external_solvers()[:1])


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one campaign; the fingerprint keys its checkpoints."""

    pairs: int
    shards: int = 1
    seed: int = 0
    size: str = "mini"
    jobs: int = 1
    differential: bool = False
    #: ``None`` derives from ``differential`` via :func:`available_stacks`.
    stacks: Optional[Tuple[str, ...]] = None
    #: Concrete-oracle packets riding on every verdict (0 disables).
    oracle_packets: int = 0
    timeout: Optional[float] = None
    chunk_size: int = 32
    #: Run only this shard (``None`` = all shards in sequence).
    shard: Optional[int] = None
    state_dir: Optional[str] = None
    distill_dir: Optional[str] = None
    #: Cap on distilled scenarios per campaign (minimization is not free).
    max_distilled: int = 8

    def __post_init__(self) -> None:
        if self.pairs < 0:
            raise CampaignError(f"pairs must be >= 0, got {self.pairs}")
        if self.shards < 1:
            raise CampaignError(f"shards must be >= 1, got {self.shards}")
        if self.chunk_size < 1:
            raise CampaignError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.shard is not None and not 0 <= self.shard < self.shards:
            raise CampaignError(
                f"shard must be in [0, {self.shards}), got {self.shard}"
            )
        if self.stacks is not None:
            unknown = [s for s in self.stacks if s not in BACKEND_STACKS]
            if unknown:
                raise CampaignError(
                    f"unknown stacks: {', '.join(unknown)}; "
                    f"known: {', '.join(BACKEND_STACKS)}"
                )
            if not self.stacks:
                raise CampaignError("stacks must not be empty")
        campaign_config_for_size(self.size)  # validates the size tag

    def resolved_stacks(self) -> Tuple[str, ...]:
        if self.stacks is not None:
            return self.stacks
        return available_stacks(self.differential)

    def shard_indices(self, shard: int) -> List[int]:
        """The global pair indices of one shard (strided, deterministic)."""
        return list(range(shard, self.pairs, self.shards))

    def fingerprint(self) -> str:
        """Hash of every parameter that determines which pairs get checked
        and how; checkpoints from a different campaign never resume."""
        payload = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "pairs": self.pairs,
                "shards": self.shards,
                "seed": self.seed,
                "size": self.size,
                "stacks": list(self.resolved_stacks()),
                "oracle_packets": self.oracle_packets,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _verdict_for_index(index: int) -> str:
    """Parity-pinned ground truth, matching ``synthesize_batch``."""
    return EQUIVALENT if index % 2 == 0 else NOT_EQUIVALENT


def _synthesize(seed: int, size: str, verdict: str) -> SynthesizedPair:
    """One campaign pair; top level so that ``engine.map`` can send it to a
    worker by name."""
    return synthesize_pair(seed, config=campaign_config_for_size(size), verdict=verdict)


def _observed(result: JobResult) -> Optional[str]:
    """The engine's verdict string, or ``None`` when the job got none."""
    if not result.ok:
        return None
    verdict = result.value.verdict
    if verdict is None:
        return None
    return EQUIVALENT if verdict else NOT_EQUIVALENT


def _stack_config(
    stack: str, config: "CampaignConfig"
) -> CheckerConfig:
    overrides = dict(BACKEND_STACKS[stack])
    if config.oracle_packets:
        overrides["oracle_packets"] = config.oracle_packets
        overrides["oracle_seed"] = config.seed
    return CheckerConfig(**overrides)


@dataclass
class ShardOutcome:
    """Everything one shard observed (checkpointable and mergeable)."""

    shard: int
    indices: int = 0
    completed: int = 0
    checked: Dict[str, int] = field(
        default_factory=lambda: {EQUIVALENT: 0, NOT_EQUIVALENT: 0}
    )
    agreements: int = 0
    disagreements: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)
    #: Pairs where two stacks returned different definite verdicts.
    cross_stack: List[Dict[str, object]] = field(default_factory=list)
    #: How many completed indices were restored from a checkpoint (not part
    #: of the serialized report: a resumed run must report identically).
    resumed_from: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "pairs": self.indices,
            "completed": self.completed,
            "checked": dict(self.checked),
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "failures": list(self.failures),
            "cross_stack": list(self.cross_stack),
        }


@dataclass
class CampaignReport:
    """The merged, deterministic outcome of a campaign run."""

    config: Dict[str, object]
    shards: List[Dict[str, object]]
    distilled: List[Dict[str, object]]
    elapsed: float = 0.0

    @property
    def totals(self) -> Dict[str, object]:
        completed = sum(s["completed"] for s in self.shards)
        disagreements = sum(len(s["disagreements"]) for s in self.shards)
        failures = sum(len(s["failures"]) for s in self.shards)
        return {
            "pairs": sum(s["pairs"] for s in self.shards),
            "completed": completed,
            "agreements": sum(s["agreements"] for s in self.shards),
            "disagreements": disagreements,
            "failures": failures,
            "cross_stack": sum(len(s["cross_stack"]) for s in self.shards),
            "distilled": len(self.distilled),
        }

    @property
    def pairs_per_second(self) -> float:
        completed = self.totals["completed"]
        return completed / self.elapsed if self.elapsed > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Deterministic (no wall-clock) JSON payload."""
        return {
            "schema": REPORT_SCHEMA,
            "config": dict(self.config),
            "totals": self.totals,
            "shards": list(self.shards),
            "distilled": list(self.distilled),
        }

    @property
    def exit_code(self) -> int:
        """0 all-agree, 1 on any disagreement, 2 on any stuck/failed job."""
        totals = self.totals
        if totals["failures"]:
            return 2
        if totals["disagreements"] or totals["cross_stack"]:
            return 1
        return 0


EngineFactory = Callable[[int], EquivalenceEngine]


def _default_engine_factory(config: CampaignConfig) -> EngineFactory:
    def factory(jobs: int) -> EquivalenceEngine:
        return EquivalenceEngine(jobs=jobs, timeout=config.timeout)

    return factory


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _checkpoint_path(state_dir: str, shard: int) -> str:
    return os.path.join(state_dir, f"shard-{shard:04d}.json")


def _load_checkpoint(
    config: CampaignConfig, shard: int
) -> Optional[ShardOutcome]:
    if config.state_dir is None:
        return None
    path = _checkpoint_path(config.state_dir, shard)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable checkpoint {path}: {exc}") from exc
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CampaignError(
            f"checkpoint {path} has schema {payload.get('schema')!r}, "
            f"expected {CHECKPOINT_SCHEMA}"
        )
    if payload.get("fingerprint") != config.fingerprint():
        # A different campaign's leftovers: start this shard from scratch.
        return None
    state = payload["state"]
    return ShardOutcome(
        shard=shard,
        indices=state["pairs"],
        completed=state["completed"],
        checked=dict(state["checked"]),
        agreements=state["agreements"],
        disagreements=list(state["disagreements"]),
        failures=list(state["failures"]),
        cross_stack=list(state["cross_stack"]),
        resumed_from=state["completed"],
    )


def _write_checkpoint(config: CampaignConfig, outcome: ShardOutcome) -> None:
    if config.state_dir is None:
        return
    os.makedirs(config.state_dir, exist_ok=True)
    path = _checkpoint_path(config.state_dir, outcome.shard)
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": config.fingerprint(),
        "state": outcome.as_dict(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)  # atomic on POSIX: a reader sees old or new, never half


# ---------------------------------------------------------------------------
# The campaign proper
# ---------------------------------------------------------------------------


def _check_chunk(
    config: CampaignConfig,
    engine: EquivalenceEngine,
    stacks: Sequence[str],
    chunk: Sequence[int],
    outcome: ShardOutcome,
    pairs_out: Dict[int, SynthesizedPair],
) -> None:
    """Synthesize and check one chunk of global pair indices.

    Only pairs with a label disagreement go into ``pairs_out`` (for
    distillation), so a long campaign does not keep every pair alive.
    """
    pairs = dict(zip(chunk, engine.map(_synthesize, [
        (config.seed + index, config.size, _verdict_for_index(index)) for index in chunk
    ])))
    jobs = []
    job_meta: Dict[str, Tuple[int, str]] = {}
    for index in chunk:
        pair = pairs[index]
        for stack in stacks:
            job_id = f"{pair.name}:{stack}"
            job_meta[job_id] = (index, stack)
            jobs.append(
                EquivalenceJob(
                    pair.left, pair.left_start, pair.right, pair.right_start,
                    config=_stack_config(stack, config),
                    job_id=job_id,
                )
            )
    verdicts: Dict[int, Dict[str, Optional[str]]] = {i: {} for i in chunk}

    def consume(result: JobResult) -> None:
        index, stack = job_meta[result.job_id]
        observed = _observed(result)
        verdicts[index][stack] = observed
        if observed is None:
            outcome.failures.append({
                "index": index,
                "pair": pairs[index].name,
                "stack": stack,
                "status": result.status if not result.ok else "no-verdict",
                "error": result.error,
            })

    engine.run(jobs, on_result=consume)

    for index in chunk:
        pair = pairs[index]
        expected = pair.verdict
        observed_by_stack = verdicts[index]
        agreed = True
        for stack in stacks:
            observed = observed_by_stack.get(stack)
            if observed is None:
                agreed = False
                continue
            if observed != expected:
                agreed = False
                pairs_out[index] = pair
                outcome.disagreements.append({
                    "index": index,
                    "pair": pair.name,
                    "seed": pair.seed,
                    "stack": stack,
                    "kind": "label",
                    "expected": expected,
                    "observed": observed,
                    "transforms": list(pair.transforms),
                })
        definite = {
            stack: observed for stack, observed in observed_by_stack.items()
            if observed is not None
        }
        if len(set(definite.values())) > 1:
            outcome.cross_stack.append({
                "index": index,
                "pair": pair.name,
                "kind": "differential",
                "verdicts": {s: definite[s] for s in sorted(definite)},
            })
        outcome.checked[expected] += 1
        outcome.completed += 1
        if agreed:
            outcome.agreements += 1


def _distill(
    config: CampaignConfig,
    report_shards: List[ShardOutcome],
    pairs: Dict[int, SynthesizedPair],
    engine_factory: EngineFactory,
    log: Optional[Callable[[str], None]],
) -> List[Dict[str, object]]:
    """Minimize label disagreements into registered scenario modules."""
    if config.distill_dir is None:
        return []
    catches = sorted(
        (
            entry
            for outcome in report_shards
            for entry in outcome.disagreements
            if entry["kind"] == "label"
        ),
        key=lambda entry: (int(entry["index"]), str(entry["stack"])),
    )
    if len(catches) > config.max_distilled and log is not None:
        log(
            f"distilling only the first {config.max_distilled} of "
            f"{len(catches)} disagreements (raise max_distilled to keep more)"
        )
    probe_engine = engine_factory(1)
    distilled: List[Dict[str, object]] = []
    seen: set = set()
    for entry in catches[: config.max_distilled]:
        index = int(entry["index"])
        stack = str(entry["stack"])
        pair = pairs.get(index)
        if pair is None:
            # Caught before a checkpoint resume: re-synthesize (deterministic).
            pair = _synthesize(config.seed + index, config.size, _verdict_for_index(index))
        name = scenario_name_for(pair, config.size, stack)
        if name in seen:
            continue
        seen.add(name)
        checker_config = _stack_config(stack, config)

        def still_disagrees(candidate: SynthesizedPair) -> bool:
            job = EquivalenceJob(
                candidate.left, candidate.left_start,
                candidate.right, candidate.right_start,
                config=checker_config,
                job_id=f"{candidate.name}:{stack}",
            )
            [result] = probe_engine.run([job])
            observed = _observed(result)
            return observed is not None and observed != candidate.verdict

        original_steps = len(pair.chain)
        reduced = delta_debug_chain(pair, still_disagrees)
        reduced = minimize_pair_witness(reduced)
        source = render_scenario_module(
            reduced,
            size=config.size,
            stack=stack,
            observed=str(entry["observed"]),
            campaign_seed=config.seed,
            original_steps=original_steps,
        )
        os.makedirs(config.distill_dir, exist_ok=True)
        path = os.path.join(config.distill_dir, f"{name}.py")
        previous = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                previous = handle.read()
        if previous != source:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
        if log is not None:
            log(f"distilled {entry['pair']} ({stack}) -> {path}")
        distilled.append({
            "scenario": name,
            "module": f"{name}.py",
            "index": index,
            "seed": pair.seed,
            "stack": stack,
            "expected": reduced.verdict,
            "observed": entry["observed"],
            "steps_before": original_steps,
            "steps_after": len(reduced.chain),
            "witness_bits": (
                reduced.witness.width if reduced.witness is not None else None
            ),
        })
    return distilled


def run_campaign(
    config: CampaignConfig,
    engine_factory: Optional[EngineFactory] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run (or resume) a campaign and return its merged report.

    ``engine_factory`` (worker count -> engine) exists for tests that need to
    interpose on the engine — e.g. planting a lying verdict to prove the
    distillation pipeline catches it; the default builds a plain
    :class:`~repro.core.engine.EquivalenceEngine`.  ``log`` receives one-line
    progress strings (shard/chunk boundaries, distillation notes).
    """
    if engine_factory is None:
        engine_factory = _default_engine_factory(config)
    stacks = config.resolved_stacks()
    shards = [config.shard] if config.shard is not None else list(range(config.shards))
    engine = engine_factory(config.jobs)
    started = time.perf_counter()
    outcomes: List[ShardOutcome] = []
    pairs: Dict[int, SynthesizedPair] = {}  # label-disagreeing pairs, for _distill
    with engine:
        for shard in shards:
            indices = config.shard_indices(shard)
            outcome = _load_checkpoint(config, shard)
            if outcome is None:
                outcome = ShardOutcome(shard=shard, indices=len(indices))
            elif log is not None and outcome.resumed_from:
                log(
                    f"shard {shard}: resuming after "
                    f"{outcome.resumed_from}/{len(indices)} pairs"
                )
            remaining = indices[outcome.completed:]
            for offset in range(0, len(remaining), config.chunk_size):
                chunk = remaining[offset: offset + config.chunk_size]
                _check_chunk(config, engine, stacks, chunk, outcome, pairs)
                _write_checkpoint(config, outcome)
                if log is not None:
                    log(
                        f"shard {shard}: {outcome.completed}/{len(indices)} pairs, "
                        f"{len(outcome.disagreements)} disagreement(s)"
                    )
            outcomes.append(outcome)
    distilled = _distill(config, outcomes, pairs, engine_factory, log)
    report = CampaignReport(
        config={
            "pairs": config.pairs,
            "shards": config.shards,
            "shard": config.shard,
            "seed": config.seed,
            "size": config.size,
            "differential": config.differential,
            "stacks": list(stacks),
            "oracle_packets": config.oracle_packets,
            "chunk_size": config.chunk_size,
        },
        shards=[outcome.as_dict() for outcome in outcomes],
        distilled=distilled,
        elapsed=time.perf_counter() - started,
    )
    return report
