"""Self-labeling synthesized automaton pairs.

:func:`synthesize_pair` turns one seed into one :class:`SynthesizedPair`: a
generated base automaton on the left, a transformed copy on the right, and a
ground-truth verdict that is correct by construction —

* ``equivalent`` pairs apply only equivalence-preserving rewrites
  (:data:`~repro.synth.transforms.EQUIVALENCE_TRANSFORMS`);
* ``not_equivalent`` pairs additionally apply one verdict-breaking mutation
  and carry the concrete witness packet that confirmed the break (replayable
  through :func:`repro.p4a.semantics.accepts` with default stores).

Everything is a pure function of ``(seed, config)``: the same call returns
structurally equal automata every time, which is what lets the ``synthetic``
scenario-registry rows, the ``repro synth`` CLI and the CI smoke agree on
what they checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..p4a.bitvec import Bits
from ..p4a.semantics import accepts
from ..p4a.syntax import P4Automaton
from .generator import (
    CAMPAIGN_FULL_CONFIG,
    CAMPAIGN_MINI_CONFIG,
    FULL_CONFIG,
    MINI_CONFIG,
    GeneratorConfig,
    SynthesisError,
    generate_automaton,
)
from .transforms import (
    TransformStep,
    apply_breaking_mutation,
    apply_equivalence_chain,
)

#: Verdict labels, matching the scenario registry's vocabulary.
EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"


@dataclass(frozen=True)
class SynthesizedPair:
    """One synthesized workload with its ground-truth label."""

    name: str
    seed: int
    verdict: str
    left: P4Automaton
    left_start: str
    right: P4Automaton
    right_start: str
    #: Names of the applied rewrites, mutation (if any) last.
    transforms: Tuple[str, ...]
    #: A packet accepted by exactly one side; ``None`` on equivalent pairs.
    witness: Optional[Bits]
    #: The replayable ``(name, step_seed)`` chain behind ``transforms``:
    #: :func:`repro.synth.transforms.replay_chain` applied to ``left`` from
    #: ``left_start`` re-derives ``right`` exactly.  Default kept for
    #: hand-built pairs in tests.
    chain: Tuple[TransformStep, ...] = ()

    @property
    def expected_equivalent(self) -> bool:
        return self.verdict == EQUIVALENT

    def automata(self) -> Tuple[P4Automaton, str, P4Automaton, str]:
        return self.left, self.left_start, self.right, self.right_start

    def replay_witness(self) -> bool:
        """Re-run the stored witness; ``True`` iff it still diverges."""
        if self.witness is None:
            return False
        return (
            accepts(self.left, self.left_start, self.witness)
            != accepts(self.right, self.right_start, self.witness)
        )

    def structure(self) -> Tuple[int, int]:
        """``(states, header_bits)`` summed over both sides."""
        return (
            len(self.left.states) + len(self.right.states),
            self.left.total_header_bits() + self.right.total_header_bits(),
        )

    def as_dict(self) -> Dict[str, object]:
        states, header_bits = self.structure()
        return {
            "name": self.name,
            "seed": self.seed,
            "verdict": self.verdict,
            "states": states,
            "header_bits": header_bits,
            "transforms": list(self.transforms),
            "witness": self.witness.to_bitstring() if self.witness is not None else None,
        }


def synthesize_pair(
    seed: int,
    config: GeneratorConfig = MINI_CONFIG,
    verdict: Optional[str] = None,
    max_rewrites: int = 4,
) -> SynthesizedPair:
    """One deterministic pair from one seed.

    ``verdict`` pins the label; left unset, the seed decides.  Broken pairs
    regenerate from a derived seed until a mutation is confirmed by a
    concrete witness, so the label is sound whichever mutation lands.
    """
    rng = random.Random(seed)
    if verdict is None:
        verdict = EQUIVALENT if rng.random() < 0.5 else NOT_EQUIVALENT
    if verdict not in (EQUIVALENT, NOT_EQUIVALENT):
        raise SynthesisError(f"unknown verdict {verdict!r}")

    for attempt in range(32):
        base, start = generate_automaton(rng, config, name=f"synth{seed}")
        if verdict == EQUIVALENT:
            rewrites = rng.randint(1, max_rewrites)
            right, right_start, applied = apply_equivalence_chain(
                base, start, rng, rewrites
            )
            right.name = f"synth{seed}_rw"
            return SynthesizedPair(
                name=f"pair{seed}",
                seed=seed,
                verdict=EQUIVALENT,
                left=base,
                left_start=start,
                right=right,
                right_start=right_start,
                transforms=tuple(name for name, _ in applied),
                witness=None,
                chain=applied,
            )
        # Broken pair: a few camouflage rewrites, then one confirmed mutation.
        rewrites = rng.randint(0, max(0, max_rewrites - 2))
        staged, staged_start, applied = apply_equivalence_chain(
            base, start, rng, rewrites
        )
        broken = apply_breaking_mutation(base, start, staged, staged_start, rng)
        if broken is None:
            continue  # vanishingly rare: every mutation attempt was latent
        mutant, mutation, witness = broken
        mutant.name = f"synth{seed}_mut"
        return SynthesizedPair(
            name=f"pair{seed}",
            seed=seed,
            verdict=NOT_EQUIVALENT,
            left=base,
            left_start=start,
            right=mutant,
            right_start=staged_start,
            transforms=tuple(name for name, _ in applied) + (mutation[0],),
            witness=witness,
            chain=applied + (mutation,),
        )
    raise SynthesisError(
        f"seed {seed}: no confirmable breaking mutation in 32 generations"
    )


def synthesize_batch(
    count: int,
    seed: int,
    config: GeneratorConfig = MINI_CONFIG,
    map_calls: Optional[Callable[[Callable, List[tuple]], list]] = None,
) -> List[SynthesizedPair]:
    """``count`` deterministic pairs, alternating expected verdicts.

    Pair ``i`` uses the derived seed ``seed + i`` with a pinned verdict
    (even = equivalent, odd = broken), so growing ``count`` extends a batch
    without changing the pairs already in it.  ``map_calls(fn, arg_tuples)``
    makes the per-pair calls (an engine's ``map`` spreads them over its
    workers); by default they run here, in order.
    """
    if count < 0:
        raise SynthesisError(f"count must be >= 0, got {count}")
    calls = [
        (seed + index, config, EQUIVALENT if index % 2 == 0 else NOT_EQUIVALENT)
        for index in range(count)
    ]
    if map_calls is None:
        return [synthesize_pair(*args) for args in calls]
    return map_calls(synthesize_pair, calls)


def config_for_size(size: str) -> GeneratorConfig:
    """The generator configuration backing a registry size tag."""
    if size == "mini":
        return MINI_CONFIG
    if size == "full":
        return FULL_CONFIG
    raise SynthesisError(f"unknown size {size!r}; known: mini, full")


def campaign_config_for_size(size: str) -> GeneratorConfig:
    """The extended-shape campaign configuration for a registry size tag.

    Same state/width envelope as :func:`config_for_size`, plus bounded
    self-loops, slice lookahead and store-carried guards.  Deliberately not
    used by the pinned ``synthetic`` scenarios, whose shapes must stay
    seed-stable.
    """
    if size == "mini":
        return CAMPAIGN_MINI_CONFIG
    if size == "full":
        return CAMPAIGN_FULL_CONFIG
    raise SynthesisError(f"unknown size {size!r}; known: mini, full")
