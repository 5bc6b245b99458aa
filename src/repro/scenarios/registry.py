"""The tagged scenario registry.

A *scenario* is a named, tagged workload for the equivalence pipeline: either
a parser-gen **graph** (checked as a self-comparison and against its compiled
hardware translation) or an explicit **pair** of automata with an expected
verdict (equivalent protocol refactorings, or deliberately inequivalent
variants used to exercise refutation, witness extraction and the
differential oracle).

Scenarios are registered with :func:`register` — normally applied by
:mod:`repro.scenarios.catalog`, the module that populates the registry at
import time — and carry a fixed tag vocabulary:

* ``family`` — the deployment family (:data:`FAMILIES`);
* ``size`` — ``mini`` (seconds with the pure-Python solver) or ``full``
  (paper-sized headers);
* ``verdict`` — the expected outcome of the equivalence check;
* ``kind`` — ``graph`` (parse-graph scenario) or ``pair`` (automaton pair).

Lookups go through :func:`get`, which names near-misses on a typo;
:func:`filter_scenarios` selects by tag.  The registry is the single source
of truth behind ``repro scenarios``, the Table 2 runner, the differential
oracle suite, the benchmarks and the generated catalog documentation.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..p4a.syntax import P4Automaton

#: Deployment families a scenario may belong to.  ``synthetic`` is the
#: parametric family: its members are drawn from the seeded mutation-based
#: synthesizer (:mod:`repro.synth`) rather than written by hand.
#: ``distilled`` is the regression family: each member is a minimized
#: engine/label disagreement serialized by the fuzz-campaign distiller
#: (:mod:`repro.campaign`) into :mod:`repro.scenarios.distilled`.
FAMILIES = (
    "edge", "datacenter", "enterprise", "service-provider", "tunnel",
    "synthetic", "distilled",
)
#: Scenario scales.
SIZES = ("mini", "full")
#: Expected equivalence-check outcomes.
VERDICTS = ("equivalent", "not_equivalent")
#: Scenario kinds.
KINDS = ("graph", "pair")

#: A pair builder returns ``(left, left_start, right, right_start)``.
PairBuilder = Callable[[], Tuple[P4Automaton, str, P4Automaton, str]]


class ScenarioRegistrationError(ValueError):
    """Raised when a scenario is registered with invalid or duplicate data."""


class ScenarioLookupError(ValueError):
    """Raised on unknown scenario names; the message lists near-misses."""


@dataclass
class Scenario:
    """One registered scenario: tags plus a builder.

    ``builder`` returns a :class:`~repro.parsergen.ir.ParseGraph` for
    ``kind == "graph"`` scenarios and an ``(left, left_start, right,
    right_start)`` tuple for ``kind == "pair"`` scenarios; :meth:`automata`
    presents both uniformly as a pair (a graph becomes its self-comparison).
    """

    name: str
    family: str
    size: str
    verdict: str
    kind: str
    description: str
    builder: Callable[[], object]
    _structure: Optional[Tuple[int, int, int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def expected_equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def graph(self):
        """The underlying parse graph, or ``None`` for pair scenarios."""
        if self.kind != "graph":
            return None
        return self.builder()

    def automata(self) -> Tuple[P4Automaton, str, P4Automaton, str]:
        """``(left, left_start, right, right_start)`` for any scenario kind."""
        if self.kind == "graph":
            from ..parsergen.to_p4a import graph_to_p4a

            automaton, start = graph_to_p4a(self.builder())
            return automaton, start, automaton, start
        left, left_start, right, right_start = self.builder()
        return left, left_start, right, right_start

    def structure(self) -> Tuple[int, int, int]:
        """``(states, header_bits, branched_bits)`` across both sides.

        Follows the Table 2 convention of counting both automata (a graph
        scenario's self-comparison therefore counts its automaton twice).
        Computed on first use and cached on the scenario.
        """
        if self._structure is None:
            left, _, right, _ = self.automata()
            self._structure = (
                len(left.states) + len(right.states),
                left.total_header_bits() + right.total_header_bits(),
                left.branched_bits() + right.branched_bits(),
            )
        return self._structure


_REGISTRY: Dict[str, Scenario] = {}


def register(
    *,
    family: str,
    size: str,
    verdict: str,
    kind: str = "pair",
    name: Optional[str] = None,
    description: str = "",
):
    """Decorator registering a scenario builder under validated tags.

    Returns the builder unchanged so modules can keep calling it directly.
    ``name`` defaults to the builder's ``__name__``.
    """
    if family not in FAMILIES:
        raise ScenarioRegistrationError(
            f"unknown family {family!r}; known: {FAMILIES}"
        )
    if size not in SIZES:
        raise ScenarioRegistrationError(f"unknown size {size!r}; known: {SIZES}")
    if verdict not in VERDICTS:
        raise ScenarioRegistrationError(
            f"unknown verdict {verdict!r}; known: {VERDICTS}"
        )
    if kind not in KINDS:
        raise ScenarioRegistrationError(f"unknown kind {kind!r}; known: {KINDS}")

    def wrap(builder):
        scenario_name = name if name is not None else builder.__name__
        if not scenario_name:
            raise ScenarioRegistrationError("scenario name must be non-empty")
        if scenario_name in _REGISTRY:
            raise ScenarioRegistrationError(
                f"scenario {scenario_name!r} is already registered"
            )
        if not description:
            raise ScenarioRegistrationError(
                f"scenario {scenario_name!r} needs a description"
            )
        _REGISTRY[scenario_name] = Scenario(
            name=scenario_name,
            family=family,
            size=size,
            verdict=verdict,
            kind=kind,
            description=description,
            builder=builder,
        )
        return builder

    return wrap


def pair(
    left_builder: Callable[[], P4Automaton],
    left_start: str,
    right_builder: Callable[[], P4Automaton],
    right_start: str,
) -> PairBuilder:
    """A pair-scenario builder from two automaton factories."""

    def build() -> Tuple[P4Automaton, str, P4Automaton, str]:
        return left_builder(), left_start, right_builder(), right_start

    return build


def _populated() -> Dict[str, Scenario]:
    # The catalog self-registers on first import; importing it lazily here
    # breaks the cycle catalog → protocols/parsergen → (this module).
    from . import catalog  # noqa: F401

    return _REGISTRY


def get(name: str) -> Scenario:
    """Look up a scenario by name, suggesting near-misses on failure."""
    registry = _populated()
    try:
        return registry[name]
    except KeyError:
        close = difflib.get_close_matches(name, registry, n=3, cutoff=0.6)
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise ScenarioLookupError(
            f"unknown scenario {name!r}{hint} known: {sorted(registry)}"
        ) from None


def names() -> List[str]:
    """All registered scenario names, in registration order."""
    return list(_populated())


def scenarios() -> List[Scenario]:
    """All registered scenarios, in registration order."""
    return list(_populated().values())


def filter_scenarios(
    family: Optional[str] = None,
    size: Optional[str] = None,
    verdict: Optional[str] = None,
    kind: Optional[str] = None,
) -> List[Scenario]:
    """Scenarios matching every given tag (``None`` matches anything)."""
    return [
        scenario
        for scenario in _populated().values()
        if (family is None or scenario.family == family)
        and (size is None or scenario.size == size)
        and (verdict is None or scenario.verdict == verdict)
        and (kind is None or scenario.kind == kind)
    ]


def mini_names() -> List[str]:
    """Names of every ``mini`` scenario (the CI oracle-smoke population)."""
    return [scenario.name for scenario in filter_scenarios(size="mini")]
