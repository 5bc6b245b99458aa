"""The differential fuzz suite over the registered scenarios.

For every scenario in the tagged registry (:mod:`repro.scenarios`) the suite
cross-checks two independently produced parsers with the concrete oracle:

* **graph scenarios** (the parser-gen deployment mixes) run a **self**
  cross-check — the scenario's reference P4A against itself (any divergence
  is an interpreter/sampler bug) — plus a **translation** cross-check against
  the automaton back-translated from the compiled hardware table (any
  divergence is a compiler or back-translation bug the symbolic
  translation-validation run should have caught);
* **pair scenarios** (the protocol-family workloads) cross-check their two
  sides against each other.  A pair tagged ``equivalent`` must produce zero
  divergences; a pair tagged ``not_equivalent`` must produce at least one.
  When the fuzz budget misses a deliberately planted bug, the suite falls
  back to the symbolic checker's refutation and replays its witness
  concretely, so an expected-inequivalent row never depends on sampler luck.

A row is **ok** when the observed divergences match the scenario's expected
verdict.  Rows carry full telemetry; :func:`write_reports` persists one JSON
file per failing row — including every recorded divergence with its seed,
packet and stores — so a CI failure is reproducible from the artifact alone.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..parsergen import compile_graph, graph_to_p4a, hardware_to_p4a
from ..scenarios import Scenario, get, mini_names, names as registry_names
from .differential import Divergence, OracleReport, cross_check


@dataclass
class ScenarioOracleRow:
    """Telemetry for one scenario's differential runs."""

    scenario: str
    packets: int
    seed: int
    self_report: OracleReport
    translation_report: Optional[OracleReport] = None
    elapsed_seconds: float = 0.0
    kind: str = "graph"
    expected_equivalent: bool = True
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def divergences(self) -> int:
        total = self.self_report.total_divergences
        if self.translation_report is not None:
            total += self.translation_report.total_divergences
        return total

    @property
    def ok(self) -> bool:
        """Observed divergences match the scenario's expected verdict."""
        if self.expected_equivalent:
            return self.divergences == 0
        return self.divergences > 0

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "scenario": self.scenario,
            "kind": self.kind,
            "expected": "equivalent" if self.expected_equivalent else "not_equivalent",
            "ok": self.ok,
            "packets": self.packets,
            "seed": self.seed,
            "divergences": self.divergences,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "self": self.self_report.as_dict(),
        }
        if self.translation_report is not None:
            record["translation"] = self.translation_report.as_dict()
        record.update(self.extra)
        return record


def _graph_row(info: Scenario, packets: int, seed: int, include_translation: bool):
    graph = info.graph()
    automaton, start = graph_to_p4a(graph)
    self_report = cross_check(
        automaton, start, automaton, start, packets=packets, seed=seed
    )
    translation_report = None
    extra: Dict[str, object] = {}
    if include_translation:
        hardware = compile_graph(graph)
        translated, translated_start = hardware_to_p4a(hardware)
        translation_report = cross_check(
            automaton, start, translated, translated_start,
            packets=packets, seed=seed,
        )
        extra["hardware_entries"] = len(hardware.entries)
    return self_report, translation_report, extra


def _pair_row(info: Scenario, packets: int, seed: int):
    left, left_start, right, right_start = info.automata()
    report = cross_check(
        left, left_start, right, right_start, packets=packets, seed=seed
    )
    extra: Dict[str, object] = {}
    if not info.expected_equivalent and report.total_divergences == 0:
        # The fuzz budget missed the planted inequivalence: find a witness
        # symbolically and replay it concretely so the row's verdict is
        # deterministic rather than a function of sampler luck.
        witness = _symbolic_witness(left, left_start, right, right_start)
        if witness is not None:
            report.divergences.append(witness)
            report.total_divergences += 1
            extra["witness_origin"] = "symbolic-search"
    return report, extra


def _symbolic_witness(left, left_start, right, right_start) -> Optional[Divergence]:
    """The symbolic checker's refutation witness (replay-confirmed by the checker)."""
    from ..core.equivalence import check_language_equivalence

    counterexample = check_language_equivalence(
        left, left_start, right, right_start
    ).counterexample
    if counterexample is None:
        return None
    return Divergence(
        packet=counterexample.packet,
        left_store=counterexample.left_store,
        right_store=counterexample.right_store,
        left_accepts=counterexample.left_accepts,
        right_accepts=counterexample.right_accepts,
        origin="symbolic-search",
    )


def run_differential_suite(
    names: Optional[Sequence[str]] = None,
    packets: int = 128,
    seed: int = 0,
    include_translation: bool = True,
) -> List[ScenarioOracleRow]:
    """Cross-check every named scenario (default: all registered scenarios)."""
    if names is None:
        names = registry_names()
    known = set(registry_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown scenarios: {', '.join(unknown)}; known: {sorted(known)}"
        )
    rows: List[ScenarioOracleRow] = []
    for name in names:
        info = get(name)
        start_time = time.perf_counter()
        translation_report = None
        if info.kind == "graph":
            self_report, translation_report, extra = _graph_row(
                info, packets, seed, include_translation
            )
        else:
            self_report, extra = _pair_row(info, packets, seed)
        rows.append(
            ScenarioOracleRow(
                scenario=name,
                packets=packets,
                seed=seed,
                self_report=self_report,
                translation_report=translation_report,
                elapsed_seconds=time.perf_counter() - start_time,
                kind=info.kind,
                expected_equivalent=info.expected_equivalent,
                extra=extra,
            )
        )
    return rows


def mini_scenario_names() -> List[str]:
    """Every ``mini`` scenario — the population the CI oracle smoke covers."""
    return mini_names()


def render_suite(rows: Sequence[ScenarioOracleRow]) -> str:
    """A fixed-width summary table of one suite run."""
    from ..reporting.table import render_fixed_width

    headers = ("Scenario", "Kind", "Expected", "Packets", "Seed",
               "Self div.", "Transl. div.", "Accepted", "OK", "Time (s)")
    table: List[List[str]] = []
    for row in rows:
        translation = (
            str(row.translation_report.total_divergences)
            if row.translation_report is not None else "-"
        )
        table.append([
            row.scenario,
            row.kind,
            "equiv" if row.expected_equivalent else "inequiv",
            str(row.packets),
            str(row.seed),
            str(row.self_report.total_divergences),
            translation,
            str(row.self_report.accepted_left),
            "yes" if row.ok else "NO",
            f"{row.elapsed_seconds:.2f}",
        ])
    return render_fixed_width(headers, table)


def write_reports(rows: Sequence[ScenarioOracleRow], directory: str) -> List[str]:
    """Persist the suite's telemetry (and any failures) as JSON files.

    Always writes ``summary.json``; additionally writes one
    ``divergence_<scenario>.json`` per *failing* row (unexpected divergences,
    or an expected inequivalence the oracle could not demonstrate), carrying
    the seed, the packets and the initial stores needed to reproduce.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    summary_path = os.path.join(directory, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(
            {
                "ok": all(row.ok for row in rows),
                "rows": [row.as_dict() for row in rows],
            },
            handle,
            indent=2,
        )
    written.append(summary_path)
    for row in rows:
        if row.ok:
            continue
        path = os.path.join(directory, f"divergence_{row.scenario}.json")
        with open(path, "w") as handle:
            json.dump(row.as_dict(), handle, indent=2)
        written.append(path)
    return written
