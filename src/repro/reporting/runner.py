"""The experiment runner: one entry per Table 2 row.

Every case study of the paper's evaluation is registered here as a
:class:`CaseStudy` with a *scaled* and a *full* configuration.  The scaled
configuration keeps the structure of the study but shrinks the parsers enough
to finish in seconds on a laptop with the pure-Python solver; the full
configuration uses the paper-sized parsers.  Benchmarks and the CLI select
between them via the ``LEAPFROG_FULL`` environment variable or an explicit
argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.algorithm import CheckerConfig, PreBisimulationChecker
from ..core.equivalence import (
    check_initial_store_independence,
    check_language_equivalence,
    check_store_relation,
)
from ..core.reachability import ReachabilityAnalysis
from ..core.templates import Template, TemplatePair
from ..parsergen import compile_graph, graph_to_p4a, hardware_to_p4a, scenario
from ..protocols import ethernet_ip, ethernet_vlan, ip_options, ip_tcp_udp, mpls
from .metrics import CaseMetrics, attach_run_statistics, structural_metrics


@dataclass
class CaseOutcome:
    """Result of running one case study."""

    metrics: CaseMetrics
    verdict: Optional[bool]


@dataclass
class CaseStudy:
    """A registered experiment: a name, a category and a run function."""

    name: str
    category: str  # "utility", "applicability", "translation-validation"
    run: Callable[[bool, Optional[CheckerConfig]], CaseOutcome]

    def __call__(self, full: bool = False, config: Optional[CheckerConfig] = None) -> CaseOutcome:
        return self.run(full, config)


def full_scale_requested() -> bool:
    """Whether the environment asks for paper-sized runs (``LEAPFROG_FULL=1``)."""
    return os.environ.get("LEAPFROG_FULL", "0").lower() in ("1", "true", "yes")


def _language_equivalence_case(
    name: str,
    category: str,
    build: Callable[[bool], Sequence],
) -> CaseStudy:
    def run(full: bool, config: Optional[CheckerConfig]) -> CaseOutcome:
        left, left_start, right, right_start = build(full)
        metrics = structural_metrics(name, left, right)
        result = check_language_equivalence(left, left_start, right, right_start, config=config)
        attach_run_statistics(metrics, result.statistics, result.verdict)
        return CaseOutcome(metrics, result.verdict)

    return CaseStudy(name, category, run)


# ---------------------------------------------------------------------------
# Utility case studies (Section 7.1)
# ---------------------------------------------------------------------------


def _state_rearrangement(full: bool):
    # Cheap even at paper size, so the scaled variant is never needed here.
    return (
        ip_tcp_udp.reference_parser(),
        ip_tcp_udp.REFERENCE_START,
        ip_tcp_udp.combined_parser(),
        ip_tcp_udp.COMBINED_START,
    )


def _speculative_loop(full: bool):
    # Cheap even at paper size, so the scaled variant is never needed here.
    return (
        mpls.reference_parser(),
        mpls.REFERENCE_START,
        mpls.vectorized_parser(),
        mpls.VECTORIZED_START,
    )


def _variable_length(full: bool):
    if full:
        return (
            ip_options.generic_parser(slots=2, max_data_bytes=6),
            ip_options.START,
            ip_options.timestamp_parser(slots=2, max_data_bytes=6),
            ip_options.START,
        )
    return (
        ip_options.generic_parser(slots=1, max_data_bytes=2),
        ip_options.START,
        ip_options.generic_parser(slots=1, max_data_bytes=2),
        ip_options.START,
    )


def _header_initialization_case() -> CaseStudy:
    def run(full: bool, config: Optional[CheckerConfig]) -> CaseOutcome:
        parser = ethernet_vlan.vlan_parser()  # cheap even at paper size
        metrics = structural_metrics("Header initialization", parser, parser)
        result = check_initial_store_independence(parser, ethernet_vlan.START, config=config)
        attach_run_statistics(metrics, result.statistics, result.verdict)
        return CaseOutcome(metrics, result.verdict)

    return CaseStudy("Header initialization", "utility", run)


def _relational_verification_case() -> CaseStudy:
    def run(full: bool, config: Optional[CheckerConfig]) -> CaseOutcome:
        sloppy, strict = ethernet_ip.sloppy_parser(), ethernet_ip.strict_parser()
        type_bits = 16
        metrics = structural_metrics("Relational verification", sloppy, strict)
        relation = ethernet_ip.store_correspondence(sloppy, strict, type_bits)
        result = check_store_relation(
            sloppy,
            ethernet_ip.START,
            strict,
            ethernet_ip.START,
            relation,
            require_equal_acceptance=False,
            config=config,
        )
        attach_run_statistics(metrics, result.statistics, result.verdict)
        return CaseOutcome(metrics, result.verdict)

    return CaseStudy("Relational verification", "utility", run)


def _external_filtering_case() -> CaseStudy:
    def run(full: bool, config: Optional[CheckerConfig]) -> CaseOutcome:
        sloppy, strict = ethernet_ip.sloppy_parser(), ethernet_ip.strict_parser()
        type_bits = 16
        metrics = structural_metrics("External filtering", sloppy, strict)
        start_pair = TemplatePair(
            Template(ethernet_ip.START, 0), Template(ethernet_ip.START, 0)
        )
        reach = ReachabilityAnalysis(sloppy, strict, [start_pair])
        extra = ethernet_ip.external_filter_initial_relation(sloppy, strict, reach, type_bits)
        checker = PreBisimulationChecker(
            sloppy,
            strict,
            ethernet_ip.START,
            ethernet_ip.START,
            config=config,
            require_equal_acceptance=False,
            extra_initial=extra,
        )
        result = checker.run()
        attach_run_statistics(metrics, result.statistics, result.proved)
        return CaseOutcome(metrics, result.proved)

    return CaseStudy("External filtering", "utility", run)


# ---------------------------------------------------------------------------
# Applicability case studies (Section 7.2)
# ---------------------------------------------------------------------------


def _registry_scenario_case(display: str, full_name: str, mini_name: str,
                            category: str = "applicability") -> CaseStudy:
    """A case study backed by the tagged scenario registry.

    Covers both registry kinds: graph scenarios become self-comparisons and
    pair scenarios check their two sides against each other, exactly as
    :meth:`repro.scenarios.Scenario.automata` presents them.
    """
    def build(full: bool):
        from ..scenarios import get

        return get(full_name if full else mini_name).automata()

    return _language_equivalence_case(display, category, build)


def _translation_validation_case() -> CaseStudy:
    def run(full: bool, config: Optional[CheckerConfig]) -> CaseOutcome:
        graph = scenario("edge" if full else "mini_edge")
        original, start = graph_to_p4a(graph)
        hardware = compile_graph(graph)
        translated, translated_start = hardware_to_p4a(hardware)
        metrics = structural_metrics("Translation Validation", original, translated)
        result = check_language_equivalence(
            original, start, translated, translated_start, config=config
        )
        attach_run_statistics(metrics, result.statistics, result.verdict)
        metrics.extra["hardware_entries"] = len(hardware.entries)
        metrics.extra["hardware_states"] = len(hardware.states())
        return CaseOutcome(metrics, result.verdict)

    return CaseStudy("Translation Validation", "translation-validation", run)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def case_studies() -> Dict[str, CaseStudy]:
    """All Table 2 rows, keyed by display name."""
    studies = [
        _language_equivalence_case("State Rearrangement", "utility", _state_rearrangement),
        _language_equivalence_case("Variable-length parsing", "utility", _variable_length),
        _header_initialization_case(),
        _language_equivalence_case("Speculative loop", "utility", _speculative_loop),
        _relational_verification_case(),
        _external_filtering_case(),
        _registry_scenario_case("Edge", "edge", "mini_edge"),
        _registry_scenario_case("Service Provider", "service_provider",
                                "mini_service_provider"),
        _registry_scenario_case("Datacenter", "datacenter", "mini_datacenter"),
        _registry_scenario_case("Enterprise", "enterprise", "mini_enterprise"),
        _registry_scenario_case("VXLAN/GRE Tunneling", "vxlan_gre", "mini_vxlan_gre"),
        _registry_scenario_case("IPv6 Extension Chain", "ipv6_ext", "mini_ipv6_ext"),
        _registry_scenario_case("QinQ Double Tagging", "qinq", "mini_qinq"),
        _registry_scenario_case("ARP/ICMP Control Plane", "arp_icmp", "mini_arp_icmp"),
        _registry_scenario_case("Synthetic Cascade", "synthetic", "mini_synthetic"),
        _translation_validation_case(),
    ]
    return {study.name: study for study in studies}


def run_cases(
    names: Optional[Sequence[str]] = None,
    full: Optional[bool] = None,
    config: Optional[CheckerConfig] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    server: Optional[str] = None,
) -> List[CaseMetrics]:
    """Run the selected case studies and return their metric rows.

    Every case runs with ``config`` as given (``None`` = the defaults).  The
    run goes through the :class:`~repro.core.engine.EquivalenceEngine`:
    ``jobs`` selects the worker count (1 = in-process, the deterministic
    baseline), ``timeout`` bounds each case's wall-clock time, and
    ``server`` (an address accepted by the service client) reroutes every
    case to a running ``repro serve`` daemon, with ``jobs`` then sizing the
    client fan-out.  Rows come back in registry order regardless of which
    worker finished first.
    """
    from ..core.engine import CaseJob, EquivalenceEngine

    registry = case_studies()
    if names is None:
        names = list(registry)
    if full is None:
        full = full_scale_requested()
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown case studies: {', '.join(unknown)}")
    engine = EquivalenceEngine(jobs=jobs, timeout=timeout, server=server)
    # --case is repeatable, so the same name may appear twice; suffix repeats
    # to keep engine job labels unique while preserving one row per request.
    seen: Dict[str, int] = {}
    case_jobs = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        job_id = name if count == 0 else f"{name} ({count + 1})"
        case_jobs.append(CaseJob(case=name, full=full, config=config, job_id=job_id))
    results = engine.run(case_jobs)
    metrics: List[CaseMetrics] = []
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"case study {result.job_id!r} {result.status}: {result.error}"
            )
        metrics.append(result.value.metrics)
    return metrics
