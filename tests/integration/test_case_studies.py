"""End-to-end runs of every Table 2 case study (scaled configurations).

These are the integration tests: each case study of the paper's evaluation is
executed through the same runner the benchmark harness uses, and the verdict
is checked.  Sizes are the quick defaults; the paper-sized runs are exercised
by the benchmarks (and ``LEAPFROG_FULL=1``).
"""

import pytest

from repro.core.algorithm import CheckerConfig, PreBisimulationChecker
from repro.core.reachability import ReachabilityAnalysis
from repro.core.templates import Template, TemplatePair
from repro.core.equivalence import check_language_equivalence
from repro.parsergen import compile_graph, graph_to_p4a, hardware_to_p4a, scenario
from repro.protocols import ethernet_ip
from repro.reporting import case_studies, render_markdown, render_text, run_cases

QUICK_CONFIG = CheckerConfig(track_memory=False)


class TestRunnerRegistry:
    def test_all_table2_rows_are_registered(self):
        names = set(case_studies())
        assert names == {
            "State Rearrangement",
            "Variable-length parsing",
            "Header initialization",
            "Speculative loop",
            "Relational verification",
            "External filtering",
            "Edge",
            "Service Provider",
            "Datacenter",
            "Enterprise",
            "VXLAN/GRE Tunneling",
            "IPv6 Extension Chain",
            "QinQ Double Tagging",
            "ARP/ICMP Control Plane",
            "Synthetic Cascade",
            "Translation Validation",
        }

    def test_categories(self):
        registry = case_studies()
        assert registry["Edge"].category == "applicability"
        assert registry["QinQ Double Tagging"].category == "applicability"
        assert registry["Speculative loop"].category == "utility"
        assert registry["Translation Validation"].category == "translation-validation"


@pytest.mark.parametrize(
    "name",
    [
        "State Rearrangement",
        "Variable-length parsing",
        "Header initialization",
        "Speculative loop",
        "Relational verification",
        "External filtering",
    ],
)
def test_utility_case_study_proves(name):
    outcome = case_studies()[name](full=False, config=QUICK_CONFIG)
    assert outcome.verdict is True
    assert outcome.metrics.states > 0
    assert outcome.metrics.total_bits > 0


@pytest.mark.parametrize(
    "name",
    [
        "Edge",
        "Enterprise",
        "VXLAN/GRE Tunneling",
        "IPv6 Extension Chain",
        "QinQ Double Tagging",
        "ARP/ICMP Control Plane",
    ],
)
def test_applicability_case_study_proves(name):
    outcome = case_studies()[name](full=False, config=QUICK_CONFIG)
    assert outcome.verdict is True


def test_translation_validation_case_study():
    outcome = case_studies()["Translation Validation"](full=False, config=QUICK_CONFIG)
    assert outcome.verdict is True
    assert outcome.metrics.extra["hardware_entries"] > 0


def test_run_cases_and_rendering():
    metrics = run_cases(names=["Speculative loop", "State Rearrangement"], full=False,
                        config=QUICK_CONFIG)
    text = render_text(metrics, title="subset")
    markdown = render_markdown(metrics, title="subset")
    assert "Speculative loop" in text and "proved" in text
    assert markdown.count("|") > 10


class TestTranslationValidationNegative:
    def test_corrupted_table_is_refuted(self):
        """Translation validation catches a miscompiled table."""
        graph = scenario("mini_enterprise")
        original, start = graph_to_p4a(graph)
        hardware = compile_graph(graph)
        # Corrupt the compiler output: make the first matching entry jump to
        # the reject state instead of its real target.
        from repro.parsergen.hardware import REJECT_STATE, TableEntry

        corrupted = list(hardware.entries)
        for index, entry in enumerate(corrupted):
            if any(entry.match_mask) and entry.next_state != REJECT_STATE:
                corrupted[index] = TableEntry(
                    entry.state, entry.match_mask, entry.match_value,
                    REJECT_STATE, entry.advance, entry.next_lookup,
                )
                break
        hardware.entries = corrupted
        translated, translated_start = hardware_to_p4a(hardware)
        result = check_language_equivalence(
            original, start, translated, translated_start,
            config=QUICK_CONFIG,
        )
        assert result.verdict is not True


class TestExternalFilteringIntegration:
    def test_sloppy_strict_not_equivalent_but_equivalent_modulo_filter(self):
        sloppy, strict = ethernet_ip.scaled_sloppy(), ethernet_ip.scaled_strict()
        plain = check_language_equivalence(
            sloppy, ethernet_ip.START, strict, ethernet_ip.START, config=QUICK_CONFIG,
        )
        assert plain.refuted

        start_pair = TemplatePair(Template(ethernet_ip.START, 0), Template(ethernet_ip.START, 0))
        reach = ReachabilityAnalysis(sloppy, strict, [start_pair])
        extra = ethernet_ip.external_filter_initial_relation(sloppy, strict, reach, type_bits=4)
        checker = PreBisimulationChecker(
            sloppy, strict, ethernet_ip.START, ethernet_ip.START,
            config=QUICK_CONFIG, require_equal_acceptance=False, extra_initial=extra,
        )
        assert checker.run().proved
