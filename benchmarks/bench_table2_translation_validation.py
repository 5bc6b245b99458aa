"""Table 2, Translation Validation row (Section 7.2, Figure 8).

Compiles the Edge scenario with the parser-gen compiler, back-translates the
hardware table into a P4 automaton and proves it equivalent to the original
parser.  The default uses the mini Edge scenario; ``LEAPFROG_FULL=1`` runs the
full Edge router stack.
"""

from repro.core.engine import CaseJob
from repro.reporting import full_scale_requested


def test_translation_validation(benchmark, record_case, engine, checker_config):
    full = full_scale_requested()

    def run():
        [result] = engine.run([
            CaseJob(case="Translation Validation", full=full, config=checker_config)
        ])
        assert result.ok, result.error
        return result.value

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.verdict is True, "the parser-gen compiler output should be validated"
    record_case(outcome.metrics)
