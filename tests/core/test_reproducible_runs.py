"""Two identical checks in one process give identical relations and certificates.

Each WP names its leap variable ``leap_k`` for the smallest ``k`` not free in
its target, so a run's formulas do not depend on what ran before it in the
same process.  CI runs this file under more than one ``PYTHONHASHSEED``.
"""

import pytest

from repro.core.algorithm import PreBisimulationChecker
from repro.core.certificate import verify_certificate
from repro.scenarios import get


@pytest.mark.parametrize("name", ["mini_edge", "mini_qinq", "mini_qinq_broken"])
def test_repeated_run_gives_the_same_relation_and_certificate(name):
    left, left_start, right, right_start = get(name).automata()
    first = PreBisimulationChecker(left, right, left_start, right_start).run()
    second = PreBisimulationChecker(left, right, left_start, right_start).run()
    assert first.proved == second.proved
    assert first.relation == second.relation
    assert first.certificate == second.certificate
    if first.certificate is not None:
        assert verify_certificate(first.certificate, left, right).ok
