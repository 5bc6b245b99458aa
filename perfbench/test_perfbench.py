"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` (seconds).

They check the self-time accounting of the tracer on synthetic call trees
and run every workload at toy size through ``run.py --self-test``, which
exercises the verdict checks and the metric names of ``BENCHMARK.json``.
"""

import os
import subprocess
import sys
import time
import types

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_and_unattributed_time_add_up_to_wall_time():
    tracer = Tracer(min_event_us=0)
    inner = tracer.wrap("inner", lambda: _busy(0.02))

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    start = time.perf_counter_ns()
    outer()
    _busy(0.01)
    wall = time.perf_counter_ns() - start

    assert tracer.calls == {"outer": 1, "inner": 2}
    assert 0.035 < tracer.self_ns["inner"] / 1e9 < 0.06
    assert 0.008 < tracer.self_ns["outer"] / 1e9 < 0.02
    assert tracer.total_ns["outer"] >= tracer.self_ns["outer"] + tracer.self_ns["inner"]
    unattributed = tracer.unattributed_ns(wall)
    assert 0.008 < unattributed / 1e9 < 0.02
    assert unattributed + sum(tracer.self_ns.values()) == wall
    assert len(tracer.events) == 3


def test_recursion_counts_only_the_outermost_call_and_patches_are_undone():
    module = types.ModuleType("fake_layer")

    def depth(n):
        return 0 if n == 0 else 1 + module.depth(n - 1)

    module.depth = depth
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        seen = []
        tracer.patch("fake_layer", "depth", "recursive",
                     after=lambda _state, args, result: seen.append((args, result)))
        assert module.depth(5) == 5
        assert tracer.calls["recursive"] == 1
        assert seen == [((5,), 5)]
        tracer.uninstall()
        assert module.depth is depth
    finally:
        del sys.modules["fake_layer"]


def test_every_workload_at_toy_size():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
    assert completed.stdout.strip().endswith("self-test passed")
