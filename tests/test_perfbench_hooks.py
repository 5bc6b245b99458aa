"""The perfbench layer hooks name callables that exist.

``perfbench/tracer.py`` times each layer by wrapping module attributes such
as ``repro.core.entailment.compile_entailment`` and methods such as
``EntailmentChecker.check``.  Deleting or renaming a hooked name breaks every
traced benchmark run; installing and removing the hooks here makes such a
change fail the ordinary test suite as well.
"""

import importlib.util
from pathlib import Path

from repro.core import entailment
from repro.smt import incremental

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_uninstall():
    tracer_module = _load_tracer()
    function = entailment.compile_entailment
    method = incremental.IncrementalSession.__dict__["check"]
    tracer = tracer_module.Tracer()
    tracer_module.install_layer_hooks(tracer)
    try:
        assert tracer._patches
        assert entailment.compile_entailment is not function
        assert incremental.IncrementalSession.__dict__["check"] is not method
    finally:
        tracer.uninstall()
    assert entailment.compile_entailment is function
    assert incremental.IncrementalSession.__dict__["check"] is method
