"""Per-layer timing wrappers installed from outside the checker.

The benchmark never edits ``src/``: it replaces the public callables of each
layer with depth-guarded wrappers for the duration of one traced pass.  A
wrapped call opens a span; its *self time* is its duration minus the time
covered by spans opened inside it, so the self times of all layers plus the
time spent outside every span add up to the traced wall time exactly.

Names bound with ``from module import name`` are patched in the module that
looks them up; methods are patched on their class.  A layer that is already
open (recursion, or a layer re-entering itself through another module's
binding) passes straight through, so only the outermost call is counted.

Only :func:`install_layer_hooks` imports the package under test.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: At most this many spans are kept as Chrome trace events.
MAX_EVENTS = 200_000


class Tracer:
    """Span and counter ledger for one traced pass.

    ``min_event_us`` and :data:`MAX_EVENTS` bound the Chrome trace kept in
    memory: every span is accounted in the per-layer totals, but only spans
    at least that long, up to that many, are kept as trace events.
    """

    def __init__(self, min_event_us: float = 20.0) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.events: List[Tuple[str, int, int, str]] = []
        self.dropped_events = 0
        self._stack: List[List[int]] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self._min_event_ns = int(min_event_us * 1000)
        self.origin_ns = time.perf_counter_ns()

    # -- spans -------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(state, args, result)``, which runs once the span has closed;
        both feed :attr:`counts`.
        """
        stack = self._stack
        open_layers = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers[layer]:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [0]
            stack.append(frame)
            open_layers[layer] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_layers[layer] = 0
                stack.pop()
                duration = end - start
                self.calls[layer] += 1
                self.total_ns[layer] += duration
                self.self_ns[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                self._event(layer, start, duration, "layer")
            if after is not None:
                after(state, args, result)
            return result

        return wrapper

    def _event(self, name: str, start: int, duration: int, category: str) -> None:
        if duration < self._min_event_ns:
            return
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append((name, start, duration, category))

    def region(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a named region (a Table 2 row, a campaign) as a trace event
        only; regions take no part in the self-time accounting."""
        self._event(name, start_ns, end_ns - start_ns, "region")

    def unattributed_ns(self, wall_ns: int) -> int:
        """Wall time spent outside every layer span."""
        return wall_ns - sum(self.self_ns.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
        }

    # -- patching ----------------------------------------------------------

    def patch(
        self,
        module: str,
        attribute: str,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module.attribute`` (``Class.method`` for methods)."""
        owner = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, self.wrap(layer, original, before, after))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = [
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": (start - self.origin_ns) / 1000.0,
                "dur": duration / 1000.0,
                "pid": 1,
                "tid": 1,
            }
            for name, start, duration, category in self.events
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped_events},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------------
# The hook points of the checker's layers
# ---------------------------------------------------------------------------


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, where it is looked up."""
    counts = tracer.counts

    def reachable_pairs(_state, args, _result):
        counts["reachability.pairs"] += len(args[0])

    def cache_lookup(_state, _args, result):
        counts["cache.lookups"] += 1
        counts["cache.hits"] += result is not None

    def clauses_before(args):
        return len(args[0].builder.clauses)

    def clauses_emitted(before, args, _result):
        counts["tseitin.clauses"] += len(args[0].builder.clauses) - before

    def shortcuts_before(args):
        return args[0].aig_shortcuts

    def shortcuts_taken(before, args, _result):
        counts["aig.shortcuts"] += args[0].aig_shortcuts - before

    def solver_before(args):
        stats = args[0].stats
        return stats.conflicts, stats.propagations

    def solver_work(before, args, _result):
        stats = args[0].stats
        counts["sat.conflicts"] += stats.conflicts - before[0]
        counts["sat.propagations"] += stats.propagations - before[1]

    def cegis_rounds(_state, _args, result):
        counts["cegis.rounds"] += result.rounds

    def checker_statistics(_state, _args, result):
        statistics = result.statistics
        counts["algorithm.iterations"] += statistics.iterations
        counts["algorithm.relation_size"] += statistics.relation_size
        entailment = statistics.entailment
        counts["entailment.stat_checks"] += entailment.get("checks", 0)
        counts["entailment.fast_path"] += sum(
            entailment.get(key, 0)
            for key in ("trivial", "syntactic", "smt_entailed", "smt_refuted")
        )

    hooks = [
        ("repro.core.reachability", "ReachabilityAnalysis.__init__", "reachability",
         None, reachable_pairs),
        ("repro.core.algorithm", "wp_formula", "wp", None, None),
        # Imported lazily by the certificate re-checker; also wp_set's lookup.
        ("repro.core.wp", "wp_formula", "wp", None, None),
        ("repro.core.algorithm", "simplify_formula", "simplify", None, None),
        ("repro.core.entailment", "simplify_formula", "simplify", None, None),
        ("repro.core.counterexample", "simplify_formula", "simplify", None, None),
        ("repro.core.wp", "simplify_formula", "simplify", None, None),
        ("repro.core.certificate", "simplify_formula", "simplify", None, None),
        ("repro.logic.compile", "simplify_formula", "simplify", None, None),
        ("repro.core.entailment", "EntailmentChecker.check", "entailment", None, None),
        ("repro.core.entailment", "lower_formula", "compile", None, None),
        ("repro.core.entailment", "compile_entailment", "compile", None, None),
        ("repro.core.counterexample", "lower_formula", "compile", None, None),
        ("repro.core.entailment", "confrel_fingerprint", "fingerprint", None, None),
        ("repro.core.counterexample", "confrel_fingerprint", "fingerprint", None, None),
        ("repro.smt.incremental", "folbv_fingerprint", "fingerprint", None, None),
        ("repro.smt.aig", "folbv_fingerprint", "fingerprint", None, None),
        ("repro.smt.cache", "folbv_fingerprint", "fingerprint", None, None),
        ("repro.smt.cache", "CachingBackend.lookup", "cache", None, cache_lookup),
        ("repro.smt.cache", "CachingBackend.store", "cache", None, None),
        ("repro.smt.aig", "FolbvToAig.lower_formula", "aig", None, None),
        ("repro.smt.aig", "AigToCnf.literal", "tseitin", clauses_before, clauses_emitted),
        ("repro.smt.incremental", "IncrementalSession.check", "session",
         shortcuts_before, shortcuts_taken),
        ("repro.smt.sat.solver", "CdclSolver.solve_values", "sat",
         solver_before, solver_work),
        ("repro.core.entailment", "solve_exists_forall", "cegis", None, cegis_rounds),
        ("repro.smt.incremental", "IncrementalSession._decode_model", "validate", None, None),
        ("repro.smt.incremental", "complete_model", "validate", None, None),
        ("repro.core.entailment", "complete_model", "validate", None, None),
        ("repro.smt.bvsolver", "complete_model", "validate", None, None),
        ("repro.logic.folbv", "eval_formula", "validate", None, None),
        ("repro.core.algorithm", "PreBisimulationChecker.run", "checker",
         None, checker_statistics),
        ("repro.core.counterexample", "CounterexampleSearch.search", "cex", None, None),
        # Imported lazily by its caller, so the module attribute is the hook.
        ("repro.oracle.minimize", "minimize_counterexample", "minimize", None, None),
        ("repro.campaign.runner", "synthesize_pair", "synth", None, None),
        ("repro.synth.transforms", "find_witness", "witness", None, None),
    ]
    for module, attribute, layer, before, after in hooks:
        tracer.patch(module, attribute, layer, before, after)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_ns: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by benchmark name."""
    calls, counts = tracer.calls, tracer.counts

    def self_s(layer: str) -> float:
        return tracer.self_ns.get(layer, 0) / 1e9

    return {
        "reachability.self_s": self_s("reachability"),
        "reachability.pairs": counts["reachability.pairs"],
        "wp.calls": calls["wp"],
        "wp.self_s": self_s("wp"),
        "simplify.calls": calls["simplify"],
        "simplify.self_s": self_s("simplify"),
        "entailment.checks": calls["entailment"],
        "entailment.self_s": self_s("entailment"),
        "entailment.fast_path_share": _share(
            counts["entailment.fast_path"], counts["entailment.stat_checks"]),
        "entailment.cegis_share": _share(calls["cegis"], calls["entailment"]),
        "compile.calls": calls["compile"],
        "compile.self_s": self_s("compile"),
        "fingerprint.calls": calls["fingerprint"],
        "fingerprint.self_s": self_s("fingerprint"),
        "cache.lookups": counts["cache.lookups"],
        "cache.hit_share": _share(counts["cache.hits"], counts["cache.lookups"]),
        "cache.self_s": self_s("cache"),
        "aig.calls": calls["aig"],
        "aig.self_s": self_s("aig"),
        "aig.shortcut_share": _share(counts["aig.shortcuts"], calls["session"]),
        "tseitin.self_s": self_s("tseitin"),
        "tseitin.clauses": counts["tseitin.clauses"],
        "session.checks": calls["session"],
        "session.self_s": self_s("session"),
        "sat.calls": calls["sat"],
        "sat.self_s": self_s("sat"),
        "sat.conflicts": counts["sat.conflicts"],
        "sat.propagations": counts["sat.propagations"],
        "cegis.calls": calls["cegis"],
        "cegis.rounds": counts["cegis.rounds"],
        "cegis.self_s": self_s("cegis"),
        "cegis.total_s": tracer.total_ns.get("cegis", 0) / 1e9,
        "validate.calls": calls["validate"],
        "validate.self_s": self_s("validate"),
        "algorithm.iterations": counts["algorithm.iterations"],
        "algorithm.relation_size": counts["algorithm.relation_size"],
        "checker.self_s": self_s("checker"),
        "cex.searches": calls["cex"],
        "cex.self_s": self_s("cex"),
        "minimize.self_s": self_s("minimize"),
        "synth.pairs": calls["synth"],
        "synth.self_s": self_s("synth"),
        "synth.witness_s": self_s("witness"),
        "trace.wall_s": wall_ns / 1e9,
        "trace.unattributed_s": tracer.unattributed_ns(wall_ns) / 1e9,
    }
