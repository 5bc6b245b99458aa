"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so module-level memo tables
start cold exactly as they do for a CLI user.  The pass drives the public API
(``run_cases`` for Table 2 rows, ``run_campaign`` for synth campaigns), times
it, then checks every verdict outside the timed region and prints one JSON
object as its last line of output.

Only the standard library is imported at module level: the pooled engine
starts its workers with the ``spawn`` method, which re-imports this script
in every worker, and those imports must stay as light as a CLI user's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Table 2 rows backed by the scenario registry: display name -> full-size
#: scenario.  Their known answer is the registry's expected verdict.
REGISTRY_ROWS = {
    "Edge": "edge",
    "Service Provider": "service_provider",
    "Datacenter": "datacenter",
    "Enterprise": "enterprise",
    "VXLAN/GRE Tunneling": "vxlan_gre",
    "IPv6 Extension Chain": "ipv6_ext",
    "QinQ Double Tagging": "qinq",
    "ARP/ICMP Control Plane": "arp_icmp",
    "Synthetic Cascade": "synthetic",
}

#: Rows whose checks are not plain language equivalence (store independence,
#: a store relation, an externally filtered relation).
NON_LANGUAGE_ROWS = ("Header initialization", "Relational verification", "External filtering")

#: A few cheap rows for the self-test, run at mini size.
TOY_ROWS = ("State Rearrangement", "Header initialization", "QinQ Double Tagging")

#: Concrete packets per proved language-equivalence row in the cross-check.
ORACLE_PACKETS = 96

#: The pinned campaign.  Which pairs a campaign draws moves its time by about
#: a third (seed 7 vs this one), far more than the optimisations the benchmark
#: must resolve, so the campaign seed is fixed and ``--seed`` only sets the
#: string-hash seed of the pass.
CAMPAIGN_SEED = 20220613
CAMPAIGN_PAIRS = 100
TOY_PAIRS = 6


def _peak_rss_mb() -> float:
    """Largest resident set so far, over this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# table2-full
# ---------------------------------------------------------------------------


def _prepare_table2(args):
    from repro.core.algorithm import CheckerConfig
    from repro.reporting import runner
    from repro.scenarios import get

    rows = list(TOY_ROWS) if args.toy else list(runner.case_studies())
    expected = {
        name: get(REGISTRY_ROWS[name]).expected_equivalent if name in REGISTRY_ROWS else True
        for name in rows
    }
    return runner, CheckerConfig, rows, expected


def _run_table2(args, tracer) -> dict:
    runner, CheckerConfig, rows, expected = _prepare_table2(args)
    setup_s = time.perf_counter() - args.t0

    # Record the automata of every language-equivalence row for the
    # cross-check; one extra call per row, negligible next to the check.
    checked = {}
    current = [None]
    original = runner.check_language_equivalence

    def recording(left, left_start, right, right_start, **kwargs):
        checked[current[0]] = (left, left_start, right, right_start)
        return original(left, left_start, right, right_start, **kwargs)

    runner.check_language_equivalence = recording
    layers_by_row = {}
    results = []
    try:
        for name in rows:
            current[0] = name
            before = tracer.snapshot() if tracer is not None else None
            start_ns = time.perf_counter_ns()
            [metrics] = runner.run_cases(
                [name], full=not args.toy, config=CheckerConfig(track_memory=False)
            )
            end_ns = time.perf_counter_ns()
            results.append((name, (end_ns - start_ns) / 1e9, metrics))
            if tracer is not None:
                tracer.region(name, start_ns, end_ns)
                layers_by_row[name] = _layer_delta(before, tracer.snapshot())
    finally:
        runner.check_language_equivalence = original
    peak_rss_mb = _peak_rss_mb()

    from repro.oracle.differential import cross_check

    failures = []
    for name, _wall, metrics in results:
        if metrics.verdict is not expected[name]:
            failures.append(f"{name}: verdict {metrics.verdict}, expected {expected[name]}")
            continue
        if metrics.verdict and name not in NON_LANGUAGE_ROWS:
            if name not in checked:
                failures.append(f"{name}: automata not captured for the cross-check")
                continue
            report = cross_check(*checked[name], packets=ORACLE_PACKETS, seed=args.seed)
            if report.total_divergences:
                failures.append(
                    f"{name}: proof contradicted by {report.total_divergences} "
                    f"of {report.packets} concrete packets"
                )

    items = [wall for _name, wall, _metrics in results]
    runtimes = [metrics.runtime_seconds for _name, _wall, metrics in results]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "wall_s": sum(items),
        "items_s": items,
        "rows": {name: wall for name, wall, _metrics in results},
        "engine": _engine_metrics(items, runtimes, sum(items), 1),
        "attempted": len(results),
        "failures": failures,
        "layers_by_row": layers_by_row,
    }


def _layer_delta(before: dict, after: dict) -> dict:
    return {
        layer: {
            "self_s": (ns - before["self_ns"].get(layer, 0)) / 1e9,
            "total_s": (after["total_ns"][layer] - before["total_ns"].get(layer, 0)) / 1e9,
            "calls": after["calls"].get(layer, 0) - before["calls"].get(layer, 0),
        }
        for layer, ns in after["self_ns"].items()
    }


# ---------------------------------------------------------------------------
# campaign-inline / campaign-pooled
# ---------------------------------------------------------------------------


def _recording_engine_factory(records: list):
    """An engine factory for ``run_campaign(engine_factory=...)`` whose
    engines keep, per job, what the checks outside the timed region need."""
    from repro.core.engine import EquivalenceEngine

    class RecordingEngine(EquivalenceEngine):
        def run(self, jobs, on_result=None):
            by_label = {job.label: job for job in jobs}

            def record(result):
                job = by_label[result.job_id]
                value = result.value if result.ok else None
                records.append({
                    "job_id": result.job_id,
                    "status": result.status,
                    "error": result.error,
                    "elapsed": result.elapsed,
                    "runtime": value.statistics.runtime_seconds if value is not None else None,
                    "verdict": value.verdict if value is not None else None,
                    "counterexample": value.counterexample if value is not None else None,
                    "automata": (job.left, job.left_start, job.right, job.right_start),
                })
                if on_result is not None:
                    on_result(result)

            return super().run(jobs, on_result=record)

    return lambda jobs: RecordingEngine(jobs=jobs)


def _prepare_campaign(args):
    from repro.campaign.runner import CampaignConfig, run_campaign
    import repro.scenarios  # noqa: F401  (the registry a CLI user builds)

    return CampaignConfig, run_campaign


def _run_campaign(args, tracer) -> dict:
    CampaignConfig, run_campaign = _prepare_campaign(args)
    setup_s = time.perf_counter() - args.t0
    jobs = 2 if args.workload == "campaign-pooled" else 1
    config = CampaignConfig(pairs=TOY_PAIRS if args.toy else CAMPAIGN_PAIRS,
                            seed=CAMPAIGN_SEED, size="mini", jobs=jobs)
    records: list = []
    start_ns = time.perf_counter_ns()
    report = run_campaign(config, engine_factory=_recording_engine_factory(records))
    end_ns = time.perf_counter_ns()
    wall = (end_ns - start_ns) / 1e9
    if tracer is not None:
        tracer.region("run_campaign", start_ns, end_ns)
    peak_rss_mb = _peak_rss_mb()

    from repro.p4a.semantics import accepts

    failures = []
    if report.exit_code != 0:
        failures.append(f"campaign exit code {report.exit_code}: {report.totals}")
    for record in records:
        pair_name = record["job_id"].split(":")[0]
        index = int(pair_name[len("pair"):]) - CAMPAIGN_SEED
        expected = index % 2 == 0  # parity-pinned synth label: even = equivalent
        if record["status"] != "ok" or record["verdict"] is None:
            failures.append(f"{record['job_id']}: {record['status']} {record['error'] or 'no verdict'}")
            continue
        if record["verdict"] is not expected:
            failures.append(f"{record['job_id']}: verdict {record['verdict']}, label {expected}")
            continue
        if not expected:
            cex = record["counterexample"]
            if cex is None:
                failures.append(f"{record['job_id']}: refuted without a witness")
                continue
            left, left_start, right, right_start = record["automata"]
            left_accepts = accepts(left, left_start, cex.packet, cex.left_store)
            right_accepts = accepts(right, right_start, cex.packet, cex.right_store)
            if left_accepts == right_accepts or (left_accepts, right_accepts) != (
                cex.left_accepts, cex.right_accepts
            ):
                failures.append(f"{record['job_id']}: witness does not replay")

    elapsed = [record["elapsed"] for record in records]
    runtimes = [record["runtime"] or 0.0 for record in records]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "wall_s": wall,
        "items_s": elapsed,
        "engine": _engine_metrics(elapsed, runtimes, wall, jobs),
        "attempted": len(records),
        "failures": failures,
    }


def _engine_metrics(elapsed, runtimes, wall: float, workers: int) -> dict:
    """Engine dispatch seen from outside: per-job time not spent checking,
    and the share of worker capacity spent inside the checker."""
    overheads = [e - r for e, r in zip(elapsed, runtimes)]
    return {
        "engine.jobs": len(elapsed),
        "engine.job_overhead_ms": statistics.median(overheads) * 1000 if overheads else 0.0,
        "engine.busy_share": sum(runtimes) / (wall * workers) if wall > 0 else 0.0,
    }


# ---------------------------------------------------------------------------


#: workload -> (set-up up to the first check, one timed and checked pass)
WORKLOADS = {
    "table2-full": (_prepare_table2, _run_table2),
    "campaign-inline": (_prepare_campaign, _run_campaign),
    "campaign-pooled": (_prepare_campaign, _run_campaign),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="trace this pass and write Chrome trace JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    prepare, run = WORKLOADS[args.workload]
    if args.setup_only:
        prepare(args)
        print(json.dumps({"setup_s": time.perf_counter() - args.t0}))
        return 0

    tracer = None
    if args.trace_out is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        # Import and patch before the clock starts: patching is set-up work.
        tracing.install_layer_hooks(tracer)
    try:
        result = run(args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        wall_ns = int(result["wall_s"] * 1e9)
        result["layers"] = tracing.layer_metrics(tracer, wall_ns)
        tracer.write_chrome_trace(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
