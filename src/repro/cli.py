"""Command-line interface.

``leapfrog-repro`` exposes the main workflows:

* ``check LEFT.p4a RIGHT.p4a --left-start q1 --right-start q3`` — parse two
  automata from their surface syntax and check language equivalence;
* ``table [--full] [--case NAME ...]`` — run the Table 2 case studies and print
  the results in the paper's row format;
* ``list`` — list the registered case studies;
* ``scenarios list/show/run`` — browse the tagged scenario registry and
  verify a scenario against its expected verdict;
* ``oracle`` — run the differential concrete-oracle fuzz suite over the
  registered scenarios and write reproducible divergence reports;
* ``synth emit/run`` — synthesize seeded automaton pairs with known
  ground-truth verdicts and (``run``) check that the engine agrees with
  every label;
* ``campaign run`` — sharded fuzz campaigns of self-labeled synthesized
  pairs with resumable checkpoints, differential backend-stack
  cross-checking and disagreement distillation (see ``docs/campaign.md``);
* ``dump-scenario NAME`` — print a parser-gen scenario as a P4 automaton (and
  optionally its compiled hardware table);
* ``serve`` — run the persistent equivalence daemon (warm workers fronting a
  content-addressed verdict store; see ``docs/service.md``);
* ``bench report`` — render the committed benchmark-history trend
  (``benchmarks/history/``) and, with ``--check``, gate on performance
  regressions against the rolling baseline.

``check``, ``table``, ``scenarios run`` and ``synth run`` accept ``--server``
(or honour ``LEAPFROG_SERVER``) and then become thin clients of a running
daemon, with byte-identical output to the in-process path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__, envconfig
from .core.algorithm import CheckerConfig
from .core.equivalence import check_language_equivalence
from .p4a.pretty import pretty
from .p4a.surface import parse_automaton
from .parsergen import compile_graph, graph_to_p4a
from .reporting import case_studies, render_markdown, render_text, run_cases
# Imported from the registry module directly: pulling in `repro.scenarios`
# would populate the whole catalog on every CLI start-up, even for commands
# that never touch it.
from .scenarios.registry import ScenarioLookupError


def _jobs_argument(value: str) -> int:
    """argparse type for ``--jobs``: a validated positive integer."""
    try:
        return envconfig.parse_jobs(value, source="--jobs")
    except envconfig.EnvConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_argument(value: str) -> int:
    """argparse type for ``--count``: a validated positive integer."""
    try:
        return envconfig.parse_jobs(value, source="--count")
    except envconfig.EnvConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _oracle_argument(value: str) -> int:
    """argparse type for ``--oracle-packets``: a validated non-negative count."""
    try:
        parsed = envconfig.parse_oracle_packets(value, source="--oracle-packets")
    except envconfig.EnvConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return parsed if parsed is not None else 0


def _seed_argument(value: str) -> int:
    """argparse type for ``--seed``: a validated integer."""
    try:
        parsed = envconfig.parse_seed(value, source="--seed")
    except envconfig.EnvConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return parsed if parsed is not None else 0


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", metavar="ADDR",
        help="send the work to a running `leapfrog-repro serve` daemon at "
             "ADDR (a unix-socket path or http://host:port) instead of "
             "checking in-process (default: LEAPFROG_SERVER or off)",
    )


def _server_setting(args: argparse.Namespace) -> Optional[str]:
    """The daemon address from ``--server``, falling back to the environment."""
    if vars(args).get("server"):
        return args.server
    return envconfig.server_from_env()


def _add_solver_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solver", choices=envconfig.SOLVER_CHOICES, default=None,
        help="solver backend for entailment queries; external choices "
             "(z3, cvc5, cvc4, boolector) must be on PATH "
             "(default: LEAPFROG_SOLVER or the internal CDCL solver)",
    )


def _checker_config(args: argparse.Namespace, base: Optional[CheckerConfig] = None,
                    **fields) -> CheckerConfig:
    """The command's one checker config, resolved by
    :func:`repro.envconfig.resolve_checker_config`: ``fields`` and the flags
    in ``args`` first, then the ``LEAPFROG_*`` variables, then ``base``."""
    given = vars(args)

    def off(flag: str) -> Optional[bool]:
        return False if given.get(flag) else None

    flags = {
        "use_leaps": off("no_leaps"),
        "use_reachability": off("no_reachability"),
        "minimize_counterexamples": off("no_minimize"),
        "cache_dir": given.get("cache_dir"),
        "oracle_packets": given.get("oracle_packets"),
        "oracle_seed": given.get("seed"),
        "solver": given.get("solver"),
        **fields,
    }
    config = envconfig.resolve_checker_config(flags, base=base)
    if given.get("no_cache"):
        # ``check --no-cache`` beats ``--cache-dir`` and LEAPFROG_CACHE_DIR.
        config.cache_dir = None
    return config


def _add_oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle-packets", type=_oracle_argument, default=None, metavar="N",
        help="cross-check every verdict against N seeded random packets run "
             "through both parsers concretely (default: LEAPFROG_ORACLE or off)",
    )
    parser.add_argument(
        "--seed", type=_seed_argument, default=None, metavar="S",
        help="seed for the oracle's packet/store sampler "
             "(default: LEAPFROG_SEED or 0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leapfrog-repro",
        description="Certified equivalence checking for P4 protocol parsers (Leapfrog reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check language equivalence of two parsers")
    check.add_argument("left", help="path to the left parser (surface syntax)")
    check.add_argument("right", help="path to the right parser (surface syntax)")
    check.add_argument("--left-start", required=True, help="start state of the left parser")
    check.add_argument("--right-start", required=True, help="start state of the right parser")
    check.add_argument("--no-leaps", action="store_true", help="disable the leaps optimization")
    check.add_argument(
        "--no-reachability", action="store_true", help="disable reachable-pair pruning"
    )
    check.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent solver-query cache (overrides --cache-dir "
             "and LEAPFROG_CACHE_DIR)",
    )
    check.add_argument(
        "--cache-dir", help="persist the solver-query cache to this directory"
    )
    check.add_argument(
        "--no-minimize", action="store_true",
        help="report counterexamples as extracted, without greedy minimization",
    )
    _add_solver_argument(check)
    _add_oracle_arguments(check)
    _add_server_argument(check)

    table = sub.add_parser("table", help="run the Table 2 case studies")
    table.add_argument("--full", action="store_true", help="use paper-sized parsers")
    table.add_argument("--case", action="append", help="run only the named case (repeatable)")
    table.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")
    table.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="run case studies across N worker processes "
             "(default: LEAPFROG_JOBS or 1, sequential)",
    )
    table.add_argument(
        "--cache-dir",
        help="directory for the persistent solver-query cache, shared by all "
             "workers (default: LEAPFROG_CACHE_DIR)",
    )
    table.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-case wall-clock limit (preemptive when --jobs > 1, "
             "after-the-fact when sequential)",
    )
    _add_solver_argument(table)
    _add_oracle_arguments(table)
    _add_server_argument(table)

    sub.add_parser("list", help="list the registered case studies")

    scenarios = sub.add_parser(
        "scenarios", help="browse and run the tagged scenario registry"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scenarios_list = scenarios_sub.add_parser(
        "list", help="list registered scenarios (optionally filtered by tag)"
    )
    scenarios_list.add_argument(
        "--family", choices=_scenario_registry().FAMILIES,
        help="only scenarios of this deployment family",
    )
    scenarios_list.add_argument(
        "--size", choices=_scenario_registry().SIZES,
        help="only scenarios of this scale",
    )
    scenarios_list.add_argument(
        "--verdict", choices=_scenario_registry().VERDICTS,
        help="only scenarios with this expected verdict",
    )
    scenarios_list.add_argument(
        "--kind", choices=_scenario_registry().KINDS,
        help="only scenarios of this kind",
    )
    scenarios_list.add_argument(
        "--json", action="store_true", help="emit the catalog as JSON"
    )

    scenarios_show = scenarios_sub.add_parser(
        "show", help="show one scenario's tags, structure and description"
    )
    scenarios_show.add_argument("name", help="scenario name (see `scenarios list`)")

    scenarios_run = scenarios_sub.add_parser(
        "run",
        help="check a scenario's equivalence and compare against its "
             "expected verdict (exit 0 on a match)",
    )
    scenarios_run.add_argument("name", help="scenario name (see `scenarios list`)")
    _add_oracle_arguments(scenarios_run)
    _add_server_argument(scenarios_run)

    oracle = sub.add_parser(
        "oracle",
        help="run the differential concrete-oracle fuzz suite over scenarios",
    )
    oracle.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="fuzz only the named scenario (repeatable; default: every mini "
             "scenario, or all scenarios with --all)",
    )
    oracle.add_argument(
        "--all", action="store_true", help="fuzz every registered scenario"
    )
    oracle.add_argument(
        "--packets", type=_oracle_argument, default=None, metavar="N",
        help="packets per cross-check (default: LEAPFROG_ORACLE or "
             f"{envconfig.DEFAULT_ORACLE_PACKETS})",
    )
    oracle.add_argument(
        "--seed", type=_seed_argument, default=None, metavar="S",
        help="sampler seed (default: LEAPFROG_SEED or 0)",
    )
    oracle.add_argument(
        "--report-dir", metavar="DIR",
        help="write summary.json plus one JSON report per diverging scenario "
             "(seed, packets, stores) into DIR",
    )
    oracle.add_argument(
        "--no-translation", action="store_true",
        help="skip the compiled-hardware translation cross-check",
    )

    synth = sub.add_parser(
        "synth",
        help="synthesize seeded automaton pairs with known ground-truth verdicts",
    )
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)

    def _add_synth_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--count", type=_count_argument, default=20, metavar="N",
            help="number of pairs to synthesize (default: 20)",
        )
        subparser.add_argument(
            "--seed", type=_seed_argument, default=None, metavar="S",
            help="base seed; pair i uses seed S+i (default: LEAPFROG_SEED or 0)",
        )
        subparser.add_argument(
            "--size", choices=("mini", "full"), default="mini",
            help="generator envelope (default: mini)",
        )
        subparser.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )

    synth_emit = synth_sub.add_parser(
        "emit", help="synthesize pairs and print them without checking"
    )
    _add_synth_arguments(synth_emit)
    synth_emit.add_argument(
        "--pretty", action="store_true",
        help="also print both automata of every pair in surface syntax",
    )

    synth_run = synth_sub.add_parser(
        "run",
        help="synthesize pairs, check each with the engine and compare "
             "against the ground-truth label (exit 0 when all agree)",
    )
    _add_synth_arguments(synth_run)
    synth_run.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="synthesize and check pairs across N worker processes "
             "(default: LEAPFROG_JOBS or 1, sequential)",
    )
    synth_run.add_argument(
        "--oracle-packets", type=_oracle_argument, default=None, metavar="N",
        help="cross-check every verdict against N seeded concrete packets "
             f"(default: LEAPFROG_ORACLE or {envconfig.DEFAULT_ORACLE_PACKETS}; "
             "0 disables)",
    )
    _add_server_argument(synth_run)

    campaign = sub.add_parser(
        "campaign",
        help="run sharded fuzz campaigns of self-labeled synthesized pairs "
             "and distill every engine/label disagreement into a regression "
             "scenario",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run",
        help="synthesize, check and cross-check PAIRS pairs across shards; "
             "exit 0 when every verdict matches its label",
    )
    campaign_run.add_argument(
        "--pairs", type=_count_argument, required=True, metavar="N",
        help="total number of pairs in the campaign (split across shards)",
    )
    campaign_run.add_argument(
        "--shards", type=_jobs_argument, default=None, metavar="K",
        help="split the campaign into K interleaved shards "
             "(default: LEAPFROG_SHARDS or 1)",
    )
    campaign_run.add_argument(
        "--shard", type=int, default=None, metavar="K",
        help="run only shard K of --shards (0-based; default: every shard "
             "in sequence)",
    )
    campaign_run.add_argument(
        "--seed", type=_seed_argument, default=None, metavar="S",
        help="campaign base seed; pair i uses seed S+i "
             "(default: LEAPFROG_SEED or 0)",
    )
    campaign_run.add_argument(
        "--size", choices=("mini", "full"), default="mini",
        help="campaign generator envelope (default: mini)",
    )
    campaign_run.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="synthesize and check pairs across N worker processes "
             "(default: LEAPFROG_JOBS or 1, sequential)",
    )
    campaign_run.add_argument(
        "--differential", action="store_true",
        help="cross-check every pair across the backend stacks (internal, "
             "AIG-off, and the first external solver found on PATH, if any) "
             "in addition to the ground-truth label",
    )
    campaign_run.add_argument(
        "--oracle-packets", type=_oracle_argument, default=None, metavar="N",
        help="also replay N seeded concrete packets per verdict "
             "(default: LEAPFROG_ORACLE or off)",
    )
    campaign_run.add_argument(
        "--chunk-size", type=_count_argument, default=None, metavar="N",
        help="pairs synthesized and checked per engine batch; also the "
             "checkpoint granularity (default: 32)",
    )
    campaign_run.add_argument(
        "--state-dir", metavar="DIR",
        help="directory for resumable per-shard checkpoints; rerunning with "
             "the same parameters continues where the last run stopped",
    )
    campaign_run.add_argument(
        "--distill-dir", metavar="DIR",
        help="write every minimized disagreement into DIR as a deterministic "
             "scenario module (point it at src/repro/scenarios/distilled to "
             "register the catch as a tier-1 regression test)",
    )
    campaign_run.add_argument(
        "--max-distilled", type=_count_argument, default=None, metavar="N",
        help="distill at most N disagreements per campaign (default: 8)",
    )
    campaign_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-pair solver budget (default: none)",
    )
    campaign_run.add_argument(
        "--report", metavar="PATH",
        help="write the deterministic JSON report to PATH",
    )
    campaign_run.add_argument(
        "--json", action="store_true",
        help="print the JSON report to stdout instead of the human summary",
    )

    bench = sub.add_parser(
        "bench", help="inspect the committed benchmark history"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_report = bench_sub.add_parser(
        "report",
        help="render the normalized benchmark trend from benchmarks/history/ "
             "and (with --check) gate on regressions",
    )
    bench_report.add_argument(
        "--history-dir", metavar="DIR",
        help="history directory (default: benchmarks/history/ in the repo)",
    )
    bench_report.add_argument(
        "--markdown", action="store_true",
        help="emit Markdown instead of text (the docs/benchmarks.md table)",
    )
    bench_report.add_argument(
        "--check", action="store_true",
        help="exit 1 when the newest entry is more than --threshold slower "
             "than the rolling baseline on any benchmark (the CI perf gate)",
    )
    bench_report.add_argument(
        "--threshold", type=float, default=None, metavar="FRACTION",
        help="fractional slowdown versus the rolling baseline that fails "
             "--check (default: 0.15)",
    )
    bench_report.add_argument(
        "--window", type=_count_argument, default=None, metavar="K",
        help="rolling baseline size: the mean of up to K entries preceding "
             "the newest one (default: 3)",
    )

    dump = sub.add_parser("dump-scenario", help="print a parser-gen scenario as a P4 automaton")
    dump.add_argument("name", help="scenario name (e.g. edge, datacenter, mini_edge)")
    dump.add_argument("--hardware", action="store_true", help="also print the compiled table")

    serve = sub.add_parser(
        "serve",
        help="run the persistent equivalence daemon (warm workers + "
             "content-addressed verdict store)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default="leapfrog.sock",
        help="unix socket to listen on (default: ./leapfrog.sock; created "
             "owner-only)",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="listen on http://127.0.0.1:PORT instead of a unix socket "
             "(0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=_jobs_argument, default=None, metavar="N",
        help="warm worker threads (default: LEAPFROG_JOBS or 1)",
    )
    serve.add_argument(
        "--store-dir", metavar="DIR",
        help="directory for the content-addressed verdict store; omitting it "
             "disables the store (every request solves or dedupes)",
    )
    serve.add_argument(
        "--max-store-entries", type=_count_argument, default=None, metavar="N",
        help="evict least-recently-used verdicts beyond N entries "
             "(default: unbounded)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent solver-query cache shared by the workers (default: "
             "STORE_DIR/query-cache when --store-dir is set, else "
             "LEAPFROG_CACHE_DIR)",
    )
    serve.add_argument(
        "--max-pending", type=_count_argument, default=None, metavar="N",
        help="queue bound before requests are rejected with `overloaded` "
             "(default: 64)",
    )
    serve.add_argument(
        "--stats-json", metavar="PATH",
        help="write the final statistics snapshot to PATH on shutdown",
    )
    return parser


def _check_pair(args: argparse.Namespace, left, left_start: str, right, right_start: str,
                config: CheckerConfig):
    """Check one pair on the daemon that ``--server``/``LEAPFROG_SERVER``
    names, else in process.  The daemon solves (or replays from its verdict
    store) and renders the display line from the real result, so the output
    is byte-identical either way.  A
    :class:`~repro.service.client.ServiceError` propagates to ``main``."""
    server = _server_setting(args)
    if server is None:
        return check_language_equivalence(left, left_start, right, right_start, config=config)
    from .service.client import ServiceClient

    return ServiceClient(server).check(
        left, left_start, right, right_start, options=config.to_options()
    )


def _command_check(args: argparse.Namespace) -> int:
    with open(args.left) as handle:
        left = parse_automaton(handle.read(), name=args.left)
    with open(args.right) as handle:
        right = parse_automaton(handle.read(), name=args.right)
    config = _checker_config(args)
    result = _check_pair(args, left, args.left_start, right, args.right_start, config)
    print(result)
    if result.statistics.oracle:
        oracle = result.statistics.oracle
        if "packets" in oracle and oracle.get("packets"):
            print(
                f"oracle: {oracle.get('divergences', 0)} divergences over "
                f"{oracle['packets']} packets (seed {config.oracle_seed or 0})"
            )
    if result.proved:
        return 0
    return 1 if result.refuted else 2


def _command_table(args: argparse.Namespace) -> int:
    names = args.case if args.case else None
    jobs = args.jobs if args.jobs is not None else envconfig.jobs_from_env()
    metrics = run_cases(
        names=names,
        full=True if args.full else None,
        config=_checker_config(args, track_memory=True),
        jobs=jobs,
        timeout=args.timeout,
        server=_server_setting(args),
    )
    renderer = render_markdown if args.markdown else render_text
    print(renderer(metrics, title="Table 2 reproduction"))
    return 0


def _command_oracle(args: argparse.Namespace) -> int:
    from .oracle.suite import render_suite, run_differential_suite, write_reports
    from .scenarios import mini_names, names as registry_names

    if args.scenario:
        names = args.scenario
    elif args.all:
        names = registry_names()
    else:
        names = mini_names()
    packets = (
        args.packets if args.packets is not None
        else envconfig.oracle_packets_from_env()
    )
    if packets is None:
        # Unset means the default budget; an explicit 0 is honoured (a
        # vacuous run, but the user asked for it).
        packets = envconfig.DEFAULT_ORACLE_PACKETS
    seed = args.seed if args.seed is not None else envconfig.seed_from_env()
    rows = run_differential_suite(
        names=names,
        packets=packets,
        seed=seed if seed is not None else 0,
        include_translation=not args.no_translation,
    )
    print(render_suite(rows))
    if args.report_dir:
        for path in write_reports(rows, args.report_dir):
            print(f"wrote {path}")
    failing = [row for row in rows if not row.ok]
    if failing:
        print(
            f"FAIL: {len(failing)} scenario(s) contradict their expected "
            f"verdict: {', '.join(row.scenario for row in failing)} "
            f"(reproduce with --seed {seed or 0})"
        )
        return 1
    return 0


def _command_list(_: argparse.Namespace) -> int:
    for name, study in case_studies().items():
        print(f"{name:30s} [{study.category}]")
    return 0


def _scenario_registry():
    """The scenario-registry module (imported lazily to keep startup light)."""
    from . import scenarios

    return scenarios


def _render_scenario_table(rows) -> str:
    from .reporting.table import render_fixed_width

    headers = ("Name", "Family", "Size", "Kind", "Expected", "States", "Header bits")
    table = []
    for info in rows:
        states, header_bits, _ = info.structure()
        table.append([
            info.name, info.family, info.size, info.kind, info.verdict,
            str(states), str(header_bits),
        ])
    return render_fixed_width(headers, table)


def _command_scenarios(args: argparse.Namespace) -> int:
    import json

    registry = _scenario_registry()
    if args.scenarios_command == "list":
        rows = registry.filter_scenarios(
            family=args.family, size=args.size, verdict=args.verdict, kind=args.kind
        )
        if args.json:
            records = []
            for info in rows:
                states, header_bits, branched_bits = info.structure()
                records.append({
                    "name": info.name, "family": info.family, "size": info.size,
                    "kind": info.kind, "verdict": info.verdict,
                    "states": states, "header_bits": header_bits,
                    "branched_bits": branched_bits,
                    "description": info.description,
                })
            print(json.dumps(records, indent=2))
        else:
            print(_render_scenario_table(rows))
            print(f"\n{len(rows)} scenario(s)")
        return 0
    if args.scenarios_command == "show":
        info = registry.get(args.name)
        states, header_bits, branched_bits = info.structure()
        print(f"name:         {info.name}")
        print(f"family:       {info.family}")
        print(f"size:         {info.size}")
        print(f"kind:         {info.kind}")
        print(f"expected:     {info.verdict}")
        print(f"states:       {states} (both sides)")
        print(f"header bits:  {header_bits}")
        print(f"branched bits: {branched_bits}")
        print(f"description:  {info.description}")
        return 0
    return _command_scenarios_run(args, registry)


def _command_scenarios_run(args: argparse.Namespace, registry) -> int:
    info = registry.get(args.name)
    left, left_start, right, right_start = info.automata()
    result = _check_pair(args, left, left_start, right, right_start, _checker_config(args))
    print(f"{info.name} [{info.family}/{info.size}] expected {info.verdict}")
    print(result)
    if result.verdict is None:
        print("MISMATCH: checker returned no verdict")
        return 2
    observed = "equivalent" if result.proved else "not_equivalent"
    if observed == info.verdict:
        print("OK: verdict matches the registry expectation")
        return 0
    print(f"MISMATCH: observed {observed}")
    return 1


def _command_synth(args: argparse.Namespace) -> int:
    import json

    from .synth import config_for_size, synthesize_batch

    seed = args.seed if args.seed is not None else envconfig.seed_from_env()
    seed = seed if seed is not None else 0
    generator = config_for_size(args.size)
    if args.synth_command == "emit":
        return _synth_emit(args, synthesize_batch(args.count, seed, config=generator), seed, json)
    return _synth_run(args, generator, seed, json)


def _synth_emit(args: argparse.Namespace, pairs, seed: int, json) -> int:
    if args.json:
        records = []
        for pair in pairs:
            record = pair.as_dict()
            record["left"] = pretty(pair.left)
            record["right"] = pretty(pair.right)
            record["left_start"] = pair.left_start
            record["right_start"] = pair.right_start
            records.append(record)
        print(json.dumps({"seed": seed, "size": args.size, "pairs": records},
                         indent=2))
        return 0
    print(_render_synth_table(pairs))
    print(f"\n{len(pairs)} pair(s) from seed {seed} ({args.size})")
    if args.pretty:
        for pair in pairs:
            print(f"\n// {pair.name}: expected {pair.verdict}, "
                  f"transforms: {', '.join(pair.transforms) or '(none)'}")
            print(f"// left start {pair.left_start}")
            print(pretty(pair.left))
            print(f"// right start {pair.right_start}")
            print(pretty(pair.right))
    return 0


def _render_synth_table(pairs, observations=None) -> str:
    from .reporting.table import render_fixed_width

    headers = ["Pair", "Seed", "States", "Bits", "Expected", "Transforms"]
    if observations is not None:
        headers += ["Observed", "Oracle div/pkts", "Agree"]
    table = []
    for index, pair in enumerate(pairs):
        states, bits = pair.structure()
        row = [
            pair.name, str(pair.seed), str(states), str(bits),
            "equiv" if pair.expected_equivalent else "inequiv",
            ",".join(pair.transforms),
        ]
        if observations is not None:
            observed, oracle_cell, agree = observations[index]
            row += [observed, str(oracle_cell), "yes" if agree else "NO"]
        table.append(row)
    return render_fixed_width(tuple(headers), table)


def _synth_run(args: argparse.Namespace, generator, seed: int, json) -> int:
    """Check every synthesized pair against its ground-truth label.

    Exit codes match ``scenarios run``: 0 when every engine verdict agrees
    with the synthesizer's label (and the concrete oracle contradicts no
    proof), 1 on a disagreement, 2 when any pair gets no verdict at all.
    """
    from .core.engine import EquivalenceEngine, EquivalenceJob
    from .synth import synthesize_batch

    jobs = args.jobs if args.jobs is not None else envconfig.jobs_from_env()
    # The oracle rides on each verdict inside the worker (a proved pair that
    # diverges concretely fails its job), so --jobs parallelizes the
    # concrete replays along with the symbolic checks.  Unlike the other
    # commands, synth run fuzzes by default.
    config = _checker_config(
        args, oracle_seed=seed,
        base=CheckerConfig(oracle_packets=envconfig.DEFAULT_ORACLE_PACKETS),
    )
    packets = config.oracle_packets
    engine = EquivalenceEngine(jobs=jobs, server=_server_setting(args))
    with engine:  # one pool synthesizes and checks the pairs
        pairs = synthesize_batch(args.count, seed, config=generator, map_calls=engine.map)
        results = engine.run([
            EquivalenceJob(
                pair.left, pair.left_start, pair.right, pair.right_start,
                config=config, job_id=pair.name,
            )
            for pair in pairs
        ])

    observations = []
    mismatches = 0
    stuck = 0
    for pair, result in zip(pairs, results):
        if not result.ok:
            # Includes the oracle contradicting a proof (the worker raises).
            observations.append((result.status, "-", False))
            stuck += 1
            continue
        verdict = result.value.verdict
        if verdict is None:
            observed = "unknown"
        else:
            observed = "equivalent" if verdict else "not_equivalent"
        oracle = result.value.statistics.oracle
        fuzzed = oracle.get("packets", 0)
        divergences = oracle.get("divergences", 0)
        oracle_cell = f"{divergences}/{fuzzed}" if fuzzed else "-"
        agree = observed == pair.verdict
        # A broken pair's stored witness must still replay its divergence.
        if not pair.expected_equivalent:
            agree = agree and pair.replay_witness()
        observations.append((observed, oracle_cell, agree))
        if not agree:
            if observed == "unknown":
                stuck += 1
            else:
                mismatches += 1

    agreeing = sum(1 for _, _, agree in observations if agree)
    summary = (
        f"{agreeing}/{len(pairs)} verdicts agree with ground truth "
        f"(seed {seed}, size {args.size}, oracle {packets} packets)"
    )
    if args.json:
        print(json.dumps({
            "seed": seed, "size": args.size, "oracle_packets": packets,
            "agreeing": agreeing, "pairs": [
                {**pair.as_dict(), "observed": observed,
                 "oracle": oracle_cell, "agree": agree}
                for pair, (observed, oracle_cell, agree)
                in zip(pairs, observations)
            ],
        }, indent=2))
    else:
        print(_render_synth_table(pairs, observations))
        print(f"\n{summary}")
    if mismatches:
        return 1
    if stuck:
        return 2
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    """Run a sharded fuzz campaign (``campaign run``).

    Exit codes follow the report: 0 when every verdict agrees with its
    ground-truth label (and the stacks with each other), 1 on any
    disagreement, 2 when a pair gets no verdict at all.
    """
    import json

    from .campaign import CampaignConfig, CampaignError, run_campaign

    shards = args.shards if args.shards is not None else envconfig.shards_from_env()
    seed = args.seed if args.seed is not None else (envconfig.seed_from_env() or 0)
    jobs = args.jobs if args.jobs is not None else envconfig.jobs_from_env()
    packets = (
        args.oracle_packets if args.oracle_packets is not None
        else envconfig.oracle_packets_from_env()
    )
    try:
        config = CampaignConfig(
            pairs=args.pairs,
            shards=shards,
            seed=seed,
            size=args.size,
            jobs=jobs,
            differential=args.differential,
            oracle_packets=packets or 0,
            timeout=args.timeout,
            chunk_size=args.chunk_size if args.chunk_size is not None else 32,
            shard=args.shard,
            state_dir=args.state_dir,
            distill_dir=args.distill_dir,
            max_distilled=(
                args.max_distilled if args.max_distilled is not None else 8
            ),
        )
        # Progress goes to stderr so `--json > report.json` stays clean.
        report = run_campaign(
            config, log=lambda line: print(line, file=sys.stderr)
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        totals = report.totals
        print(
            f"{totals['agreements']}/{totals['completed']} verdicts agree "
            f"with ground truth (seed {seed}, size {args.size}, "
            f"{shards} shard(s), stacks: {', '.join(report.config['stacks'])})"
        )
        print(
            f"{totals['disagreements']} disagreement(s), "
            f"{totals['cross_stack']} cross-stack split(s), "
            f"{totals['failures']} failure(s); "
            f"{len(report.distilled)} distilled; "
            f"{report.pairs_per_second:.1f} pairs/s"
        )
        for entry in report.distilled:
            print(f"  distilled {entry['scenario']} -> {entry['module']}")
    return report.exit_code


def _command_dump_scenario(args: argparse.Namespace) -> int:
    info = _scenario_registry().get(args.name)
    graph = info.graph()
    if graph is None:
        print(
            f"error: scenario {args.name!r} is an automaton pair, not a parse "
            f"graph; use `scenarios show {args.name}` or `scenarios run "
            f"{args.name}` instead",
            file=sys.stderr,
        )
        return 2
    automaton, start = graph_to_p4a(graph)
    print(f"// scenario {args.name}: start state {start}")
    print(pretty(automaton))
    if args.hardware:
        print(compile_graph(graph).dump())
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .docsgen import repo_root
    from .reporting.history import HistoryError, history_dir, load_history
    from .reporting.trend import (
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
        check_regressions,
        render_trend_markdown,
        render_trend_text,
    )

    directory = (
        Path(args.history_dir) if args.history_dir
        else history_dir(repo_root())
    )
    try:
        entries = load_history(directory)
    except HistoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    renderer = render_trend_markdown if args.markdown else render_trend_text
    print(renderer(entries).rstrip("\n"))
    if args.check:
        threshold = (
            args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
        )
        window = args.window if args.window is not None else DEFAULT_WINDOW
        regressions = check_regressions(
            entries, threshold=threshold, window=window
        )
        if regressions:
            print(
                f"FAIL: {len(regressions)} benchmark(s) regressed more than "
                f"{threshold:.0%} against the rolling baseline:",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {regression.describe()}", file=sys.stderr)
            return 1
        print(f"regression gate passed (threshold {threshold:.0%})")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import os

    from .service.core import ServiceConfig
    from .service.server import ServerStartupError, serve

    workers = args.workers if args.workers is not None else envconfig.jobs_from_env()
    cache_dir = args.cache_dir
    if cache_dir is None and args.store_dir:
        # Keep the query cache next to the verdict store, so the fresh
        # solves of a restarted daemon start warm.  Replay never reads it: a
        # stored proof is re-checked on a fresh backend with no cache.
        cache_dir = os.path.join(args.store_dir, "query-cache")
    cache_dir = envconfig.resolve_checker_config({"cache_dir": cache_dir}).cache_dir
    config = ServiceConfig(
        workers=workers,
        store_dir=args.store_dir,
        max_store_entries=args.max_store_entries,
        cache_dir=cache_dir,
        max_pending=args.max_pending if args.max_pending is not None else 64,
    )
    try:
        serve(
            config=config,
            socket_path=None if args.http is not None else args.socket,
            http_port=args.http,
            stats_json=args.stats_json,
        )
    except ServerStartupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "check": _command_check,
        "table": _command_table,
        "list": _command_list,
        "scenarios": _command_scenarios,
        "oracle": _command_oracle,
        "synth": _command_synth,
        "campaign": _command_campaign,
        "dump-scenario": _command_dump_scenario,
        "serve": _command_serve,
        "bench": _command_bench,
    }
    try:
        return handlers[args.command](args)
    except envconfig.EnvConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _backend_error() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _service_error() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _service_error():
    """The client's error type, imported lazily like the client itself."""
    from .service.client import ServiceError

    return ServiceError


def _backend_error():
    """The solver stack's error type (e.g. an uninstalled --solver)."""
    from .smt.backend import BackendError

    return BackendError


if __name__ == "__main__":
    sys.exit(main())
