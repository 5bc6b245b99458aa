"""The repository benchmark: Table 2 at paper size and synth campaigns.

Usage::

    python3 perfbench/run.py --workload table2-full --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Each pass of a workload runs in a fresh interpreter (``workload.py``), so
module-level memo tables start cold as they do for a CLI user.  Passes repeat
while the next one is predicted to fit in ``--seconds``; there is always at
least one.  Every verdict is checked against its known answer outside the
timed region.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics: self times and counts taken by wrapping the layers' public
callables from outside (``tracer.py``), plus the tracing overhead.  The
traced pass also leaves a Chrome trace under ``perfbench/out/``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for why each
workload was chosen and ``BASELINE.md`` for the figures at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workload.py")
OUT_DIR = os.path.join(HERE, "out")

#: Extra fresh interpreters per run that only set up, for a steadier setup_s;
#: half start before the timed passes and half after, because the host's
#: speed drifts over seconds and back-to-back samples drift together.
SETUP_SAMPLES = 12

#: The two long monotone sessions of Table 2, reported on their own.
LONG_ROWS = ("Edge", "Translation Validation")

#: A single pass may not run longer than this (the whole run must end
#: within 180 s).
PASS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A pass could not run or reported nothing usable."""


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _units() -> dict:
    spec = _benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEAPFROG_")}
    # String hashing decides set iteration order inside the checker; derive
    # it from the seed so one seed replays the same run.
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    return env


def _spawn(argv: list, seed: int) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, WORKER, *argv, "--t0", repr(t0)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(seed),
        cwd=ROOT,
        start_new_session=True,  # its own group, so pooled workers die with it
    )
    try:
        stdout, stderr = process.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    finally:
        # Reap anything the worker left behind in its group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise BenchmarkError(
            f"worker {' '.join(argv)} exited with {process.returncode}:\n"
            + stderr.decode(errors="replace")[-4000:]
        )
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {' '.join(argv)} printed nothing")
    return json.loads(lines[-1])


def _pass_argv(workload: str, seed: int, toy: bool, trace_out=None) -> list:
    argv = ["--workload", workload, "--seed", str(seed)]
    if toy:
        argv.append("--toy")
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    return argv


def _timed_passes(workload: str, seed: int, seconds: float, toy: bool) -> list:
    """Untraced passes while the next one is predicted to fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_spawn(_pass_argv(workload, seed, toy), seed))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def _compile_sources() -> None:
    """Byte-compile ahead of time, so no pass pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _failures(passes: list) -> tuple:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failures


def end_to_end(workload: str, passes: list, setup_samples: list) -> tuple:
    """(metrics for BENCHMARK.json, further figures printed by name)."""
    items = [t for p in passes for t in p["items_s"]]
    deciles = statistics.quantiles(items, n=10)
    metrics = {
        "pairs_per_s": len(items) / sum(p["wall_s"] for p in passes),
        "pair_p90_ms": deciles[8] * 1000,
        "setup_s": statistics.median(setup_samples + [p["setup_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    attempted, failures = _failures(passes)
    # The median is printed but not gated: on Table 2 it falls between two
    # rows of well under 0.1 s, which machine noise moves by a third.
    extra = {
        "pair_p50_ms": (statistics.median(items) * 1000, "ms"),
        "pair_samples": (len(items), "count"),
        "passes": (len(passes), "count"),
        "failure_share": (len(failures) / attempted if attempted else 1.0, "ratio"),
    }
    if workload == "table2-full":
        rows = [p["rows"] for p in passes]
        for name in LONG_ROWS:
            if name in rows[0]:
                key = name.lower().replace(" ", "_") + "_s"
                extra[key] = (statistics.median(r[name] for r in rows), "s")
        extra["small_rows_s"] = (statistics.median(
            sum(t for name, t in r.items() if name not in LONG_ROWS) for r in rows), "s")
    return metrics, extra


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    metrics.update(untraced["engine"])
    metrics["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    units = _units()
    _compile_sources()
    if trace:
        untraced = _spawn(_pass_argv(workload, seed, toy), seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
        traced = _spawn(_pass_argv(workload, seed, toy, trace_out), seed)
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced)
        extra = {"trace_file": (os.path.relpath(trace_out, ROOT), "path")}
        for row in LONG_ROWS:
            if row in traced.get("layers_by_row", {}):
                extra[f"layers[{row}]"] = (traced["layers_by_row"][row], "s")
    else:
        setup_argv = ["--workload", workload, "--seed", str(seed), "--setup-only"]
        setup_samples = [_spawn(setup_argv, seed)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        passes = _timed_passes(workload, seed, seconds, toy)
        setup_samples += [
            _spawn(setup_argv, seed)["setup_s"] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        ]
        metrics, extra = end_to_end(workload, passes, setup_samples)
    attempted, failures = _failures(passes)

    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units.get(name, '')}")
    for name, (value, unit) in extra.items():
        if isinstance(value, dict):
            total = sum(entry["self_s"] for entry in value.values())
            print(f"  {name}: self time by layer (total {total:.3f} s)")
            for layer, entry in sorted(value.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"    {layer:16s} {entry['self_s']:10.3f} s self {entry['total_s']:10.3f} s "
                      f"inclusive {entry['calls']:10d} calls")
        elif isinstance(value, str):
            print(f"  {name:28s} {value}")
        else:
            print(f"  {name:28s} {value:14.6f} {unit}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def self_test() -> int:
    """Every workload at toy size, untraced and traced: the verdict checks
    must pass and the metric names must match ``BENCHMARK.json``."""
    spec = _benchmark_spec()
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed=1, seconds=0.0, trace=trace, toy=True)
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(
                    f"{workload} trace={int(trace)}: missing {sorted(expected[trace] - names)}, "
                    f"unexpected {sorted(names - expected[trace])}"
                )
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={int(trace)}: {result}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at toy size and check the output")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no checker sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
