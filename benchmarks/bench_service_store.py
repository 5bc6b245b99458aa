"""Verdict-store replay vs fresh solve, through a live daemon.

A store hit is served by *replaying* the stored certificate or witness,
never by a fresh proof search.  This benchmark runs every mini scenario
pair through a daemon with a fresh store (cold: every request solves and
stores), then through a restarted daemon on the same store directory (warm:
every request replays), asserts the warm pass is answered entirely from the
store with identical output, and holds the batch replay speedup above a
conservative floor.

The batch ratio mixes two very different costs, so ``benchmark.extra_info``
records them apart:

* ``refutation_speedup`` — a refutation's witness is replayed concretely
  through both parsers, tens of times faster than the solve;
* ``proof_speedup`` — a proof is re-checked by ``verify_certificate`` on a
  fresh backend, which is *slower* than the solve that found it (below 1x on
  the mini proofs, about twice as slow at paper size).

So the batch speedup comes from the refutations alone; a stored proof buys a
re-validated verdict, not saved time.

``LEAPFROG_SEED`` has no effect here — the checks are deterministic — but
the batch goes through the same registry the daemon serves, so the numbers
track the real workload.
"""

import threading
import time

from repro.scenarios.registry import filter_scenarios
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.server import ServiceServer

#: Replay must beat re-solving by at least this factor over the batch.  1.5x
#: keeps the gate meaningful without being flaky on noisy shared runners.
REPLAY_SPEEDUP_FLOOR = 1.5


def _mini_pairs():
    return [
        scenario for scenario in filter_scenarios(size="mini")
        if scenario.kind == "pair"
    ]


def _run_batch(socket_path: str, store_dir: str):
    """One pass over every mini pair through a fresh one-worker daemon."""
    server = ServiceServer(
        config=ServiceConfig(workers=1, store_dir=store_dir), socket_path=socket_path,
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    outcomes = []
    try:
        with ServiceClient(socket_path) as client:
            for scenario in _mini_pairs():
                left, left_start, right, right_start = scenario.automata()
                outcomes.append(client.check(left, left_start, right, right_start))
    finally:
        server.request_shutdown(drain=True)
        assert server.finished.wait(timeout=60)
    return outcomes


def _speedup(pairs) -> float:
    solve = sum(before.elapsed_seconds for before, _ in pairs)
    replay = sum(after.elapsed_seconds for _, after in pairs)
    assert replay > 0
    return solve / replay


def test_store_replay_beats_fresh_solve(benchmark, tmp_path):
    socket_path = str(tmp_path / "daemon.sock")
    store_dir = str(tmp_path / "store")
    pairs = _mini_pairs()
    assert pairs, "the scenario registry has no mini pairs to benchmark"

    cold_start = time.perf_counter()
    cold = _run_batch(socket_path, store_dir)
    cold_elapsed = time.perf_counter() - cold_start

    warm = benchmark.pedantic(
        _run_batch, args=(socket_path, store_dir), iterations=1, rounds=1
    )

    # Correctness gates first: the warm pass is 100% store hits and its
    # output is byte-identical to the cold pass.
    assert all(outcome.source == "solve" for outcome in cold
               if outcome.verdict is not None)
    definitive = [
        (before, after) for before, after in zip(cold, warm)
        if before.verdict is not None
    ]
    assert definitive, "every mini pair came back unknown; nothing was stored"
    assert all(after.source == "store" for _, after in definitive)
    assert all(str(before) == str(after) for before, after in definitive)

    # The headline number: replay time vs solve time over the same batch,
    # recorded with its proof and refutation parts.
    speedup = _speedup(list(zip(cold, warm)))
    proofs = [pair for pair in definitive if pair[0].proved]
    refutations = [pair for pair in definitive if pair[0].refuted]
    benchmark.extra_info.update({
        "batch_speedup": round(speedup, 3),
        "proof_speedup": round(_speedup(proofs), 3) if proofs else None,
        "refutation_speedup": round(_speedup(refutations), 3) if refutations else None,
        "proofs": len(proofs),
        "refutations": len(refutations),
    })
    assert speedup >= REPLAY_SPEEDUP_FLOOR, (
        f"store replay is only {speedup:.2f}x faster than solving "
        f"(floor {REPLAY_SPEEDUP_FLOOR}x); cold batch {cold_elapsed:.3f}s; "
        f"{benchmark.extra_info}"
    )
