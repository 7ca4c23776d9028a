#!/usr/bin/env python
"""Batched-engine benchmark: per-client loop vs stacked client-axis training.

Measures steady-state round throughput (rounds/s) for the same federation
run through ``engine="loop"`` and ``engine="batched"`` on the sequential
backend, and verifies — always, not just under ``--check`` — that the two
engines produce bit-identical histories for the timed rounds.

The workload is sized so local training dominates the round (many sampled
clients, small minibatches, a small model): that is the regime the batched
engine exists for, where the per-client loop pays Python dispatch per step
while the stack pays it once per *group* step. IID partitioning gives
every client the same dataset size, so all sampled clients land in one
stacked group. Timing takes the fastest of several repeat blocks per
engine — the standard guard against contention noise on shared runners —
while the history-equality check covers every round that ran.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched_engine.py           # full
    PYTHONPATH=src python benchmarks/bench_batched_engine.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_batched_engine.py --smoke --check

``--check`` enforces the floors: history equality (always fatal) and the
throughput ratio — >=5x at the full size, >=2x at smoke scale. The
wall-clock gate is skipped on single-core hosts where timer noise from a
contended runner would dominate; the equality check still runs there.

Output: a JSON report (default ``benchmarks/out/BENCH_batched.json``;
``--smoke`` writes ``BENCH_batched_smoke.json`` so the checked-in
full-run artifact stays stable).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.attacks import AttackScenario  # noqa: E402
from repro.config import FederationConfig, ModelConfig  # noqa: E402
from repro.defenses import FedAvg  # noqa: E402
from repro.experiments.storage import normalized_history_dict  # noqa: E402
from repro.fl import History, build_federation  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

FULL_FLOOR = 5.0
SMOKE_FLOOR = 2.0


def bench_config(engine: str, n_clients: int) -> FederationConfig:
    """A local-training-dominated federation at the requested size.

    Half the clients are sampled each round; 40 samples/client with
    batch size 4 gives ten optimizer steps per client per epoch — the
    per-step Python overhead the loop pays m times and the stack pays
    once.
    """
    return FederationConfig.tiny(
        n_clients=n_clients,
        clients_per_round=n_clients // 2,
        rounds=1,
        train_samples=n_clients * 40,
        test_samples=60,
        local_epochs=1,
        batch_size=4,
        partition_scheme="iid",
        engine=engine,
        model=ModelConfig(kind="mlp", image_size=8, mlp_hidden=8,
                          cvae_hidden=24, cvae_latent=4),
    )


def bench_cell(
    engine: str, n_clients: int, timed_rounds: int, repeats: int
) -> dict:
    """One engine measurement: warmup round, best-of-``repeats`` timing."""
    config = bench_config(engine, n_clients)
    server = build_federation(
        config, FedAvg(), AttackScenario.label_flipping(0.3)
    )
    history = History("fedavg", "label_flipping_30")
    history.append(server.run_round(1))  # warmup: first-touch allocs, shell build
    round_idx = 2
    block_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(timed_rounds):
            history.append(server.run_round(round_idx))
            round_idx += 1
        block_s.append(time.perf_counter() - t0)
    wall_s = min(block_s)
    return {
        "engine": engine,
        "n_clients": n_clients,
        "clients_per_round": config.clients_per_round,
        "timed_rounds": timed_rounds,
        "repeats": repeats,
        "wall_s_per_round": wall_s / timed_rounds,
        "rounds_per_s": timed_rounds / wall_s,
        "_rounds": normalized_history_dict(history)["rounds"],
    }


def check_floor(cells: dict, floor: float) -> list[str]:
    """The CI gate; returns a list of failure messages (empty = pass)."""
    failures: list[str] = []
    if (os.cpu_count() or 1) >= 2:
        speedup = cells["batched"]["rounds_per_s"] / cells["loop"]["rounds_per_s"]
        if speedup < floor:
            failures.append(
                f"batched engine must be >={floor:.1f}x the loop's rounds/s; "
                f"got {speedup:.2f}x"
            )
    else:
        print(
            "note: single-core host — batched-vs-loop wall-clock gate "
            "skipped (history equality is still enforced)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small federation, fewer rounds (CI budget)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if the performance floor is missed")
    parser.add_argument("--clients", type=int, default=None,
                        help="federation size (default: 100, or 32 with --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds per block (default: 8, 5 with --smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing blocks per engine, fastest wins "
                             "(default: 3, 2 with --smoke)")
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    n_clients = args.clients or (32 if args.smoke else 100)
    timed_rounds = args.rounds or (5 if args.smoke else 8)
    repeats = args.repeats or (2 if args.smoke else 3)
    floor = SMOKE_FLOOR if args.smoke else FULL_FLOOR
    out_path = args.out or (
        OUT_DIR / ("BENCH_batched_smoke.json" if args.smoke else "BENCH_batched.json")
    )

    cells = {}
    for engine in ("loop", "batched"):
        cell = bench_cell(engine, n_clients, timed_rounds, repeats)
        cells[engine] = cell
        print(
            f"{engine:8s} n={n_clients:4d}  "
            f"{cell['rounds_per_s']:8.2f} rounds/s  "
            f"{cell['wall_s_per_round'] * 1e3:8.2f} ms/round"
        )

    # Equality gate (always on): both engines ran the identical federation,
    # so every non-timing field of every round must match bit-for-bit.
    if cells["loop"].pop("_rounds") != cells["batched"].pop("_rounds"):
        print("FAIL: batched history diverges from the loop", file=sys.stderr)
        return 1
    print(f"histories identical across {timed_rounds * repeats + 1} rounds")

    speedup = cells["batched"]["rounds_per_s"] / cells["loop"]["rounds_per_s"]
    print(f"speedup: {speedup:.2f}x")

    report = {
        "meta": {
            "generated_by": "benchmarks/bench_batched_engine.py",
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "timed_rounds": timed_rounds,
            "repeats": repeats,
            "floor_x": floor,
            "workload": "FedAvg, MLP (hidden 8), 40 samples/client, "
                        "batch 4, IID partition, half the clients sampled",
        },
        "results": list(cells.values()),
        "derived": {"batched_over_loop_throughput_x": speedup},
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out_path}")

    if args.check:
        failures = check_floor(cells, floor)
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
