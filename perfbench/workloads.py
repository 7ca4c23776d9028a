"""The benchmark's workloads and the timed run of one of them.

Every workload is ``FederationConfig.paper_scaled`` (20 clients, 10 per
round) under the ``label_flipping_30`` scenario, with the workload seed as
the federation seed, ``rounds=ROUNDS``, and every other knob at its
default except the ones listed in :data:`WORKLOADS`. The load is one
closed loop: the benchmark calls ``Server.run_round`` and waits for each
record before the next.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.config import FederationConfig
from repro.experiments.scenarios import make_scenario, make_strategy
from repro.fl.simulation import build_federation
from repro.fl.transport import payload_nbytes

from . import gate
from .spans import Tracer

__all__ = ["Workload", "WORKLOADS", "ROUNDS", "SETUPS", "Federation", "Run",
           "measure", "run_federation"]

SCENARIO = "label_flipping_30"
ROUNDS = 2            # rounds per federation: one cold round, one warm
SETUPS = 3            # federations built per measured federation (setup_s median)
# One core stays with the server process; on 2 cores, two workers each
# running a 2-thread BLAS swung the first round from 42 s to 71 s by seed.
WORKERS = max((os.cpu_count() or 1) - 1, 1)


@dataclass(frozen=True)
class Workload:
    strategy: str
    overrides: dict
    why: str

    @property
    def reference(self) -> str:
        """Backends are a pure throughput knob: one reference per strategy."""
        return self.strategy

    def config(self, seed: int) -> FederationConfig:
        return FederationConfig.paper_scaled(seed=seed, rounds=ROUNDS, **self.overrides)


WORKLOADS: dict[str, Workload] = {
    "fedguard_sync": Workload(
        "fedguard", {},
        "the paper's workload: conv fit, the CVAE cold start and the audit, "
        "sequential barrier rounds; the only one that runs every layer",
    ),
    "fedavg_sync": Workload(
        "fedavg", {},
        "bypass workload: same federation and conv path, no CVAE, decoder or "
        "audit; Table V's denominator",
    ),
    "fedguard_process": Workload(
        "fedguard", {"backend": "process", "backend_workers": WORKERS},
        "fedguard_sync on nproc-1 worker processes: recipe install, shared-memory "
        "broadcast, pickled returns and worker placement",
    ),
}


@dataclass
class Federation:
    """What one measured federation produced."""

    setup_s: float
    round_s: list[float] = field(default_factory=list)
    run_s: float = 0.0
    train_samples: int = 0
    wire_bytes: list[int] = field(default_factory=list)
    worker_peak_kb: int = 0
    workers: int = 1
    ipc_sent_bytes: int = 0
    ipc_received_bytes: int = 0
    respawns: int = 0
    hashes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0


@dataclass
class Run:
    """All federations of one benchmark run, plus the extra set-up timings."""

    workload: str
    seed: int
    setups: list[float] = field(default_factory=list)
    federations: list[Federation] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(f.attempted for f in self.federations)

    @property
    def failed(self) -> int:
        return sum(len(f.failures) for f in self.federations)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric as ``name -> (value, unit)``."""
        feds = self.federations
        warm = [s for f in feds for s in f.round_s[1:]] or [0.0]
        first = [f.round_s[0] for f in feds if f.round_s] or [0.0]
        run_s = statistics.median(f.run_s for f in feds)
        rate = statistics.median(
            f.train_samples / f.run_s if f.run_s > 0 else 0.0 for f in feds
        )
        own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb = own_peak_kb + max(f.worker_peak_kb for f in feds)
        wire = [b for f in feds for b in f.wire_bytes] or [0]
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "run_s": (run_s, "s"),
            "first_round_s": (statistics.median(first), "s"),
            "round_s": (statistics.median(warm), "s"),
            "round_max_s": (max(warm), "s"),
            "train_samples_per_s": (rate, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "wire_bytes_per_round": (statistics.fmean(wire), "bytes"),
        }


def _vm_hwm_kb(pid: int) -> int:
    """A live process's resident high-water mark (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _worker_pids(backend) -> list[int]:
    workers = getattr(backend, "_workers", None) or []
    return [w.process.pid for w in workers]


def _count_submitted_samples(server, fed: Federation, epochs: int) -> None:
    """Add Σ num_samples × local_epochs of every delivered update to ``fed``."""
    collect = server.channel.collect

    def counting_collect(messages):
        delivered = collect(messages)
        fed.train_samples += sum(m.update.num_samples for m in delivered) * epochs
        return delivered

    server.channel.collect = counting_collect


def _expected_wire(server, clients: int) -> dict:
    classifier = server.global_weights.size
    decoder = (
        server.context.make_decoder().count_parameters()
        if server.strategy.needs_decoder else 0
    )
    return {
        "clients": clients,
        "download_per_client": payload_nbytes(classifier),
        "upload_per_client": payload_nbytes(classifier + decoder),
    }


def run_federation(config: FederationConfig, strategy: str, rounds: int,
                   reference: list[str] | None = None,
                   tracer: Tracer | None = None) -> Federation:
    """Build one federation, run ``rounds`` rounds and check every record."""
    if tracer is not None:
        tracer.active = True
    try:
        t0 = time.perf_counter()
        server = build_federation(
            config, make_strategy(strategy), make_scenario(SCENARIO)
        )
        fed = Federation(setup_s=time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.active = False
    expect = _expected_wire(server, config.clients_per_round)
    _count_submitted_samples(server, fed, config.local_epochs)
    records = []
    if tracer is not None:
        tracer.active = True
    try:
        start = time.perf_counter()
        for round_idx in range(1, rounds + 1):
            fed.attempted += 1
            t0 = time.perf_counter()
            try:
                record = server.run_round(round_idx)
            except Exception:  # a raising round is a failed round
                fed.failures.append(
                    f"round {round_idx}: raised\n{traceback.format_exc()}"
                )
                fed.attempted += rounds - round_idx
                fed.failures.extend(
                    f"round {r}: not run" for r in range(round_idx + 1, rounds + 1)
                )
                break
            fed.round_s.append(time.perf_counter() - t0)
            records.append(record)
        fed.run_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.active = False
        pids = _worker_pids(server.backend)
        fed.workers = len(pids) or 1
        fed.worker_peak_kb = sum(_vm_hwm_kb(pid) for pid in pids)
        fed.ipc_sent_bytes = server.backend.ipc_stats.bytes_sent
        fed.ipc_received_bytes = server.backend.ipc_stats.bytes_received
        fed.respawns = getattr(server.backend, "respawns", 0)
        server.backend.close()
    fed.wire_bytes = [r.upload_nbytes + r.download_nbytes for r in records]
    fed.hashes, failures = gate.check_rounds(records, reference, expect)
    fed.failures.extend(failures)
    return fed


def measure(workload: str, seed: int, seconds: float,
            tracer: Tracer | None = None,
            references: dict | None = None) -> Run:
    """Run whole federations of ``workload`` until ``seconds`` have passed.

    At least one federation runs. Before each measured federation,
    ``SETUPS - 1`` more federations are built and closed unrun, so every
    run times set-up several times. Only the measured federation is traced.
    """
    spec = WORKLOADS[workload]
    config = spec.config(seed)
    if references is None:
        references = gate.load_references()
    reference = references.get(spec.reference, {}).get(str(seed))
    run = Run(workload=workload, seed=seed)
    start = time.perf_counter()
    while not run.federations or time.perf_counter() - start < seconds:
        for _ in range(SETUPS - 1):
            t0 = time.perf_counter()
            server = build_federation(
                config, make_strategy(spec.strategy), make_scenario(SCENARIO)
            )
            run.setups.append(time.perf_counter() - t0)
            server.backend.close()
        fed = run_federation(config, spec.strategy, ROUNDS, reference, tracer)
        run.setups.append(fed.setup_s)
        run.federations.append(fed)
        for failure in fed.failures:
            print(f"[{workload} seed={seed}] FAILED {failure}", file=sys.stderr)
    return run
