"""FedGuard vs FedAvg on ``paper_scaled``: the repository's benchmark.

One run::

    python3 perfbench/run.py --workload fedguard_sync --seed 0 --seconds 10 --trace 0

builds the workload's federation from source (``src/``), times it, checks
every round against the correctness gate and prints the metrics, one per
line with its unit; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics with no wrappers installed; ``--trace 1`` installs
the layer wrappers of ``perfbench/spans.py`` and reports the per-layer
metrics, the per-round trace coverage and a self-time table instead.
Every result is appended to ``perfbench/out/trajectory.jsonl``.

All workloads, untraced and traced, each in a fresh process, with the
Table V ratios and the tracing overhead::

    python3 perfbench/run.py --report --seed 0

``--write-references`` stores the run's per-round hashes as the gate's
reference for its federation and seed (``perfbench/references.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SPAN_METRICS = (
    "nn.conv_forward", "nn.conv_backward", "nn.im2col", "nn.col2im",
    "nn.maxpool_forward", "nn.maxpool_backward", "nn.linear_forward",
    "nn.linear_backward", "nn.sgd_step", "nn.adam_step", "nn.loss",
    "nn.vector_to_parameters", "nn.parameters_to_vector", "nn.stack_parameters",
    "models.cnn_forward", "models.cnn_backward", "models.cnn_predict",
    "models.cvae_forward", "models.cvae_backward", "models.decoder_forward",
    "client.train_classifier", "client.train_cvae",
    "server.select", "server.broadcast", "server.fit", "server.collect",
    "server.aggregate", "server.apply", "server.evaluate", "server.strategy_setup",
    "modes.self", "parallel.execute",
    "fedguard.synthesize", "fedguard.audit", "data.generate",
)
COUNTER_METRICS = (
    ("nn.sgd_steps", "count"), ("nn.adam_steps", "count"),
    ("nn.im2col_bytes", "bytes"), ("nn.col2im_bytes", "bytes"),
    ("client.cvae_trainings", "count"), ("modes.dispatches", "count"),
    ("parallel.execute_calls", "count"), ("parallel.fit_time_sum_s", "s"),
    ("transport.upload_bytes", "bytes"), ("transport.download_bytes", "bytes"),
    ("fedguard.decoders_synthesized", "count"), ("fedguard.cache_hits", "count"),
)
# Which end-to-end metric a per-layer metric should move, and where; keyed
# by metric-name prefix (the longest matching prefix wins).
MOVES = {
    "nn.": "round_s, run_s on fedguard_sync and fedavg_sync",
    "nn.im2col_bytes": "peak_rss_mb on fedguard_sync",
    "nn.col2im_bytes": "peak_rss_mb on fedguard_sync",
    "nn.adam_step": "first_round_s on the FedGuard workloads; not fedavg_sync",
    "nn.vector_to_parameters": "round_s on every workload",
    "nn.parameters_to_vector": "round_s on every workload",
    "nn.stack_parameters": "round_s on every workload",
    "models.cnn_": "round_s on the sync workloads",
    "models.cnn_predict": "round_s and peak_rss_mb on fedguard_sync (the audit)",
    "models.cvae_": "first_round_s on the FedGuard workloads",
    "models.decoder_": "first_round_s on the FedGuard workloads",
    "client.train_classifier": "round_s on every workload",
    "client.": "first_round_s, round_max_s on the FedGuard workloads; 0 on fedavg_sync",
    "server.": "round_s on every workload",
    "modes.": "run_s under server_mode=async; about 0 on the sync workloads",
    "parallel.": "round_s, run_s on fedguard_process; not the sequential workloads",
    "transport.": "wire_bytes_per_round on every workload",
    "fedguard.": "round_s and peak_rss_mb on fedguard_sync; 0 on fedavg_sync",
    "data.": "setup_s on every workload",
    "trace.": "the trace itself (run time, coverage, overhead)",
}


def moves(metric: str) -> str:
    return MOVES[max((p for p in MOVES if metric.startswith(p)), key=len)]


def per_layer_spec() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    return (
        [(f"{name}_s", "s") for name in SPAN_METRICS]
        + list(COUNTER_METRICS)
        + [("parallel.busy_ratio", "ratio"), ("parallel.ipc_sent_bytes", "bytes"),
           ("parallel.ipc_received_bytes", "bytes"), ("parallel.respawns", "count"),
           ("fedguard.accept_ratio", "ratio"), ("trace.run_s", "s"),
           ("trace.unattributed_s", "s"), ("trace.coverage_min", "ratio"),
           ("trace.overhead_est_s", "s"), ("trace.spans", "count")]
    )


def per_layer(run, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per measured federation."""
    from perfbench.spans import NAME, END, START, layer_self_times, round_coverage
    from perfbench.spans import wrapper_cost_s

    feds = run.federations
    n = len(feds)
    own = layer_self_times(tracer.spans)
    execute_wall = sum(s[END] - s[START] for s in tracer.spans
                       if s[NAME] == "parallel.execute")
    workers = max(f.workers for f in feds)
    counters = tracer.counters
    audited = counters.get("fedguard.audited", 0)
    coverage = round_coverage(tracer.spans)
    values = {f"{name}_s": own.get(name, 0.0) / n for name in SPAN_METRICS}
    values.update({name: counters.get(name, 0) / n for name, _ in COUNTER_METRICS})
    values.update({
        "parallel.busy_ratio": (
            counters.get("parallel.fit_time_sum_s", 0.0) / (workers * execute_wall)
            if execute_wall > 0 else 0.0
        ),
        "parallel.ipc_sent_bytes": sum(f.ipc_sent_bytes for f in feds) / n,
        "parallel.ipc_received_bytes": sum(f.ipc_received_bytes for f in feds) / n,
        "parallel.respawns": sum(f.respawns for f in feds) / n,
        "fedguard.accept_ratio": (
            counters.get("fedguard.accepted", 0) / audited if audited else 0.0
        ),
        "trace.run_s": sum(f.run_s for f in feds) / n,
        "trace.unattributed_s": own.get("round", 0.0) / n,
        "trace.coverage_min": min((c for _, _, c in coverage), default=0.0),
        "trace.overhead_est_s": len(tracer.spans) * wrapper_cost_s() / n,
        "trace.spans": len(tracer.spans) / n,
    })
    return {name: (values[name], unit) for name, unit in per_layer_spec()}


def _print_trace_tables(workload: str, tracer) -> dict:
    from perfbench.spans import layer_self_times, round_coverage

    coverage = round_coverage(tracer.spans)
    for round_idx, wall, share in coverage:
        print(f"coverage round {round_idx}: {share:.4f} of {wall:.3f} s wall")
    own = layer_self_times(tracer.spans)
    total = sum(own.values()) or 1.0
    print(f"self time by layer ({workload}):")
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {seconds:10.4f} s  {100 * seconds / total:6.2f} %")
    if workload.endswith("_process"):
        print("note: wrappers inside forked workers record nothing; worker-side "
              "fit time is parallel.fit_time_sum_s (worker-reported client_time_s)")
    return {
        "coverage": [[r, wall, share] for r, wall, share in coverage],
        "self_s": own,
    }


def run_one(args) -> int:
    from perfbench import gate
    from perfbench.host import metadata
    from perfbench.spans import Tracer, install
    from perfbench.workloads import WORKLOADS, measure

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = installation = None
    if args.trace:
        tracer = Tracer()
        installation = install(tracer)
    references = {} if args.write_references else None
    try:
        run = measure(args.workload, args.seed, args.seconds, tracer, references)
    finally:
        if installation is not None:
            installation.uninstall()

    metrics = per_layer(run, tracer) if tracer is not None else run.end_to_end()
    for name, (value, unit) in metrics.items():
        line = f"{name:32s} {value:<12.6g} {unit:6s}"
        print(f"{line} -> {moves(name)}" if tracer is not None else line.rstrip())
    print(f"rounds_failed {run.failed} of rounds_attempted {run.attempted}")
    extra = _print_trace_tables(args.workload, tracer) if tracer is not None else {}

    if args.write_references and run.failed == 0:
        refs = gate.load_references()
        spec = WORKLOADS[args.workload]
        refs.setdefault(spec.reference, {})[str(args.seed)] = run.federations[0].hashes
        gate.REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    meta = metadata(ROOT, args.workload, args.seed)
    print("meta " + json.dumps(meta))
    OUT.mkdir(parents=True, exist_ok=True)
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "meta": meta,
        "trace": bool(args.trace),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "hashes": [f.hashes for f in run.federations],
        "failures": [line for f in run.federations for line in f.failures],
        **extra,
    }
    with open(OUT / "trajectory.jsonl", "a") as trajectory:
        trajectory.write(json.dumps(entry) + "\n")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited {proc.returncode}")
    return json.loads(lines[-1])


def report(args) -> int:
    from perfbench.workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} seed={args.seed} trace={trace}")
            results[workload, trace] = _child(workload, args.seed, args.seconds, trace)

    print("\n== end-to-end")
    for workload in WORKLOADS:
        res = results[workload, 0]
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{workload}: {cells}; rounds_failed={res['failed']} "
              f"of {res['attempted']}")
    print("\n== tracing overhead (traced run_s - untraced run_s)")
    for workload in WORKLOADS:
        traced = results[workload, 1]["metrics"]
        untraced = results[workload, 0]["metrics"]["run_s"]["value"]
        print(f"{workload}: {traced['trace.run_s']['value'] - untraced:+.3f} s "
              f"(estimated {traced['trace.overhead_est_s']['value']:.3f} s, "
              f"coverage min {traced['trace.coverage_min']['value']:.4f})")
    guard, avg = results["fedguard_sync", 0], results["fedavg_sync", 0]
    time_ratio = guard["metrics"]["run_s"]["value"] / avg["metrics"]["run_s"]["value"]
    byte_ratio = (guard["metrics"]["wire_bytes_per_round"]["value"]
                  / avg["metrics"]["wire_bytes_per_round"]["value"])
    print("\n== Table V (fedguard_sync / fedavg_sync; reported, not gated)")
    print(f"time  {time_ratio:.3f}x ({100 * (time_ratio - 1):+.0f} %; paper about +82 %)")
    print(f"bytes {byte_ratio:.3f}x ({100 * (byte_ratio - 1):+.0f} %; paper about +10 %)")
    return 0 if all(r["correct"] for r in results.values()) else 1


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process, if started.

    The process backend's shared-memory broadcast starts it, and
    multiprocessing leaves it running until after the interpreter exits.
    Closing its pipe makes it exit; waiting for it means the run ends with
    no process of its own left behind.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="fedguard_sync")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced, then summarize")
    parser.add_argument("--write-references", action="store_true",
                        help="store this run's round hashes as the gate reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return report(args) if args.report else run_one(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    raise SystemExit(main())
