"""The benchmark's own tests, on ``FederationConfig.tiny`` (seconds, not minutes).

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
from multiprocessing import resource_tracker, shared_memory

import pytest

from perfbench import gate, spans
from perfbench.run import moves, per_layer, per_layer_spec, stop_resource_tracker
from perfbench.workloads import Federation, Run, run_federation
from repro.config import FederationConfig
from repro.defenses.fedavg import FedAvg

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _span(name, start, end, parent, round_id=1):
    return [name, start, end, parent, round_id]


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("round", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
        _span("b", 6.0, 6.5, 3),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    assert spans.layer_self_times(trace) == pytest.approx(
        {"round": 3.0, "a": 5.5, "b": 1.5}
    )
    assert spans.round_coverage(trace) == [(1, 10.0, pytest.approx(0.7))]


def test_wrapped_calls_nest_under_their_caller():
    tracer = spans.Tracer()
    tracer.active = True

    def inner():
        return 1

    wrapped_inner = spans._wrap(tracer, spans.Probe("t:inner", "inner"), inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert spans._wrap(tracer, spans.Probe("t:outer", "outer"), outer)() == 2
    names = [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    own = spans.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    children = sum(s[spans.END] - s[spans.START] for s in tracer.spans[1:])
    assert own[0] == pytest.approx(outer_span[spans.END] - outer_span[spans.START] - children)


def test_uninstall_restores_every_patched_function_by_identity():
    installation = spans.install(spans.Tracer())
    try:
        patched = list(installation.patches)
        assert len(patched) >= len(spans.PROBES)
        for holder, attr, original in patched:
            assert holder.__dict__[attr] is not original
    finally:
        installation.uninstall()
    for holder, attr, original in patched:
        assert holder.__dict__[attr] is original


def test_module_functions_are_patched_under_every_import_path():
    import repro.nn
    import repro.nn.serialization

    original = repro.nn.serialization.vector_to_parameters
    installation = spans.install(spans.Tracer())
    try:
        assert repro.nn.vector_to_parameters is repro.nn.serialization.vector_to_parameters
        assert repro.nn.vector_to_parameters is not original
    finally:
        installation.uninstall()
    assert repro.nn.vector_to_parameters is original


def test_matching_reference_passes_and_perturbed_reference_fails():
    config = FederationConfig.tiny(seed=3)
    first = run_federation(config, "fedguard", rounds=2)
    assert first.failures == [] and len(first.hashes) == 2

    again = run_federation(config, "fedguard", rounds=2, reference=first.hashes)
    assert again.failures == [] and again.hashes == first.hashes

    perturbed = ["0" * 16] + first.hashes[1:]
    bad = run_federation(config, "fedguard", rounds=2, reference=perturbed)
    assert len(bad.failures) == 1 and "round 1" in bad.failures[0]
    run = Run("tiny", 3, setups=[bad.setup_s], federations=[bad])
    assert run.failed > 0 and run.attempted == 2


def test_train_samples_numerator_is_samples_times_local_epochs(monkeypatch):
    seen = []
    aggregate = FedAvg.aggregate

    def recording(self, round_idx, updates, global_weights, context):
        seen.extend(updates)
        return aggregate(self, round_idx, updates, global_weights, context)

    monkeypatch.setattr(FedAvg, "aggregate", recording)
    config = FederationConfig.tiny(seed=1, local_epochs=2)
    fed = run_federation(config, "fedavg", rounds=2)
    assert len(seen) == 2 * config.clients_per_round
    assert fed.train_samples == sum(u.num_samples for u in seen) * 2
    assert fed.train_samples > 0


def _traced_run(strategy: str) -> tuple[Run, spans.Tracer]:
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        fed = run_federation(FederationConfig.tiny(seed=0), strategy, rounds=2,
                             tracer=tracer)
    finally:
        installation.uninstall()
    return Run("tiny", 0, setups=[fed.setup_s], federations=[fed]), tracer


def test_traced_run_reports_every_layer_where_it_runs():
    guard, guard_tracer = _traced_run("fedguard")
    avg, avg_tracer = _traced_run("fedavg")
    guard_metrics = {k: v for k, (v, _) in per_layer(guard, guard_tracer).items()}
    avg_metrics = {k: v for k, (v, _) in per_layer(avg, avg_tracer).items()}
    assert list(guard_metrics) == [name for name, _ in per_layer_spec()]

    assert guard_metrics["fedguard.audit_s"] > 0
    assert guard_metrics["client.cvae_trainings"] > 0
    assert guard_metrics["nn.adam_steps"] > 0
    for name in ("fedguard.audit_s", "fedguard.synthesize_s", "client.cvae_trainings",
                 "nn.adam_steps", "fedguard.decoders_synthesized"):
        assert avg_metrics[name] == 0, name
    for metrics in (guard_metrics, avg_metrics):
        assert metrics["parallel.ipc_sent_bytes"] == 0
        assert metrics["parallel.execute_calls"] == 2
        assert metrics["client.train_classifier_s"] > 0
        assert metrics["trace.coverage_min"] > 0.9
        assert metrics["server.fit_s"] >= 0
    fed = guard.federations[0]
    assert guard_metrics["transport.upload_bytes"] + guard_metrics[
        "transport.download_bytes"] == sum(fed.wire_bytes)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    fed = Federation(setup_s=1.0, round_s=[2.0, 1.0], run_s=3.0, train_samples=30,
                     wire_bytes=[10, 10])
    end_to_end = Run("x", 0, setups=[1.0], federations=[fed]).end_to_end()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, unit) for name, (_, unit) in end_to_end.items()
    ]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == per_layer_spec()
    assert all(moves(name) for name, _ in per_layer_spec())


def test_gate_reads_values_by_name():
    from repro.fl.history import RoundRecord

    record = RoundRecord(round_idx=1, accuracy=0.5, sampled_ids=[2, 1],
                         accepted_ids=[1], rejected_ids=[2], malicious_sampled=0,
                         malicious_accepted=0, upload_nbytes=8, download_nbytes=4,
                         duration_s=1.0, metrics={"client_time_max_s": 3.0})
    moved = RoundRecord(**{**record.__dict__, "duration_s": 9.0,
                           "metrics": {"client_time_max_s": 7.0}})
    assert gate.round_hash(record) == gate.round_hash(moved)
    moved.accuracy = 0.25
    assert gate.round_hash(record) != gate.round_hash(moved)


def test_stop_resource_tracker_reaps_the_tracker_process():
    segment = shared_memory.SharedMemory(create=True, size=8)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(pid, os.WNOHANG)
    stop_resource_tracker()  # a second call is a no-op
