"""Property-based tests: async buffered aggregation is a pure seed function.

The `AsyncBufferedMode` claims the same determinism discipline the sync
path has: arrival order comes from a seeded event queue over simulated
latencies, never wall clock, so the flush sequence — which clients, in
which order, at what staleness — must replay bit-identically for any
seed, across training engines, and across a checkpoint/resume boundary
that splits an in-flight buffer. These properties pin that contract,
plus the two structural invariants of the buffer itself (bounded size,
weights in (0, 1]).
"""

import json
import tempfile
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FederationConfig
from repro.experiments import run_cell
from repro.experiments.storage import load_checkpoint, normalized_history_dict
from repro.fl import build_federation
from repro.fl.modes import STALENESS_WEIGHTS
from repro.fl.simulation import restore_federation
from repro.experiments.scenarios import make_scenario, make_strategy


def async_config(seed, **overrides) -> FederationConfig:
    base = dict(
        server_mode="async",
        buffer_size=5,
        channel="latency",
        channel_latency_base_s=0.05,
        channel_latency_spread=0.6,
        rounds=3,
    )
    base.update(overrides)
    return FederationConfig.tiny(seed=seed, **base)


def normalized_bytes(history) -> bytes:
    """History serialized with every wall-clock field stripped.

    ``duration_s`` on async records is purely simulated, but sync-shared
    metrics (``client_time_*``, ``aggregation_time_s``) measure the host;
    the determinism contract covers everything else, byte for byte.
    """
    return json.dumps(
        normalized_history_dict(history), sort_keys=True, default=float
    ).encode()


# -- staleness weights ------------------------------------------------------
@given(
    name=st.sampled_from(sorted(STALENESS_WEIGHTS)),
    staleness=st.integers(min_value=0, max_value=100_000),
)
def test_staleness_weights_in_unit_interval(name, staleness):
    weight = STALENESS_WEIGHTS[name](staleness)
    assert 0.0 < weight <= 1.0


@given(name=st.sampled_from(sorted(STALENESS_WEIGHTS)))
def test_fresh_updates_are_undiscounted(name):
    assert STALENESS_WEIGHTS[name](0) == 1.0


@given(
    name=st.sampled_from(sorted(STALENESS_WEIGHTS)),
    staleness=st.integers(min_value=0, max_value=1000),
)
def test_staleness_weights_monotone_nonincreasing(name, staleness):
    fn = STALENESS_WEIGHTS[name]
    assert fn(staleness + 1) <= fn(staleness)


# -- event-queue determinism ------------------------------------------------
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_same_seed_same_flush_sequence_and_history_bytes(seed):
    config = async_config(seed)
    first = run_cell(config, "fedavg", "label_flipping_30")
    second = run_cell(config, "fedavg", "label_flipping_30")
    assert normalized_bytes(first) == normalized_bytes(second)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_flush_sequence_is_engine_independent(seed):
    # The batched engine receives one-client groups per async dispatch;
    # the stacked pass must not perturb arrival order or update bytes.
    loop = run_cell(async_config(seed, engine="loop"), "fedavg", "no_attack")
    batched = run_cell(
        async_config(seed, engine="batched"), "fedavg", "no_attack"
    )
    assert normalized_bytes(loop) == normalized_bytes(batched)


@pytest.mark.slow
def test_flush_sequence_is_backend_independent():
    from repro.fl import ProcessPoolBackend

    config = async_config(seed=7)
    sequential = run_cell(config, "fedavg", "label_flipping_30")
    with ProcessPoolBackend(max_workers=2) as backend:
        server = build_federation(
            config,
            make_strategy("fedavg"),
            make_scenario("label_flipping_30"),
            backend=backend,
        )
        pooled = server.run()
    assert normalized_bytes(sequential) == normalized_bytes(pooled)


# -- buffer bound -----------------------------------------------------------
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    buffer_size=st.integers(min_value=1, max_value=6),
)
def test_buffer_never_exceeds_buffer_size(seed, buffer_size):
    config = async_config(seed, buffer_size=buffer_size, rounds=4)
    server = build_federation(
        config, make_strategy("fedavg"), make_scenario("no_attack")
    )
    for round_idx in (1, 2, 3, 4):
        record = server.run_round(round_idx)
        # A flush consumes everything buffered: never more than
        # buffer_size arrivals (aggregated + staleness-dropped)...
        pool = len(record.sampled_ids) + record.metrics["stale_dropped"]
        assert pool <= buffer_size
        # ...and the buffer drains completely, so checkpointed state can
        # never carry an over-full buffer either.
        assert len(server.mode.state_dict()["buffer"]) == 0


# -- checkpoint/resume ------------------------------------------------------
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_mid_buffer_checkpoint_resume_is_bit_identical(seed):
    config = async_config(seed, rounds=4, checkpoint_every=2)
    straight = run_cell(config, "fedavg", "label_flipping_30")

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "federation.ckpt"
        run_cell(
            config.replace(rounds=2), "fedavg", "label_flipping_30",
            checkpoint_path=path,
        )
        payload = load_checkpoint(path)
        # The checkpoint must actually split in-flight work — otherwise
        # this property degenerates to plain determinism.
        assert payload["mode"]["events"] or payload["mode"]["in_flight"]
        server, history = restore_federation(payload)
        resumed = server.run(rounds=4, history=history)

    assert normalized_bytes(straight) == normalized_bytes(resumed)
