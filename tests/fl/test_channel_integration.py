"""Channel × server × backend integration tests.

Covers the transport refactor's behavioral guarantees: the default channel
changes nothing, both execution backends produce identical federations
through the channel seam, partial and empty rounds degrade gracefully for
every registered strategy, and runtime-colluding attacks fail loudly on
the process pool instead of silently mis-simulating.
"""

import numpy as np
import pytest

from repro.attacks import AttackScenario, no_attack
from repro.attacks.optimized import DirectedDeviationAttack
from repro.config import FederationConfig
from repro.defenses import FedAvg
from repro.experiments.scenarios import (
    SCENARIO_FACTORIES,
    STRATEGY_FACTORIES,
    make_scenario,
    make_strategy,
)
from repro.experiments.storage import normalized_history_dict
from repro.fl import (
    InMemoryChannel,
    LossyChannel,
    ProcessPoolBackend,
    SequentialBackend,
)
from repro.fl.simulation import build_federation


class TestInMemoryDefault:
    def test_build_federation_defaults_to_in_memory(self):
        server = build_federation(FederationConfig.tiny(), FedAvg(), no_attack())
        assert isinstance(server.channel, InMemoryChannel)

    def test_explicit_channel_identical_to_default(self):
        config = FederationConfig.tiny()
        default = build_federation(config, FedAvg(), no_attack()).run(rounds=3)
        explicit = build_federation(
            config, FedAvg(), no_attack(), channel=InMemoryChannel()
        ).run(rounds=3)
        assert normalized_history_dict(default) == normalized_history_dict(explicit)

    def test_delivery_is_lossless(self):
        config = FederationConfig.tiny()
        history = build_federation(config, FedAvg(), no_attack()).run(rounds=2)
        summary = history.delivery_summary()
        assert summary["delivery_rate"] == 1.0
        assert summary["broadcasts_dropped"] == summary["submits_dropped"] == 0
        assert summary["empty_rounds"] == 0


class TestBackendEquivalence:
    def test_process_pool_history_identical_through_channel(self):
        """Same seed ⇒ the same History regardless of execution backend."""
        config = FederationConfig.tiny()
        seq = build_federation(
            config, FedAvg(), AttackScenario.sign_flipping(0.5),
            backend=SequentialBackend(),
        ).run(rounds=2)
        with ProcessPoolBackend(max_workers=2) as backend:
            par = build_federation(
                config, FedAvg(), AttackScenario.sign_flipping(0.5), backend=backend
            ).run(rounds=2)
        assert normalized_history_dict(seq) == normalized_history_dict(par)

    def test_process_pool_rejects_runtime_collusion(self):
        """≥2 colluders sharing one runtime-collusion attack must fail loudly."""
        config = FederationConfig.tiny(clients_per_round=4)
        scenario = AttackScenario(
            name="directed_deviation_50",
            attack=DirectedDeviationAttack(colluding=True),
            malicious_fraction=0.5,
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), scenario, backend=backend)
            with pytest.raises(RuntimeError, match="runtime-colluding"):
                server.run(rounds=3)

    def test_sequential_runs_runtime_collusion(self):
        config = FederationConfig.tiny(clients_per_round=4)
        scenario = AttackScenario(
            name="directed_deviation_50",
            attack=DirectedDeviationAttack(colluding=True),
            malicious_fraction=0.5,
        )
        server = build_federation(config, FedAvg(), scenario)
        history = server.run(rounds=2)
        assert len(history) == 2

    def test_process_pool_accepts_single_colluder(self):
        """One colluder has nobody to share with — no false positive."""
        config = FederationConfig.tiny(clients_per_round=2)
        scenario = AttackScenario(
            name="directed_deviation_10",
            attack=DirectedDeviationAttack(colluding=True),
            malicious_fraction=0.1,
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), scenario, backend=backend)
            record = server.run_round(1)
        assert len(record.sampled_ids) == 2


class TestEmptyRounds:
    def test_zero_delivery_round_leaves_model_unchanged(self):
        config = FederationConfig.tiny()
        server = build_federation(
            config, FedAvg(), no_attack(), channel=LossyChannel(1.0, seed=0)
        )
        before = server.global_weights.copy()
        record = server.run_round(1)
        np.testing.assert_array_equal(server.global_weights, before)
        assert record.sampled_ids == []
        assert record.accepted_ids == [] and record.rejected_ids == []
        assert len(record.selected_ids) == config.clients_per_round
        assert record.broadcasts_dropped == config.clients_per_round
        assert record.metrics["empty_round"] == 1
        assert 0.0 <= record.accuracy <= 1.0

    def test_empty_rounds_counted_in_delivery_summary(self):
        config = FederationConfig.tiny()
        history = build_federation(
            config, FedAvg(), no_attack(), channel=LossyChannel(1.0, seed=0)
        ).run(rounds=3)
        summary = history.delivery_summary()
        assert summary["empty_rounds"] == 3
        assert summary["delivered"] == 0


@pytest.mark.slow
@pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIO_FACTORIES))
def test_every_strategy_survives_lossy_rounds(strategy_name, scenario_name):
    """All registered strategies complete under a 30 % lossy channel.

    Dropped broadcasts and submissions produce partial rounds (sometimes
    far below the aggregators' nominal quorums); every defense must
    degrade gracefully rather than crash.
    """
    config = FederationConfig.tiny()
    server = build_federation(
        config,
        make_strategy(strategy_name),
        make_scenario(scenario_name),
        channel=LossyChannel(0.3, seed=config.seed),
    )
    history = server.run(rounds=2)
    assert len(history) == 2
    for record in history.rounds:
        assert len(record.sampled_ids) <= len(record.selected_ids)
        assert 0.0 <= record.accuracy <= 1.0
