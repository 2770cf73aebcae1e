"""Compiled training step: bit-identity against the eager step, and fallbacks.

``TrainReplayEngine.step`` must leave a model exactly where its oracle
``eager_train_step`` (eager forward, fused CE + L2, ``Tensor.backward``,
``Adam.step``) would: the same loss bits, parameters, gradients, Adam
moments and step count, and the same dropout generator state.  Every
comparison here is on raw bytes — no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.tensor.train_replay as train_replay_module
from repro import api
from repro.baselines.plugin import BiasedSubgraphPluginDetector
from repro.core import BSG4Bot, BSG4BotConfig
from repro.core.model import BSG4BotModel
from repro.tensor import Adam, Parameter, Tensor, matmul
from repro.tensor.replay import bucket_key
from repro.tensor.train_replay import (
    CompiledTrainStep,
    TrainReplayEngine,
    eager_train_step,
)
from tests.conftest import make_separable_graph

NUM_NODES = 80


def _config(**overrides) -> BSG4BotConfig:
    base = dict(
        pretrain_epochs=10, pretrain_hidden_dim=8, hidden_dim=8, subgraph_k=3,
        max_epochs=4, min_epochs=4, patience=2, batch_size=16, attention_dim=4,
    )
    base.update(overrides)
    return BSG4BotConfig(**base)


@pytest.fixture(scope="module")
def fitted():
    graph = make_separable_graph(num_nodes=NUM_NODES, seed=21)
    detector = BSG4Bot(_config())
    detector.fit(graph)
    detector.predict_proba_nodes(np.arange(graph.num_nodes))  # every subgraph built
    return graph, detector


def _state(model, optimizer) -> list:
    """Everything a training step mutates, as raw bytes."""
    out = []
    for param in optimizer.parameters:
        out.append(param.data.tobytes())
        out.append(None if param.grad is None else param.grad.tobytes())
    out += [m.tobytes() for m in optimizer._m]
    out += [v.tobytes() for v in optimizer._v]
    out.append(optimizer._step_count)
    out.append(repr(model.dropout.rng.bit_generator.state))
    return out


def _model(graph, seed, dropout, semantic, concat) -> BSG4BotModel:
    model = BSG4BotModel(
        in_features=graph.num_features,
        hidden_dim=8,
        relation_names=graph.relation_names,
        dropout=dropout,
        attention_dim=4,
        use_intermediate_concat=concat,
        use_semantic_attention=semantic,
        rng=np.random.default_rng(seed),
    )
    return model.train()


class _Spy:
    """Records every TrainReplayEngine the trainer creates."""

    def __init__(self, monkeypatch) -> None:
        self.engines = []
        spy = self

        class Recording(TrainReplayEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spy.engines.append(self)

        monkeypatch.setattr(train_replay_module, "TrainReplayEngine", Recording)


class TestStepProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=6),
        dropout=st.sampled_from([0.0, 0.3]),
        semantic=st.booleans(),
        concat=st.booleans(),
        weighted=st.booleans(),
        weight_decay=st.sampled_from([0.0, 5e-4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_compiled_steps_equal_eager_bitwise(
        self, fitted, sizes, dropout, semantic, concat, weighted, weight_decay, seed
    ):
        graph, detector = fitted
        class_weight = np.array([0.7, 1.9]) if weighted else None
        replayed = _model(graph, seed, dropout, semantic, concat)
        reference = _model(graph, seed, dropout, semantic, concat)
        replay_opt = Adam(replayed.parameters(), lr=0.01)
        eager_opt = Adam(reference.parameters(), lr=0.01)
        engine = TrainReplayEngine(
            replayed, replay_opt, class_weight=class_weight,
            weight_decay=weight_decay, capture=True,
        )
        picker = np.random.default_rng(seed)
        buckets = set()
        for size in sizes:
            batch = detector.store.collate(picker.choice(NUM_NODES, size=size, replace=False))
            buckets.add(bucket_key(batch))
            loss = engine.step(batch)
            expected = eager_train_step(
                reference, eager_opt, batch, class_weight, weight_decay
            ).item()
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            assert _state(replayed, replay_opt) == _state(reference, eager_opt)
        assert not engine.disabled
        assert engine.stats["replay_misses"] == len(buckets)
        assert engine.stats["replay_hits"] == len(sizes) - len(buckets)

    def test_same_bucket_smaller_batch_replays(self, fitted):
        graph, detector = fitted
        replayed = _model(graph, 3, 0.3, True, True)
        reference = _model(graph, 3, 0.3, True, True)
        replay_opt, eager_opt = Adam(replayed.parameters()), Adam(reference.parameters())
        engine = TrainReplayEngine(replayed, replay_opt, weight_decay=5e-4, capture=True)
        big = detector.store.collate(np.arange(16))
        small = detector.store.collate(np.arange(20, 33))
        assert bucket_key(small) == bucket_key(big)
        assert small.features.shape[0] < big.features.shape[0]
        for batch in (big, small, big, small):
            engine.step(batch)
            eager_train_step(reference, eager_opt, batch, None, 5e-4)
            assert _state(replayed, replay_opt) == _state(reference, eager_opt)
        assert engine.stats == {"replay_hits": 3, "replay_misses": 1}


class TestFit:
    def test_fit_with_and_without_replay_is_byte_identical(self, monkeypatch, tmp_path):
        graph = make_separable_graph(num_nodes=NUM_NODES, seed=5)
        spy = _Spy(monkeypatch)
        runs = {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_REPLAY", flag)
            detector = BSG4Bot(_config(dropout=0.3))
            history = detector.fit(graph)
            path = api.save_detector(detector, tmp_path / f"replay-{flag}")
            runs[flag] = (history, (path / "model.npz").read_bytes())
        replay_engine, eager_engine = spy.engines
        assert replay_engine.stats["replay_hits"] > 0 and not replay_engine.disabled
        assert eager_engine.disabled and eager_engine.stats["replay_hits"] == 0
        (on, on_npz), (off, off_npz) = runs["1"], runs["0"]
        assert on_npz == off_npz
        assert on.train_losses == off.train_losses
        assert on.val_scores == off.val_scores
        assert (on.best_epoch, on.best_val_score) == (off.best_epoch, off.best_val_score)


class TestFallback:
    @staticmethod
    def _plugin_fit(backbone, monkeypatch, flag):
        monkeypatch.setenv("REPRO_REPLAY", flag)
        graph = make_separable_graph(num_nodes=NUM_NODES, seed=9)
        detector = BiasedSubgraphPluginDetector(backbone, _config())
        history = detector.fit(graph)
        state = {name: value.tobytes() for name, value in detector.model.state_dict().items()}
        return history, state

    def test_unsupported_plugin_backbone_stays_eager_and_identical(self, monkeypatch):
        # The GCN backbone sums the relation adjacencies into a fresh matrix
        # the compiler cannot slot, so capture must give up.
        spy = _Spy(monkeypatch)
        on, on_state = self._plugin_fit("gcn", monkeypatch, "1")
        off, off_state = self._plugin_fit("gcn", monkeypatch, "0")
        assert spy.engines[0].disabled and spy.engines[0].stats["replay_hits"] == 0
        assert on_state == off_state
        assert on.train_losses == off.train_losses and on.val_scores == off.val_scores

    def test_supported_plugin_backbone_replays_identically(self, monkeypatch):
        spy = _Spy(monkeypatch)
        on, on_state = self._plugin_fit("botrgcn", monkeypatch, "1")
        off, off_state = self._plugin_fit("botrgcn", monkeypatch, "0")
        assert not spy.engines[0].disabled and spy.engines[0].stats["replay_hits"] > 0
        assert on_state == off_state
        assert on.train_losses == off.train_losses and on.val_scores == off.val_scores

    def test_forced_self_check_mismatch_disables_capture(self, fitted, monkeypatch):
        graph, detector = fitted
        original_run = CompiledTrainStep.run

        def drifting_run(self, batch):
            loss = original_run(self, batch)
            return loss + 1e-12  # one ulp-scale lie is enough

        monkeypatch.setattr(CompiledTrainStep, "run", drifting_run)
        replayed = _model(graph, 11, 0.3, True, True)
        reference = _model(graph, 11, 0.3, True, True)
        replay_opt, eager_opt = Adam(replayed.parameters()), Adam(reference.parameters())
        engine = TrainReplayEngine(replayed, replay_opt, weight_decay=5e-4, capture=True)
        for nodes in (np.arange(16), np.arange(16, 32), np.arange(5)):
            batch = detector.store.collate(nodes)
            loss = engine.step(batch)
            expected = eager_train_step(reference, eager_opt, batch, None, 5e-4).item()
            assert loss == expected
            assert _state(replayed, replay_opt) == _state(reference, eager_opt)
        assert engine.disabled
        assert engine.stats == {"replay_hits": 0, "replay_misses": 1}


class TestMatmulBackward:
    def test_no_gradient_for_an_operand_without_requires_grad(self):
        rng = np.random.default_rng(0)
        features = Tensor(rng.standard_normal((5, 3)))
        weight = Parameter(rng.standard_normal((3, 2)))
        out = matmul(features, weight)
        upstream = rng.standard_normal((5, 2))
        pairs = out._backward(upstream)
        assert [parent for parent, _ in pairs] == [weight]
        out.backward(upstream)
        assert features.grad is None
        assert weight.grad.tobytes() == (features.data.T @ upstream).tobytes()
