import math
import time

import numpy as np
import pytest

from qmlgrid import qnn, reference
from qmlgrid.circuit import angle_encoding, run_batch
from qmlgrid.errors import ConfigurationError, TrainingDivergedError, UsageError
from qmlgrid.fusion import FUSE_MAX_QUBITS, QnnCircuit
from qmlgrid.metrics import evaluate
from qmlgrid.qnn import (GrowthResult, QnnConfig, batch_loss, expectations, forward_batch, grow_layers,
                         init_model, parameter_shift_gradient, predict,
                         replace_params, softmax_pair, train)
from qmlgrid.reference import weighted_cross_entropy
from qmlgrid.statevec import expectation_z_batch


def toy_sign_task(n=48, seed=5):
    # sign of x0 decides the label; x1 is small noise; the margin keeps
    # the encoding away from the ambiguous points x0 in {0, +-1}
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(0.15, 0.85, n // 2),
                         rng.uniform(-0.85, -0.15, n // 2)])
    x1 = rng.uniform(-0.05, 0.05, n)
    X = np.stack([x0, x1], axis=1)
    y = (x0 > 0).astype(int)
    perm = rng.permutation(n)
    return X[perm], y[perm]


class TestConfig:
    def test_parameter_counts(self):
        assert QnnConfig(2, ("X", "Z", "Y"), True, "strongly", 6).n_parameters() == 36
        assert QnnConfig(3, ("Y",), False, "basic", 4).n_parameters() == 12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QnnConfig(1)
        with pytest.raises(ConfigurationError):
            QnnConfig(2, ansatz="deep")
        with pytest.raises(ConfigurationError):
            QnnConfig(2, n_layers=0)
        # the encoding sequence and the width are checked by the config,
        # not first when a model is built from it
        for sequence in ((), ("X", "X"), ("y", "Y"), ("Q",), ("Y", "W")):
            with pytest.raises(ConfigurationError):
                QnnConfig(2, sequence)
        with pytest.raises(ConfigurationError):
            QnnConfig(FUSE_MAX_QUBITS + 1)
        assert QnnConfig(FUSE_MAX_QUBITS, ("x", "Z")).n_parameters() == 16

    def test_init_is_seeded_uniform(self):
        cfg = QnnConfig(2, n_layers=3, seed=9)
        a = init_model(cfg, (0.5, 0.5))
        b = init_model(cfg, (0.5, 0.5))
        np.testing.assert_array_equal(a.parameters, b.parameters)
        assert np.all(np.abs(a.parameters) <= np.pi)
        c = init_model(QnnConfig(2, n_layers=3, seed=10), (0.5, 0.5))
        assert not np.array_equal(a.parameters, c.parameters)


class TestForward:
    def test_encoding_only_readout(self):
        # x = (1, -1): <Z_0> = cos(pi) = -1 and <Z_1> = cos(-pi) = -1,
        # so the two classes tie at (0.5, 0.5)
        circ = angle_encoding(2, ("Y",))
        amps = run_batch(circ, np.array([[1.0, -1.0]]))
        e = np.array([[expectation_z_batch(amps, 2, 0)[0],
                       expectation_z_batch(amps, 2, 1)[0]]])
        np.testing.assert_allclose(e, [[-1.0, -1.0]], atol=1e-12)
        np.testing.assert_allclose(softmax_pair(e), [[0.5, 0.5]], atol=1e-12)

    def test_probabilities_normalized(self):
        model = init_model(QnnConfig(3, ("X", "Y"), True, "strongly", 2, seed=3),
                           (0.4, 0.6))
        X = np.random.default_rng(7).uniform(-1, 1, (10, 3))
        probs = forward_batch(model, X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() > 0.0

    def test_predict_ties_go_to_class_one(self):
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=0),
                           (0.5, 0.5))
        # x = (1, -1) ties exactly after the encoding; with zeroed
        # parameters the ansatz rotations are identity up to the CNOT
        model.parameters[:] = 0.0
        assert predict(model, np.array([[1.0, -1.0]]))[0] == 1


class TestLoss:
    def test_weighted_cross_entropy_example(self):
        got = weighted_cross_entropy((0.5, 0.5), 1, (0.32, 0.68))
        assert abs(got - 0.68 * math.log(2.0)) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        loss = weighted_cross_entropy((1.0, 0.0), 1, (0.5, 0.5))
        assert np.isfinite(loss)
        assert abs(loss - 0.5 * -math.log(1e-12)) < 1e-9

    def test_label_validation(self):
        with pytest.raises(UsageError):
            weighted_cross_entropy((0.5, 0.5), 2, (0.5, 0.5))

    def test_batch_loss_is_mean_of_sample_losses(self):
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=1),
                           (0.3, 0.7))
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (6, 2))
        y = rng.integers(0, 2, 6)
        per_sample = [weighted_cross_entropy(forward_batch(model, X[i:i + 1])[0],
                                             int(y[i]), model.class_weights)
                      for i in range(6)]
        assert abs(batch_loss(model, X, y) - np.mean(per_sample)) < 1e-12


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(46)
        sequences = (("Y",), ("X", "Z"), ("Y", "X", "Z"))
        for trial in range(8):
            cfg = QnnConfig(int(rng.integers(2, 5)),
                            sequences[rng.integers(len(sequences))],
                            bool(rng.integers(2)),
                            ("basic", "strongly")[rng.integers(2)],
                            int(rng.integers(1, 4)), seed=trial)
            model = init_model(cfg, (0.35, 0.65))
            X = rng.uniform(-1, 1, (5, cfg.n_features))
            y = rng.integers(0, 2, 5)
            analytic = parameter_shift_gradient(model, X, y)
            numeric = reference.finite_difference_gradient(
                lambda th: batch_loss(model, X, y, parameters=th),
                model.parameters, eps=1e-4)
            assert np.max(np.abs(analytic - numeric)) <= 1e-6

    @staticmethod
    def seventy_two_parameters():
        # strongly entangling, 4 qubits, 6 layers, re-uploading encoding
        cfg = QnnConfig(4, ("X", "Y", "Z"), True, "strongly", 6, seed=7)
        assert cfg.n_parameters() == 72
        rng = np.random.default_rng(47)
        X = rng.uniform(-1, 1, (32, 4))
        y = rng.integers(0, 2, 32)
        return init_model(cfg, (0.35, 0.65)), X, y

    def test_matches_parameter_shift_at_72_parameters(self):
        model, X, y = self.seventy_two_parameters()
        adjoint = parameter_shift_gradient(model, X, y)
        shift = reference.shift_rule_gradient(model, X, y)
        assert np.max(np.abs(adjoint - shift)) <= 1e-10

    def test_costs_at_most_four_forward_passes(self):
        model, X, y = self.seventy_two_parameters()
        forward, gradient = [], []
        for _ in range(15):
            for fn, times in ((lambda: expectations(model, X), forward),
                              (lambda: parameter_shift_gradient(model, X, y),
                               gradient)):
                started = time.perf_counter()
                fn()
                times.append(time.perf_counter() - started)
        # best of 15 interleaved runs each, so a busy machine skews neither
        assert min(gradient) <= 4.0 * min(forward)


class TestFusedGradient:
    def test_matches_gate_by_gate_parameter_shift(self):
        # every ansatz x re-upload setting, n = 2..6 and L = 1..3; the
        # oracle runs the circuit gate by gate, so a fused forward pass
        # that drifted from the circuit would show here too
        sequences = (("Y",), ("X", "Z"), ("Z", "Y", "X"))
        rng = np.random.default_rng(49)
        for n in range(2, 7):
            for n_layers in (1, 2, 3):
                for reupload in (False, True):
                    for ansatz in ("basic", "strongly"):
                        cfg = QnnConfig(n, sequences[(n + n_layers) % 3],
                                        reupload, ansatz, n_layers,
                                        seed=int(rng.integers(1000)))
                        model = init_model(cfg, (0.35, 0.65))
                        assert isinstance(model.circuit, QnnCircuit)
                        X = rng.uniform(-1, 1, (4, n))
                        y = rng.integers(0, 2, 4)
                        kinds = [op[0] for op in model.circuit.resolve(
                            X, model.parameters)]
                        layer = (["local"] if reupload else []) + ["unitary"]
                        assert kinds == (["product", "unitary"]
                                         + layer * (n_layers - 1))
                        got = parameter_shift_gradient(model, X, y)
                        want = reference.shift_rule_gradient(model, X, y)
                        assert np.max(np.abs(got - want)) <= 1e-10


class TestTraining:
    def test_plateau_stops_patience_epochs_past_best(self, monkeypatch):
        monkeypatch.setattr(qnn, "LEARNING_RATE", 0.0)
        X, y = toy_sign_task(16)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=2),
                           (0.5, 0.5))
        _, report = train(model, (X, y), (X, y), epochs=50)
        assert report.best_epoch == 1
        assert report.stopped_epoch == 6

    def test_learns_separable_toy(self):
        X, y = toy_sign_task()
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=0),
                           (0.5, 0.5))
        fitted, report = train(model, (X, y), (X, y))
        f1 = evaluate(y, predict(fitted, X)).f1
        assert f1 >= 0.95
        assert report.stopped_epoch <= 100

    def test_non_finite_validation_loss_aborts(self):
        X, y = toy_sign_task(16)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=2),
                           (0.5, 0.5))
        broken = replace_params(model, np.full_like(model.parameters, np.nan))
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(broken, (X, y), (X, y), epochs=3)

    def test_returns_best_epoch_parameters(self):
        X, y = toy_sign_task(24)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=1),
                           (0.5, 0.5))
        fitted, report = train(model, (X, y), (X, y), epochs=12)
        assert abs(batch_loss(fitted, X, y)
                   - report.val_loss[report.best_epoch - 1]) < 1e-12


class TestLayerGrowth:
    def test_growth_follows_stall_rule(self):
        X, y = toy_sign_task(20)
        result = grow_layers(QnnConfig(2, ("Y",), False, "basic", 1, seed=4),
                             (0.5, 0.5), (X, y), (X, y),
                             start_layers=2, max_layers=8, epochs=4)
        assert isinstance(result, GrowthResult)
        counts = [t.n_layers for t in result.trials]
        assert counts == list(range(2, 2 + len(counts)))
        # replay the stopping rule from the recorded losses
        best, best_layers, stale, stop_at = np.inf, None, 0, None
        for t in result.trials:
            if t.val_loss < best:
                best, best_layers, stale = t.val_loss, t.n_layers, 0
            else:
                stale += 1
            if stale >= 2:                # the qubit count
                stop_at = t.n_layers
                break
        assert result.best_n_layers == best_layers
        assert result.best_trial().n_layers == best_layers
        assert counts[-1] == (8 if stop_at is None else stop_at)
