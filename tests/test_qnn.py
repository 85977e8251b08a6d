import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qmlgrid import bench, circuit, datasets, qnn, reference
from qmlgrid.circuit import (FUSE_MAX_QUBITS, _chain_products, _kron,
                             _ring_perm, _rotation_factors, encode,
                             resolve_fused, run_batch)
from qmlgrid.errors import ConfigurationError, TrainingDivergedError, UsageError
from qmlgrid.metrics import evaluate
from qmlgrid.pipeline import stratified_split
from qmlgrid.qkernel import embed
from qmlgrid.qnn import (GrowthResult, LayerTrial, QnnConfig, batch_loss,
                         forward_batch, grow_layers, init_model,
                         parameter_shift_gradient, predict, replace_params,
                         softmax_pair, train)
from qmlgrid.reference import expectation_z_batch, weighted_cross_entropy
from qmlgrid.statevec import apply_ops, product_states


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
        # the angle feature map is the QNN's Y encoding RY(pi * x_q);
        # x = (1, -1): <Z_0> = cos(pi) = -1 and <Z_1> = cos(-pi) = -1,
        # so the two classes tie at (0.5, 0.5)
        amps = embed("angle", np.array([[1.0, -1.0]]))[-1]
        e = np.array([[expectation_z_batch(amps, 2, 0)[0],
                       expectation_z_batch(amps, 2, 1)[0]]])
        np.testing.assert_allclose(e, [[-1.0, -1.0]], atol=1e-12)
        np.testing.assert_allclose(softmax_pair(e), [[0.5, 0.5]], atol=1e-12)

    def test_probabilities_normalized(self):
        model = init_model(QnnConfig(3, ("X", "Y"), True, "strongly", 2, seed=3),
                           (0.4, 0.6))
        X = np.random.default_rng(7).uniform(-1, 1, (10, 3))
        probs = forward_batch(model, encode(model.config, X))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() > 0.0

    @pytest.mark.parametrize("n, reupload", [(3, False), (3, True),
                                             (6, True)])
    def test_no_rows_give_no_probabilities(self, n, reupload):
        # a re-upload op carries a dense payload at n = 3 and a high and
        # a low factor at n = 6; neither may trip on 0 rows
        model = init_model(QnnConfig(n, ("X", "Y"), reupload, "strongly", 2),
                           (0.5, 0.5))
        probs = forward_batch(model, encode(model.config, np.zeros((0, n))))
        assert probs.shape == (0, 2)

    def test_readout_reads_a_row_the_same_in_any_batch(self):
        # each part of a cut batch reads out the bits of the matching
        # slice of the whole batch's readout, whatever the cut; a BLAS
        # matrix-vector product rounds a row by its index in the batch
        rng = np.random.default_rng(54)
        for n in range(2, 9):
            amps = (rng.standard_normal((131, 1 << n))
                    + 1j * rng.standard_normal((131, 1 << n)))
            whole = qnn._readout(amps, n)
            for cut in range(1, 131):
                assert np.array_equal(qnn._readout(amps[:cut], n),
                                      whole[:cut]), (n, cut)
                assert np.array_equal(qnn._readout(amps[cut:], n),
                                      whole[cut:]), (n, cut)

    def test_softmax_pair_keeps_the_reductions_bits(self):
        # the column-wise maximum and sum against the row-wise max and
        # sum reductions they replace, by bytes, on zeros of both signs,
        # infinities, subnormals and every scale; a NaN stays a NaN
        def reduced(e):
            ex = np.exp(e - e.max(axis=1, keepdims=True))
            return ex / ex.sum(axis=1, keepdims=True)

        rng = np.random.default_rng(12)
        special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324,
                   1e308, -1e308]
        inputs = [rng.normal(size=(200, 2)) * scale
                  for scale in (1e-300, 1e-10, 1.0, 10.0, 700.0, 1e300)]
        inputs.append(np.array([[a, b] for a in special for b in special]))
        with np.errstate(all="ignore"):
            for e in inputs:
                got, want = softmax_pair(e), reduced(e)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_predict_ties_go_to_class_one(self):
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=0),
                           (0.5, 0.5))
        # x = (1, -1) ties exactly after the encoding; with zeroed
        # parameters the ansatz rotations are identity up to the CNOT
        model.parameters[:] = 0.0
        assert predict(forward_batch(model, encode(
            model.config, np.array([[1.0, -1.0]]))))[0] == 1


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

    @pytest.mark.parametrize("labels", ([1, -1, 1, -1], [0, 2, 1, 0],
                                        [0.5, 1, 0, 0]))
    def test_batch_loss_refuses_labels_but_zero_and_one(self, labels):
        # -1/+1 labels once read every -1 as class 1, and a 2 ran past
        # the class weights with a bare IndexError
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=1),
                           (0.3, 0.7))
        encoded = encode(model.config, np.zeros((4, 2)))
        with pytest.raises(UsageError, match="0/1 class labels"):
            batch_loss(model, encoded, np.array(labels))
        assert np.isfinite(batch_loss(model, encoded,
                                      np.array([1, 0, True, False])))

    def test_batch_loss_is_mean_of_sample_losses(self):
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=1),
                           (0.3, 0.7))
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (6, 2))
        y = rng.integers(0, 2, 6)
        encoded = encode(model.config, X)
        per_sample = [weighted_cross_entropy(forward_batch(model, encoded[i:i + 1])[0],
                                             int(y[i]), model.class_weights)
                      for i in range(6)]
        assert abs(batch_loss(model, encoded, y) - np.mean(per_sample)) < 1e-12


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
            encoded = encode(cfg, X)
            analytic = parameter_shift_gradient(model, encoded, y)
            numeric = reference.finite_difference_gradient(
                lambda th: batch_loss(replace_params(model, th), encoded, y),
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
        adjoint = parameter_shift_gradient(model, encode(model.config, X), y)
        shift = reference.shift_rule_gradient(model, X, y)
        assert np.max(np.abs(adjoint - shift)) <= 1e-10

    def test_costs_at_most_four_forward_passes(self):
        model, X, y = self.seventy_two_parameters()
        encoded = encode(model.config, X)
        forward, gradient = [], []
        for _ in range(15):
            for fn, times in ((lambda: forward_batch(model, encoded), forward),
                              (lambda: parameter_shift_gradient(model, encoded, y),
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
                        X = rng.uniform(-1, 1, (4, n))
                        y = rng.integers(0, 2, 4)
                        encoded = encode(cfg, X)
                        kinds = [op[0] for op in resolve_fused(
                            cfg, encoded, model.parameters)[0]]
                        layer = (["local"] if reupload else []) + ["unitary"]
                        assert kinds == ["unitary"] + layer * (n_layers - 1)
                        got = parameter_shift_gradient(model, encoded, y)
                        want = reference.shift_rule_gradient(model, X, y)
                        assert np.max(np.abs(got - want)) <= 1e-10

    def test_widest_model_matches_gate_by_gate_parameter_shift(self):
        # n = FUSE_MAX_QUBITS: a split re-upload block and the widest
        # dense layers on the backward sweep
        cfg = QnnConfig(FUSE_MAX_QUBITS, ("Y", "X"), True, "strongly", 2,
                        seed=3)
        model = init_model(cfg, (0.35, 0.65))
        rng = np.random.default_rng(50)
        X = rng.uniform(-1, 1, (4, FUSE_MAX_QUBITS))
        y = np.array([0, 1, 1, 0])
        got = parameter_shift_gradient(model, encode(cfg, X), y)
        want = reference.shift_rule_gradient(model, X, y)
        assert np.max(np.abs(got - want)) <= 1e-10


class TestLayerBuild:
    @pytest.mark.parametrize("n", range(2, FUSE_MAX_QUBITS + 1))
    def test_gradient_and_forward_keep_their_bits(self, n, monkeypatch):
        # the gather plan and the stacked reductions against the layer
        # build they replace (_kron, then the ring's rows) with every
        # layer reduced alone, by bytes: the golden records pin only
        # n = 4 and 5
        rng = np.random.default_rng(60 + n)
        models = []
        for reupload in (False, True):
            for ansatz in ("basic", "strongly"):
                cfg = QnnConfig(n, ("Y", "X"), reupload, ansatz, 3,
                                seed=int(rng.integers(1000)))
                X = encode(cfg, rng.uniform(-1, 1, (6, n)))
                models.append((init_model(cfg, (0.35, 0.65)), X,
                               rng.integers(0, 2, 6)))

        def outputs():
            return [(parameter_shift_gradient(model, X, y).tobytes(),
                     forward_batch(model, X).tobytes())
                    for model, X, y in models]

        got = outputs()
        monkeypatch.setattr(circuit, "_layer_unitaries", lambda chains: _kron(
            chains[:, :, -1])[:, _ring_perm(chains.shape[1])])
        monkeypatch.setattr(qnn, "REDUCE_ENTRIES", 0)
        assert got == outputs()


class TestTraining:
    def test_plateau_stops_patience_epochs_past_best(self, monkeypatch):
        monkeypatch.setattr(qnn, "LEARNING_RATE", 0.0)
        X, y = toy_sign_task(16)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=2),
                           (0.5, 0.5))
        data = encode(model.config, X), y
        _, report = train(model, data, data, epochs=50)
        assert report.best_epoch == 1
        assert report.stopped_epoch == 6

    def test_learns_separable_toy(self):
        X, y = toy_sign_task()
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=0),
                           (0.5, 0.5))
        data = encode(model.config, X), y
        fitted, report = train(model, data, data, epochs=100)
        f1 = evaluate(y, predict(forward_batch(fitted, data[0]))).f1
        assert f1 >= 0.95
        assert report.stopped_epoch <= 100

    def test_refuses_labels_but_zero_and_one_before_a_step(self,
                                                           monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(qnn, "parameter_shift_gradient", no_step)
        X, y = toy_sign_task(16)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=2),
                           (0.5, 0.5))
        encoded = encode(model.config, X)
        for bad_train, bad_val in ((2 * y - 1, y), (y, 2 * y)):
            with pytest.raises(UsageError, match="0/1 class labels"):
                train(model, (encoded, bad_train), (encoded, bad_val),
                      epochs=1)

    def test_non_finite_validation_loss_aborts(self):
        X, y = toy_sign_task(16)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 1, seed=2),
                           (0.5, 0.5))
        broken = replace_params(model, np.full_like(model.parameters, np.nan))
        data = encode(model.config, X), y
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(broken, data, data, epochs=3)

    def test_returns_best_epoch_parameters(self):
        X, y = toy_sign_task(24)
        model = init_model(QnnConfig(2, ("Y",), False, "basic", 2, seed=1),
                           (0.5, 0.5))
        data = encode(model.config, X), y
        fitted, report = train(model, data, data, epochs=12)
        assert abs(batch_loss(fitted, *data)
                   - report.val_loss[report.best_epoch - 1]) < 1e-12


class TestLayerGrowth:
    def test_growth_follows_stall_rule(self):
        X, y = toy_sign_task(20)
        cfg = QnnConfig(2, ("Y",), False, "basic", 2, seed=4)
        data = encode(cfg, X), y
        result = grow_layers(cfg, (0.5, 0.5), data, data,
                             max_layers=8, epochs=4)
        assert isinstance(result, GrowthResult)
        assert all(isinstance(t, LayerTrial) for t in result.trials)
        counts = [t.model.config.n_layers for t in result.trials]
        assert counts == list(range(2, 2 + len(counts)))
        # replay the stopping rule from the recorded losses
        best, best_at, stale, stop_at = np.inf, None, 0, None
        for i, t in enumerate(result.trials):
            if t.report.best_val_loss() < best:
                best, best_at, stale = t.report.best_val_loss(), i, 0
            else:
                stale += 1
            if stale >= 2:                # the qubit count
                stop_at = counts[i]
                break
        assert result.best is result.trials[best_at]
        assert counts[-1] == (8 if stop_at is None else stop_at)

    def test_refuses_an_empty_search(self):
        # no layer count to try, or no epoch to train: both would leave
        # no trial or no validation loss to select on
        X, y = toy_sign_task(8)
        cfg = QnnConfig(2, ("Y",), False, "basic", 1, seed=4)
        data = encode(cfg, X), y
        with pytest.raises(UsageError,
                           match="n_layers 3 exceeds max_layers 2"):
            grow_layers(replace(cfg, n_layers=3), (0.5, 0.5), data, data,
                        max_layers=2, epochs=1)
        with pytest.raises(UsageError, match="epochs"):
            grow_layers(cfg, (0.5, 0.5), data, data,
                        max_layers=2, epochs=0)


def encoding_block(sequence, X):
    """(rows, n, 2, 2): every row's encoding block as one 2x2 per qubit,
    the rotations of the sequence multiplied in order."""
    kinds = tuple("r" + axis.lower() for axis in sequence)
    return _chain_products(_rotation_factors(kinds, math.pi * X[:, :, None]))


class TestEncodingCache:
    SEQUENCES = (("Y",), ("X",), ("Z",), ("X", "Z"), ("Z", "Y", "X"),
                 ("Y", "X", "Z"))

    def test_gathered_rows_equal_a_fresh_encode(self):
        # every step of encode is elementwise per row, so rows gathered
        # or sliced from one encoding match an encoding of those rows
        # alone, bit for bit, whatever the row count
        rng = np.random.default_rng(51)
        X = rng.uniform(-1, 1, (37, FUSE_MAX_QUBITS))
        idx = rng.permutation(np.concatenate([np.arange(37), [3, 3, 20]]))
        for n in range(2, FUSE_MAX_QUBITS + 1):
            for sequence in self.SEQUENCES:
                for reupload in (False, True):
                    cfg = QnnConfig(n, sequence, reupload)
                    Xn = X[:, :n]
                    for rows in (idx, slice(5, 30)):
                        gathered = encode(cfg, Xn)[rows]
                        fresh = encode(cfg, Xn[rows])
                        assert len(gathered) == len(Xn[rows])
                        assert gathered.layout == fresh.layout
                        assert np.array_equal(gathered.states, fresh.states)
                        assert len(gathered.local) == len(fresh.local) == (
                            0 if not reupload else 1 if n <= 4 else 2)
                        for a, b in zip(gathered.local, fresh.local):
                            assert np.array_equal(a, b)

    def test_states_are_the_product_states_of_the_chains(self):
        # an encoding stores its opening states, built once from the
        # chains' first columns; a pass copies them instead of building
        # them again, so the stored bits must be product_states' bits,
        # signed zeros included
        rng = np.random.default_rng(52)
        X = rng.uniform(-1, 1, (37, FUSE_MAX_QUBITS))
        X[:4] = 0.0
        for n in range(2, FUSE_MAX_QUBITS + 1):
            for sequence in self.SEQUENCES:
                for reupload in (False, True):
                    cfg = QnnConfig(n, sequence, reupload)
                    chains = encoding_block(sequence, X[:, :n])
                    got = encode(cfg, X[:, :n]).states
                    want = product_states(chains[..., 0])
                    assert got.shape == (37, 1 << n)
                    assert np.array_equal(got, want)
                    for part in (np.real, np.imag):
                        assert np.array_equal(np.signbit(part(got)),
                                              np.signbit(part(want)))

    def test_run_batch_starts_from_the_opening_states(self):
        # run_batch equals building the product states and applying
        # resolve_fused's ops, on a whole encoding and on gathered and
        # sliced rows of it
        rng = np.random.default_rng(54)
        X = rng.uniform(-1, 1, (37, FUSE_MAX_QUBITS))
        idx = rng.permutation(37)[:19]
        for n in range(2, FUSE_MAX_QUBITS + 1):
            for sequence in self.SEQUENCES:
                for reupload in (False, True):
                    cfg = QnnConfig(n, sequence, reupload, "strongly", 2,
                                    seed=n)
                    theta = init_model(cfg, (0.5, 0.5)).parameters
                    encoded = encode(cfg, X[:, :n])
                    for rows in (slice(None), idx, slice(5, 30)):
                        part = encoded[rows]
                        want = product_states(
                            encoding_block(sequence, X[rows, :n])[..., 0])
                        apply_ops(want, n, resolve_fused(cfg, part, theta)[0])
                        assert np.array_equal(run_batch(cfg, part, theta),
                                              want)

    def test_a_reupload_payload_leaves_a_reupload_free_qnn_unchanged(self):
        # a grid hands both re-upload settings the encoding with the
        # payload; without re-upload the payload is never read, so a
        # pass and a gradient have the bits of a payload-free encoding
        rng = np.random.default_rng(55)
        X = rng.uniform(-1, 1, (37, FUSE_MAX_QUBITS))
        y = rng.integers(0, 2, 37)
        idx = rng.permutation(37)[:19]
        for n in range(2, FUSE_MAX_QUBITS + 1):
            for sequence in self.SEQUENCES:
                bare = encode(QnnConfig(n, sequence), X[:, :n])
                carrying = encode(QnnConfig(n, sequence, True), X[:, :n])
                assert carrying.local and not bare.local
                for ansatz in ("basic", "strongly"):
                    model = init_model(QnnConfig(n, sequence, False, ansatz,
                                                 2, seed=n), (0.4, 0.6))
                    for rows in (slice(None), idx):
                        a, b = bare[rows], carrying[rows]
                        assert np.array_equal(
                            run_batch(model.config, a, model.parameters),
                            run_batch(model.config, b, model.parameters))
                        assert np.array_equal(forward_batch(model, a),
                                              forward_batch(model, b))
                        assert np.array_equal(
                            parameter_shift_gradient(model, a, y[rows]),
                            parameter_shift_gradient(model, b, y[rows]))

    def test_a_grid_encodes_each_sequence_once(self, monkeypatch, tmp_path):
        # each (k, sequence) encodes once, with the re-upload payload,
        # over the stacked rows of all three splits, in grid order; the
        # encoding serves both re-upload settings, both ansaetze and
        # every batch, epoch, layer trial and prediction of their cells
        calls = []
        real_encode = bench.encode

        def encode_spy(config, X):
            calls.append((config.n_features,
                          "".join(config.encoding_sequence),
                          config.reupload, len(X)))
            return real_encode(config, X)

        monkeypatch.setattr(bench, "encode", encode_spy)
        dataset = datasets.synthetic("prostate")
        rows = len(dataset.labels)
        settings = bench.RunSettings(qnn_epochs=1, qnn_start_layers=1,
                                     qnn_max_layers=1)
        new = bench.run_grid("prostate", dataset,
                             bench.RecordStore(tmp_path / "q.jsonl"),
                             settings, families=("qnn",),
                             feature_range=(2, 3))
        assert len(new) == 121
        assert calls == [(k, sequence, True, rows) for k in (2, 3)
                         for sequence in bench.axis_sequences()]

    def test_stacked_pass_equals_per_split_passes(self):
        # a QNN cell predicts all its splits in one forward_batch over
        # their stacked encoding. That assumes BLAS gives a row the same
        # amplitudes whatever the batch, and a readout that reduces each
        # row on its own. Cuts 41 and 40 put the second block off and on
        # the period 4 by which a BLAS matrix-vector product rounds a
        # row; every block keeps 2 or more rows, as a one-row complex
        # matmul may round apart from the same row in a larger product
        rng = np.random.default_rng(53)
        X = rng.uniform(-1, 1, (67, FUSE_MAX_QUBITS))
        for n in range(2, FUSE_MAX_QUBITS + 1):
            for sequence in bench.axis_sequences():
                for reupload in (False, True):
                    encoded = encode(QnnConfig(n, tuple(sequence), reupload),
                                     X[:, :n])
                    for ansatz in ("basic", "strongly"):
                        model = init_model(
                            QnnConfig(n, tuple(sequence), reupload, ansatz,
                                      2, seed=n), (0.4, 0.6))
                        amps = run_batch(model.config, encoded,
                                         model.parameters)
                        probs = forward_batch(model, encoded)
                        for cut in (41, 40):
                            assert np.array_equal(amps[cut:], run_batch(
                                model.config, encoded[cut:],
                                model.parameters))
                            assert np.array_equal(probs[:cut], forward_batch(
                                model, encoded[:cut]))
                            assert np.array_equal(probs[cut:], forward_batch(
                                model, encoded[cut:]))
