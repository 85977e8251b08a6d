import math
from dataclasses import replace

import numpy as np
import pytest

from qmlgrid import circuit, qkernel, reference
from qmlgrid.circuit import (ANSATZ_ROTATIONS, _chain_products, _kron,
                             _rotation_factors, _ring_perm, encode,
                             resolve_fused, run_batch)
from qmlgrid.errors import ConfigurationError, UsageError
from qmlgrid.qkernel import _hadamards, embed
from qmlgrid.qnn import QnnConfig
from qmlgrid.reference import apply_gates, kernel_gates, zero_states

# a fixed two-row feature matrix for the exact op lists
X2 = np.array([[0.3, -0.8], [0.5, 0.1]])


def cnot_count(ops):
    return sum(1 for op in ops if op[0] == "cnot")


def data_bound_count(ops):
    """Ops whose angle is a row of angles, one per sample."""
    return sum(1 for op in ops if isinstance(op[2], np.ndarray))


def assert_same_ops(got, want):
    """Same kinds, targets and angles, bit for bit."""
    assert [(k, t) for k, t, _ in got] == [(k, t) for k, t, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


def qnn_gates(n, sequence=("Y",), reupload=False, ansatz="basic",
              n_layers=1, X=None, theta=None):
    """reference.qnn_gates of a config over a batch X (zeros by
    default), with parameters theta (0, 1, 2, ... by default)."""
    config = QnnConfig(n, sequence, reupload, ansatz, n_layers)
    X = np.zeros((1, n)) if X is None else X
    if theta is None:
        theta = np.arange(config.n_parameters(), dtype=float)
    return reference.qnn_gates(config, X, theta)


def layer_gates(n, ansatz, n_layers=1):
    """The trainable layers of a QNN without re-upload: every gate after
    its one-axis encoding block."""
    return qnn_gates(n, ansatz=ansatz, n_layers=n_layers)[n:]


def trainable_angles(ops):
    return [a for _, _, a in ops if isinstance(a, float)]


def dense_state(config, x, theta):
    """The QNN's state at one sample from the dense unitary oracle."""
    gates = reference.qnn_gates(config, x, theta)
    return reference.circuit_unitary(config.n_features, gates)[:, 0]


class TestEncodings:
    def test_angle_encoding_identity_at_zero(self):
        s = embed("angle", [[0.0, 0.0, 0.0]])[-1, 0]
        assert abs(np.abs(s[0]) ** 2 - 1.0) < 1e-12

    def test_angle_encoding_scale_is_pi(self):
        x = 0.37
        s = embed("angle", [[x]])[-1, 0]
        np.testing.assert_allclose(
            s, [np.cos(np.pi * x / 2), np.sin(np.pi * x / 2)],
            atol=1e-14)

    def test_angle_encoding_sequence_order(self):
        gates = qnn_gates(2, ("X", "Z", "Y"))
        kinds = [op[0] for op in gates[:6]]
        assert kinds == ["rx", "rx", "rz", "rz", "ry", "ry"]

    def test_angle_sequence_validation(self):
        with pytest.raises(ConfigurationError):
            QnnConfig(2, ())
        with pytest.raises(ConfigurationError):
            QnnConfig(2, ("X", "X"))
        with pytest.raises(ConfigurationError):
            QnnConfig(2, ("Q",))

    def test_z_map_structure(self):
        X = np.random.default_rng(20).uniform(-1, 1, (4, 3))
        ops = kernel_gates("z", X, repetitions=2)
        assert data_bound_count(ops) == 6
        for kind, (q,), angle in ops:
            if kind == "rz":
                np.testing.assert_array_equal(angle, 2.0 * X[:, q])
        assert cnot_count(ops) == 0

    def test_zz_variant_a_uniform_at_zero(self):
        # all angles vanish at x = 0; two H gates leave |++>
        s = embed("zz_a", [[0.0, 0.0]])[-1, 0]
        assert abs(np.abs(s[0]) ** 2 - 0.25) < 1e-12

    def test_zz_variant_a_cnot_count(self):
        assert cnot_count(kernel_gates("zz_a", np.zeros((1, 2)))) == 2
        assert cnot_count(kernel_gates("zz_a", np.zeros((1, 4)))) == 6
        assert cnot_count(kernel_gates("zz_a", np.zeros((1, 4)),
                                       repetitions=3)) == 18

    def test_zz_variant_b_cnot_count(self):
        assert cnot_count(kernel_gates("zz_b", np.zeros((1, 3)))) == 4
        assert cnot_count(kernel_gates("zz_b", np.zeros((1, 3)),
                                       repetitions=2)) == 8

    def test_zz_variant_b_pair_angle_uses_shifted_product(self):
        ops = kernel_gates("zz_b", np.array([[0.3, -0.8]]))
        pair_ops = [op for prev, op in zip(ops, ops[1:])
                    if prev[0] == "cnot" and op[0] != "cnot"]
        assert len(pair_ops) == 1
        angle = pair_ops[0][2][0]
        assert abs(angle - 2 * (math.pi - 0.3) * (math.pi + 0.8)) < 1e-12

    def test_zz_needs_two_features(self):
        with pytest.raises(ConfigurationError):
            embed("zz_a", np.zeros((1, 1)))


class TestExactOps:
    """Each table row written out gate by gate at a fixed X, by
    reference.kernel_gates and reference.qnn_gates."""

    def test_z_map_two_repetitions(self):
        block = [("h", (0,), None), ("h", (1,), None),
                 ("rz", (0,), 2.0 * X2[:, 0]), ("rz", (1,), 2.0 * X2[:, 1])]
        assert_same_ops(kernel_gates("z", X2, 2), block * 2)

    def test_zz_a_map(self):
        assert_same_ops(kernel_gates("zz_a", X2), [
            ("h", (0,), None), ("h", (1,), None),
            ("rz", (0,), 2.0 * X2[:, 0]), ("rz", (1,), 2.0 * X2[:, 1]),
            ("cnot", (0, 1), None),
            ("rz", (1,), 2.0 * ((0.0 - X2[:, 0]) * (0.0 - X2[:, 1]))),
            ("cnot", (0, 1), None)])

    def test_zz_b_map(self):
        assert_same_ops(kernel_gates("zz_b", X2), [
            ("h", (0,), None), ("h", (1,), None),
            ("phase", (0,), 2.0 * X2[:, 0]), ("phase", (1,), 2.0 * X2[:, 1]),
            ("cnot", (0, 1), None),
            ("phase", (1,), 2.0 * ((math.pi - X2[:, 0])
                                   * (math.pi - X2[:, 1]))),
            ("cnot", (0, 1), None)])

    def test_reuploading_strongly_circuit(self):
        theta = np.linspace(-3.0, 3.0, 12)
        gates = qnn_gates(2, ("Y",), True, "strongly", 2, X2, theta)
        encoding = [("ry", (0,), math.pi * X2[:, 0]),
                    ("ry", (1,), math.pi * X2[:, 1])]
        layers = [[("rz", (0,), theta[b]), ("ry", (0,), theta[b + 1]),
                   ("rz", (0,), theta[b + 2]), ("rz", (1,), theta[b + 3]),
                   ("ry", (1,), theta[b + 4]), ("rz", (1,), theta[b + 5]),
                   ("cnot", (0, 1), None)] for b in (0, 6)]
        assert_same_ops(gates, (encoding + layers[0])
                        + (encoding + layers[1]))

    def test_unknown_ansatz_rejected(self):
        assert set(ANSATZ_ROTATIONS) == {"basic", "strongly"}
        with pytest.raises(ConfigurationError):
            QnnConfig(3, ("Y",), False, "weak", 2)


class TestAnsatzLayers:
    def test_basic_layer_shape(self):
        layer = layer_gates(4, "basic")
        assert cnot_count(layer) == 4
        assert len(trainable_angles(layer)) == 4
        assert [op[0] for op in layer[:4]] == ["rx"] * 4

    def test_two_qubit_ring_collapses_to_one_cnot(self):
        assert cnot_count(layer_gates(2, "basic")) == 1
        assert cnot_count(layer_gates(2, "strongly")) == 1

    def test_fresh_parameter_indices_across_layers(self):
        gates = qnn_gates(3, n_layers=2)
        assert trainable_angles(gates) == [0, 1, 2, 3, 4, 5]

    def test_strongly_layer_shape(self):
        layer = layer_gates(3, "strongly")
        assert len(trainable_angles(layer)) == 9
        assert cnot_count(layer) == 3
        assert [op[0] for op in layer[:3]] == ["rz", "ry", "rz"]

    def test_needs_two_qubits(self):
        with pytest.raises(ConfigurationError):
            QnnConfig(1)


class TestGateWriters:
    """reference.qnn_gates and reference.kernel_gates, the writers of
    concrete gate lists."""

    def test_parameter_counts(self):
        assert len(trainable_angles(
            qnn_gates(2, ("X", "Z", "Y"), True, "strongly", 6))) == 36
        assert len(trainable_angles(qnn_gates(3, n_layers=4))) == 12

    def test_reupload_repeats_encoding_block(self):
        once = qnn_gates(3, ("Y", "X"), False, "basic", 5)
        many = qnn_gates(3, ("Y", "X"), True, "basic", 5)
        assert data_bound_count(once) == 6
        assert data_bound_count(many) == 5 * 6

    def test_run_matches_unitary_reference(self):
        # the gate list run gate by gate on a batch of one vs its dense
        # unitary
        rng = np.random.default_rng(21)
        for _ in range(10):
            config = QnnConfig(2, ("Y", "Z"), bool(rng.integers(2)),
                               ("basic", "strongly")[rng.integers(2)],
                               int(rng.integers(1, 4)))
            x = rng.uniform(-1, 1, 2)
            theta = rng.uniform(-np.pi, np.pi, config.n_parameters())
            got = zero_states(2, 1)
            apply_gates(got, 2, reference.qnn_gates(config, x[None], theta))
            assert np.max(np.abs(got[0] - dense_state(config, x, theta))) < 1e-10

    def test_encoding_only_circuits_stay_gate_by_gate(self):
        ops = kernel_gates("angle", np.zeros((2, 3)), repetitions=2)
        assert [op[0] for op in ops] == ["ry"] * 6

    def test_gate_writers_check_lengths(self):
        with pytest.raises(UsageError):
            embed("angle", [0.1, 0.2])
        config = QnnConfig(2, n_layers=1)
        with pytest.raises(UsageError):
            reference.qnn_gates(config, (0.1,), (0.5, 0.5))
        with pytest.raises(UsageError):
            reference.qnn_gates(config, (0.1, 0.2), (0.5,))


class TestFusion:
    def test_qnn_circuits_fuse_and_match_unitary_reference(self):
        # every ansatz x re-upload setting, n = 2..6 and L = 1..3: the
        # fused blocks built from the config vs the dense unitary of the
        # gate list reference.qnn_gates writes out
        sequences = (("Y",), ("X", "Z"), ("Z", "Y", "X"))
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for n_layers in (1, 2, 3):
                for reupload in (False, True):
                    for ansatz in ("basic", "strongly"):
                        sequence = sequences[(n + n_layers) % 3]
                        config = QnnConfig(n, sequence, reupload, ansatz,
                                           n_layers)
                        X = rng.uniform(-1, 1, (3, n))
                        theta = rng.uniform(-np.pi, np.pi,
                                            config.n_parameters())
                        encoded = encode(config, X)
                        kinds = [op[0] for op in
                                 resolve_fused(config, encoded, theta)[0]]
                        layer = (["local"] if reupload else []) + ["unitary"]
                        assert kinds == ["unitary"] + layer * (n_layers - 1)
                        amps = run_batch(config, encoded, theta)
                        for x, got in zip(X, amps):
                            want = dense_state(config, x, theta)
                            assert np.max(np.abs(got - want)) <= 1e-12

    def test_widest_circuits_match_unitary_reference(self):
        # n = 7 and 8, the widest QnnConfig allows (FUSE_MAX_QUBITS): the
        # split "local" re-upload form and the widest dense layers
        rng = np.random.default_rng(24)
        for n in (7, 8):
            for reupload in (False, True):
                for ansatz in ("basic", "strongly"):
                    config = QnnConfig(n, ("X", "Z"), reupload, ansatz, 2)
                    x = rng.uniform(-1, 1, n)
                    theta = rng.uniform(-np.pi, np.pi, config.n_parameters())
                    got = run_batch(config, encode(config, x[None]),
                                    theta)[0]
                    want = dense_state(config, x, theta)
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_ring_perm_is_shared_and_read_only(self):
        perm = _ring_perm(4)
        assert _ring_perm(4) is perm
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = 1

    def test_fused_circuit_checks_lengths(self):
        config = QnnConfig(3, ("Y",), True, "basic", 2)
        with pytest.raises(UsageError):
            encode(config, np.zeros((1, 2)))
        with pytest.raises(UsageError):
            run_batch(config, encode(config, np.zeros((1, 3))), np.zeros(5))

    def test_fused_circuit_checks_its_encoding(self):
        # raw features, an encoding for another width or sequence, or
        # one without the re-upload payload that this QNN reads; a
        # layer count of its own is fine
        config = QnnConfig(3, ("Y",), True, "basic", 2)
        theta = np.zeros(6)
        for other in (QnnConfig(4, ("Y",), True), QnnConfig(3, ("X",), True),
                      QnnConfig(3, ("Y",), False)):
            with pytest.raises(UsageError):
                run_batch(config, encode(other, np.zeros((1, other.n_features))),
                          theta)
        with pytest.raises(UsageError):
            run_batch(config, replace(encode(config, np.zeros((1, 3))),
                                      local=()), theta)
        with pytest.raises(UsageError):
            run_batch(config, np.zeros((1, 3)), theta)
        deeper = QnnConfig(3, ("y",), True, "strongly", 5)
        np.testing.assert_array_equal(
            run_batch(config, encode(deeper, np.zeros((1, 3))), theta),
            run_batch(config, encode(config, np.zeros((1, 3))), theta))


class TestChainPrefixes:
    def test_prefixes_equal_chain_products_bit_for_bit(self):
        # the prefixes resolve_fused builds (two broadcast products per
        # rotation) vs _chain_products on the same factors, every prefix
        # of every qubit and layer, signs of zeros included
        rng = np.random.default_rng(25)
        for n in range(2, 9):
            for ansatz in ("basic", "strongly"):
                depth = len(ANSATZ_ROTATIONS[ansatz])
                config = QnnConfig(n, ("Y",), False, ansatz, 3)
                theta = rng.uniform(-np.pi, np.pi, config.n_parameters())
                # exact zeros and sign flips where sin and cos vanish
                theta[::5] = rng.choice([0.0, np.pi, -np.pi], len(theta[::5]))
                chains = resolve_fused(config, encode(config, np.zeros((1, n))),
                                       theta)[1]
                assert chains.shape == (3, n, depth, 2, 2)
                factors = _rotation_factors(ANSATZ_ROTATIONS[ansatz],
                                            theta.reshape(3, n, depth))
                for d in range(depth):
                    got = chains[:, :, d]
                    want = _chain_products(factors[:, :, :d + 1])
                    assert np.array_equal(got, want), (n, ansatz, d)
                    for part in ("real", "imag"):
                        assert np.array_equal(
                            np.signbit(getattr(got, part)),
                            np.signbit(getattr(want, part))), (n, ansatz, d)


class TestLayerPlan:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_unitaries_equal_the_permuted_kronecker_product(self, n):
        # every layer unitary resolve_fused hands out vs _kron of the
        # last chain prefixes with the ring's rows gathered after, by
        # bytes
        rng = np.random.default_rng(40 + n)
        for n_layers in (1, 2, 11, 31):
            for ansatz in ("basic", "strongly"):
                config = QnnConfig(n, ("Y",), False, ansatz, n_layers)
                theta = rng.uniform(-np.pi, np.pi, config.n_parameters())
                # exact zeros and sign flips where sin and cos vanish
                theta[::5] = rng.choice([0.0, np.pi, -np.pi],
                                        len(theta[::5]))
                encoded = encode(config, np.zeros((1, n)))
                ops, chains = resolve_fused(config, encoded, theta)
                want = _kron(chains[:, :, -1])[:, _ring_perm(n)]
                got = np.stack([payload for _, payload in ops])
                assert got.tobytes() == want.tobytes(), (n_layers, ansatz)
                assert all(payload.flags.c_contiguous for _, payload in ops)

    def test_plan_is_cached_and_read_only(self):
        plan = circuit._layer_plan(5, 3)
        assert circuit._layer_plan(5, 3) is plan
        table, factors = plan
        assert not table.flags.writeable
        assert not any(rows.flags.writeable for _, rows, _ in factors)


class TestRunBatch:
    def test_run_is_deterministic(self):
        config = QnnConfig(2, ("Y",), True, "basic", 2)
        X = np.array([[0.2, -0.4]])
        theta = (0.1, 0.2, 0.3, 0.4)
        np.testing.assert_array_equal(
            run_batch(config, encode(config, X), theta),
            run_batch(config, encode(config, X), theta))

    def test_run_batch_matches_scalar_run(self):
        # every row of a batch vs its own dense unitary
        config = QnnConfig(3, ("X", "Y"), True, "strongly", 2)
        rng = np.random.default_rng(22)
        X = rng.uniform(-1, 1, (6, 3))
        theta = rng.uniform(-np.pi, np.pi, config.n_parameters())
        amps = run_batch(config, encode(config, X), theta)
        for i in range(len(X)):
            np.testing.assert_allclose(amps[i], dense_state(config, X[i], theta),
                                       atol=1e-13)


class TestFeatureMapArguments:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            embed("bogus", np.zeros((1, 2)))
        with pytest.raises(ConfigurationError):
            embed("angle", np.zeros((1, 2)), repetitions=0)

    def test_angle_repetitions_stack_blocks(self):
        ops = kernel_gates("angle", np.zeros((1, 2)), repetitions=3)
        assert data_bound_count(ops) == 6


class TestWholeRegisterFeatureMaps:
    """qkernel.embed against the gates reference.kernel_gates writes for
    the same map, and the Hadamard layer of its ZZ maps."""

    def test_only_whole_register_ops(self, monkeypatch):
        # a product map is its product state alone at every count, with
        # no simulator call; a ZZ map hands statevec.apply_ops one
        # Hadamard layer per further count and nothing else
        calls = []

        def spy(amps, n_qubits, ops):
            calls.append((amps.shape, n_qubits, list(ops)))
            real(amps, n_qubits, ops)

        real = qkernel.apply_ops
        monkeypatch.setattr(qkernel, "apply_ops", spy)
        X = np.random.default_rng(25).uniform(-1, 1, (3, 4))
        for reps in (1, 2, 3):
            for kind in ("angle", "z", "zz_a", "zz_b"):
                calls.clear()
                embed(kind, X, reps)
                assert len(calls) == (reps - 1 if kind[:2] == "zz" else 0)
                for shape, n, ops in calls:
                    assert shape == (3, 16) and n == 4
                    [(op, payload)] = ops
                    assert op == "local" and payload is _hadamards(4)

    def test_hadamard_layer_is_one_shared_read_only_matrix(self):
        (layer,) = _hadamards(3)
        assert layer.shape == (1, 8, 8) and not layer.flags.writeable
        np.testing.assert_allclose(layer[0] @ layer[0], np.eye(8),
                                   atol=1e-15)
        assert _hadamards(3)[0] is layer

    @pytest.mark.parametrize("n, hi, lo", [(5, 8, 4), (8, 16, 16),
                                           (13, 128, 64)])
    def test_wide_hadamard_layer_splits_into_halves(self, n, hi, lo):
        # above circuit.LOCAL_DENSE_QUBITS the layer is two small factors,
        # as an encoding block's, never one 2**n x 2**n matrix
        layer = _hadamards(n)
        assert [f.shape for f in layer] == [(1, hi, hi), (1, lo, lo)]
        assert not any(f.flags.writeable for f in layer)

    def test_ops_match_the_gates_they_replace(self):
        # every kind, n = 2..6, r = 1..3: amplitudes of the whole-register
        # ops, every entry of one embed's stack, vs the reference gates
        # run one by one and vs their dense unitary
        rng = np.random.default_rng(26)
        for kind in ("angle", "z", "zz_a", "zz_b"):
            for n in range(2, 7):
                X = rng.uniform(-1, 1, (3, n))
                for reps, got in enumerate(embed(kind, X, 3), start=1):
                    gates = kernel_gates(kind, X, reps)
                    by_gate = zero_states(n, 3)
                    apply_gates(by_gate, n, gates)
                    assert np.max(np.abs(got - by_gate)) <= 1e-13
                    for x, row in zip(X, got):
                        u = reference.circuit_unitary(
                            n, kernel_gates(kind, x, reps))
                        assert np.max(np.abs(row - u[:, 0])) <= 1e-13

    @pytest.mark.parametrize("n", [7, 8])
    def test_wide_zz_maps_match_the_gates_they_replace(self, n):
        rng = np.random.default_rng(27)
        for kind in ("zz_a", "zz_b"):
            X = rng.uniform(-1, 1, (3, n))
            for reps, got in enumerate(embed(kind, X, 3), start=1):
                by_gate = zero_states(n, 3)
                apply_gates(by_gate, n, kernel_gates(kind, X, reps))
                assert np.max(np.abs(got - by_gate)) <= 1e-13
