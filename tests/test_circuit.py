import dataclasses
import math

import numpy as np
import pytest

from qmlgrid import reference
from qmlgrid.circuit import (ANSATZ_ROTATIONS, CircuitSpec, ParamBinding,
                             angle_encoding, entangling_layer, feature_map,
                             qnn_circuit, resolve_ops, run_batch)
from qmlgrid.errors import ConfigurationError, UsageError
from qmlgrid.fusion import qnn_blocks


def cnot_count(circ):
    return sum(1 for op in circ.ops if op.kind == "cnot")


def data_bound_count(circ):
    return sum(1 for op in circ.ops
               if op.binding is not None and op.binding.kind in ("data", "pair"))


class TestEncodings:
    def test_angle_encoding_identity_at_zero(self):
        circ = angle_encoding(3, ("Z",))
        s = run_batch(circ, [[0.0, 0.0, 0.0]])[0]
        assert abs(np.abs(s[0]) ** 2 - 1.0) < 1e-12

    def test_angle_encoding_scale_is_pi(self):
        circ = angle_encoding(1, ("Y",))
        x = 0.37
        s = run_batch(circ, [[x]])[0]
        np.testing.assert_allclose(
            s, [np.cos(np.pi * x / 2), np.sin(np.pi * x / 2)],
            atol=1e-14)

    def test_angle_encoding_sequence_order(self):
        circ = angle_encoding(2, ("X", "Z", "Y"))
        kinds = [op.kind for op in circ.ops]
        assert kinds == ["rx", "rx", "rz", "rz", "ry", "ry"]

    def test_angle_sequence_validation(self):
        with pytest.raises(ConfigurationError):
            angle_encoding(2, ())
        with pytest.raises(ConfigurationError):
            angle_encoding(2, ("X", "X"))
        with pytest.raises(ConfigurationError):
            angle_encoding(2, ("Q",))

    def test_z_feature_map_structure(self):
        circ = feature_map("z", 3, repetitions=2)
        assert data_bound_count(circ) == 6
        assert all(op.binding.scale == 2.0 for op in circ.ops
                   if op.binding is not None)
        assert cnot_count(circ) == 0

    def test_zz_variant_a_uniform_at_zero(self):
        # all angles vanish at x = 0; two H gates leave |++>
        circ = feature_map("zz_a", 2)
        s = run_batch(circ, [[0.0, 0.0]])[0]
        assert abs(np.abs(s[0]) ** 2 - 0.25) < 1e-12

    def test_zz_variant_a_cnot_count(self):
        assert cnot_count(feature_map("zz_a", 2)) == 2
        assert cnot_count(feature_map("zz_a", 4)) == 6
        assert cnot_count(feature_map("zz_a", 4, repetitions=3)) == 18

    def test_zz_variant_b_cnot_count(self):
        assert cnot_count(feature_map("zz_b", 3)) == 4
        assert cnot_count(feature_map("zz_b", 3, repetitions=2)) == 8

    def test_zz_variant_b_pair_angle_uses_shifted_product(self):
        circ = feature_map("zz_b", 2)
        pair_ops = [op for op in circ.ops
                    if op.binding is not None and op.binding.kind == "pair"]
        assert len(pair_ops) == 1
        x = np.array([[0.3, -0.8]])
        angle = pair_ops[0].binding.resolve_batch(x, ())[0]
        assert abs(angle - 2 * (math.pi - 0.3) * (math.pi + 0.8)) < 1e-12

    def test_zz_needs_two_features(self):
        with pytest.raises(ConfigurationError):
            feature_map("zz_a", 1)


def op_list(circ):
    return [(op.kind, op.targets, op.binding) for op in circ.ops]


def data(q, scale):
    return ParamBinding.data(q, scale=scale)


def pair(shift):
    return ParamBinding("pair", scale=2.0, feature=0, feature2=1, shift=shift)


train = ParamBinding.train


class TestExactOps:
    """Each table row written out gate by gate."""

    def test_z_map_two_repetitions(self):
        block = [("h", (0,), None), ("h", (1,), None),
                 ("rz", (0,), data(0, 2.0)), ("rz", (1,), data(1, 2.0))]
        assert op_list(feature_map("z", 2, 2)) == block * 2

    def test_zz_a_map(self):
        assert op_list(feature_map("zz_a", 2)) == [
            ("h", (0,), None), ("h", (1,), None),
            ("rz", (0,), data(0, 2.0)), ("rz", (1,), data(1, 2.0)),
            ("cnot", (0, 1), None),
            ("rz", (1,), pair(0.0)),
            ("cnot", (0, 1), None)]

    def test_zz_b_map(self):
        assert op_list(feature_map("zz_b", 2)) == [
            ("h", (0,), None), ("h", (1,), None),
            ("phase", (0,), data(0, 2.0)), ("phase", (1,), data(1, 2.0)),
            ("cnot", (0, 1), None),
            ("phase", (1,), pair(math.pi)),
            ("cnot", (0, 1), None)]

    def test_reuploading_strongly_circuit(self):
        circ = qnn_circuit(2, ("Y",), True, "strongly", 2)
        encoding = [("ry", (0,), data(0, math.pi)),
                    ("ry", (1,), data(1, math.pi))]
        layers = [[("rz", (0,), train(b)), ("ry", (0,), train(b + 1)),
                   ("rz", (0,), train(b + 2)), ("rz", (1,), train(b + 3)),
                   ("ry", (1,), train(b + 4)), ("rz", (1,), train(b + 5)),
                   ("cnot", (0, 1), None)] for b in (0, 6)]
        assert op_list(circ) == (encoding + layers[0]) + (encoding + layers[1])
        assert (circ.n_qubits, circ.n_features, circ.n_trainable) == (2, 2, 12)

    def test_unknown_ansatz_rejected(self):
        assert set(ANSATZ_ROTATIONS) == {"basic", "strongly"}
        with pytest.raises(ConfigurationError):
            entangling_layer(3, 0, "weak")
        with pytest.raises(ConfigurationError):
            qnn_circuit(3, ("Y",), False, "weak", 2)


class TestAnsatzLayers:
    def test_basic_layer_shape(self):
        layer = entangling_layer(4, 0, "basic")
        assert cnot_count(layer) == 4
        assert layer.n_trainable == 4
        assert [op.kind for op in layer.ops[:4]] == ["rx"] * 4

    def test_two_qubit_ring_collapses_to_one_cnot(self):
        assert cnot_count(entangling_layer(2, 0, "basic")) == 1
        assert cnot_count(entangling_layer(2, 0, "strongly")) == 1

    def test_fresh_parameter_indices_across_layers(self):
        second = entangling_layer(3, 1, "basic")
        stacked = CircuitSpec(
            3, entangling_layer(3, 0, "basic").ops + second.ops,
            n_trainable=second.n_trainable)
        idx = [op.binding.param for op in stacked.ops
               if op.binding is not None]
        assert idx == [0, 1, 2, 3, 4, 5]
        assert stacked.n_trainable == 6

    def test_strongly_layer_shape(self):
        layer = entangling_layer(3, 0, "strongly")
        assert layer.n_trainable == 9
        assert cnot_count(layer) == 3
        assert [op.kind for op in layer.ops[:3]] == ["rz", "ry", "rz"]

    def test_needs_two_qubits(self):
        with pytest.raises(ConfigurationError):
            entangling_layer(1, 0, "basic")


class TestQnnCircuit:
    def test_parameter_counts(self):
        assert qnn_circuit(2, ("X", "Z", "Y"), True, "strongly", 6).n_trainable == 36
        assert qnn_circuit(3, ("Y",), False, "basic", 4).n_trainable == 12

    def test_reupload_repeats_encoding_block(self):
        per_block = data_bound_count(angle_encoding(3, ("Y", "X")))
        once = qnn_circuit(3, ("Y", "X"), False, "basic", 5)
        many = qnn_circuit(3, ("Y", "X"), True, "basic", 5)
        assert data_bound_count(once) == per_block
        assert data_bound_count(many) == 5 * per_block

    def test_run_matches_unitary_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            circ = qnn_circuit(2, ("Y", "Z"), bool(rng.integers(2)),
                               ("basic", "strongly")[rng.integers(2)],
                               int(rng.integers(1, 4)))
            x = rng.uniform(-1, 1, 2)
            theta = rng.uniform(-np.pi, np.pi, circ.n_trainable)
            got = run_batch(circ, x[None], theta)[0]
            want = reference.circuit_unitary(
                2, reference.concrete_gates(circ, x, theta))[:, 0]
            assert np.max(np.abs(got - want)) < 1e-10


class TestFusion:
    def test_qnn_circuits_fuse_and_match_unitary_reference(self):
        # every ansatz x re-upload setting, n = 2..6 and L = 1..3: the
        # fused blocks built from the config vs the dense unitary of the
        # gate list qnn_circuit writes out
        sequences = (("Y",), ("X", "Z"), ("Z", "Y", "X"))
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for n_layers in (1, 2, 3):
                for reupload in (False, True):
                    for ansatz in ("basic", "strongly"):
                        sequence = sequences[(n + n_layers) % 3]
                        circ = qnn_circuit(n, sequence, reupload, ansatz,
                                           n_layers)
                        fused = qnn_blocks(n, sequence, reupload,
                                           ANSATZ_ROTATIONS[ansatz], n_layers)
                        assert fused.n_trainable == circ.n_trainable
                        X = rng.uniform(-1, 1, (3, n))
                        theta = rng.uniform(-np.pi, np.pi, circ.n_trainable)
                        kinds = [op[0] for op in fused.resolve(X, theta)]
                        layer = (["local"] if reupload else []) + ["unitary"]
                        assert kinds == (["product", "unitary"]
                                         + layer * (n_layers - 1))
                        amps = run_batch(fused, X, theta)
                        for x, got in zip(X, amps):
                            gates = reference.concrete_gates(circ, x, theta)
                            want = reference.circuit_unitary(n, gates)[:, 0]
                            assert np.max(np.abs(got - want)) <= 1e-12

    def test_encoding_only_circuits_stay_gate_by_gate(self):
        circ = feature_map("angle", 3, repetitions=2)
        kinds = [op[0] for op in resolve_ops(circ, np.zeros((2, 3)))]
        assert kinds == [op.kind for op in circ.ops]

    def test_fused_circuit_checks_lengths(self):
        fused = qnn_blocks(3, ("Y",), True, ANSATZ_ROTATIONS["basic"], 2)
        with pytest.raises(UsageError):
            run_batch(fused, np.zeros((1, 2)), np.zeros(6))
        with pytest.raises(UsageError):
            run_batch(fused, np.zeros((1, 3)), np.zeros(5))


class TestBindAndRun:
    def test_bind_is_deterministic(self):
        circ = qnn_circuit(2, ("Y",), True, "basic", 2)
        X = np.array([[0.2, -0.4]])
        theta = (0.1, 0.2, 0.3, 0.4)
        np.testing.assert_array_equal(run_batch(circ, X, theta),
                                      run_batch(circ, X, theta))

    def test_bind_checks_lengths(self):
        circ = angle_encoding(2)
        with pytest.raises(UsageError):
            run_batch(circ, [[0.1]])
        with pytest.raises(UsageError):
            run_batch(circ, [[0.1, 0.2]], (0.5,))
        with pytest.raises(UsageError):
            reference.concrete_gates(circ, (0.1,))

    def test_run_batch_matches_scalar_run(self):
        # every row of a batch vs its own dense unitary
        circ = qnn_circuit(3, ("X", "Y"), True, "strongly", 2)
        rng = np.random.default_rng(22)
        X = rng.uniform(-1, 1, (6, 3))
        theta = rng.uniform(-np.pi, np.pi, circ.n_trainable)
        amps = run_batch(circ, X, theta)
        for i in range(len(X)):
            want = reference.circuit_unitary(
                3, reference.concrete_gates(circ, X[i], theta))[:, 0]
            np.testing.assert_allclose(amps[i], want, atol=1e-13)

    def test_spec_is_immutable(self):
        circ = angle_encoding(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            circ.n_qubits = 3

    def test_out_of_range_binding_rejected(self):
        with pytest.raises(ConfigurationError):
            bad = angle_encoding(2)
            dataclasses.replace(bad, n_features=1)


class TestFeatureMapArguments:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            feature_map("bogus", 2)
        with pytest.raises(ConfigurationError):
            feature_map("angle", 2, repetitions=0)

    def test_angle_repetitions_stack_blocks(self):
        circ = feature_map("angle", 2, repetitions=3)
        assert data_bound_count(circ) == 6
