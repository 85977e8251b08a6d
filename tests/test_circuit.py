import dataclasses
import math

import numpy as np
import pytest

from qmlgrid import reference
from qmlgrid.circuit import (EncodingSpec, angle_encoding,
                             basic_entangling_layer, build_encoding, concat,
                             qnn_circuit, resolve_ops, run_batch,
                             strongly_entangling_layer, z_feature_map,
                             zz_feature_map_variant_a,
                             zz_feature_map_variant_b)
from qmlgrid.errors import ConfigurationError, UsageError


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
        circ = z_feature_map(3, repetitions=2)
        assert data_bound_count(circ) == 6
        assert all(op.binding.scale == 2.0 for op in circ.ops
                   if op.binding is not None)
        assert cnot_count(circ) == 0

    def test_zz_variant_a_uniform_at_zero(self):
        # all angles vanish at x = 0; two H gates leave |++>
        circ = zz_feature_map_variant_a(2)
        s = run_batch(circ, [[0.0, 0.0]])[0]
        assert abs(np.abs(s[0]) ** 2 - 0.25) < 1e-12

    def test_zz_variant_a_cnot_count(self):
        assert cnot_count(zz_feature_map_variant_a(2)) == 2
        assert cnot_count(zz_feature_map_variant_a(4)) == 6
        assert cnot_count(zz_feature_map_variant_a(4, repetitions=3)) == 18

    def test_zz_variant_b_cnot_count(self):
        assert cnot_count(zz_feature_map_variant_b(3)) == 4
        assert cnot_count(zz_feature_map_variant_b(3, repetitions=2)) == 8

    def test_zz_variant_b_pair_angle_uses_shifted_product(self):
        circ = zz_feature_map_variant_b(2)
        pair_ops = [op for op in circ.ops
                    if op.binding is not None and op.binding.kind == "pair"]
        assert len(pair_ops) == 1
        x = np.array([[0.3, -0.8]])
        angle = pair_ops[0].binding.resolve_batch(x, ())[0]
        assert abs(angle - 2 * (math.pi - 0.3) * (math.pi + 0.8)) < 1e-12

    def test_zz_needs_two_features(self):
        with pytest.raises(ConfigurationError):
            zz_feature_map_variant_a(1)


class TestAnsatzLayers:
    def test_basic_layer_shape(self):
        layer = basic_entangling_layer(4)
        assert cnot_count(layer) == 4
        assert layer.n_trainable == 4
        assert [op.kind for op in layer.ops[:4]] == ["rx"] * 4

    def test_two_qubit_ring_collapses_to_one_cnot(self):
        assert cnot_count(basic_entangling_layer(2)) == 1
        assert cnot_count(strongly_entangling_layer(2)) == 1

    def test_fresh_parameter_indices_across_layers(self):
        stacked = concat(basic_entangling_layer(3, 0),
                         basic_entangling_layer(3, 1))
        idx = [op.binding.param for op in stacked.ops
               if op.binding is not None]
        assert idx == [0, 1, 2, 3, 4, 5]
        assert stacked.n_trainable == 6

    def test_strongly_layer_shape(self):
        layer = strongly_entangling_layer(3)
        assert layer.n_trainable == 9
        assert cnot_count(layer) == 3
        assert [op.kind for op in layer.ops[:3]] == ["rz", "ry", "rz"]

    def test_needs_two_qubits(self):
        with pytest.raises(ConfigurationError):
            basic_entangling_layer(1)


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
        # every ansatz x re-upload setting, n = 2..6 and L = 1..3
        sequences = (("Y",), ("X", "Z"), ("Z", "Y", "X"))
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for n_layers in (1, 2, 3):
                for reupload in (False, True):
                    for ansatz in ("basic", "strongly"):
                        circ = qnn_circuit(n, sequences[(n + n_layers) % 3],
                                           reupload, ansatz, n_layers)
                        X = rng.uniform(-1, 1, (3, n))
                        theta = rng.uniform(-np.pi, np.pi, circ.n_trainable)
                        kinds = [op[0] for op in resolve_ops(circ, X, theta)]
                        layer = (["local"] if reupload else []) + ["unitary"]
                        assert kinds == (["product", "unitary"]
                                         + layer * (n_layers - 1))
                        amps = run_batch(circ, X, theta)
                        for x, got in zip(X, amps):
                            gates = reference.concrete_gates(circ, x, theta)
                            want = reference.circuit_unitary(n, gates)[:, 0]
                            assert np.max(np.abs(got - want)) <= 1e-12

    def test_encoding_only_circuits_stay_gate_by_gate(self):
        circ = build_encoding(EncodingSpec("angle", repetitions=2), 3)
        kinds = [op[0] for op in resolve_ops(circ, np.zeros((2, 3)))]
        assert kinds == [op.kind for op in circ.ops]


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


class TestEncodingSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EncodingSpec("bogus")
        with pytest.raises(ConfigurationError):
            EncodingSpec("angle", repetitions=0)

    def test_angle_repetitions_stack_blocks(self):
        spec = EncodingSpec("angle", repetitions=3)
        circ = build_encoding(spec, 2)
        assert data_bound_count(circ) == 6
