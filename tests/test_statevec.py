import numpy as np
import pytest

from qmlgrid import reference
from qmlgrid.errors import ConfigurationError, UsageError
from qmlgrid.qkernel import _H
from qmlgrid.reference import apply_gates, expectation_z_batch, zero_states
from qmlgrid.statevec import apply_ops, product_states
from qmlgrid.verify import random_gates


def gate(kind, targets, angle=None):
    return (kind, targets, angle)


def run_gates(n_qubits, gates, start=None):
    """Amplitudes after reference.apply_gates on a batch of one, from
    |0...0> or start."""
    if start is None:
        amps = zero_states(n_qubits, 1)
    else:
        amps = np.array([start], dtype=np.complex128)
    apply_gates(amps, n_qubits, gates)
    return amps[0]


class TestKnownStates:
    def test_h_then_cnot_gives_bell_state(self):
        s = run_gates(2, [gate("h", (0,)), gate("cnot", (0, 1))])
        h = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(s, [h, 0, 0, h], atol=1e-15)

    def test_rx_pi_flips_with_minus_i(self):
        s = run_gates(1, [gate("rx", (0,), np.pi)])
        np.testing.assert_allclose(s, [0, -1j], atol=1e-15)

    def test_ry_half_pi(self):
        s = run_gates(1, [gate("ry", (0,), np.pi / 2)])
        np.testing.assert_allclose(
            s, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15)

    def test_rz_adds_opposite_half_phases(self):
        s = run_gates(1, [gate("h", (0,)), gate("rz", (0,), 0.7)])
        h = np.sqrt(0.5)
        expected = [h * np.exp(-0.35j), h * np.exp(0.35j)]
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_phase_differs_from_rz_by_global_phase(self):
        theta = 1.3
        via_phase = run_gates(1, [gate("h", (0,)), gate("phase", (0,), theta)])
        via_rz = run_gates(1, [gate("h", (0,)), gate("rz", (0,), theta)])
        np.testing.assert_allclose(via_phase,
                                   np.exp(1j * theta / 2) * via_rz, atol=1e-14)

    def test_cnot_qubit0_is_least_significant(self):
        # |q1 q0> = |01> has index 1; CNOT(0 -> 1) maps it to |11> = index 3
        s = run_gates(2, [gate("cnot", (0, 1))], start=[0, 1, 0, 0])
        np.testing.assert_allclose(s, [0, 0, 0, 1], atol=1e-15)

    def test_cz_flips_sign_only_on_11(self):
        s = run_gates(2, [gate("cz", (0, 1))], start=[0.5] * 4)
        np.testing.assert_allclose(s, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_expectation_z_plus_state_is_zero(self):
        s = run_gates(1, [gate("h", (0,))])
        assert abs(expectation_z_batch(s[None], 1, 0)[0]) < 1e-15

    def test_expectation_z_basis_states(self):
        assert expectation_z_batch(zero_states(3, 1), 3, 1)[0] == 1.0
        s = run_gates(3, [gate("rx", (1,), np.pi)])[None]
        assert abs(expectation_z_batch(s, 3, 1)[0] + 1.0) < 1e-12
        assert abs(expectation_z_batch(s, 3, 0)[0] - 1.0) < 1e-12

    def test_ground_state_probability(self):
        s = run_gates(2, [gate("h", (0,))])
        assert abs(np.abs(s[0]) ** 2 - 0.5) < 1e-15


class TestValidation:
    def test_qubit_count_bounds(self):
        with pytest.raises(ConfigurationError):
            product_states(np.ones((1, 0, 2)))
        with pytest.raises(ConfigurationError):
            product_states(np.ones((1, 25, 2)))

    def test_unknown_kind(self):
        # apply_ops runs whole-register ops only; gates are refused
        for kind in ("t", "h", "cnot"):
            with pytest.raises(UsageError):
                apply_ops(zero_states(2, 1), 2, [(kind, None)])

    def test_product_is_not_an_op(self):
        # a product state opens a circuit through product_states only
        with pytest.raises(UsageError):
            apply_ops(zero_states(2, 1), 2,
                      [("product", np.full((1, 2, 2), 0.5 ** 0.5))])


def product_loop(columns):
    """The product state as apply_ops built it before product_states: a
    |0...0> buffer overwritten by the product of the columns."""
    batch, n = columns.shape[:2]
    amps = zero_states(n, batch)
    state = columns[:, n - 1]
    for q in range(n - 2, -1, -1):
        state = (state[:, :, None] * columns[:, q, None, :]).reshape(
            batch, -1)
    amps[:] = state
    return amps


class TestProductStates:
    def test_equals_the_overwritten_zero_buffer_bit_for_bit(self):
        # random columns at n = 1..8, as contiguous arrays and as the
        # strided first-column views that encodings hold
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            for batch in (1, 5, 33):
                chains = (rng.normal(size=(batch, n, 2, 2))
                          + 1j * rng.normal(size=(batch, n, 2, 2)))
                for columns in (chains[..., 0], chains[..., 0].copy()):
                    got = product_states(columns)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, product_loop(columns))

    @pytest.mark.parametrize("n", [1, 4, 8, 13])
    def test_plus_states_of_the_zz_maps(self, n):
        # the |+...+> columns a ZZ feature map opens with; n = 13 is the
        # widest kernel width in the grids
        columns = np.full((3, n, 2), _H[0, 0])
        got = product_states(columns)
        assert np.array_equal(got, product_loop(columns))
        assert np.allclose(got, 2.0 ** (-n / 2))

    @pytest.mark.parametrize("n", [1, 3])
    def test_fresh_writeable_buffer_from_read_only_columns(self, n):
        columns = np.full((2, n, 2), 0.5 ** 0.5, dtype=np.complex128)
        columns.flags.writeable = False
        got = product_states(columns)
        assert got.flags.writeable and not np.shares_memory(got, columns)
        got[:] = 0.0
        assert np.all(columns == 0.5 ** 0.5)


class TestWholeRegisterOps:
    def test_one_local_matrix_serves_every_row(self):
        rng = np.random.default_rng(16)
        amps = rng.normal(size=(5, 4)) + 0j
        u = rng.normal(size=(1, 4, 4)) + 0j
        want = amps @ u[0].T
        apply_ops(amps, 2, [("local", (u,))])
        np.testing.assert_allclose(amps, want, atol=1e-14)


class TestAgainstUnitaryOracle:
    def test_random_circuits_match_kron_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            gates = random_gates(rng, n, int(rng.integers(1, 51)))
            got = run_gates(n, gates)
            want = reference.circuit_unitary(n, gates)[:, 0]
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            s = run_gates(n, random_gates(rng, n, 40))
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-12


class TestBatchedEngine:
    def test_batch_matches_per_sample_loop(self):
        # per-sample angles in one batch vs one dense unitary per sample
        rng = np.random.default_rng(13)
        n, batch = 3, 7
        ops = [("ry", (0,), rng.uniform(-3, 3, batch)),
               ("h", (1,), None),
               ("rz", (2,), rng.uniform(-3, 3, batch)),
               ("cnot", (0, 2), None),
               ("rx", (1,), 0.4),
               ("phase", (2,), rng.uniform(-3, 3, batch)),
               ("cz", (1, 2), None)]
        amps = zero_states(n, batch)
        apply_gates(amps, n, ops)
        for b in range(batch):
            gates = [gate(kind, targets,
                          angle if angle is None or np.isscalar(angle)
                          else float(angle[b]))
                     for kind, targets, angle in ops]
            want = reference.circuit_unitary(n, gates)[:, 0]
            np.testing.assert_allclose(amps[b], want, atol=1e-13)

    def test_batch_readouts(self):
        # RY(theta) on qubit 0 then CNOT(0 -> 1): <Z_0> = <Z_1> = cos(theta)
        theta = np.random.default_rng(14).uniform(-3, 3, 5)
        amps = zero_states(2, 5)
        apply_gates(amps, 2, [("ry", (0,), theta), ("cnot", (0, 1), None)])
        np.testing.assert_allclose(expectation_z_batch(amps, 2, 0),
                                   np.cos(theta), atol=1e-14)
        np.testing.assert_allclose(expectation_z_batch(amps, 2, 1),
                                   np.cos(theta), atol=1e-14)
