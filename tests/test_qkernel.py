import math

import numpy as np
import pytest

from qmlgrid import reference
from qmlgrid.circuit import _chain_products, _rotation_factors
from qmlgrid.errors import UsageError
from qmlgrid.qkernel import (FEATURE_MAPS, _H, _hadamards, _zz_diagonal,
                             cross_gram, embed, gram_matrix)
from qmlgrid.statevec import apply_ops, product_states

# (kind, repetitions) of every QSVM grid encoding
ALL_ENCODINGS = [(kind, reps) for kind in ("angle", "z", "zz_a", "zz_b")
                 for reps in (1, 2, 3)]


def kernel_value(enc, x, y):
    """The dense-unitary oracle for one kernel entry."""
    return reference.kernel_value(enc[0], enc[1], x, y)


def embed_rows(enc, X):
    """The states at the encoding's repetition count: the last entry of
    embed's stack."""
    return embed(enc[0], X, enc[1])[-1]


def closed_form_angle_y(x, y):
    # one feature, single RY(pi * x): overlap is cos(pi (x - y) / 2)
    return np.cos(np.pi * (x - y) / 2.0) ** 2


class TestKernelValue:
    def test_matches_closed_form_single_feature(self):
        enc = ("angle", 1)
        rng = np.random.default_rng(31)
        for _ in range(25):
            x, y = rng.uniform(-1, 1, 2)
            got = kernel_value(enc, [x], [y])
            assert abs(got - closed_form_angle_y(x, y)) < 1e-12

    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(32)
        for enc in ALL_ENCODINGS:
            x = rng.uniform(-1, 1, 3)
            assert abs(kernel_value(enc, x, x) - 1.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        for enc in ALL_ENCODINGS:
            x, y = rng.uniform(-1, 1, (2, 3))
            assert abs(kernel_value(enc, x, y) - kernel_value(enc, y, x)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            kernel_value(("angle", 1), [0.1, 0.2], [0.1])


class TestGram:
    def test_gram_matches_pairwise_kernel_value(self):
        # embedding route vs the dense-unitary oracle
        rng = np.random.default_rng(34)
        for kind, most in (("angle", 2), ("z", 2), ("zz_a", 1), ("zz_b", 2)):
            X = rng.uniform(-1, 1, (5, 2))
            for reps, states in enumerate(embed(kind, X, most), start=1):
                gram = gram_matrix(states)
                for i in range(5):
                    for j in range(5):
                        want = kernel_value((kind, reps), X[i], X[j])
                        assert abs(gram[i, j] - want) < 1e-12

    def test_gram_properties(self):
        rng = np.random.default_rng(35)
        for enc in ALL_ENCODINGS:
            X = rng.uniform(-1, 1, (12, 3))
            gram = gram_matrix(embed_rows(enc, X))
            assert np.all(np.diag(gram) == 1.0)
            np.testing.assert_array_equal(gram, gram.T)
            assert gram.min() >= 0.0 and gram.max() <= 1.0 + 1e-12
            assert np.linalg.eigvalsh(gram)[0] >= -1e-8

    def test_in_place_mirror_equals_the_triu_formula(self):
        # the mirror as it was: upper triangle plus its transpose, where
        # u + 0.0 == u keeps every entry
        rng = np.random.default_rng(37)
        for n in (1, 2, 5, 12, 33):
            for enc in ALL_ENCODINGS:
                states = embed_rows(enc, rng.uniform(-1, 1, (n, 3)))
                gram = np.abs(states @ states.conj().T) ** 2
                upper = np.triu(gram, k=1)
                want = upper + upper.T
                np.fill_diagonal(want, 1.0)
                got = gram_matrix(states)
                assert got.tobytes() == want.tobytes(), (n, enc)

    def test_cross_gram_consistent_with_gram(self):
        rng = np.random.default_rng(36)
        X = rng.uniform(-1, 1, (6, 2))
        full = gram_matrix(embed("zz_b", X)[-1])
        rect = cross_gram(embed("zz_b", X[:2])[-1], embed("zz_b", X[2:])[-1])
        np.testing.assert_allclose(rect, full[:2, 2:], atol=1e-12)

    def test_cross_gram_checks_dimensions(self):
        with pytest.raises(UsageError):
            cross_gram(embed("angle", np.zeros((2, 3)))[-1],
                       embed("angle", np.zeros((2, 2)))[-1])

    @pytest.mark.parametrize("enc", ALL_ENCODINGS,
                             ids=[f"{k}-r{r}" for k, r in ALL_ENCODINGS])
    def test_no_rows_embed_to_no_states(self, enc):
        assert embed(enc[0], np.zeros((0, 3)), enc[1]).shape == (
            enc[1], 0, 8)


class TestStackedEmbedding:
    # A grid embeds the val, train and test rows of a k stacked, in one
    # embed per cell. Each split's slice must equal a fresh embed of that
    # split alone, bit for bit: it assumes the phases are accumulated
    # elementwise, that np.cos / np.sin give a row the same bits whatever
    # the batch length, and that the ZZ Hadamard layer multiplies each
    # row on its own: one matrix-vector product, or above
    # circuit.LOCAL_DENSE_QUBITS a high and a low factor (a shared gemm
    # rounds a row by its place in the batch).
    @pytest.mark.parametrize("sizes", [(4, 16, 8), (5, 13, 7), (47, 180, 1)],
                             ids=["on-4", "off-4", "heart-failure"])
    def test_extended_stack_equals_fresh_per_split_embeds(self, sizes):
        rng = np.random.default_rng(38)
        for kind in ("angle", "z", "zz_a", "zz_b"):
            for n in range(2, 9):
                parts = [rng.uniform(-1, 1, (m, n)) for m in sizes]
                cuts = np.cumsum(sizes)[:-1]
                for reps in (1, 2, 3):
                    states = embed(kind, np.concatenate(parts), reps)
                    for X, got in zip(parts, np.split(states, cuts, axis=1)):
                        want = embed(kind, X, reps)
                        assert got.tobytes() == want.tobytes(), (kind, n,
                                                                  reps)


def one_pass(kind, X, reps):
    """The embedding at `reps` repetitions built as it was before embed
    went on from the previous count: a product map's chains as one
    product over all reps blocks, a ZZ map's states as one buffer from
    |+...+> taken through D, then (H, D) reps - 1 times in place, with
    D the diagonal embed reads from _zz_diagonal."""
    if kind not in ("zz_a", "zz_b"):
        if kind == "angle":
            block = _rotation_factors(("ry",), math.pi * X[:, :, None])
        else:
            rotation = _rotation_factors((FEATURE_MAPS[kind][0],),
                                         2.0 * X[:, :, None])
            block = np.concatenate(
                [np.broadcast_to(_H, rotation.shape), rotation], axis=2)
        chains = _chain_products(np.concatenate([block] * reps, axis=2))
        return product_states(chains[..., 0])
    n = X.shape[1]
    diagonal = _zz_diagonal(kind, X)
    amps = product_states(np.full((len(X), n, 2), _H[0, 0])) * diagonal
    for _ in range(reps - 1):
        apply_ops(amps, n, [("local", _hadamards(n))])
        amps *= diagonal
    return amps


class TestRepetitionStack:
    # embed's entry r - 1 goes on from entry r - 2: a product map's
    # chains by one more block, a ZZ map's states by one more Hadamard
    # layer and diagonal. Every entry must keep the bits of the one-pass
    # form, which assumes a row gets the same bits whether its chain or
    # state goes on from a stored repetition or starts afresh; the signs
    # of zeros count too, so features hold exact zeros and +-1
    def test_entries_equal_the_one_pass_form(self):
        rng = np.random.default_rng(39)
        for n in range(2, 7):
            X = rng.uniform(-1, 1, (16, n))
            X[:3] = np.array([0.0, 1.0, -1.0])[:, None]
            exact = rng.random(X[3:].shape) < 0.4
            X[3:][exact] = rng.choice([0.0, 1.0, -1.0], size=exact.sum())
            for kind in ("angle", *FEATURE_MAPS):
                stack = embed(kind, X, 3)
                assert stack.shape == (3, 16, 1 << n)
                assert not stack.flags.writeable
                for reps, got in enumerate(stack, start=1):
                    want = one_pass(kind, X, reps)
                    for part in (np.real, np.imag):
                        np.testing.assert_array_equal(part(got), part(want))
                        np.testing.assert_array_equal(
                            np.signbit(part(got)), np.signbit(part(want)),
                            err_msg=f"{kind} n={n} r={reps}")
