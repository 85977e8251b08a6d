import numpy as np
import pytest

from qmlgrid import reference
from qmlgrid.circuit import feature_map
from qmlgrid.errors import UsageError
from qmlgrid.qkernel import cross_gram, embed, gram_matrix

# (kind, repetitions) of every QSVM grid encoding
ALL_ENCODINGS = [(kind, reps) for kind in ("angle", "z", "zz_a", "zz_b")
                 for reps in (1, 2, 3)]


def kernel_value(enc, x, y):
    """The dense-unitary oracle for one kernel entry."""
    return reference.kernel_value(feature_map(enc[0], len(x), enc[1]), x, y)


def embed_rows(enc, X):
    return embed(feature_map(enc[0], X.shape[1], enc[1]), X)


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
        for enc in (("angle", 2), ("z", 2), ("zz_a", 1), ("zz_b", 2)):
            X = rng.uniform(-1, 1, (5, 2))
            gram = gram_matrix(embed_rows(enc, X))
            for i in range(5):
                for j in range(5):
                    assert abs(gram[i, j] - kernel_value(enc, X[i], X[j])) < 1e-12

    def test_gram_properties(self):
        rng = np.random.default_rng(35)
        for enc in ALL_ENCODINGS:
            X = rng.uniform(-1, 1, (12, 3))
            gram = gram_matrix(embed_rows(enc, X))
            assert np.all(np.diag(gram) == 1.0)
            np.testing.assert_array_equal(gram, gram.T)
            assert gram.min() >= 0.0 and gram.max() <= 1.0 + 1e-12
            assert np.linalg.eigvalsh(gram)[0] >= -1e-8

    def test_cross_gram_consistent_with_gram(self):
        enc = feature_map("zz_b", 2)
        rng = np.random.default_rng(36)
        X = rng.uniform(-1, 1, (6, 2))
        full = gram_matrix(embed(enc, X))
        rect = cross_gram(embed(enc, X[:2]), embed(enc, X[2:]))
        np.testing.assert_allclose(rect, full[:2, 2:], atol=1e-12)

    def test_cross_gram_checks_dimensions(self):
        with pytest.raises(UsageError):
            cross_gram(embed(feature_map("angle", 3), np.zeros((2, 3))),
                       embed(feature_map("angle", 2), np.zeros((2, 2))))
