"""Weighted soft-margin SVM on a precomputed kernel matrix.

Labels are -1/+1 (+1 is class 1 throughout the package). Class weighting
enters through per-sample box constraints C_i = class_weights[class_i].
The dual, written as a minimisation with Q = yy^T * K,

    min  1/2 a^T Q a - sum(a)
    s.t. 0 <= a_i <= C_i,  sum(a_i y_i) = 0

is solved by SMO with maximal-violating-pair working sets. The solver
keeps the gradient G = Q a - 1 as g = -y * G. I_up holds the samples
whose a_t y_t may still grow within the box, I_low those whose a_t y_t
may still shrink. Each step takes i as the largest g over I_up and j
over I_low by the second-order rule: with b = g_i - g_j > 0 and
eta = K_ii + K_jj - 2 K_ij, j minimises -b^2 / eta. It then makes the
clipped two-variable step and updates g from kernel columns i and j.
The solver stops when m - M <= TOL, where m is the largest g over I_up
and M the smallest over I_low. Free samples lie in both sets, so the
bias from their mean leaves every KKT violation <= TOL.
`SvmModel.sweeps` counts these steps.

A step costs a few passes over n-vectors. As LIBSVM's alpha_status
does, the solver keeps I_up and I_low between steps and updates them
only at i and j, the two samples whose a moved. Its state is two
buffers, updated in place by the same step: up is g on I_up and -inf
off it, low is g on I_low and +inf off it. Every box is > 0, so every
sample is in I_up or I_low and its g is the finite one of up and low.
m and M are read straight off the buffers. Every ufunc gets array or
np.float64 operands (a zero buffer for the clamp, m as read off up,
lam as np.float64): they give the bits of the Python-float forms at a
smaller call cost. Kernel columns are rows of one contiguous copy of
K^T, so the solver makes no symmetry assumption. The floored curvature
row eta of an i is built the first time i is picked and kept for the
rest of the solve: a solve picks far fewer distinct i than it takes
steps (about 60 in 180 on a heart_failure QSVM Gram), and a full n x n
table would mostly hold rows it never reads. j is the first argmax of
max(b, 0)^2 / eta with b = m - low: entries off I_low or with b <= 0
score 0, and while m - M > TOL > 0 some entry of I_low has b > TOL, so
this is the first index the direct rule picks. The step is clipped and
the memberships updated on Python floats. The iterates (alphas, bias,
steps) are bit for bit those of `reference.solve_dual_mvp`, which keeps
g and rebuilds every set each step.

References: Keerthi et al., "Improvements to Platt's SMO algorithm for
SVM classifier design", Neural Computation 13 (2001); Fan, Chen & Lin,
"Working set selection using second order information for training
support vector machines", JMLR 6 (2005); Chang & Lin, "LIBSVM: a
library for support vector machines", ACM TIST 2 (2011).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

KERNEL_KINDS = ("linear", "poly3", "rbf", "sigmoid")

# the solver stops once the largest KKT violation m - M is at most TOL
TOL = 1e-4

# curvature floor for pairs with K_ii + K_jj - 2 K_ij <= 0 (non-PSD kernels)
_TAU = 1e-12

# an alpha within SV_TOL of 0 or of its box sits at that bound
SV_TOL = 1e-8


def kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Classical kernels k(a_i, b_j) with gamma = 1 / n_features:
    linear a.b, poly3 (gamma a.b)^3, rbf exp(-gamma |a - b|^2) and
    sigmoid tanh(gamma a.b)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise UsageError(f"bad kernel operands: {A.shape} / {B.shape}")
    gamma = 1.0 / A.shape[1]
    if kind == "linear":
        return A @ B.T
    if kind == "poly3":
        return (gamma * (A @ B.T)) ** 3
    if kind == "rbf":
        sq = (np.sum(A ** 2, axis=1)[:, None] + np.sum(B ** 2, axis=1)[None, :]
              - 2.0 * (A @ B.T))
        return np.exp(-gamma * np.maximum(sq, 0.0))
    if kind == "sigmoid":
        return np.tanh(gamma * (A @ B.T))
    raise UsageError(f"unknown kernel kind {kind!r}")


@dataclass
class SvmProblem:
    gram: np.ndarray
    labels: np.ndarray          # -1 / +1
    class_weights: tuple = (1.0, 1.0)   # (class 0, class 1): the boxes

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        n = self.labels.size
        if self.gram.shape != (n, n):
            raise UsageError(
                f"gram shape {self.gram.shape} does not match {n} labels")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise UsageError("labels must be -1/+1")
        if not ((self.labels > 0).any() and (self.labels < 0).any()):
            raise UsageError("need both classes to train")
        if not np.all(np.isfinite(self.gram)):
            raise UsageError("gram has non-finite entries")
        if np.shape(self.class_weights) != (2,):
            raise UsageError("class weights must be a pair (class 0, "
                             f"class 1), not {self.class_weights}")
        # solve_dual puts every sample in I_up or I_low, which needs C_i > 0
        if not all(np.isfinite(w) and w > 0 for w in self.class_weights):
            raise UsageError("class weights must be finite and positive, "
                             f"not {self.class_weights}")

    def box(self) -> np.ndarray:
        return np.where(self.labels > 0, self.class_weights[1],
                        self.class_weights[0])


@dataclass
class SvmModel:
    alphas: np.ndarray
    bias: float
    labels: np.ndarray
    support: np.ndarray = field(default=None)
    converged: bool = True
    sweeps: int = 0

    def __post_init__(self):
        if self.support is None:
            self.support = np.flatnonzero(self.alphas > 1e-10)


def solve_dual(problem: SvmProblem, max_iter: int | None = None) -> SvmModel:
    """Maximal-violating-pair SMO on the dual. Returns the last iterate
    with converged=False if max_iter steps (default max(10000, 100 n))
    did not close the gap m - M to TOL; refuses a negative max_iter."""
    k = problem.gram
    y = problem.labels
    box = problem.box()
    n = y.size
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    elif max_iter < 0:
        raise UsageError(f"max_iter must be >= 0, not {max_iter}")
    cols = np.ascontiguousarray(k.T)    # cols[t] is column t of k
    diag = k.diagonal().copy()
    pos = y > 0
    # up is g on I_up and -inf off it, low is g on I_low and +inf off
    # it; at a = 0, g = y and a positive sample is in I_up only, a
    # negative one in I_low only
    up = np.where(pos, y, -np.inf)
    low = np.where(pos, np.inf, y)
    a = [0.0] * n
    y_f, box_f, pos_f = y.tolist(), box.tolist(), pos.tolist()
    work = np.empty(n)
    zero = np.zeros(n)
    curvature = {}      # i -> its floored row of K_ii + K_jj - 2 K_ij
    converged = False
    steps = 0
    while True:
        i = int(up.argmax())
        m_up = up[i]
        if m_up - low[low.argmin()] <= TOL:
            converged = True
            break
        if steps == max_iter:
            break
        steps += 1
        k_i = cols[i]
        curv = curvature.get(i)
        if curv is None:
            curv = np.add(diag, diag[i])
            curv -= np.add(k_i, k_i, out=work)
            # curv[i] is K_ii + K_ii - 2 K_ii = 0; floor the rest if needed
            curv[i] = _TAU
            if not curv[curv.argmin()] > 0.0:
                curv = np.where(curv > zero, curv, _TAU)
            curvature[i] = curv
        # max(gain, 0)^2 / curv is 0 off I_low and for gain <= 0, so its
        # first argmax is the first argmin of -gain^2 / curv over
        # I_low & (gain > 0): that set holds a gain > TOL once m - M > TOL
        np.subtract(m_up, low, out=work)
        np.maximum(work, zero, out=work)
        np.square(work, out=work)
        work /= curv
        j = int(work.argmax())
        # a_i moves by y_i * lam and a_j by -y_j * lam, each towards the
        # bound named by its label; the step keeps sum(a * y) fixed
        a_i, a_j, box_i, box_j = a[i], a[j], box_f[i], box_f[j]
        pos_i, pos_j = pos_f[i], pos_f[j]
        to_i = box_i if pos_i else 0.0
        to_j = 0.0 if pos_j else box_j
        room_i, room_j = abs(to_i - a_i), abs(to_j - a_j)
        lam = float(m_up - low[j]) / float(curv[j])
        if room_i < lam:
            lam = room_i
        if room_j < lam:
            lam = room_j
        a_i = a[i] = to_i if lam == room_i else a_i + y_f[i] * lam
        a_j = a[j] = to_j if lam == room_j else a_j - y_f[j] * lam
        np.subtract(k_i, cols[j], out=work)
        np.multiply(work, np.float64(lam), out=work)
        up -= work
        low -= work
        # only a_i and a_j moved, so only their memberships can change;
        # i was in I_up and j in I_low, so g_i is up[i] and g_j is low[j]
        g_i, g_j = up[i], low[j]
        below, above = a_i < box_i, a_i > 0.0
        if not (below if pos_i else above):
            up[i] = -np.inf
        low[i] = g_i if (above if pos_i else below) else np.inf
        below, above = a_j < box_j, a_j > 0.0
        if not (above if pos_j else below):
            low[j] = np.inf
        up[j] = g_j if (below if pos_j else above) else -np.inf

    a = np.array(a)
    bias = _final_bias(k, y, a, box)
    return SvmModel(alphas=a, bias=bias, labels=y.copy(),
                    converged=converged, sweeps=steps)


def _final_bias(k, y, a, box) -> float:
    # average over free support vectors; with none, midpoint of the
    # interval the KKT conditions leave feasible
    f = k @ (a * y)
    g = y - f
    free = (a > SV_TOL) & (a < box - SV_TOL)
    if free.any():
        return float(g[free].mean())
    lower = g[((y > 0) & (a <= SV_TOL)) | ((y < 0) & (a >= box - SV_TOL))]
    upper = g[((y > 0) & (a >= box - SV_TOL)) | ((y < 0) & (a <= SV_TOL))]
    if lower.size and upper.size:
        return 0.5 * (float(lower.max()) + float(upper.min()))
    return 0.0


def kkt_violation(problem: SvmProblem, model: SvmModel) -> float:
    """Largest violation of the optimality conditions; <= TOL at a solution."""
    y = problem.labels
    box = problem.box()
    margins = y * (problem.gram @ (model.alphas * y) + model.bias)
    at_zero = model.alphas <= SV_TOL
    at_box = model.alphas >= box - SV_TOL
    free = ~at_zero & ~at_box
    worst = 0.0
    if at_zero.any():
        worst = max(worst, float(np.max(1.0 - margins[at_zero], initial=0.0)))
    if at_box.any():
        worst = max(worst, float(np.max(margins[at_box] - 1.0, initial=0.0)))
    if free.any():
        worst = max(worst, float(np.max(np.abs(margins[free] - 1.0))))
    return worst


def decision_function(model: SvmModel, kernel_rows: np.ndarray) -> np.ndarray:
    """kernel_rows[i, j] = k(x_i, train_j) for the points to score. A row
    with a non-finite entry gets a non-finite value (0 * inf and 0 * NaN
    are NaN), so refusing those values refuses such rows in a pass over
    the rows, not over every entry."""
    kernel_rows = np.asarray(kernel_rows, dtype=np.float64)
    if kernel_rows.ndim != 2 or kernel_rows.shape[1] != model.alphas.size:
        raise UsageError(
            f"kernel rows shape {kernel_rows.shape} does not match "
            f"{model.alphas.size} training points")
    values = kernel_rows @ (model.alphas * model.labels) + model.bias
    if not np.isfinite(values).all():
        raise UsageError("kernel rows give non-finite decision values")
    return values


def predict(model: SvmModel, kernel_rows: np.ndarray) -> np.ndarray:
    """-1/+1 labels; a decision value of exactly zero goes to +1."""
    return np.where(decision_function(model, kernel_rows) >= 0.0, 1.0, -1.0)
