"""Reference classifiers: logistic regression, CART tree, random forest.

All three honor the same class weighting as the quantum models: a sample
of class c carries weight class_weights[c] in the loss / impurity, and
ties in votes or leaf counts resolve to class 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, UsageError


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise UsageError(f"bad training data shapes: {X.shape}, {y.shape}")
    if not np.all(np.isin(y, (0, 1))):
        raise UsageError("labels must be 0/1")
    return X, y


# ---------------------------------------------------------------- logistic

@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    losses: list


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# gradient steps whose losses are computed in one pass
LOSS_BLOCK = 50


def fit_logistic(X, y, class_weights=(1.0, 1.0)) -> LogisticModel:
    """Full-batch gradient descent from zero weights, no regularization:
    1000 steps at learning rate 0.1. Aborts if the weighted loss
    increases 10 iterations in a row.

    Only that check reads the losses, so the steps of a block of
    LOSS_BLOCK keep their clipped probabilities, and the block's losses
    are computed in one pass and checked in step order; a diverging fit
    raises at the same iteration and loss as a check after every step."""
    X, y = _check_xy(X, y)
    w = np.zeros(X.shape[1])
    b = 0.0
    sw = np.asarray(class_weights, dtype=np.float64)[y]
    n = len(y)
    losses = []
    rising = 0
    probs = np.empty((LOSS_BLOCK, n))
    for first in range(0, 1000, LOSS_BLOCK):
        for p in probs:
            np.clip(_sigmoid(X @ w + b), 1e-12, 1.0 - 1e-12, out=p)
            residual = sw * (p - y)
            w = w - 0.1 * (X.T @ residual) / n
            b = b - 0.1 * float(residual.sum()) / n
        block = np.mean(
            -sw * (y * np.log(probs) + (1 - y) * np.log(1 - probs)), axis=1)
        for it, loss in enumerate(block.tolist(), start=first):
            if losses and loss > losses[-1]:
                rising += 1
                if rising >= 10:
                    raise TrainingDivergedError(
                        f"loss rose for 10 straight iterations (iteration "
                        f"{it}, loss {loss:.6g}); lower the learning rate")
            else:
                rising = 0
            losses.append(loss)
    return LogisticModel(w, b, losses)


def predict_logistic(model: LogisticModel, X) -> np.ndarray:
    p = _sigmoid(np.asarray(X, dtype=np.float64) @ model.weights + model.bias)
    return (p >= 0.5).astype(int)


# ------------------------------------------------------------ tree, forest

STEP_ROWS = 1 << 14     # rows x candidate features per step; bounds memory


@dataclass
class ForestModel:
    """One or more trees as flat node arrays. Node i sends a row left when
    row[feature[i]] <= threshold[i]; a leaf has feature -1 and is its own
    left and right child. roots[t] is tree t's root. Every node carries
    the weighted-majority label of its training samples (exact tie: 1)."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray

    def n_splits(self) -> int:
        return int(np.count_nonzero(self.feature >= 0))


@functools.lru_cache(maxsize=16)
def _mass_tables(w0: float, w1: float, m: int) -> tuple:
    """(totals, prefixes), each (2, m + 1) and read-only: the weight of j
    samples of class c (weight wc), j = 0..m, from the float operations
    of a node-by-node CART. A node total is numpy's pairwise .sum() of j
    copies of the class weight; a cut's left mass is the sequential
    np.cumsum of j copies."""
    cw = np.array([w0, w1])
    totals = np.array([[np.full(j, c).sum() for j in range(m + 1)]
                       for c in cw])
    prefixes = np.zeros((2, m + 1))
    prefixes[:, 1:] = np.cumsum(np.repeat(cw[:, None], m, axis=1), axis=1)
    totals.flags.writeable = prefixes.flags.writeable = False
    return totals, prefixes


def _node_gini(t0, t1) -> np.ndarray:
    """Gini impurity of nodes with class masses t0, t1, bit for bit as
    `1 - frac @ frac` on one node: a (1, 2) @ (2, 1) product per node
    takes numpy's vector dot too, where an elementwise f0*f0 + f1*f1 can
    differ in the last bit."""
    grand = t0 + t1
    frac = np.stack([t0 / grand, t1 / grand], axis=1)
    return 1.0 - (frac.reshape(-1, 1, 2) @ frac.reshape(-1, 2, 1)).ravel()


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values of a nonempty a begins."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def _best_splits(y, order, tables, tree, lo, size, n_ones, feats) -> tuple:
    """(feature, threshold) of the best cut of each open node, feature -1
    where no candidate feature has two distinct values.

    One group per (node, candidate feature). All groups are scored at
    once: their rows sort by (group, value rank, class), integer class
    counts of every prefix look up their weights, and every cut between
    distinct values gets its Gini gain. A group keeps its first best
    cut; a node keeps its first candidate that beats the ones before it
    by more than 1e-15."""
    values, ranks, totals, prefixes = tables
    n_open, n_feats = feats.shape
    width = values.shape[1]
    gsize = np.repeat(size, n_feats)
    gend = np.cumsum(gsize)
    gstart = gend - gsize
    group = np.repeat(np.arange(len(gsize)), gsize)
    at = np.arange(len(group)) - gstart[group]
    at += np.repeat(lo, n_feats)[group]
    rows = order[np.repeat(tree, n_feats)[group], at]
    del at      # the dels and in-place ops keep a step's peak memory low
    key = ranks[feats.ravel()[group], rows]
    key += group * width
    key <<= 1
    key += y[rows]
    del rows
    key.sort()
    ones = key & 1
    head = ones[gstart]
    np.cumsum(ones, out=ones)
    ones -= (ones[gstart] - head)[group]      # class-1 rows so far
    rank = np.remainder(key >> 1, width, out=key)
    valid = np.zeros(len(key), dtype=bool)
    valid[:-1] = rank[:-1] != rank[1:]
    valid[gend - 1] = False
    cut = np.flatnonzero(valid)
    del valid
    chosen = np.full(n_open, -1)
    threshold = np.zeros(n_open)
    if not cut.size:
        return chosen, threshold

    t0, t1 = totals[0, size - n_ones], totals[1, n_ones]
    grand = t0 + t1
    parent = _node_gini(t0, t1)
    g = group[cut]
    s = g // n_feats
    left1 = prefixes[1, ones[cut]]
    left0 = prefixes[0, cut - gstart[g] + 1 - ones[cut]]
    del group, ones
    ls = left0 + left1
    rs = grand[s] - ls
    right0 = t0[s] - left0
    right1 = t1[s] - left1
    gini_l = 1.0 - (left0 ** 2 + left1 ** 2) / ls ** 2
    gini_r = 1.0 - (right0 ** 2 + right1 ** 2) / rs ** 2
    gain = parent[s] - (ls * gini_l + rs * gini_r) / grand[s]

    opens = _run_starts(g)
    run = np.cumsum(opens) - 1
    top = np.maximum.reduceat(gain, np.flatnonzero(opens))
    hits = np.flatnonzero(gain == top[run])
    first = hits[_run_starts(run[hits])]
    g, i = g[first], cut[first]
    feat = feats.ravel()[g]
    has = np.zeros(n_open * n_feats, dtype=bool)
    has[g] = True
    best = np.zeros(n_open * n_feats)
    best[g] = top
    mids = np.zeros(n_open * n_feats)
    mids[g] = 0.5 * (values[feat, rank[i]] + values[feat, rank[i + 1]])
    has, best, mids = (a.reshape(n_open, n_feats) for a in (has, best, mids))
    score = np.zeros(n_open)
    for f in range(n_feats):
        take = has[:, f] & ((chosen < 0) | (best[:, f] > score + 1e-15))
        chosen[take] = f
        score[take] = best[take, f]
        threshold[take] = mids[take, f]
    found = chosen >= 0
    chosen[found] = feats[found, chosen[found]]
    return chosen, threshold


def _partition(X, y, order, tree, lo, size, feat, thr) -> tuple:
    """Move the rows of each node that go left (x[feat] <= thr) to the
    front of its slice order[tree, lo:lo + size]. Returns the number of
    rows and of class-1 rows that go left, per node."""
    part = np.repeat(np.arange(len(size)), size)
    start = np.cumsum(size) - size
    offset = np.arange(len(part)) - start[part]
    rows = order[tree[part], lo[part] + offset]
    go = X[rows, feat[part]] <= thr[part]
    lefts = np.cumsum(go)
    lefts -= (lefts - go)[start][part]        # left rows so far
    n_left = np.add.reduceat(go.astype(np.int64), start)
    ones_left = np.add.reduceat(go & (y[rows] == 1), start, dtype=np.int64)
    offset = np.where(go, lefts - 1, n_left[part] + offset - lefts)
    order[tree[part], lo[part] + offset] = rows
    return n_left, ones_left


def _candidates(rng, d: int, k: int, n: int) -> np.ndarray:
    """(n, k): n successive np.sort(rng.choice(d, k, replace=False)) from
    one rng.integers call, which leaves rng where those calls would.
    For d <= 10000, choice runs Floyd's algorithm: for j = d-k .. d-1 it
    draws t in [0, j] and keeps t, or j if t is kept already. It then
    shuffles the k picks, drawing in [0, i] for i = k-1 .. 1; sorting
    undoes the shuffle, so only its draws count."""
    bounds = np.concatenate([np.arange(d - k, d), np.arange(k - 1, 0, -1)])
    draws = rng.integers(0, np.tile(bounds, n), endpoint=True)
    picks = draws.reshape(n, 2 * k - 1)[:, :k].copy()
    for s in range(1, k):
        pick = picks[:, s]
        kept = picks[:, 0] == pick
        for r in range(1, s):
            kept |= picks[:, r] == pick
        pick[kept] = d - k + s
    picks.sort(axis=1)
    return picks


def _grow(X, y, class_weights, samples, candidates=None) -> ForestModel:
    """CART with weighted Gini, one tree per row of `samples` (row indices
    into X, repeats allowed), grown until leaves are pure or no split
    helps.

    With `candidates` (n_trees, draws, k), tree t visits its nodes
    depth-first in pre-order and scores its i-th node on the features
    candidates[t, i], as a node-by-node recursion drawing them from the
    tree's rng would. A step takes the next node of each tree, in tree
    order, until their rows times candidate features would pass
    STEP_ROWS (at least one node). Without `candidates` every feature is
    a candidate, node order does not matter, and a step takes every
    open node of each tree under the same bound. Each step scores its
    nodes with _best_splits and partitions their rows in place: a node
    owns a slice of its tree's row of `order`, lefts first after its
    split."""
    n_trees, m = samples.shape
    d = X.shape[1]
    uniques = [np.unique(X[:, f], return_inverse=True) for f in range(d)]
    values = np.zeros((d, max([len(u) for u, _ in uniques], default=0)))
    ranks = np.empty((d, len(X)), dtype=np.int64)
    for f, (u, inverse) in enumerate(uniques):
        values[f, :len(u)] = u
        ranks[f] = inverse
    totals, prefixes = _mass_tables(*map(float, class_weights), m)
    tables = (values, ranks, totals, prefixes)

    capacity = n_trees * max(2 * m - 1, 1)
    feature = np.empty(capacity, dtype=np.int64)
    threshold = np.empty(capacity)
    left = np.empty(capacity, dtype=np.int64)
    right = np.empty(capacity, dtype=np.int64)
    label = np.empty(capacity, dtype=np.int64)
    n_ones = np.empty(capacity, dtype=np.int64)

    def add_leaves(ids, n, n1) -> list:
        """Store new nodes as leaves; True where a node is impure."""
        feature[ids] = -1
        threshold[ids] = 0.0
        left[ids] = right[ids] = ids
        n_ones[ids] = n1
        t0, t1 = totals[0, n - n1], totals[1, n1]
        label[ids] = t1 >= t0
        return (np.minimum(t0, t1) > 0.0).tolist()

    order = samples.copy()
    roots = np.arange(n_trees)
    impure = add_leaves(roots, m, y[samples].sum(axis=1))
    # open nodes per tree as (id, lo, hi): the node owns order[t, lo:hi]
    stacks = [[(t, 0, m)] if impure[t] else [] for t in range(n_trees)]
    n_feats = d if candidates is None else candidates.shape[2]
    drawn = np.zeros(n_trees, dtype=np.int64)
    n_nodes = n_trees
    while True:
        opened, work = [], 0
        for t, stack in enumerate(stacks):
            while stack:
                _, lo, hi = stack[-1]
                work += (hi - lo) * n_feats
                if opened and work > STEP_ROWS:
                    break
                opened.append((t,) + stack.pop())
                if candidates is not None:
                    break
            if work > STEP_ROWS:
                break
        if not opened:
            break
        tree, node, lo, hi = np.array(opened).T
        size = hi - lo
        if candidates is None:
            feats = np.broadcast_to(np.arange(d), (len(node), d))
        else:
            feats = candidates[tree, drawn[tree]]
            drawn[tree] += 1
        feat, thr = _best_splits(y, order, tables, tree, lo, size,
                                 n_ones[node], feats)
        split = np.flatnonzero(feat >= 0)
        tree, node, lo, size, feat, thr = (
            a[split] for a in (tree, node, lo, size, feat, thr))
        n_left, ones_left = _partition(X, y, order, tree, lo, size,
                                       feat, thr)
        # the midpoint of two adjacent floats can round onto the upper
        # one and leave the right child empty: then the node stays a leaf
        split = n_left < size
        tree, node, lo, size, feat, thr, n_left, ones_left = (
            a[split] for a in (tree, node, lo, size, feat, thr, n_left,
                               ones_left))
        ids = n_nodes + 2 * np.arange(len(node))
        n_nodes += 2 * len(node)
        feature[node], threshold[node] = feat, thr
        left[node], right[node] = ids, ids + 1
        open_left = add_leaves(ids, n_left, ones_left)
        open_right = add_leaves(ids + 1, size - n_left,
                                n_ones[node] - ones_left)
        # pre-order: the left child is popped first
        for t, i, a, b, c, go_left, go_right in zip(
                tree.tolist(), ids.tolist(), lo.tolist(),
                (lo + n_left).tolist(), (lo + size).tolist(),
                open_left, open_right):
            if go_right:
                stacks[t].append((i + 1, b, c))
            if go_left:
                stacks[t].append((i, a, b))
    return ForestModel(feature[:n_nodes].copy(), threshold[:n_nodes].copy(),
                       left[:n_nodes].copy(), right[:n_nodes].copy(),
                       label[:n_nodes].copy(), roots)


def fit_tree(X, y, class_weights=(1.0, 1.0)) -> ForestModel:
    """One CART tree (weighted Gini, grown until leaves are pure or no
    split helps) on every row, every feature a candidate at every split."""
    X, y = _check_xy(X, y)
    return _grow(X, y, class_weights, np.arange(len(y))[None, :])


def fit_forest(X, y, class_weights=(1.0, 1.0), seed: int = 0) -> ForestModel:
    """100 bagged trees: same-size bootstrap resamples, ceil(sqrt(d))
    feature candidates per split, per-tree rng derived from the seed.
    Each tree's rng draws its resample, then the candidates of as many
    nodes as the tree can score; nothing reads the rng after that.

    A scored node is impure, so it holds two distinct resample rows, and
    rows with one index never part. A node of r distinct rows therefore
    roots at most r - 1 scored nodes: one if it stays a leaf (r >= 2),
    else 1 + (r_left - 1) + (r_right - 1) by induction. Entries past a
    tree's bound stay unset and unread."""
    X, y = _check_xy(X, y)
    n, d = X.shape
    k = math.ceil(math.sqrt(d))
    samples = np.empty((100, n), dtype=np.int64)
    candidates = None
    if k < d:
        candidates = np.empty((100, n, k), dtype=np.int16)
    for t in range(100):
        rng = np.random.default_rng([seed, t])
        samples[t] = rng.integers(0, n, n)
        if candidates is not None:
            scored = np.count_nonzero(np.bincount(samples[t])) - 1
            candidates[t, :scored] = _candidates(rng, d, k, scored)
    return _grow(X, y, class_weights, samples, candidates)


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Majority vote of the trees, an exact tie resolving to class 1 (so a
    one-tree model from fit_tree predicts its leaf labels). Every (row,
    tree) pair walks down together, one level per pass, and a pass steps
    only the pairs still at an inner node."""
    X = np.asarray(X, dtype=np.float64)
    n_trees = len(model.roots)
    at = np.tile(model.roots, len(X))       # pair p: row p // n_trees
    start = np.repeat(np.arange(len(X)) * X.shape[1], n_trees)
    flat = X.ravel()
    live = np.flatnonzero(model.feature[at] >= 0)
    while live.size:
        node = at[live]
        step = np.where(flat[start[live] + model.feature[node]]
                        <= model.threshold[node],
                        model.left[node], model.right[node])
        at[live] = step
        live = live[model.feature[step] >= 0]
    ones = model.label[at].reshape(len(X), n_trees).sum(axis=1)
    return (2 * ones >= n_trees).astype(int)
