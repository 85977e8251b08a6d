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

from .errors import UsageError
from .pipeline import feature_matrix, weight_pair, zero_one


def _check_xy(X, y, class_weights):
    """X, y and the class weights as arrays, once each is known to fit:
    at least one row, and features, labels and weights as
    pipeline.feature_matrix, zero_one and weight_pair take them."""
    X, y = feature_matrix(X), zero_one(y)
    if y.ndim != 1 or len(X) != len(y):
        raise UsageError(f"bad training data shapes: {X.shape}, {y.shape}")
    if not len(y):
        raise UsageError("no training rows")
    return X, y, weight_pair(class_weights)


# ---------------------------------------------------------------- logistic

@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    converged: bool
    steps: int


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


TOL = 1e-8          # max |gradient| of the weighted mean log-loss at a fit
MAX_STEPS = 50      # Newton steps
MAX_HALVINGS = 30   # of one Newton step, before the fit gives up
ROUNDOFF = 16 * np.finfo(np.float64).eps    # of the loss, relative


def fit_logistic(X, y, class_weights=(1.0, 1.0)) -> LogisticModel:
    """Newton's method (IRLS) on the weighted mean log-loss, from zero
    weights, no regularization; a singular Hessian takes its least-squares
    step. A step is halved until the loss does not rise or, where it rises
    by no more than its round-off (ROUNDOFF of it), until max |gradient|
    falls. The fit converges at max |gradient| <= TOL. It stops
    unconverged at MAX_STEPS, after MAX_HALVINGS halvings, or at the first
    weights that strictly separate the classes: such rows have no finite
    optimum, and only saturated probabilities would take their gradient
    below TOL. No weights separate rows that are not separable."""
    X, y, class_weights = _check_xy(X, y, class_weights)
    k = X.shape[1]
    design = np.ones((len(y), k + 1))    # bias column last
    design[:, :k] = X
    scaled = np.empty_like(design)
    sw = class_weights[y] / len(y)

    def at(theta) -> tuple:
        """(theta, margins, loss, probabilities, gradient, max |gradient|)"""
        z = design @ theta
        p = _sigmoid(z)
        grad = design.T @ (sw * (p - y))
        margin = np.where(y, z, -z)     # z signed by each row's label
        return (theta, margin, sw @ np.logaddexp(0.0, -margin), p, grad,
                np.abs(grad).max())

    theta, margin, loss, p, grad, size = at(np.zeros(k + 1))
    for steps in range(MAX_STEPS + 1):
        if (margin > 0.0).all():
            break
        if size <= TOL:
            return LogisticModel(theta[:k], float(theta[k]), True, steps)
        if steps == MAX_STEPS:
            break
        np.multiply(design, (sw * p * (1.0 - p))[:, None], out=scaled)
        hessian = design.T @ scaled
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        for halving in range(MAX_HALVINGS + 1):
            trial = at(theta - 0.5 ** halving * step)
            rise = trial[2] - loss
            if rise <= 0.0 or (rise <= ROUNDOFF * loss and trial[5] < size):
                break
        else:
            break
        theta, margin, loss, p, grad, size = trial
    return LogisticModel(theta[:k], float(theta[k]), False, steps)


def predict_logistic(model: LogisticModel, X) -> np.ndarray:
    X = feature_matrix(X)
    if X.shape[1] != len(model.weights):
        raise UsageError(f"rows of shape {X.shape} do not fit a model "
                         f"reading {len(model.weights)} columns")
    p = _sigmoid(X @ model.weights + model.bias)
    return (p >= 0.5).astype(int)


# ------------------------------------------------------------ tree, forest

STEP_ROWS = 1 << 14     # entries x candidate features per step; bounds memory
COUNT_SHIFT = 32        # packed counts: class-1 rows above COUNT_SHIFT, rows below
_COUNT_MASK = (1 << COUNT_SHIFT) - 1


@dataclass
class ForestModel:
    """n_trees trees as flat node arrays; node t is tree t's root. Split
    node i sends a row to left[i] when row[feature[i]] <= threshold[i],
    else to left[i] + 1. A leaf has feature -1 and left -1. Every node
    carries the weighted-majority label of its training samples (exact
    tie: 1)."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    label: np.ndarray
    n_trees: int

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


def _masses(table, counts) -> tuple:
    """The class-0 and class-1 entries of a (2, m + 1) table at packed
    counts: resample rows below COUNT_SHIFT, class-1 rows above."""
    ones = counts >> COUNT_SHIFT
    return table[0].take((counts & _COUNT_MASK) - ones), table[1].take(ones)


def _gini(c0, c1, total) -> np.ndarray:
    """1 - (c0 ** 2 + c1 ** 2) / total ** 2, overwriting c0 and c1."""
    np.square(c0, out=c0)
    np.square(c1, out=c1)
    c0 += c1
    c0 /= np.square(total, out=c1)
    return np.subtract(1.0, c0, out=c0)


def _best_splits(order, tables, tree, lo, size, counts, feats,
                 bits) -> tuple:
    """(feature, threshold) of the best cut of each open node, feature -1
    where no candidate feature has two distinct values.

    A node owns distinct rows, each an entry of `order` that packs the
    row, its label and its multiplicity (see _grow); `size` counts its
    entries, and `counts` holds its packed resample and class-1 rows.
    One group per (node, candidate feature). All groups are scored at
    once: their entries sort by (group, value rank, label,
    multiplicity); one cumsum of the packed counts that `masses` gives
    each entry's low bits yields the resample rows and class-1 rows of
    every prefix, whose weights are looked up in turn; and every cut
    between distinct values gets its Gini gain. A group keeps its first
    best cut; a node keeps its first candidate that beats the ones
    before it by more than 1e-15."""
    values, ranks, totals, prefixes, masses = tables
    n_open, n_feats = feats.shape
    n_groups = n_open * n_feats
    width = values.shape[1]
    low = (1 << bits) - 1
    gsize = np.repeat(size, n_feats)
    gend = np.cumsum(gsize)
    gstart = gend - gsize
    # each group's node slice, and then its (feature, row) ranks, by
    # flat index
    at = np.repeat(np.repeat(tree * order.shape[1] + lo, n_feats) - gstart,
                   gsize)
    at += np.arange(len(at))
    packed = order.take(at)
    at = np.repeat(feats.ravel() * ranks.shape[1], gsize)
    at += packed >> bits
    key = ranks.take(at)
    del at      # the dels and in-place ops keep a step's peak memory low
    key += np.repeat(np.arange(n_groups) * width, gsize)
    key <<= bits
    packed &= low
    key |= packed
    del packed
    key.sort()
    # (class-1 rows << COUNT_SHIFT) + rows, so far in the step
    sofar = np.cumsum(masses[key & low])
    key >>= bits        # group * width + value rank
    valid = np.zeros(len(key), dtype=bool)
    np.not_equal(key[:-1], key[1:], out=valid[:-1])
    valid[gend - 1] = False
    cut = np.flatnonzero(valid)
    del valid
    chosen = np.full(n_open, -1)
    threshold = np.zeros(n_open)
    if not cut.size:
        return chosen, threshold

    # group g's cuts are cut[first[g]:first[g] + n_cuts[g]]
    first = np.searchsorted(cut, gstart)
    n_cuts = np.searchsorted(cut, gend - 1) - first
    t0, t1 = _masses(totals, counts)
    grand = t0 + t1
    parent = _node_gini(t0, t1)
    per_node = n_cuts.reshape(n_open, n_feats).sum(axis=1)
    t0, t1, grand, parent = (np.repeat(a, per_node)
                             for a in (t0, t1, grand, parent))
    whole = np.repeat(counts, n_feats)
    left = sofar[cut]
    del sofar
    left -= np.repeat(np.cumsum(whole) - whole, n_cuts)
    left0, left1 = _masses(prefixes, left)
    del left
    # the recursion's Gini gain, op for op, in place where a value is
    # not read again
    ls = left0 + left1
    rs = grand - ls
    right0 = np.subtract(t0, left0, out=t0)
    right1 = np.subtract(t1, left1, out=t1)
    gini_l = _gini(left0, left1, ls)
    gini_r = _gini(right0, right1, rs)
    ls *= gini_l
    rs *= gini_r
    ls += rs
    ls /= grand
    gain = np.subtract(parent, ls, out=parent)

    has = n_cuts > 0
    best = np.zeros(n_groups)
    best[has] = np.maximum.reduceat(gain, first[has])
    hits = np.flatnonzero(gain == np.repeat(best, n_cuts))
    i = cut[hits[np.searchsorted(hits, first[has])]]
    g = np.flatnonzero(has)
    feat = feats.ravel()[g]
    mids = np.zeros(n_groups)
    mids[g] = 0.5 * (values[feat, key[i] - g * width]
                     + values[feat, key[i + 1] - g * width])
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


def _partition(X, order, masses, tree, lo, size, feat, thr, bits) -> tuple:
    """Move the entries of each node whose rows go left (x[feat] <= thr)
    to the front of its slice order[tree, lo:lo + size]. Returns the
    number of entries (distinct rows) and the packed counts that go
    left, per node."""
    start = np.cumsum(size) - size
    first = tree * order.shape[1] + lo      # flat index of each slice
    at = np.repeat(first - start, size)
    at += np.arange(len(at))
    packed = order.take(at)
    rows = packed >> bits
    rows *= X.shape[1]
    rows += np.repeat(feat, size)
    go = X.take(rows) <= np.repeat(thr, size)
    del rows
    n_left = np.add.reduceat(go, start, dtype=np.int64)
    counts = np.add.reduceat(masses[packed & ((1 << bits) - 1)] * go, start)
    lefts = np.cumsum(go)                   # left entries so far
    before = lefts[start] - go[start]
    # lefts to the front of their slice, rights after them, in step order
    at += np.repeat(n_left + before, size)
    at -= lefts
    lefts += np.repeat(first - before - 1, size)
    order.ravel()[np.where(go, lefts, at)] = packed   # order is C-contiguous
    return n_left, counts


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


def _check_packing(groups: int, width: int, bits: int, rows: int) -> None:
    """Refuse a step whose packed int64s could overflow. Its sort keys
    reach (groups * width << bits) - 1; its packed counts add up to rows
    resample rows over all groups, below and above COUNT_SHIFT."""
    if (groups * width) << bits > 1 << 63 or rows >> (63 - COUNT_SHIFT):
        raise UsageError(
            f"a tree-growing step of {groups} (node, feature) groups, "
            f"{width} distinct values and {rows} resample rows overflows "
            f"int64; use fewer rows or features")


def _grow(X, y, class_weights, mult, candidates=None) -> ForestModel:
    """CART with weighted Gini, one tree per row of `mult` (tree t's
    resample holds row j of X mult[t, j] times), grown until leaves are
    pure or no split helps.

    A tree owns only its distinct rows. Each is one int64 entry of
    `order`, (row << bits) | (label << S) | multiplicity, where S =
    m.bit_length() holds any multiplicity of the longest resample, m
    rows, and bits = S + 1. A node has two sizes: its entries (distinct
    rows), which its slice and the step budget count, and its resample
    rows, which its masses count; the latter are packed with its class-1
    rows in one int64, class-1 rows above COUNT_SHIFT. Cuts fall only
    between distinct values, and every mass is a table lookup at integer
    resample counts, so the trees are those grown on the resample rows
    themselves.

    With `candidates` (n_trees, draws, k), tree t visits its nodes
    depth-first in pre-order and scores its i-th node on the features
    candidates[t, i], as a node-by-node recursion drawing them from the
    tree's rng would. A step takes the next node of each tree, in tree
    order, until their entries times candidate features would pass
    STEP_ROWS (at least one node). Without `candidates` every feature is
    a candidate, node order does not matter, and a step takes every
    open node of each tree under the same bound. Each step scores its
    nodes with _best_splits and partitions their entries in place: a
    node owns a slice of its tree's row of `order`, lefts first after
    its split."""
    X = np.ascontiguousarray(X)     # _partition reads it by flat index
    n_trees, n = mult.shape
    d = X.shape[1]
    uniques = [np.unique(X[:, f], return_inverse=True) for f in range(d)]
    values = np.zeros((d, max([len(u) for u, _ in uniques], default=0)))
    ranks = np.empty((d, len(X)), dtype=np.int64)
    for f, (u, inverse) in enumerate(uniques):
        values[f, :len(u)] = u
        ranks[f] = inverse
    width = values.shape[1]
    resample = mult.sum(axis=1)
    m = int(resample.max(initial=0))
    bits = m.bit_length() + 1
    # a low-bits entry (label << S) | multiplicity -> its packed counts
    tail = np.arange(1 << bits)
    masses = tail % (1 << (bits - 1))
    masses += (masses * (tail >> (bits - 1))) << COUNT_SHIFT
    totals, prefixes = _mass_tables(*map(float, class_weights), m)
    tables = (values, ranks, totals, prefixes, masses)

    distinct = np.count_nonzero(mult, axis=1)
    r = int(distinct.max(initial=0))
    order = np.zeros((n_trees, r), dtype=np.int64)
    entries = (np.arange(n) << bits) | (y << (bits - 1)) | mult
    order[np.arange(r) < distinct[:, None]] = entries[mult > 0]
    del entries

    capacity = n_trees * max(2 * r - 1, 1)
    feature = np.empty(capacity, dtype=np.int64)
    threshold = np.empty(capacity)
    left = np.empty(capacity, dtype=np.int64)
    label = np.empty(capacity, dtype=np.int64)
    counts = np.empty(capacity, dtype=np.int64)

    def add_leaves(ids, packed) -> list:
        """Store new nodes with packed counts as leaves; True where a
        node is impure."""
        feature[ids] = -1
        threshold[ids] = 0.0
        left[ids] = -1
        counts[ids] = packed
        t0, t1 = _masses(totals, packed)
        label[ids] = t1 >= t0
        return (np.minimum(t0, t1) > 0.0).tolist()

    impure = add_leaves(np.arange(n_trees),
                        resample + ((mult @ y) << COUNT_SHIFT))
    # open nodes per tree as (id, lo, hi): the node owns order[t, lo:hi]
    stacks = [[(t, 0, r_t)] if impure[t] else []
              for t, r_t in enumerate(distinct.tolist())]
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
        _check_packing(len(node) * n_feats, width, bits,
                       int((counts[node] & _COUNT_MASK).sum()) * n_feats)
        if candidates is None:
            feats = np.broadcast_to(np.arange(d), (len(node), d))
        else:
            feats = candidates[tree, drawn[tree]]
            drawn[tree] += 1
        feat, thr = _best_splits(order, tables, tree, lo, size, counts[node],
                                 feats, bits)
        split = np.flatnonzero(feat >= 0)
        tree, node, lo, size, feat, thr = (
            a[split] for a in (tree, node, lo, size, feat, thr))
        n_left, counts_left = _partition(X, order, masses, tree, lo, size,
                                         feat, thr, bits)
        # the midpoint of two adjacent floats can round onto the upper
        # one and leave the right child empty: then the node stays a leaf
        split = n_left < size
        tree, node, lo, size, feat, thr, n_left, counts_left = (
            a[split] for a in (tree, node, lo, size, feat, thr, n_left,
                               counts_left))
        ids = n_nodes + 2 * np.arange(len(node))
        n_nodes += 2 * len(node)
        feature[node], threshold[node] = feat, thr
        left[node] = ids
        open_left = add_leaves(ids, counts_left)
        open_right = add_leaves(ids + 1, counts[node] - counts_left)
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
                       left[:n_nodes].copy(), label[:n_nodes].copy(), n_trees)


def fit_tree(X, y, class_weights=(1.0, 1.0)) -> ForestModel:
    """One CART tree (weighted Gini, grown until leaves are pure or no
    split helps) on every row, every feature a candidate at every split."""
    X, y, class_weights = _check_xy(X, y, class_weights)
    return _grow(X, y, class_weights, np.ones((1, len(y)), dtype=np.int64))


def fit_forest(X, y, class_weights=(1.0, 1.0), seed: int = 0) -> ForestModel:
    """100 bagged trees: same-size bootstrap resamples, ceil(sqrt(d))
    feature candidates per split, per-tree rng derived from the seed, a
    non-negative integer.
    Each tree's rng draws its resample, then the candidates of as many
    nodes as the tree can score; nothing reads the rng after that. A
    tree is grown on its resample's distinct rows, each carrying its
    multiplicity (np.bincount of the resample).

    A scored node is impure, so it holds two distinct resample rows, and
    rows with one index never part. A node of r distinct rows therefore
    roots at most r - 1 scored nodes: one if it stays a leaf (r >= 2),
    else 1 + (r_left - 1) + (r_right - 1) by induction. Candidate rows
    past a tree's bound stay unset and unread."""
    X, y, class_weights = _check_xy(X, y, class_weights)
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise UsageError(f"seed must be a non-negative integer, not {seed!r}")
    n, d = X.shape
    k = math.ceil(math.sqrt(d))
    mult = np.empty((100, n), dtype=np.int64)
    candidates = None
    if k < d:
        candidates = np.empty((100, n, k), dtype=np.int16)
    for t in range(100):
        rng = np.random.default_rng([seed, t])
        mult[t] = np.bincount(rng.integers(0, n, n), minlength=n)
        if candidates is not None:
            scored = np.count_nonzero(mult[t]) - 1
            candidates[t, :scored] = _candidates(rng, d, k, scored)
    return _grow(X, y, class_weights, mult, candidates)


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Majority vote of the trees, an exact tie resolving to class 1 (so a
    one-tree model from fit_tree predicts its leaf labels). Every (row,
    tree) pair walks down together, one level per pass, and a pass steps
    only the pairs still at an inner node. Rows must be finite and as
    wide as the highest split feature reads."""
    X = feature_matrix(X)
    if X.shape[1] <= model.feature.max():
        raise UsageError(f"rows of shape {X.shape} do not reach split "
                         f"feature {model.feature.max()}")
    n_trees = model.n_trees
    at = np.tile(np.arange(n_trees), len(X))    # pair p: row p // n_trees
    start = np.repeat(np.arange(len(X)) * X.shape[1], n_trees)
    flat = X.ravel()
    live = np.flatnonzero(model.feature[at] >= 0)
    while live.size:
        node = at[live]
        step = model.left[node] + (flat[start[live] + model.feature[node]]
                                   > model.threshold[node])
        at[live] = step
        live = live[model.feature[step] >= 0]
    ones = model.label[at].reshape(len(X), n_trees).sum(axis=1)
    return (2 * ones >= n_trees).astype(int)
