"""Reference tree trainer: the recursive, node-at-a-time grower.

This is the trainer the level-wise one in `riskcast.backbone` replaced,
kept as a test oracle: both must grow the same trees, node for node, and
give bit-identical predictions. `fit_boosted_column` is the boosting loop
around it, which bins X on every call and takes training predictions from
`route`, the level-by-level router `DecisionTree.predict` replaced.

A quantile fit's gradient sums are taken as (1 - tau) * N - P from the
integer counts N (rows) and P (rows with a positive residual), the
arithmetic the level-wise trainer uses. A point fit first rounds each
round's gradients to the grid on which all their sums are exact
(`on_sum_grid`), the rule the level-wise trainer follows, written out
again here, so any order of summing gives the same float.
"""

from __future__ import annotations

import math

import numpy as np

from riskcast.backbone import BackboneParams, BoostedTreesRegressor, DecisionTree

_MAX_BINS = 256


def _bin_features(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile-bin each column; a split at bin b means x <= cuts[b]."""
    n, n_feat = X.shape
    binned = np.empty((n, n_feat), dtype=np.uint8)
    cuts: list[np.ndarray] = []
    for j in range(n_feat):
        col = X[:, j]
        uniq = np.unique(col)
        if uniq.size <= 1:
            c = np.empty(0, dtype=np.float64)
        elif uniq.size <= _MAX_BINS:
            c = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.quantile(col, np.linspace(0.0, 1.0, _MAX_BINS)[1:-1])
            c = np.unique(qs)
        binned[:, j] = np.searchsorted(c, col, side="left")
        cuts.append(c)
    return binned, cuts


def on_sum_grid(g: np.ndarray) -> np.ndarray:
    """g rounded to the nearest multiples (ties to even) of a step of
    2**(e + b - 53), and no less than 2**-1074, where max|g| < 2**e and
    len(g) < 2**b, so that no sum of entries needs more than 53 bits. g is
    left as it is when all zero, or where e + b > 1023."""
    largest = float(np.max(np.abs(g)))
    e = math.frexp(largest)[1]
    b = len(g).bit_length()
    if largest == 0.0 or e + b > 1023:
        return g
    step = math.ldexp(1.0, max(e + b - 53, -1074))
    return np.rint(g / step) * step


def route(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """The tree's output for each row of X, every row moved one level a step."""
    idx = np.zeros(len(X), dtype=np.int32)
    rows = np.arange(len(X))
    while True:
        at_leaf = tree.feature[idx] < 0
        if at_leaf.all():
            return tree.value[idx]
        go_left = X[rows, np.maximum(tree.feature[idx], 0)] <= tree.threshold[idx]
        nxt = np.where(go_left, tree.left[idx], tree.right[idx])
        idx = np.where(at_leaf, idx, nxt).astype(np.int32)


def predict(model: BoostedTreesRegressor, X: np.ndarray) -> np.ndarray:
    """`model.predict(X)`, each tree's output taken from `route`."""
    out = np.full(len(X), model.base_score, dtype=np.float64)
    for tree in model.trees:
        out += model.learning_rate * route(tree, X)
    return out


def _grow_tree(
    binned: np.ndarray,
    cuts: list[np.ndarray],
    resid: np.ndarray,
    tau: float | None,
    max_depth: int,
    min_samples_leaf: int,
) -> DecisionTree:
    n_feat = binned.shape[1]
    n_cuts = np.asarray([c.size for c in cuts], dtype=np.int64)
    n_bins = int(n_cuts.max(initial=0)) + 1
    offsets = np.arange(n_feat, dtype=np.int64) * n_bins
    bin_ids = np.arange(n_bins - 1, dtype=np.int64)[None, :] if n_bins > 1 else None
    grad = on_sum_grid(-resid) if tau is None else None

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def leaf_value(idx: np.ndarray) -> float:
        r = resid[idx]
        return float(np.quantile(r, tau)) if tau is not None else float(r.mean())

    def add_leaf(idx: np.ndarray) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(leaf_value(idx))
        return node

    def build(idx: np.ndarray, depth: int) -> int:
        n = idx.size
        if depth >= max_depth or n < 2 * min_samples_leaf or bin_ids is None:
            return add_leaf(idx)
        flat = (binned[idx].astype(np.int64) + offsets).ravel()
        hist_n = np.bincount(flat, minlength=n_feat * n_bins)
        cum_n = hist_n.reshape(n_feat, n_bins).cumsum(axis=1)[:, :-1]
        n_right = n - cum_n
        ok = (cum_n >= min_samples_leaf) & (n_right >= min_samples_leaf)
        ok &= bin_ids < n_cuts[:, None]
        if not ok.any():
            return add_leaf(idx)
        if tau is None:
            g = grad[idx]
            total_g = g.sum()
            hist_g = np.bincount(flat, weights=np.repeat(g, n_feat), minlength=n_feat * n_bins)
            cum_g = hist_g.reshape(n_feat, n_bins).cumsum(axis=1)[:, :-1]
            g_right = total_g - cum_g
        else:
            positive = idx[resid[idx] > 0]
            p_total = positive.size
            flat_p = (binned[positive].astype(np.int64) + offsets).ravel()
            hist_p = np.bincount(flat_p, minlength=n_feat * n_bins)
            cum_p = hist_p.reshape(n_feat, n_bins).cumsum(axis=1)[:, :-1]
            total_g = (1.0 - tau) * n - p_total
            cum_g = (1.0 - tau) * cum_n - cum_p
            g_right = (1.0 - tau) * n_right - (p_total - cum_p)
        base_score = total_g * total_g / n
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(
                ok,
                cum_g**2 / np.maximum(cum_n, 1) + g_right**2 / np.maximum(n_right, 1) - base_score,
                -np.inf,
            )
        best = int(np.argmax(gain))
        best_gain = gain.ravel()[best]
        if best_gain <= 1e-9 * max(1.0, abs(base_score)):
            return add_leaf(idx)
        f_best, b_best = divmod(best, n_bins - 1)
        go_left = binned[idx, f_best] <= b_best
        node = len(feature)
        feature.append(f_best)
        threshold.append(float(cuts[f_best][b_best]))
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(binned.shape[0], dtype=np.int64), 0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def fit_boosted_column(
    X: np.ndarray, y: np.ndarray, tau: float | None, params: BackboneParams
) -> BoostedTreesRegressor:
    n = len(y)
    base = float(np.quantile(y, tau)) if tau is not None else float(y.mean())
    model = BoostedTreesRegressor(base_score=base, learning_rate=params.learning_rate)
    binned, cuts = _bin_features(X)
    pred = np.full(n, base, dtype=np.float64)
    for _ in range(params.n_trees):
        resid = y - pred
        if not np.any(resid):
            break
        tree = _grow_tree(binned, cuts, resid, tau, params.max_depth, params.min_samples_leaf)
        pred += params.learning_rate * route(tree, X)
        model.trees.append(tree)
    return model
