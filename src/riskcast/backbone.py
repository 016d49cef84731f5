"""Quantile predictor family: pinball loss and boosted trees.

Each model predicts all H horizon steps with H independently fitted
regressors over the same flattened history window. Quantile models minimise
the pinball loss; point models minimise squared error. The boosted-tree
fitting follows standard quantile boosting: trees are grown on the pinball
subgradient with a unit curvature surrogate (the true second derivative is
zero almost everywhere), then each leaf value is refit to the tau-quantile of
the residuals that landed in it.

Trees are grown exactly, level by level, over (feature, bin) histograms of
a training split that is binned once (`BinnedFeatures`); every split and
leaf equals what a node-at-a-time scan of the same bins would pick. A
quantile fit's histograms are integer counts: N, the rows, and P, the rows
with a positive residual, since the pinball subgradient sums to
(1 - tau) * N - P. A point fit counts N and sums its float gradients. Counts
are shared and subtracted without changing any sum: the root's N is counted
once per split, a quantile fit carries its root's P from one boosting round
to the next by counting only the rows whose residual changed sign, and the
larger of two growing siblings takes its parent's counts minus the smaller
one's. Each depth's splits come from one flat scan over every feature's
bins. As every quantile gain is a function of the counts alone, equal counts
give equal gains, and ties go to the lowest feature, then the lowest bin.

Every tree fits every training row, and nothing in training is random.
On Linux a model's H horizon columns are fitted on up to min(H, usable
CPUs) forked worker processes, so the models do not depend on where they
were fitted. A `Workers` set bins its training split and is forked once,
serving every fit its caller makes; the workers inherit the binned split and
the calibration features, and predict each column they fit on the
calibration rows, which the model keeps as `calibration_preds`. A fit given
no worker set makes one of its own.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .data import Samples, WindowMatrix
from .errors import (
    EmptyTrainingSet,
    InvalidTau,
    LayoutMismatch,
    NonFiniteFeatures,
)

_MAX_BINS = 256


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0 or not np.isfinite(tau):
        raise InvalidTau(f"quantile level must lie in (0, 1), got {tau}")
    return tau


def pinball_loss(y, y_hat, tau: float):
    """max(tau*(y - y_hat), (tau - 1)*(y - y_hat)); zero iff y == y_hat."""
    tau = _check_tau(tau)
    d = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    out = np.maximum(tau * d, (tau - 1.0) * d)
    return float(out) if out.ndim == 0 else out


def pinball_subgradient(y, y_hat, tau: float):
    """d/d(y_hat) of the pinball loss; zero residuals take the (1 - tau) side."""
    tau = _check_tau(tau)
    r = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    out = np.where(r > 0, -tau, 1.0 - tau)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BackboneParams:
    """Boosted-tree hyperparameters. Every tree fits every training row, so
    training draws nothing from `seed`, the stage seed config.json records."""

    n_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_trees, self.max_depth, self.min_samples_leaf) < 1:
            raise ValueError("counts must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------------


@dataclass
class DecisionTree:
    """Flat-array binary tree; feature < 0 marks a leaf.

    An internal node sends x[feature] <= threshold to `left`, anything else
    (NaN too) to `right`. `predict` partitions the rows as `_grow_tree`
    does, node by node from the root, so each row is compared once per
    level of its own path: O(depth * rows) for any tree shape.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        # An explicit stack, not recursion: max_depth has no upper bound.
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[idx] = self.value[node]
            elif idx.size:
                go_left = X[idx, f] <= self.threshold[node]
                stack.append((self.left[node], idx[go_left]))
                stack.append((self.right[node], idx[~go_left]))
        return out


def _bin_features(X: WindowMatrix | np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
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


@dataclass(frozen=True)
class _WidthGroup:
    """Features whose bin count fits in `width`, a power of two.

    Their histograms lie side by side from cell `start` on, `width` cells
    per feature. A feature has at most width - 1 cuts, so its last bin is
    never a split candidate.
    """

    features: np.ndarray
    width: int
    start: int


@dataclass(frozen=True)
class BinnedFeatures:
    """A feature matrix binned once for the tree trainer.

    codes[i, j] is the bin of X[i, j], and a split at bin b of feature j
    sends x <= cuts[j][b] left, so on the binned rows a tree routes exactly
    as DecisionTree.predict does on X. Features with at least one cut are
    grouped by bin width, so a node's histogram is scanned at each group's
    width instead of padding every feature to the widest. cells[i] holds
    the histogram cell of each such feature's bin in row i, out of n_cells,
    and root_counts the rows in each cell: the N of every tree's root.

    Each such feature owns one segment of `width` consecutive cells, the
    first of them at `starts`. For each cell, `feature` and `bin` hold what
    it counts, and `valid` whether it is a split candidate (a bin below the
    feature's cut count), so `_best_splits` scans all cells in one flat
    pass. They are fields of the split, made once with it, so forked
    workers inherit them.
    """

    codes: np.ndarray
    cuts: list[np.ndarray]
    groups: tuple[_WidthGroup, ...]
    cells: np.ndarray
    n_cells: int
    root_counts: np.ndarray
    starts: np.ndarray
    feature: np.ndarray
    bin: np.ndarray
    valid: np.ndarray

    @staticmethod
    def of(X: WindowMatrix | np.ndarray) -> "BinnedFeatures":
        codes, cuts = _bin_features(X)
        n_cuts = np.asarray([c.size for c in cuts], dtype=np.int64)
        widths = np.asarray([1 << int(c).bit_length() for c in n_cuts], dtype=np.int64)
        # One segment of cells per feature with a cut, in order of width, then of feature.
        used = np.flatnonzero(n_cuts)
        used = used[np.argsort(widths[used], kind="stable")]
        starts = np.cumsum(widths[used]) - widths[used]
        n_cells = int(widths[used].sum())
        # C order, so gathering a node's rows copies whole rows.
        cells = codes[:, used].astype(np.int64, order="C")
        cells += starts
        groups = []
        for width in np.unique(widths[used]).tolist():
            in_group = widths[used] == width
            groups.append(_WidthGroup(used[in_group], width, int(starts[in_group][0])))
        segment = np.repeat(np.arange(used.size), widths[used])
        bin_ = np.arange(n_cells) - starts[segment]
        feature = used[segment]
        return BinnedFeatures(
            codes, cuts, tuple(groups), cells, n_cells,
            root_counts=np.bincount(cells.ravel(), minlength=n_cells),
            starts=starts, feature=feature, bin=bin_, valid=bin_ < n_cuts[feature],
        )


def _best_splits(
    binned: BinnedFeatures,
    nodes: list[np.ndarray],
    target: np.ndarray,
    tau: float | None,
    min_samples_leaf: int,
    parents: list[np.ndarray],
) -> tuple[list[tuple[int, int] | None], np.ndarray]:
    """Best (feature, bin) split of each node at one depth, or None for a leaf.

    A node's histograms are integer counts per (feature, bin) cell: N, its
    rows, and for a quantile fit (tau set, `target` the rows' resid > 0) P,
    its rows with a positive residual. The pinball subgradient is -tau on a
    positive residual and 1 - tau otherwise, so a cell's gradient sum is
    (1 - tau) * N - P, and every gain is a function of the integers
    (N_left, P_left) alone. A point fit (`target` the rows' gradients) adds
    a float histogram, one weighted bincount over every node, whose cells
    sum their rows in ascending row order. Either way cumsum and gain are
    taken element for element, so every gain is bit-identical to a
    node-at-a-time scan of a (feature, bin) grid, and ties go, as that
    grid's row-major argmax sends them, to the lowest feature index, then
    the lowest bin. The order of `nodes` only decides which histogram row
    each node uses.

    Every cell of every width group is scanned in one flat pass. The counts
    take one int64 cumsum along all cells. Each feature's segment holds each
    of a node's rows once, so at segment s that running sum would be s node
    totals ahead; the totals come off the first cell of every later segment
    for the cumsum and go back after it, all in exact integers. One cast to
    float64 follows (exact for counts below 2**53). A point fit's gradient
    sums run within each feature from its bin 0, group by group into one
    buffer. The gains are then computed in place over (nodes, cells), every
    cell through the same float operations in the same order as the formula
    written out; cells that are not candidates get -inf. Each group's argmax
    takes the lowest feature and bin of its best gain, and ties between
    groups go to the lower feature.

    Counts are exact, so the last len(parents) nodes are not counted: each
    takes its parent's histograms, parents[j], minus those of its smaller
    sibling, nodes[j]. The root, whose histograms come with it, is the one
    such node without a sibling, and is alone at its depth. A quantile fit
    gathers only the counted nodes' rows. Also returns every node's count
    histograms, shape (len(nodes), 1 or 2 for [N] or [N, P], cells).
    """
    k = len(nodes)
    counted = k - len(parents)
    n_cells = binned.n_cells
    per_row = binned.cells.shape[1]
    c = 1 if tau is None else 2
    sizes = np.asarray([idx.size for idx in nodes], dtype=np.int64)
    gathered = nodes if tau is None else nodes[:counted]
    hist = np.empty((k, c, n_cells), dtype=np.int64)
    if gathered:
        rows = np.concatenate(gathered)
        if tau is None and k == 1 and rows.size == len(binned.codes):  # a point root: every row in order
            flat = binned.cells.ravel()
        else:
            # Each row counts into its node's slot. A quantile node has two,
            # for its non-positive and its positive rows, which sum to N.
            slot = np.repeat(np.arange(len(gathered), dtype=np.int64) * c, sizes[: len(gathered)])
            if tau is not None:
                slot += target[rows]
            flat = binned.cells[rows]
            flat += (slot * n_cells)[:, None]
            flat = flat.ravel()
        prefix = flat[: int(sizes[:counted].sum()) * per_row]  # the counted nodes' rows
        hist[:counted] = np.bincount(prefix, minlength=counted * c * n_cells).reshape(counted, c, n_cells)
        if tau is None:
            hist_g = np.bincount(flat, weights=np.repeat(target[rows], per_row), minlength=k * n_cells)
            hist_g = hist_g.reshape(k, -1)
        else:
            hist[:counted, 0] += hist[:counted, 1]
    if parents:
        hist[counted:] = parents
        if counted:
            hist[counted:] -= hist[: len(parents)]
    totals = hist[:, :, : binned.groups[0].width].sum(axis=2)  # each node's N (and P)
    later = binned.starts[1:]  # taken off there for the cumsum only, so it restarts at each feature
    hist[:, :, later] -= totals[:, :, None]
    cum = hist.cumsum(axis=2)
    hist[:, :, later] += totals[:, :, None]
    cum = cum.astype(np.float64)
    cum_n = cum[:, 0]
    n_right = sizes[:, None] - cum_n
    ok = cum_n >= min_samples_leaf
    ok &= n_right >= min_samples_leaf
    ok &= binned.valid
    if tau is None:
        total_g = np.asarray([target[idx].sum() for idx in nodes], dtype=np.float64)
        cum_g = np.empty((k, n_cells))
        for group in binned.groups:
            m, width = group.features.size, group.width
            cells = slice(group.start, group.start + m * width)
            np.cumsum(hist_g[:, cells].reshape(k, m, width), axis=2, out=cum_g[:, cells].reshape(k, m, width))
        g_right = total_g[:, None] - cum_g
    else:
        p_total = totals[:, 1]
        total_g = (1.0 - tau) * sizes - p_total
        cum_p = cum[:, 1]
        cum_g = (1.0 - tau) * cum_n
        cum_g -= cum_p
        g_right = (1.0 - tau) * n_right
        g_right -= p_total[:, None] - cum_p
    base_score = total_g * total_g / sizes
    # cum_g**2 / max(cum_n, 1) + g_right**2 / max(n_right, 1) - base_score,
    # taken in place, in that order.
    gain = np.square(cum_g, out=cum_g)
    gain /= np.maximum(cum_n, 1.0, out=cum_n)
    np.square(g_right, out=g_right)
    g_right /= np.maximum(n_right, 1.0, out=n_right)
    gain += g_right
    gain -= base_score[:, None]
    np.copyto(gain, -np.inf, where=~ok)
    at = np.empty((k, len(binned.groups)), dtype=np.int64)  # each group's best cell
    for j, group in enumerate(binned.groups):
        at[:, j] = gain[:, group.start : group.start + group.features.size * group.width].argmax(axis=1)
        at[:, j] += group.start
    node = np.arange(k)
    gain_at = gain[node[:, None], at]
    gain_at[np.isnan(gain_at)] = -np.inf  # a NaN gain never wins
    best_gain = gain_at.max(axis=1)
    tied = np.where(gain_at == best_gain[:, None], binned.feature[at], binned.codes.shape[1])
    best = at[node, tied.argmin(axis=1)]
    any_ok = ok.any(axis=1)
    splits = [
        (int(binned.feature[best[s]]), int(binned.bin[best[s]]))
        if any_ok[s] and best_gain[s] > 1e-9 * max(1.0, abs(base_score[s]))
        else None
        for s in range(k)
    ]
    return splits, hist


def _root_histograms(
    binned: BinnedFeatures, target: np.ndarray, tau: float | None, last: tuple | None = None
) -> np.ndarray:
    """The histograms of a root holding every row, as _best_splits takes them.

    N is the split's root_counts. A quantile fit's P counts only the
    minority sign of `target` (resid > 0), taking the majority's as N minus
    it. Given `last`, the (target, histograms) of the same fit's previous
    round, P instead moves by the rows whose sign flipped since: up by the
    cells of the rows turned positive, down by those turned non-positive.
    Rounds whose flips outnumber the minority count afresh. Either way P is
    the same integers.
    """
    n = binned.root_counts
    if tau is None:
        return n[None]
    positive = int(np.count_nonzero(target))
    minority = min(positive, target.size - positive)
    if last is not None:
        last_target, last_hist = last
        flipped = np.flatnonzero(target != last_target)
        if flipped.size <= minority:
            # Slot 0 counts the rows turned non-positive, slot 1 those turned positive.
            turned = binned.cells[flipped]
            turned += target[flipped, None] * binned.n_cells
            down, up = np.bincount(turned.ravel(), minlength=2 * binned.n_cells).reshape(2, -1)
            return np.stack([n, last_hist[1] + up - down])
    counted = target if positive == minority else ~target
    counts = np.bincount(binned.cells[counted].ravel(), minlength=binned.n_cells)
    return np.stack([n, counts if counted is target else n - counts])


def _leaf_quantile(r: np.ndarray, tau: float) -> float:
    """float(np.quantile(r, tau)), bit for bit, from one in-place partition of r.

    This is numpy's 'linear' method as written. The partition takes numpy's
    own kth set, so ties between -0.0 and 0.0 land as numpy's do.
    """
    n = r.size
    v = (n - 1) * tau
    lo = math.floor(v)
    if lo >= n - 1:
        r.partition([-1, 0])
        return float(r[-1])
    r.partition(sorted({-1, 0, lo, lo + 1}))
    a, b = float(r[lo]), float(r[lo + 1])
    t = v - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _grow_tree(
    binned: BinnedFeatures,
    resid: np.ndarray,
    tau: float | None,
    max_depth: int,
    min_samples_leaf: int,
    root: np.ndarray | None = None,
) -> tuple[DecisionTree, np.ndarray]:
    """Grow one tree level by level over every row.

    A quantile fit splits on the signs of `resid` (zero counts as
    non-positive, as in pinball_subgradient); a point fit on the gradients
    -resid. `root` holds the root's histograms, as _root_histograms gives
    them, if the caller has them. Nodes are numbered breadth-first. Returns
    the tree and the leaf of each row.
    """
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]
    leaf_of = np.empty(len(resid), dtype=np.int64)
    target = resid > 0 if tau is not None else -resid

    def make_leaf(node: int, idx: np.ndarray) -> None:
        r = resid[idx]
        value[node] = _leaf_quantile(r, tau) if tau is not None else float(r.mean())
        leaf_of[idx] = node

    def add_node() -> int:
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            column.append(blank)
        return len(feature) - 1

    # A level holds sets of siblings with their parent's count histograms;
    # the root comes with its own. Where every sibling grows, the largest
    # takes its counts by subtraction and the smaller is counted; the rest
    # are counted alone. Node ids follow `growing`, whatever order
    # _best_splits sees them in.
    if root is None:
        root = _root_histograms(binned, target, tau)
    level = [(root, [(0, np.arange(len(resid), dtype=np.int64))])]
    for depth in range(max_depth + 1):
        growing, smaller, lone, larger, parents = [], [], [], [], []
        for counts, siblings in level:
            grows = []
            for node, idx in siblings:
                if depth >= max_depth or idx.size < 2 * min_samples_leaf or not binned.groups:
                    make_leaf(node, idx)
                else:
                    grows.append(len(growing))
                    growing.append((node, idx))
            if len(grows) < len(siblings):
                lone += grows
            else:
                *rest, largest = sorted(grows, key=lambda g: growing[g][1].size)
                smaller += rest
                larger.append(largest)
                parents.append(counts)
        if not growing:
            break
        order = smaller + lone + larger
        splits, hist = _best_splits(binned, [growing[g][1] for g in order], target, tau, min_samples_leaf, parents)
        at = {g: s for s, g in enumerate(order)}
        level = []
        for g, (node, idx) in enumerate(growing):
            split = splits[at[g]]
            if split is None:
                make_leaf(node, idx)
                continue
            f, b = split
            go_left = binned.codes[idx, f] <= b
            feature[node] = f
            threshold[node] = float(binned.cuts[f][b])
            left[node] = add_node()
            right[node] = add_node()
            level.append((hist[at[g]], [(left[node], idx[go_left]), (right[node], idx[~go_left])]))
    tree = DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )
    return tree, leaf_of


@dataclass
class BoostedTreesRegressor:
    """Additive tree ensemble: base_score + learning_rate * sum(tree outputs)."""

    base_score: float
    learning_rate: float
    trees: list[DecisionTree] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out


def _fit_boosted_column(
    binned: BinnedFeatures, y: np.ndarray, tau: float | None, params: BackboneParams
) -> BoostedTreesRegressor:
    base = float(np.quantile(y, tau)) if tau is not None else float(y.mean())
    model = BoostedTreesRegressor(base_score=base, learning_rate=params.learning_rate)
    pred = np.full(len(y), base, dtype=np.float64)
    root = last = None
    for _ in range(params.n_trees):
        resid = y - pred
        if not np.any(resid):
            break
        if tau is not None:
            # The root's P carries from round to round: only rows whose sign flipped are counted.
            positive = resid > 0
            root = _root_histograms(binned, positive, tau, last)
            last = positive, root
        tree, leaf_of = _grow_tree(binned, resid, tau, params.max_depth, params.min_samples_leaf, root)
        pred += params.learning_rate * tree.value[leaf_of]
        model.trees.append(tree)
    return model


# ---------------------------------------------------------------------------
# Multi-horizon model
# ---------------------------------------------------------------------------


def _checked_features(X, layout, feature_layout: tuple[str, ...]) -> WindowMatrix | np.ndarray:
    """X, an array as float64, once its layout, width and values fit
    `feature_layout`. Features must be finite: a tree would send NaN right
    at every split. A WindowMatrix is finite by construction and passes
    as it is, so its matrix is never built."""
    if tuple(layout) != feature_layout:
        raise LayoutMismatch(
            f"feature layout has {len(tuple(layout))} names and differs from "
            f"the training layout of {len(feature_layout)} names"
        )
    if not isinstance(X, WindowMatrix):
        X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_layout):
        raise LayoutMismatch(f"feature matrix width {X.shape} does not match layout")
    if isinstance(X, np.ndarray) and not np.isfinite(X).all():
        bad = ~np.isfinite(X)
        column = feature_layout[int(np.argmax(bad.any(axis=0)))]
        raise NonFiniteFeatures(
            f"feature matrix holds {np.count_nonzero(bad)} non-finite values, "
            f"the first in column {column!r}"
        )
    return X


def _clamped(columns: list[np.ndarray]) -> np.ndarray:
    """The horizon columns side by side, clamped below at zero (throughput is non-negative)."""
    return np.maximum(np.column_stack(columns), 0.0)


@dataclass
class QuantileModel:
    """One regressor per horizon step, all trained at the same quantile level.

    Predictions are clamped below at zero, and X must pass the feature
    checks against the training layout. `calibration_preds` holds the
    predictions on the calibration split of the worker set that fitted the
    model, bit-equal to predicting that split, or None if it had none.
    """

    tau: float
    feature_layout: tuple[str, ...]
    horizon_models: list[BoostedTreesRegressor]
    calibration_preds: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        if not self.horizon_models:
            raise ValueError("model needs at least one horizon step")

    @property
    def horizon(self) -> int:
        return len(self.horizon_models)

    def predict(self, X: np.ndarray, layout) -> np.ndarray:
        X = _checked_features(X, layout, self.feature_layout)
        return _clamped([m.predict(X) for m in self.horizon_models])


# The split (binned, Y, calibration X or None) a worker set's processes
# share, set in each worker by the pool's initializer. Under fork its
# arguments are inherited, not pickled; the parent never sets it.
_shared: tuple | None = None

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _share(parent: int, *split) -> None:
    """Pool initializer: keep the split, and die with the parent. A worker
    whose parent is killed would otherwise wait forever on its call queue,
    whose write end it inherited."""
    global _shared
    _shared = split
    import ctypes  # numpy imports it, so the worker inherits it loaded
    import signal

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(1)


# glibc's mallopt parameters, from <malloc.h>, and the values they are set to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX)


def _keep_freed_heap() -> None:
    """Have glibc serve blocks below 32 MiB from the heap and keep up to
    64 MiB freed at its top, for this process and every worker it forks.

    The split scan allocates and frees temporaries of several MB at every
    depth. glibc maps blocks above its mmap threshold afresh each time, and
    that threshold starts at 128 KiB, rising only when a larger mapped block
    is freed; every fresh mapping faults its pages in again. Without this, a
    paper-shaped run (bench/paper_shape.yaml, 2 workers) took about 735k
    minor faults and 1.4 s of system time in its workers, against 14k and
    0.06 s with it. The values are glibc's 64-bit maximum threshold and
    twice it for trimming, where glibc's own dynamic rule would set them;
    fixed values also stop that rule. Setting them again changes nothing.
    Off Linux, and where the C library has no mallopt, this does nothing.
    """
    if sys.platform != "linux":
        return
    import ctypes  # numpy imports it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _fit_column(h: int, tau, params, binned, Y, cal_X) -> tuple[BoostedTreesRegressor, np.ndarray | None]:
    """Fit horizon column h, and predict it on the calibration rows, if any."""
    model = _fit_boosted_column(binned, Y[:, h], tau, params)
    return model, None if cal_X is None else model.predict(cal_X)


def _fit_shared_column(h: int, tau, params) -> tuple[BoostedTreesRegressor, np.ndarray | None]:
    return _fit_column(h, tau, params, *_shared)


def _workers(horizon: int) -> int:
    """How many processes fit `horizon` columns: min(H, usable CPUs) on Linux.
    It is 1, which fits them in-process, elsewhere and where a fork is unsafe."""
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    if min(horizon, cpus) == 1:
        return 1
    import multiprocessing
    import threading

    # A daemonic process may not start children, and a fork would copy
    # other threads' locks in whatever state they are.
    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return 1
    return min(horizon, cpus)


class Workers:
    """The processes that fit models on one training split, used as a context manager.

    Making the set checks the training and calibration features, so bad
    ones fail before any fork, sets the allocator (_keep_freed_heap) and
    bins the training split. Entering makes a pool of
    _workers(H) processes, forked once, at the first fit; they inherit the
    binned split, Y and the calibration features, so nothing big is
    pickled. Leaving shuts them down. A task fits one horizon column at the
    level it is given and predicts that column on the calibration rows, so
    a model comes back with its `calibration_preds`. Only the fitted
    columns and their predictions are pickled back. Where _workers(H) is 1,
    and outside the `with` block, the same task runs in-process. A worker's
    exception is raised by `fit`, a killed worker gives BrokenProcessPool
    (for this and every later fit), and no worker outlives the block or its
    caller.
    """

    def __init__(self, train: Samples, cal: Samples | None = None):
        if len(train) == 0:
            raise EmptyTrainingSet("training split is empty")
        layout = tuple(train.layout)
        train_X = _checked_features(train.X, layout, layout)
        cal_X = None if cal is None else _checked_features(cal.X, cal.layout, layout)
        self.train, self.cal = train, cal
        Y = np.asarray(train.Y, dtype=np.float64)
        self.horizon = Y.shape[1]
        _keep_freed_heap()
        self._split = (BinnedFeatures.of(train_X), Y, cal_X)
        self._executor = None

    def __enter__(self) -> "Workers":
        workers = _workers(self.horizon)
        if workers > 1:
            # Deferred: these imports take about 30 ms, over a tenth of importing riskcast.cli.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"), initializer=_share,
                initargs=(os.getpid(), *self._split),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def fit(self, tau: float | None, params: BackboneParams) -> QuantileModel:
        """The H columns fitted at level tau (None for the point fit)."""
        horizon = self.horizon
        if self._executor is None:
            columns = [_fit_column(h, tau, params, *self._split) for h in range(horizon)]
        else:
            columns = list(self._executor.map(_fit_shared_column, range(horizon), [tau] * horizon,
                                              [params] * horizon))
        return QuantileModel(
            tau=tau if tau is not None else 0.5,
            feature_layout=tuple(self.train.layout),
            horizon_models=[regressor for regressor, _ in columns],
            calibration_preds=None if self.cal is None else _clamped([predicted for _, predicted in columns]),
        )


def _train(train: Samples, tau: float | None, params: BackboneParams, workers: Workers | None) -> QuantileModel:
    if workers is None:
        with Workers(train) as own:
            return own.fit(tau, params)
    if workers.train is not train:
        raise ValueError("the worker set holds another training split")
    return workers.fit(tau, params)


def train_quantile_model(
    train: Samples, tau: float, params: BackboneParams, workers: Workers | None = None
) -> QuantileModel:
    """Fit one pinball-loss regressor per horizon step at level tau, on
    `workers` if given, else on a worker set of its own."""
    return _train(train, _check_tau(tau), params, workers)


def train_point_model(train: Samples, params: BackboneParams, workers: Workers | None = None) -> QuantileModel:
    """Fit the squared-error point predictor (same shape as a quantile model)."""
    return _train(train, None, params, workers)
