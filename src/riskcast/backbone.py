"""Quantile predictor family: pinball loss and boosted trees.

Each model predicts all H horizon steps with H independently fitted
regressors over the same flattened history window. Quantile models minimise
the pinball loss; point models minimise squared error. The boosted-tree
fitting follows standard quantile boosting: trees are grown on the pinball
subgradient with a unit curvature surrogate (the true second derivative is
zero almost everywhere), then each leaf value is refit to the tau-quantile of
the residuals that landed in it.

Trees are grown exactly, one node at a time and breadth-first, over
(feature, bin) histograms of a training split that is binned once
(`BinnedFeatures`). A node's histograms share one float64 array: a
quantile fit counts N, the rows, and P, the rows with a positive
residual, since the pinball subgradient sums to (1 - tau) * N - P; a
point fit counts N and sums G, its gradients, rounded each round to the
grid on which every sum of them is exact (`_exact_grid`). Nodes carry
them running, summed within each feature from its bin 0, as the node's
scan over every feature's bins reads them, and the scan reads nothing
else: a node's totals are its first feature's last cell. Counts stay
below 2**53, so every sum is exact, and histograms are shared and
subtracted without changing any sum: the root's N is counted once per
split, a quantile fit carries its root's P from one boosting round to
the next by counting only the rows whose residual changed sign, and a
split whose two children both grow counts the smaller, and hands the
larger its own running histograms minus the smaller one's, in one
subtraction. Only the other nodes are counted and summed within each
feature: the root, smaller siblings and nodes whose sibling is a leaf.
As every gain is a function of exact sums, equal sums give equal gains,
and ties go to the lowest feature, then the lowest bin.
A split's bins are held once, as one matrix of histogram cells that every
scan reads (`BinnedFeatures.cells`), with one cell segment per distinct
binned column, in feature order: a column whose bin codes repeat a lower
feature's gets none, as it would tie with that feature at every cell and
lose every tie. Each column is binned in one pass: one sort gives its
cuts, one search of them its bin codes, and the codes find a repeat.

Every tree fits every training row, and nothing in training is random.
On Linux a model's H horizon columns are fitted on up to min(H, usable
CPUs) forked worker processes, so the models do not depend on where they
were fitted. A `Workers` set of a training and a calibration split bins the
training split and is forked once, serving every fit its caller makes; the
workers inherit the binned split and the calibration features, and predict
each column they fit on the calibration rows, which the model keeps as
`calibration_preds`.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import Samples, WindowMatrix
from .errors import (
    EmptyTrainingSet, FitFailure, InvalidTau, LayoutMismatch, NonFiniteFeatures, NonFiniteTargets, RiskcastError,
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
    training draws nothing at random and takes no seed."""

    n_trees: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 20

    def __post_init__(self) -> None:
        counts = (self.n_trees, self.max_depth, self.min_samples_leaf)
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in counts):
            raise ValueError(f"counts must be integers, got {counts}")
        if min(counts) < 1:
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


@dataclass(frozen=True)
class BinnedFeatures:
    """A split's features X, binned once for the tree trainer into one matrix of histogram cells.

    Each distinct binned column owns a segment of consecutive cells, in
    order of feature, as wide as the power of two above its cut count:
    every feature with a cut but a repeat, whose bin codes equal a lower
    feature's with as many cuts. A repeat would give every node that
    feature's counts, sums and gains, after it, so it could never win a
    split. `groups` holds the (start, stop, width) cell bounds of each
    maximal run of segments that share a width, so a node's histogram is
    scanned at each run's width instead of padding every feature to the
    widest. cells[i, s] is the first cell of segment s plus the bin b of
    row i, the lowest b with X[i, j] <= cut b of feature j. For each cell c,
    `feature` says what it counts and `cut` is its threshold, so
    `_best_split` scans a node's cells in one flat pass. A split at c sends
    X[i, feature[c]] <= cut[c] left, exactly the rows whose cell in that
    segment is at most c. cut is +inf on a cell at or past its feature's
    last cut, which sends every row left and is never a candidate.
    _grow_tree routes on X, as DecisionTree.predict does: a column of a
    WindowMatrix is contiguous, and one of cells is not.
    root_counts holds the rows in each cell, the N of every tree's root.
    All are fields of the split, made once with it, so forked workers
    inherit them; X is held as given, and a WindowMatrix is a view.
    `of` sorts each column once: the midpoints of its distinct values, or
    above 256 of them the distinct quantiles at 254 even levels, are its
    cuts, and one search of them gives its uint8 bin codes. A column
    repeats when its (cut count, codes) key is held already; the kept
    columns' codes, a byte a row, are held there until `cells` is filled.
    """

    X: WindowMatrix | np.ndarray
    cells: np.ndarray
    feature: np.ndarray
    cut: np.ndarray
    groups: tuple[tuple[int, int, int], ...]
    root_counts: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.feature.size

    @staticmethod
    def of(X: WindowMatrix | np.ndarray) -> "BinnedFeatures":
        kept = {}  # (cut count, bin codes) -> the first feature binned so and its cuts, in feature order
        for j in range(X.shape[1]):
            col = np.sort(X[:, j])
            uniq = col[np.append(True, col[1:] != col[:-1])]
            if uniq.size <= 1:
                continue
            if uniq.size <= _MAX_BINS:
                cuts = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                cuts = np.unique(np.quantile(col, np.linspace(0.0, 1.0, _MAX_BINS)[1:-1]))
            codes = np.searchsorted(cuts, X[:, j], side="left").astype(np.uint8)
            kept.setdefault((cuts.size, codes.tobytes()), (j, cuts))
        widths = np.asarray([1 << cuts.size.bit_length() for _, cuts in kept.values()], dtype=np.int64)
        starts = np.cumsum(widths) - widths
        cells = np.empty((len(X), len(kept)), dtype=np.int64)  # C order: a node's rows gather whole rows
        cut = np.full(int(widths.sum()), np.inf)
        for s, ((_, codes), (_, cuts)) in enumerate(kept.items()):
            np.add(np.frombuffer(codes, dtype=np.uint8), starts[s], out=cells[:, s], dtype=np.int64)
            cut[starts[s] : starts[s] + cuts.size] = cuts
        first = np.flatnonzero(np.diff(widths, prepend=0))  # the first segment of each run of one width
        stops = np.append(starts[first[1:]], cut.size)
        return BinnedFeatures(
            X, cells, np.repeat(np.asarray([j for j, _ in kept.values()], dtype=np.int64), widths), cut,
            tuple(zip(starts[first].tolist(), stops.tolist(), widths[first].tolist())),
            root_counts=np.bincount(cells.ravel(), minlength=cut.size),
        )


def _running(binned: BinnedFeatures, hist: np.ndarray) -> np.ndarray:
    """hist summed within each feature from its bin 0, along its last axis,
    in a new float64 array: one run of equal width at a time."""
    out = np.empty(hist.shape)
    for start, stop, width in binned.groups:
        by_feature = hist.shape[:-1] + ((stop - start) // width, width)
        np.cumsum(hist[..., start:stop].reshape(by_feature), axis=-1, out=out[..., start:stop].reshape(by_feature))
    return out


def _exact_grid(g: np.ndarray) -> np.ndarray:
    """g rounded to the coarsest power-of-two grid on which every sum of its entries is exact in float64.

    With max|g| < 2**e over n < 2**b entries, each becomes an integer of at
    most 2**(53 - b) in size times 2**-k, k = min(53 - e - b, 1074), so any
    sum of entries, in any order, and any difference of two sums, is exact.
    An entry moves by at most 2**(e + b - 54) <= n * max|g| * 2**-52, and by
    none at k = 1074, every float's grid. g is kept as it is where it is all
    zeros, or where e + b > 1023, as its sums can overflow.
    """
    top = float(np.abs(g).max())
    e, b = math.frexp(top)[1], g.size.bit_length()
    if top == 0.0 or e + b > 1023:
        return g
    k = min(53 - e - b, 1074)
    return np.ldexp(np.rint(np.ldexp(g, k)), -k)


def _count(binned: BinnedFeatures, idx: np.ndarray, target: np.ndarray, tau: float | None) -> np.ndarray:
    """The running histograms of the node holding rows idx.

    A quantile node (tau set, `target` the rows' resid > 0) gathers its
    non-positive rows from `cells`, then its positive ones, and takes one
    bincount over each slice, giving [N, P], N being their sum. A point
    node (`target` the rows' gradients, on _exact_grid) gathers its rows and
    takes one bincount of them and one weighted by their gradients, giving
    [N, G]. Each channel is then summed within each feature from its bin 0
    (_running).
    """
    n_cells = binned.n_cells
    per_row = binned.cells.shape[1]
    if tau is None:
        flat = binned.cells[idx].ravel()
        g = np.bincount(flat, weights=np.repeat(target[idx], per_row), minlength=n_cells)
        return _running(binned, np.stack([np.bincount(flat, minlength=n_cells), g]))
    positive = target[idx]
    flat = binned.cells[np.concatenate([idx[~positive], idx[positive]])].ravel()
    split = (idx.size - np.count_nonzero(positive)) * per_row
    p = np.bincount(flat[split:], minlength=n_cells)
    return _running(binned, np.stack([np.bincount(flat[:split], minlength=n_cells) + p, p]))


def _best_split(binned: BinnedFeatures, hist: np.ndarray, tau: float | None, min_samples_leaf: int) -> int | None:
    """The cell whose split is best for the node whose histograms are `hist`, or None for a leaf.

    `hist` holds the node's histograms, one float64 array of two channels
    over the (feature, bin) cells, held running: each cell sums its
    feature's bins from bin 0 up to its own. The first channel is N, its
    rows. For a quantile fit (tau set) the second is P, its rows with a
    positive residual. The pinball subgradient is -tau on a positive
    residual and 1 - tau otherwise, so a cell's gradient sum is
    (1 - tau) * N - P, and every gain is a function of the integers
    (N_left, P_left) alone. For a point fit the second is G, its gradients
    summed. Counts are below 2**53, and gradients lie on _exact_grid, so
    every sum and difference of them is exact in float64, in any order:
    every gain is bit-identical to a scan of the node's own (feature, bin)
    grid. The histograms are all the scan reads: the node's N, and its P or
    G, totals are its first feature's last cell, as every row lies in one
    bin of each feature.

    Every cell goes through the same float operations in the same order as
    the formula written out, and cells that are not candidates get -inf. A
    cell with no row on one side divides by zero, and min_samples_leaf >= 1,
    which BackboneParams enforces, is what keeps it from being a candidate;
    that also rules out a cell at or past its feature's last bin, which
    sends the whole node left. The cells lie in feature order, so one argmax
    sends ties, as that grid's row-major argmax does, to the lowest feature,
    then the lowest bin. The node is a leaf unless its best gain clears a
    threshold, which -inf (no candidate) and NaN (only where gradient sums
    overflow float64) never do. Nothing here writes into hist, which a
    larger child's subtraction reads.
    """
    size, total = hist[:, binned.groups[0][2] - 1]  # the first feature's last cell sums every row
    cum_n = hist[0]
    n_right = size - cum_n
    ok = cum_n >= min_samples_leaf
    ok &= n_right >= min_samples_leaf
    cum = hist[1]  # G, or P
    if tau is None:
        total_g = total
        g_right = total - cum
        gain = np.square(cum)
    else:
        total_g = (1.0 - tau) * size - total
        gain = (1.0 - tau) * cum_n
        gain -= cum
        np.square(gain, out=gain)
        g_right = (1.0 - tau) * n_right
        g_right -= total - cum
    base_score = total_g * total_g / size
    # cum_g**2 / cum_n + g_right**2 / n_right - base_score, in that order.
    with np.errstate(divide="ignore", invalid="ignore"):
        gain /= cum_n
        np.square(g_right, out=g_right)
        g_right /= n_right
        gain += g_right
        gain -= base_score
    np.copyto(gain, -np.inf, where=~ok)
    best = int(gain.argmax())
    return best if gain[best] > 1e-9 * max(1.0, abs(base_score)) else None


def _root_histograms(
    binned: BinnedFeatures, target: np.ndarray, tau: float | None, last: tuple | None = None
) -> np.ndarray:
    """The histograms of a root holding every row, not yet running: [N, G], or [N, P] for a quantile fit.

    N is the split's root_counts. A point fit's G is one bincount of
    `cells` weighted by `target`, its gradients. A quantile fit's P counts
    only the minority sign of `target` (resid > 0), taking the majority's
    as N minus it. Given `last`, the (target, histograms) of the same fit's
    previous round, P instead moves by the rows whose sign flipped since:
    up by the cells of the rows turned positive, down by those turned
    non-positive. Rounds whose flips outnumber the minority count afresh.
    Either way P is the same integers.
    """
    n = binned.root_counts
    if tau is None:
        return np.stack([n, np.bincount(binned.cells.ravel(), np.repeat(target, binned.cells.shape[1]), n.size)])
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
    """Grow one tree over every row, one node at a time, breadth-first.

    A quantile fit splits on the signs of `resid` (zero counts as
    non-positive, as in pinball_subgradient); a point fit on the gradients
    -resid, put on _exact_grid, while its leaves take the mean of `resid`
    itself. A node grows if it lies above max_depth and holds at least
    2 * min_samples_leaf rows, the root only if some column is binned; it
    is queued with its running histograms and becomes a leaf unless
    _best_split, reading only those, finds it a split. `root` holds the
    root's histograms, as _root_histograms gives them, if the caller has
    them; _running sums them into a new array, so the caller's stay as they
    are. A split routes its rows on X and queues its children, left then
    right. If both grow, the smaller (the left on a tie) is counted
    (_count), and the larger takes its histograms as its parent's minus its
    sibling's; a growing child whose sibling is a leaf is counted. Nodes
    are numbered in the order they are queued, so each one's entry is made
    as it leaves the queue. Returns the tree and the leaf of each row.
    """
    target = resid > 0 if tau is not None else _exact_grid(-resid)
    leaf_of = np.empty(len(resid), dtype=np.int64)
    nodes = []  # (feature, threshold, left, right, value) of each node, by node number

    def grows(depth: int, idx: np.ndarray) -> bool:
        return depth < max_depth and idx.size >= 2 * min_samples_leaf

    rows = np.arange(len(resid), dtype=np.int64)
    hist = None
    if grows(0, rows) and binned.groups:
        hist = _running(binned, _root_histograms(binned, target, tau) if root is None else root)
    queue = deque([(0, 0, rows, hist)])
    numbered = 1
    while queue:
        node, depth, idx, hist = queue.popleft()
        c = None if hist is None else _best_split(binned, hist, tau, min_samples_leaf)
        if c is None:
            r = resid[idx]
            nodes.append((-1, 0.0, -1, -1, _leaf_quantile(r, tau) if tau is not None else float(r.mean())))
            leaf_of[idx] = node
            continue
        f, cut = int(binned.feature[c]), float(binned.cut[c])
        go_left = binned.X[idx, f] <= cut
        children = [idx[go_left], idx[~go_left]]
        if grows(depth + 1, children[0]) and grows(depth + 1, children[1]):
            counts = [None, None]
            small = int(children[1].size < children[0].size)  # the left one on a tie
            counts[small] = _count(binned, children[small], target, tau)
            counts[1 - small] = hist - counts[small]
        else:
            counts = [_count(binned, child, target, tau) if grows(depth + 1, child) else None for child in children]
        nodes.append((f, cut, numbered, numbered + 1, 0.0))
        for child, child_hist in zip(children, counts):
            queue.append((numbered, depth + 1, child, child_hist))
            numbered += 1
    feature, threshold, left, right, value = zip(*nodes)
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


def _check_finite(M: np.ndarray, error: type, what: str, columns) -> None:
    """Raise `error` if M holds NaN or an infinity, naming the first such column."""
    bad = ~np.isfinite(M)
    if bad.any():
        column = columns[int(np.argmax(bad.any(axis=0)))]
        raise error(f"{what} holds {np.count_nonzero(bad)} non-finite values, the first in column {column!r}")


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
    if isinstance(X, np.ndarray):
        _check_finite(X, NonFiniteFeatures, "feature matrix", feature_layout)
    return X


def _clamped(columns: list[np.ndarray]) -> np.ndarray:
    """The horizon columns side by side, clamped below at zero (throughput is non-negative)."""
    out = np.column_stack(columns)
    return np.maximum(out, 0.0, out=out)


@dataclass
class QuantileModel:
    """One regressor per horizon step, all trained at the same quantile level.

    Predictions are clamped below at zero, and X must pass the feature
    checks against the training layout. `calibration_preds` holds the
    predictions on the calibration split of the worker set that fitted the
    model, bit-equal to predicting that split.
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


# The split (binned, Y, calibration X) a worker set's processes
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

    The split scan allocates and frees temporaries of up to a MB at every
    node. glibc maps blocks above its mmap threshold afresh each time, and
    that threshold starts at 128 KiB, rising only when a larger mapped block
    is freed; every fresh mapping faults its pages in again. Without this, a
    paper-shaped run (bench/paper_shape.yaml, 2 workers on 2 CPUs) took
    about 110k minor faults and 0.2 s of system time in its workers, against
    12k and 0.04 s with it. The values are glibc's 64-bit maximum threshold and
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


def _fit_column(h: int, tau, params, split: tuple | None = None) -> tuple[BoostedTreesRegressor, np.ndarray]:
    """Fit horizon column h on `split` (in a worker, _shared) and predict it on the calibration rows."""
    binned, Y, cal_X = _shared if split is None else split
    model = _fit_boosted_column(binned, Y[:, h], tau, params)
    return model, model.predict(cal_X)


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

    Making the set checks the training and calibration features and targets
    (a non-finite target would make its column's predictions NaN, and the
    calibration predictions are scored against Y, so both splits' Y need
    the same width H >= 1), so bad ones fail before any fork, sets the
    allocator (_keep_freed_heap) and bins the training split. Entering makes a pool of
    _workers(H) processes, forked once, at the first fit; they inherit the
    binned split, Y and the calibration features, so nothing big is
    pickled. Leaving shuts them down. A task fits one horizon column at the
    level it is given and predicts that column on the calibration rows, so
    a model comes back with its `calibration_preds`. Only the fitted
    columns and their predictions are pickled back. Where _workers(H) is 1,
    and outside the `with` block, the same task runs in-process. A fit that
    raises, or whose worker is killed (which breaks every later fit too),
    raises FitFailure (see _fit), and no worker outlives the block or its caller.
    """

    def __init__(self, train: Samples, cal: Samples):
        if len(train) == 0:
            raise EmptyTrainingSet("training split is empty")
        self.layout = tuple(train.layout)
        train_X = _checked_features(train.X, self.layout, self.layout)
        cal_X = _checked_features(cal.X, cal.layout, self.layout)
        Y = np.asarray(train.Y, dtype=np.float64)
        if not 0 < Y.shape[1] == cal.Y.shape[1]:
            raise LayoutMismatch(
                f"the training split's Y has {Y.shape[1]} columns and the calibration split's "
                f"{cal.Y.shape[1]}; both need the same width, at least 1"
            )
        for split, targets in (("training", Y), ("calibration", cal.Y)):
            _check_finite(targets, NonFiniteTargets, f"the {split} split's Y", range(targets.shape[1]))
        self.cal = cal
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

    def _fit(self, tau: float | None, params: BackboneParams) -> QuantileModel:
        """The H columns fitted at level tau (None for the point fit). Every fit
        comes here: any error but a RiskcastError (BrokenProcessPool from a
        killed worker, say) is raised as FitFailure, naming the model."""
        horizon = self.horizon
        try:
            if self._executor is None:
                columns = [_fit_column(h, tau, params, self._split) for h in range(horizon)]
            else:
                columns = list(self._executor.map(_fit_column, range(horizon), [tau] * horizon, [params] * horizon))
        except RiskcastError:
            raise
        except Exception as exc:
            failed = "point model fit failed" if tau is None else f"quantile model fit failed at tau={tau}"
            raise FitFailure(f"{failed}: {type(exc).__name__}: {exc}") from exc
        return QuantileModel(
            tau=tau if tau is not None else 0.5,
            feature_layout=self.layout,
            horizon_models=[regressor for regressor, _ in columns],
            calibration_preds=_clamped([predicted for _, predicted in columns]),
        )


def train_quantile_model(workers: Workers, tau: float, params: BackboneParams) -> QuantileModel:
    """Fit one pinball-loss regressor per horizon step at level tau."""
    return workers._fit(_check_tau(tau), params)


def train_point_model(workers: Workers, params: BackboneParams) -> QuantileModel:
    """Fit the squared-error point predictor (same shape as a quantile model)."""
    return workers._fit(None, params)
