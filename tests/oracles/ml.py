"""Recursive-fit and per-row-predict oracles of the ML hot paths.

The library grows every tree of a forest in lockstep straight into flat
node arrays and predicts by level-synchronous traversal of those
arrays; its neighbour search is ``argpartition``-based.  This module
keeps the straightforward forms alive as *independent oracles*:

* :class:`ReferenceDecisionTreeRegressor` fits by the recursive CART
  builder (one :func:`_best_split` scan per feature per node) into a
  linked :class:`_Node` tree, then flattens it breadth-first.  The
  library's flat arrays must be ``np.array_equal`` to these.
* :class:`ReferenceRandomForestRegressor` grows one oracle tree per
  bootstrap resample, drawing the per-tree seed and the resample from
  the forest RNG in the same order as the library.
* ``reference_tree_predict`` / ``reference_forest_predict`` walk the
  oracle's own ``_Node`` trees one query row at a time; library
  predictions must be bit-identical to them (same float comparisons,
  same stored leaf means, same ``mean(axis=0)`` ensemble reduction).
* ``reference_kneighbors`` / ``reference_knn_predict`` are a full
  per-row stable ``(distance, training index)`` sort over the same
  distance matrix (the oracle shares the distance kernel on purpose —
  it isolates selection/tie-break correctness; the kernel itself is
  pinned separately in the distance tests).

The oracle estimators are drop-in subclasses, so
``cross_val_predict_groups`` can run the paper's leave-one-workload-out
protocol through either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.base import ArrayLike, as_2d_array, validate_fit_args
from repro.ml.distances import pairwise_distances
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor, _neighbor_weights
from repro.ml.tree import DecisionTreeRegressor

FlatTree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Recursive CART fit.
# ---------------------------------------------------------------------------
@dataclass
class _Node:
    """A single node of a regression tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _flatten_tree(root: _Node) -> FlatTree:
    """Breadth-first columnar layout of a fitted tree.

    Returns ``(feature, threshold, left, right, value)`` arrays indexed
    by node id; the root is node 0 and ``feature == -1`` marks leaves
    (their ``left``/``right`` entries are ``-1`` and never dereferenced).
    """
    nodes = [root]
    feature = []
    threshold = []
    left = []
    right = []
    value = []
    cursor = 0
    while cursor < len(nodes):
        node = nodes[cursor]
        cursor += 1
        value.append(node.prediction)
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(len(nodes))
            nodes.append(node.left)
            right.append(len(nodes))
            nodes.append(node.right)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=np.float64),
    )


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
):
    """Find the (feature, threshold) split minimising weighted child variance.

    Returns ``(feature, threshold, gain)`` or ``None`` when no valid split
    exists.  Uses cumulative-sum statistics over the sorted column so each
    feature is scanned in O(n log n).
    """
    n = y.shape[0]
    total_sum = y.sum()
    total_sq = (y ** 2).sum()
    parent_impurity = total_sq / n - (total_sum / n) ** 2

    best = None
    best_gain = 1e-12   # require strictly positive gain
    for feature in feature_indices:
        column = X[:, feature]
        order = np.argsort(column, kind="mergesort")
        col_sorted = column[order]
        y_sorted = y[order]

        cum_sum = np.cumsum(y_sorted)
        cum_sq = np.cumsum(y_sorted ** 2)

        # candidate split after position i (left = [0..i], right = [i+1..n-1])
        left_counts = np.arange(1, n)
        right_counts = n - left_counts

        valid = (
            (left_counts >= min_samples_leaf)
            & (right_counts >= min_samples_leaf)
            & (col_sorted[:-1] < col_sorted[1:])   # only between distinct values
        )
        if not np.any(valid):
            continue

        left_sum = cum_sum[:-1]
        left_sq = cum_sq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq

        left_var = left_sq / left_counts - (left_sum / left_counts) ** 2
        right_var = right_sq / right_counts - (right_sum / right_counts) ** 2
        weighted = (left_counts * left_var + right_counts * right_var) / n
        gain = parent_impurity - weighted
        gain[~valid] = -np.inf

        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            threshold = 0.5 * (col_sorted[idx] + col_sorted[idx + 1])
            best = (int(feature), float(threshold), best_gain)

    return best


def _build(
    tree: DecisionTreeRegressor,
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng: np.random.Generator,
) -> _Node:
    """Grow the subtree over ``(X, y)``: the node, then left, then right."""
    node = _Node(prediction=float(np.mean(y)))
    n_samples, n_features = X.shape

    if (
        n_samples < tree.min_samples_split
        or (tree.max_depth is not None and depth >= tree.max_depth)
        or np.all(y == y[0])
    ):
        return node

    n_split_features = tree._n_split_features(n_features)
    if n_split_features < n_features:
        feature_indices = rng.choice(n_features, size=n_split_features, replace=False)
    else:
        feature_indices = np.arange(n_features)

    split = _best_split(X, y, feature_indices, tree.min_samples_leaf)
    if split is None:
        return node

    feature, threshold, _gain = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _build(tree, X[mask], y[mask], depth + 1, rng)
    node.right = _build(tree, X[~mask], y[~mask], depth + 1, rng)
    return node


class ReferenceDecisionTreeRegressor(DecisionTreeRegressor):
    """Oracle tree: recursive fit into ``_Node`` links, per-row node-walk predict."""

    def fit(self, X: ArrayLike, y: ArrayLike) -> "ReferenceDecisionTreeRegressor":
        X_arr, y_arr = validate_fit_args(X, y)
        rng = np.random.default_rng(self.random_state)
        self.n_features_ = X_arr.shape[1]
        self.root_ = _build(self, X_arr, y_arr, 0, rng)
        (
            self.feature_,
            self.threshold_,
            self.children_left_,
            self.children_right_,
            self.value_,
        ) = _flatten_tree(self.root_)
        return self

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("root_")
        return reference_tree_predict(self, X)


class ReferenceRandomForestRegressor(RandomForestRegressor):
    """Oracle forest: one recursive fit per tree, per-row node-walk predict.

    Besides the oracle trees (``trees_``) the fit concatenates their flat
    arrays exactly as the library lays out its ensemble (child ids
    shifted by each tree's node offset), so the two fits compare with
    ``np.array_equal`` attribute by attribute.
    """

    def fit(self, X: ArrayLike, y: ArrayLike) -> "ReferenceRandomForestRegressor":
        X_arr, y_arr = validate_fit_args(X, y)
        rng = np.random.default_rng(self.random_state)
        n_samples = X_arr.shape[0]
        self.n_features_ = X_arr.shape[1]
        self.trees_: List[ReferenceDecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            tree = ReferenceDecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree.fit(X_arr[indices], y_arr[indices])
            self.trees_.append(tree)

        node_counts = np.array([t.feature_.shape[0] for t in self.trees_])
        self._roots_ = np.concatenate(([0], np.cumsum(node_counts)[:-1]))
        offsets = np.repeat(self._roots_, node_counts)
        self._feature_ = np.concatenate([t.feature_ for t in self.trees_])
        self._threshold_ = np.concatenate([t.threshold_ for t in self.trees_])
        self._value_ = np.concatenate([t.value_ for t in self.trees_])
        left = np.concatenate([t.children_left_ for t in self.trees_])
        right = np.concatenate([t.children_right_ for t in self.trees_])
        internal = self._feature_ >= 0
        self._left_ = np.where(internal, left + offsets, -1)
        self._right_ = np.where(internal, right + offsets, -1)
        return self

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("trees_")
        return reference_forest_predict(self, X)


# ---------------------------------------------------------------------------
# Per-row prediction.
# ---------------------------------------------------------------------------
def reference_tree_predict(
    tree: ReferenceDecisionTreeRegressor, X: ArrayLike
) -> np.ndarray:
    """Walk the oracle tree's ``_Node`` structure one query row at a time."""
    X_arr = as_2d_array(X, allow_empty=True)

    def predict_one(x: np.ndarray) -> float:
        node = tree.root_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.prediction

    return np.array([predict_one(row) for row in X_arr])


def reference_forest_predict(
    forest: ReferenceRandomForestRegressor, X: ArrayLike
) -> np.ndarray:
    """Average per-tree per-row node walks over the oracle ensemble."""
    X_arr = as_2d_array(X, allow_empty=True)
    per_tree = np.stack([reference_tree_predict(tree, X_arr) for tree in forest.trees_])
    return per_tree.mean(axis=0)


def reference_kneighbors(
    model: KNeighborsRegressor, X: ArrayLike, n_neighbors: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full stable per-row sort by ``(distance, training index)``."""
    k = n_neighbors if n_neighbors is not None else model.n_neighbors
    k = min(k, model.X_train_.shape[0])
    X_arr = as_2d_array(X, allow_empty=True)
    dist = pairwise_distances(X_arr, model.X_train_, metric=model.metric)
    train_index = np.arange(model.X_train_.shape[0])
    indices = np.empty((X_arr.shape[0], k), dtype=np.int64)
    nearest = np.empty((X_arr.shape[0], k), dtype=np.float64)
    for row in range(X_arr.shape[0]):
        order = np.lexsort((train_index, dist[row]))[:k]
        indices[row] = order
        nearest[row] = dist[row, order]
    return nearest, indices


def reference_knn_predict(model: KNeighborsRegressor, X: ArrayLike) -> np.ndarray:
    """Weighted neighbour average, one query row at a time."""
    nearest, indices = reference_kneighbors(model, X)
    predictions = np.empty(nearest.shape[0], dtype=np.float64)
    for row in range(nearest.shape[0]):
        w = _neighbor_weights(nearest[row][None, :], model.weights)[0]
        targets = model.y_train_[indices[row]]
        total = w.sum()
        if total == 0.0:  # repro-lint: disable=REP004
            total = 1.0
        predictions[row] = (w * targets).sum() / total
    return predictions


class ReferenceKNeighborsRegressor(KNeighborsRegressor):
    """Oracle KNN: identical fit, per-row full-sort predict."""

    def kneighbors(
        self, X: ArrayLike, n_neighbors: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check_fitted("X_train_")
        return reference_kneighbors(self, X, n_neighbors)

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("X_train_")
        return reference_knn_predict(self, X)
