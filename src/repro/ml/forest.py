"""Random Decision Forest regression (RDF in the paper).

The fitted ensemble is stored once, as one set of concatenated flat-tree
columns: each tree's breadth-first node arrays (see :mod:`repro.ml.tree`)
in tree order, child ids absolute, ``_roots_`` holding each tree's root
id.  ``fit`` draws every tree's seed and bootstrap resample from the
forest RNG first (seed, then resample, tree by tree), then grows all
trees in lockstep with one :func:`~repro.ml.tree.grow_trees` call; each
tree's feature-subset draws follow its own preorder.  ``predict``
traverses every (tree, row) pair level-synchronously in a single numpy
state vector instead of looping trees in Python.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import ArrayLike, Regressor, as_2d_array, validate_fit_args
from repro.ml.tree import (
    DecisionTreeRegressor,
    MaxFeatures,
    check_growth_params,
    flat_tree_predict,
    grow_trees,
)


class RandomForestRegressor(Regressor):
    """Bagged ensemble of CART trees with per-split feature sub-sampling.

    Each tree is trained on a bootstrap resample of the data and restricted
    to a random subset of features at every split, which is what lets the
    forest cope with the paper's third input set (all 249 features, most of
    which are irrelevant) better than SVM or KNN.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ConfigurationError("n_estimators must be >= 1")
        check_growth_params(min_samples_split, min_samples_leaf, max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X: ArrayLike, y: ArrayLike) -> "RandomForestRegressor":
        X_arr, y_arr = validate_fit_args(X, y)
        rng = np.random.default_rng(self.random_state)
        n_samples = X_arr.shape[0]
        seeds = []
        samples = []
        for _ in range(self.n_estimators):
            seeds.append(int(rng.integers(0, 2 ** 31 - 1)))
            if self.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
            else:
                samples.append(np.arange(n_samples))
        self.n_features_ = X_arr.shape[1]
        (
            self._roots_,
            self._feature_,
            self._threshold_,
            self._left_,
            self._right_,
            self._value_,
        ) = grow_trees(
            X_arr, y_arr, samples, seeds,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        return self

    @property
    def estimators_(self) -> List[DecisionTreeRegressor]:
        """Per-tree views of the fitted ensemble, as fitted trees.

        Built on each access from the concatenated arrays (child ids made
        tree-local again), so a registry-restored forest has them too.
        Their ``random_state`` is ``None``: the per-tree seeds are drawn
        inside ``fit`` and not kept.
        """
        self._check_fitted("_roots_")
        ends = np.append(self._roots_[1:], self._feature_.shape[0])
        trees = []
        for start, end in zip(self._roots_.tolist(), ends.tolist()):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
            )
            internal = self._feature_[start:end] >= 0
            tree.n_features_ = self.n_features_
            tree.feature_ = self._feature_[start:end]
            tree.threshold_ = self._threshold_[start:end]
            tree.children_left_ = np.where(internal, self._left_[start:end] - start, -1)
            tree.children_right_ = np.where(internal, self._right_[start:end] - start, -1)
            tree.value_ = self._value_[start:end]
            trees.append(tree)
        return trees

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("_roots_")
        X_arr = as_2d_array(X, allow_empty=True)
        n_rows = X_arr.shape[0]
        n_trees = self._roots_.shape[0]
        # One flat traversal state per (tree, row) pair: entry t*n_rows + i
        # walks tree t for query row i, all advancing one level per pass.
        node_ids = np.repeat(self._roots_, n_rows)
        row_ids = np.tile(np.arange(n_rows), n_trees)
        leaf_values = flat_tree_predict(
            self._feature_, self._threshold_, self._left_, self._right_,
            self._value_, X_arr, node_ids=node_ids, row_ids=row_ids,
        )
        return leaf_values.reshape(n_trees, n_rows).mean(axis=0)
