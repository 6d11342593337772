"""Vectorized ML core: oracle equivalence and throughput floors.

The lockstep-grown flat-tree forest and the ``argpartition`` neighbour
search are the model-evaluation hot path of the accuracy study
(Section VI): every leave-one-workload-out fold refits and re-predicts a
model per feature set.  These benchmarks pin the vectorized estimators
against the recursive-fit / per-row oracles in ``tests.oracles.ml`` the
same way the ECC and dataset benchmarks pin their batch engines:

* a leave-one-group-out KNN cross-validation over a campaign-shaped
  design matrix (14 workload groups, ``INPUT_SET_1``-sized feature
  rows) is at least 5x faster than the oracle estimator and produces
  *bit-identical* out-of-fold predictions;
* batched forest prediction over the flattened ensemble is at least 5x
  faster than the per-tree/per-row node walk, also bit-identical;
* the accuracy study's forest fits (14 leave-one-group-out folds of the
  RDF model on a study-sized design) grow at least 2.5x faster in
  lockstep than one recursive tree at a time, with flat arrays equal to
  the oracle's;
* the 1,500-row forest fit of the prediction benchmark, where pending
  node sizes differ most, is no slower than the oracle fit.
"""

import time

import numpy as np
import pytest

from repro.core.features import INPUT_SET_1
from repro.ml.cross_validation import cross_val_predict_groups
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from tests.oracles.ml import (
    ReferenceKNeighborsRegressor,
    ReferenceRandomForestRegressor,
    reference_forest_predict,
)

pytestmark = pytest.mark.slow

#: Leave-one-group-out CV shape: one group per campaign workload, with
#: enough rows per group that the per-row oracle's Python loop (not the
#: shared distance kernel) dominates its runtime.
N_GROUPS = 14
ROWS_PER_GROUP = 384

#: Rows per workload of one rank's WER dataset in the accuracy study
#: (154 rows, so each leave-one-workload-out fold trains on 143).
STUDY_ROWS_PER_GROUP = 11

#: The study's RDF model on input set 1 (``repro.core.model``).
STUDY_FOREST = dict(
    n_estimators=30, max_depth=10, min_samples_leaf=3, max_features=0.8,
    random_state=2019,
)

FOREST_ARRAYS = ("_roots_", "_feature_", "_threshold_", "_left_", "_right_", "_value_")


def _campaign_shaped_regression(seed=7, rows_per_group=ROWS_PER_GROUP):
    """Synthetic (X, y, groups) shaped like the WER design matrix."""
    rng = np.random.default_rng(seed)
    n_features = INPUT_SET_1.num_inputs
    X = rng.normal(size=(N_GROUPS * rows_per_group, n_features))
    y = rng.normal(size=X.shape[0])
    groups = np.repeat(np.arange(N_GROUPS), rows_per_group)
    return X, y, groups


def _fit_folds(cls, X, y, groups, **params):
    """One forest fit per leave-one-group-out training set."""
    return [
        cls(**params).fit(X[groups != group], y[groups != group])
        for group in np.unique(groups)
    ]


def test_knn_cv_at_least_5x_oracle(bench_report):
    X, y, groups = _campaign_shaped_regression()
    vectorized = KNeighborsRegressor(n_neighbors=5, weights="distance")
    oracle = ReferenceKNeighborsRegressor(n_neighbors=5, weights="distance")

    # Warm both paths (imports, BLAS thread pools) on a two-group slice.
    warm = groups < 2
    cross_val_predict_groups(vectorized, X[warm], y[warm], groups[warm])
    cross_val_predict_groups(oracle, X[warm], y[warm], groups[warm])

    pred_vec = cross_val_predict_groups(vectorized, X, y, groups)
    pred_ref = cross_val_predict_groups(oracle, X, y, groups)
    # Same neighbour sets, same weights, same reductions: bit-identical.
    assert np.array_equal(pred_vec, pred_ref)

    scalar_s = min(
        _timed(lambda: cross_val_predict_groups(oracle, X, y, groups))
        for _ in range(2)
    )
    batch_s = min(
        _timed(lambda: cross_val_predict_groups(vectorized, X, y, groups))
        for _ in range(5)
    )
    speedup = bench_report.record(
        "ml_knn_cv", floor=5.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="rows", work_items=X.shape[0],
    )
    assert speedup >= 5.0


def test_forest_predict_at_least_5x_node_walk(bench_report):
    X, y, _groups = _campaign_shaped_regression(seed=11)
    params = dict(n_estimators=20, max_depth=8, random_state=3)
    forest = RandomForestRegressor(**params).fit(X[:1500], y[:1500])
    oracle = ReferenceRandomForestRegressor(**params).fit(X[:1500], y[:1500])
    Xq = X[1500:]

    pred_vec = forest.predict(Xq)
    pred_ref = reference_forest_predict(oracle, Xq)
    assert np.array_equal(pred_vec, pred_ref)

    scalar_s = min(
        _timed(lambda: reference_forest_predict(oracle, Xq)) for _ in range(3)
    )
    batch_s = min(_timed(lambda: forest.predict(Xq)) for _ in range(5))
    speedup = bench_report.record(
        "ml_forest_predict", floor=5.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="rows", work_items=Xq.shape[0],
    )
    assert speedup >= 5.0


def test_study_forest_fits_at_least_2_5x_recursive(bench_report):
    X, y, groups = _campaign_shaped_regression(
        seed=13, rows_per_group=STUDY_ROWS_PER_GROUP
    )
    lockstep = _fit_folds(RandomForestRegressor, X, y, groups, **STUDY_FOREST)
    recursive = _fit_folds(ReferenceRandomForestRegressor, X, y, groups, **STUDY_FOREST)
    for ours, oracle in zip(lockstep, recursive):
        for name in FOREST_ARRAYS:
            assert np.array_equal(getattr(ours, name), getattr(oracle, name)), name

    scalar_s = min(
        _timed(lambda: _fit_folds(ReferenceRandomForestRegressor, X, y, groups,
                                  **STUDY_FOREST))
        for _ in range(2)
    )
    batch_s = min(
        _timed(lambda: _fit_folds(RandomForestRegressor, X, y, groups, **STUDY_FOREST))
        for _ in range(3)
    )
    speedup = bench_report.record(
        "ml_study_forest_fit", floor=2.5, scalar_s=scalar_s, batch_s=batch_s,
        units_label="folds", work_items=N_GROUPS,
    )
    assert speedup >= 2.5


def test_forest_fit_no_slower_than_recursive(bench_report):
    X, y, _groups = _campaign_shaped_regression(seed=11)
    params = dict(n_estimators=20, max_depth=8, random_state=3)
    lockstep = RandomForestRegressor(**params).fit(X[:1500], y[:1500])
    recursive = ReferenceRandomForestRegressor(**params).fit(X[:1500], y[:1500])
    for name in FOREST_ARRAYS:
        assert np.array_equal(getattr(lockstep, name), getattr(recursive, name)), name

    scalar_s = min(
        _timed(lambda: ReferenceRandomForestRegressor(**params).fit(X[:1500], y[:1500]))
        for _ in range(3)
    )
    batch_s = min(
        _timed(lambda: RandomForestRegressor(**params).fit(X[:1500], y[:1500]))
        for _ in range(3)
    )
    speedup = bench_report.record(
        "ml_forest_fit", floor=1.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="trees", work_items=params["n_estimators"],
    )
    assert speedup >= 1.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
