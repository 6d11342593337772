"""Lockstep tree growth: fit-equivalence pins and growth-parameter checks.

``grow_trees`` builds every tree of a forest at once, straight into the
flat breadth-first node arrays.  Its output must be ``np.array_equal``
to the recursive oracle fit in ``tests.oracles.ml`` — same splits, same
thresholds, same leaf means, same per-tree feature draws — over the
whole parameter space, including the degenerate data the split search
has to get right: duplicated rows, tied columns, constant targets,
nodes below ``min_samples_split`` and a single feature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.serving.registry import load_estimator, save_estimator
from tests.oracles.ml import (
    ReferenceDecisionTreeRegressor,
    ReferenceRandomForestRegressor,
    reference_forest_predict,
)

TREE_ARRAYS = ("feature_", "threshold_", "children_left_", "children_right_", "value_")
FOREST_ARRAYS = ("_roots_", "_feature_", "_threshold_", "_left_", "_right_", "_value_")

max_features_st = st.one_of(
    st.none(),
    st.floats(0.05, 1.0),
    st.integers(1, 7),
    st.sampled_from(["sqrt", "log2"]),
)
growth_st = st.fixed_dictionaries({
    "max_depth": st.one_of(st.none(), st.integers(0, 7)),
    "min_samples_split": st.integers(2, 9),
    "min_samples_leaf": st.integers(1, 5),
    "max_features": max_features_st,
})


@st.composite
def design_st(draw):
    """A small regression problem with the degenerate cases mixed in."""
    seed = draw(st.integers(0, 2 ** 16))
    n = draw(st.integers(1, 70))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    # Tied columns: few distinct values per feature.
    if draw(st.booleans()):
        X = np.round(X * draw(st.integers(1, 3)))
    # Duplicated rows.
    duplicates = draw(st.integers(0, n))
    if duplicates:
        X = np.concatenate([X, X[rng.integers(0, n, size=duplicates)]])
    target = draw(st.sampled_from(["normal", "constant", "few_levels"]))
    if target == "constant":
        y = np.full(X.shape[0], draw(st.floats(-5.0, 5.0)))
    elif target == "few_levels":
        y = rng.integers(0, 3, size=X.shape[0]).astype(float)
    else:
        y = X[:, 0] + rng.normal(size=X.shape[0])
    return X, y, seed


def _assert_arrays_equal(fitted, oracle, names):
    for name in names:
        ours, theirs = getattr(fitted, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


class TestFitEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(design=design_st(), params=growth_st)
    def test_tree_flat_arrays_equal_recursive_oracle(self, design, params):
        X, y, seed = design
        tree = DecisionTreeRegressor(random_state=seed, **params).fit(X, y)
        oracle = ReferenceDecisionTreeRegressor(random_state=seed, **params).fit(X, y)
        _assert_arrays_equal(tree, oracle, TREE_ARRAYS)

    @settings(max_examples=100, deadline=None)
    @given(
        design=design_st(),
        params=growth_st,
        n_estimators=st.integers(1, 8),
        bootstrap=st.booleans(),
    )
    def test_forest_flat_arrays_equal_recursive_oracle(
        self, design, params, n_estimators, bootstrap
    ):
        X, y, seed = design
        kwargs = dict(params, n_estimators=n_estimators, bootstrap=bootstrap,
                      random_state=seed)
        forest = RandomForestRegressor(**kwargs).fit(X, y)
        oracle = ReferenceRandomForestRegressor(**kwargs).fit(X, y)
        _assert_arrays_equal(forest, oracle, FOREST_ARRAYS)
        assert np.array_equal(forest.predict(X), reference_forest_predict(oracle, X))

    def test_study_shaped_forest(self):
        # The accuracy study's RDF: 143 rows, 7 inputs, 30 trees.
        rng = np.random.default_rng(5)
        X = np.round(rng.normal(size=(143, 7)), 1)
        y = rng.normal(size=143)
        kwargs = dict(n_estimators=30, max_depth=10, min_samples_leaf=3,
                      max_features=0.8, random_state=2019)
        forest = RandomForestRegressor(**kwargs).fit(X, y)
        oracle = ReferenceRandomForestRegressor(**kwargs).fit(X, y)
        _assert_arrays_equal(forest, oracle, FOREST_ARRAYS)

    def test_chunked_split_search_matches(self, monkeypatch):
        # Force every lockstep step to search its nodes in many chunks.
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(120, 4)), 1)
        y = rng.normal(size=120)
        kwargs = dict(n_estimators=6, max_features=2, random_state=1)
        oracle = ReferenceRandomForestRegressor(**kwargs).fit(X, y)
        monkeypatch.setattr(tree_module, "SPLIT_SEARCH_CELLS", 50)
        forest = RandomForestRegressor(**kwargs).fit(X, y)
        _assert_arrays_equal(forest, oracle, FOREST_ARRAYS)

    def test_fewer_rows_than_min_samples_split_is_one_leaf(self):
        X = [[0.0], [1.0], [2.0]]
        y = [1.0, 2.0, 6.0]
        tree = DecisionTreeRegressor(min_samples_split=4).fit(X, y)
        assert tree.node_count() == 1
        assert tree.value_[0] == np.mean(y)

    @pytest.mark.parametrize(
        "low, high", [(1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51), (1.7e308, 1.79e308)]
    )
    def test_midpoint_outside_the_gap_splits_at_the_lower_value(self, low, high):
        # The midpoint rounds up to ``high`` / overflows to inf; splitting
        # there would send both rows left and grow the same node forever.
        assert not low <= 0.5 * (low + high) < high
        tree = DecisionTreeRegressor().fit([[low], [high]], [0.0, 1.0])
        assert tree.node_count() == 3
        assert tree.threshold_[0] == low
        assert np.array_equal(tree.predict([[low], [high]]), [0.0, 1.0])

    def test_estimators_are_per_tree_views(self):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(60, 3)), rng.normal(size=60)
        kwargs = dict(n_estimators=5, max_depth=4, random_state=8)
        forest = RandomForestRegressor(**kwargs).fit(X, y)
        oracle = ReferenceRandomForestRegressor(**kwargs).fit(X, y)
        views = forest.estimators_
        assert len(views) == 5
        for view, oracle_tree in zip(views, oracle.trees_):
            _assert_arrays_equal(view, oracle_tree, TREE_ARRAYS)
        per_tree = np.stack([view.predict(X) for view in views])
        assert np.array_equal(per_tree.mean(axis=0), forest.predict(X))


class TestMaxFeaturesValidation:
    @pytest.mark.parametrize("cls", [DecisionTreeRegressor, RandomForestRegressor])
    @pytest.mark.parametrize(
        "bad", ["bogus", "", -0.5, 0.0, 1.5, 2.0, 0, -3, True, float("nan"), [2]]
    )
    def test_invalid_values_raise_at_construction(self, cls, bad):
        with pytest.raises(ConfigurationError):
            cls(max_features=bad)

    @pytest.mark.parametrize("cls", [DecisionTreeRegressor, RandomForestRegressor])
    @pytest.mark.parametrize("good", [None, "sqrt", "log2", 1, 100, 0.01, 0.5, 1.0])
    def test_valid_values_are_accepted(self, cls, good):
        assert cls(max_features=good).max_features == good

    def test_unknown_string_raises_even_for_a_constant_target(self):
        # A constant target never reaches the split search, which is
        # where the value used to be checked.
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(max_features="bogus").fit([[1.0], [2.0]], [3.0, 3.0])

    def test_numpy_scalars(self):
        assert DecisionTreeRegressor(max_features=np.int64(3))._n_split_features(8) == 3
        assert DecisionTreeRegressor(max_features=np.float32(0.5))._n_split_features(8) == 4
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(max_features=np.float64(-0.5))

    @pytest.mark.parametrize(
        "kwargs", [{"min_samples_split": 1}, {"min_samples_leaf": 0}]
    )
    def test_forest_checks_sample_minimums_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            RandomForestRegressor(**kwargs)


class TestFlatArrayIntrospection:
    @settings(max_examples=40, deadline=None)
    @given(design=design_st(), params=growth_st)
    def test_depth_matches_linked_tree(self, design, params):
        X, y, seed = design
        tree = DecisionTreeRegressor(random_state=seed, **params).fit(X, y)
        oracle = ReferenceDecisionTreeRegressor(random_state=seed, **params).fit(X, y)

        def walk(node):
            return 0 if node.is_leaf else 1 + max(walk(node.left), walk(node.right))

        assert tree.depth() == walk(oracle.root_)
        if params["max_depth"] is not None:
            assert tree.depth() <= params["max_depth"]

    def test_registry_round_trip_keeps_depth_and_node_count(self, tmp_path):
        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(120, 4)), rng.normal(size=120)
        tree = DecisionTreeRegressor(max_depth=6, min_samples_leaf=2).fit(X, y)
        restored = load_estimator(save_estimator(tree, tmp_path / "tree"))
        assert restored.depth() == tree.depth() > 0
        assert restored.node_count() == tree.node_count()

        forest = RandomForestRegressor(n_estimators=4, max_depth=5, random_state=2).fit(X, y)
        restored_forest = load_estimator(save_estimator(forest, tmp_path / "forest"))
        assert [t.depth() for t in restored_forest.estimators_] == [
            t.depth() for t in forest.estimators_
        ]
        assert [t.node_count() for t in restored_forest.estimators_] == [
            t.node_count() for t in forest.estimators_
        ]
