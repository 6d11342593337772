"""CART regression trees.

The trees are the building block of the Random Decision Forest model
(RDF in the paper).  Splitting criterion is variance reduction (MSE);
the implementation supports feature sub-sampling at every split so the
forest can decorrelate its members.

A fitted tree is stored once, as a **flat columnar layout**: parallel
``feature_``/``threshold_``/``children_left_``/``children_right_``/
``value_`` arrays indexed by node id, root at 0, children appended in
breadth-first order, ``feature_ == -1`` marking leaves.

:func:`grow_trees` builds that layout directly, for one tree or for a
whole forest at once.  Every tree keeps an explicit stack (right child
pushed before left), and each step pops the next node of every tree,
so each tree visits its nodes in preorder — the order of the classic
recursive builder — and draws its per-split feature subsets from its
own RNG in exactly that order.  The split search of a step then runs
for all popped nodes together as one padded (node x feature x row)
pass.  ``predict`` traverses the flat arrays level-synchronously: all
query rows step one tree level per numpy operation, and
:class:`~repro.ml.forest.RandomForestRegressor` batches its whole
ensemble the same way over the concatenated per-tree arrays.
"""

from __future__ import annotations

import numbers
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import ArrayLike, Regressor, as_2d_array, validate_fit_args

MaxFeatures = Union[str, int, float, None]

#: ``(roots, feature, threshold, left, right, value)`` of a grown
#: ensemble: each tree's breadth-first node arrays concatenated in tree
#: order, ``roots[t]`` the node id of tree ``t``'s root and child ids
#: absolute (``-1`` at leaves).
FlatForest = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Upper bound on the (node x feature x row) cells of one padded split
#: search; a step with more pending work is searched in several chunks.
SPLIT_SEARCH_CELLS = 1 << 20

#: A split must reduce the weighted child variance by more than this.
MIN_GAIN = 1e-12


def check_growth_params(
    min_samples_split: int, min_samples_leaf: int, max_features: MaxFeatures
) -> None:
    """Raise :class:`ConfigurationError` for parameters no tree can grow with."""
    if min_samples_split < 2:
        raise ConfigurationError("min_samples_split must be >= 2")
    if min_samples_leaf < 1:
        raise ConfigurationError("min_samples_leaf must be >= 1")
    if max_features is None:
        return
    if isinstance(max_features, str):
        if max_features in ("sqrt", "log2"):
            return
    elif isinstance(max_features, bool):
        pass
    elif isinstance(max_features, numbers.Integral):
        if max_features >= 1:
            return
    elif isinstance(max_features, numbers.Real) and 0.0 < max_features <= 1.0:
        return
    raise ConfigurationError(
        f"max_features must be None, 'sqrt', 'log2', an int >= 1 or a float "
        f"in (0, 1]; got {max_features!r}"
    )


def n_split_features(max_features: MaxFeatures, n_features: int) -> int:
    """How many features each split considers."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise ConfigurationError(f"Unknown max_features {max_features!r}")
    if isinstance(max_features, numbers.Integral):
        return max(1, min(int(max_features), n_features))
    return max(1, int(max_features * n_features))


def flat_tree_predict(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    X: np.ndarray,
    node_ids: Optional[np.ndarray] = None,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-synchronous traversal of one (or many concatenated) flat trees.

    ``node_ids``/``row_ids`` generalize the traversal to a forest: entry
    ``i`` starts at node ``node_ids[i]`` and reads feature values from
    ``X[row_ids[i]]``.  When omitted, every row of ``X`` starts at the
    root of a single tree (node 0).  Each loop iteration advances every
    still-internal entry by exactly one level, so the number of numpy
    passes is the tree depth, not the row count.
    """
    if node_ids is None:
        state = np.zeros(X.shape[0], dtype=np.int64)
    else:
        state = np.array(node_ids, dtype=np.int64)
    rows = np.arange(state.shape[0]) if row_ids is None else np.asarray(row_ids)

    active = np.nonzero(feature[state] >= 0)[0]
    while active.size:
        node = state[active]
        split_feature = feature[node]
        go_left = X[rows[active], split_feature] <= threshold[node]
        state[active] = np.where(go_left, left[node], right[node])
        active = active[feature[state[active]] >= 0]
    return value[state]


class _Pending:
    """A node whose split search runs in the current lockstep step."""

    __slots__ = (
        "record", "tree", "rows", "depth", "features", "total_sum", "total_sq", "impurity",
    )

    def __init__(self, record, tree, rows, depth, features, total_sum, total_sq, impurity):
        self.record = record
        self.tree = tree
        self.rows = rows
        self.depth = depth
        self.features = features
        self.total_sum = total_sum
        self.total_sq = total_sq
        self.impurity = impurity


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per-feature dense value ranks, shape ``(n_features, n_rows + 1)``.

    Equal values share a rank and ranks grow with the value, so ranks
    order and compare exactly as the values do.  The extra last column
    ranks above every value: it belongs to the filler row that pads
    short nodes in :func:`_search_splits`.
    """
    n_rows, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    sorted_values = np.take_along_axis(X, order, axis=0)
    steps = np.zeros((n_rows, n_features), dtype=np.int64)
    steps[1:] = sorted_values[1:] > sorted_values[:-1]
    ranks = np.empty((n_features, n_rows + 1), dtype=np.int64)
    np.put_along_axis(ranks[:, :n_rows].T, order, np.cumsum(steps, axis=0), axis=0)
    ranks[:, n_rows] = n_rows
    return ranks


def _search_splits(
    X_pad: np.ndarray,
    y_pad: np.ndarray,
    ranks: np.ndarray,
    nodes: List[_Pending],
    min_samples_leaf: int,
):
    """Best variance-reducing split of every node, in one padded pass.

    Each node's rows fill one row of a ``(node, row)`` grid, short nodes
    padded with the filler row (last of ``X_pad``/``y_pad``/``ranks``,
    target ``0``) that sorts after every real value and never forms a
    valid split.  Per (node, feature) the scan is the classic one: a
    stable sort by value, prefix sums of the target, and the weighted
    child variance at every boundary between distinct values.  The
    stable sort is one integer sort of ``(value rank, row slot)`` keys,
    which orders exactly as a stable sort of the values does.
    ``argmax`` over the flattened (feature, position) axis picks the
    first maximum, as a feature-by-feature scan keeping only strictly
    better gains would.

    Returns ``(splits, feature, threshold, left, right)``: ``splits``
    flags the nodes whose best gain exceeds :data:`MIN_GAIN`, and
    ``left``/``right`` hold each node's children as :func:`_children`
    describes them.
    """
    n_nodes = len(nodes)
    counts = np.array([node.rows.shape[0] for node in nodes])
    width = int(counts.max())
    real = np.arange(width) < counts[:, None]
    grid = np.full((n_nodes, width), y_pad.shape[0] - 1)
    grid[real] = np.concatenate([node.rows for node in nodes])
    features = np.array([node.features for node in nodes])
    n_draw = features.shape[1]

    shift = (width - 1).bit_length()
    keys = (ranks[features[:, :, None], grid[:, None, :]] << shift) | np.arange(width)
    keys.sort(axis=2)
    slots = keys & ((1 << shift) - 1)
    node_index = np.arange(n_nodes)
    y_grid = y_pad[grid]
    y_sorted = y_grid.ravel()[slots + (node_index * width)[:, None, None]]
    cum_sum = np.cumsum(y_sorted, axis=2)
    cum_sq = np.cumsum(y_sorted ** 2, axis=2)

    # Candidate boundary after sorted position p: left = [0..p].  Only
    # valid candidates are scored; the rest keep gain -inf.
    left_counts = np.arange(1, width + 1)
    right_counts = counts[:, None, None] - left_counts
    rank_sorted = keys >> shift
    valid = np.zeros(keys.shape, dtype=bool)
    valid[:, :, :-1] = rank_sorted[:, :, :-1] < rank_sorted[:, :, 1:]
    valid &= (left_counts >= min_samples_leaf) & (right_counts >= min_samples_leaf)
    cells = np.flatnonzero(valid)
    node_of, rest = np.divmod(cells, n_draw * width)
    left_counts = rest % width + 1
    n = counts[node_of]
    right_counts = n - left_counts
    left_sum = cum_sum.ravel()[cells]
    left_sq = cum_sq.ravel()[cells]
    right_sum = np.array([node.total_sum for node in nodes])[node_of] - left_sum
    right_sq = np.array([node.total_sq for node in nodes])[node_of] - left_sq
    left_var = left_sq / left_counts - (left_sum / left_counts) ** 2
    right_var = right_sq / right_counts - (right_sum / right_counts) ** 2
    weighted = (left_counts * left_var + right_counts * right_var) / n
    gain = np.full(n_nodes * n_draw * width, -np.inf)
    gain[cells] = np.array([node.impurity for node in nodes])[node_of] - weighted

    flat_gain = gain.reshape(n_nodes, -1)
    best = np.argmax(flat_gain, axis=1)
    splits = flat_gain[node_index, best] > MIN_GAIN
    slot, position = np.divmod(best, width)
    feature = features[node_index, slot]
    low = X_pad[grid[node_index, slots[node_index, slot, position]], feature]
    high = X_pad[grid[node_index, slots[node_index, slot, position + 1]], feature]
    # A midpoint that rounds up to the upper value (adjacent floats) or
    # overflows would leave one child empty; split at the lower value.
    with np.errstate(over="ignore"):
        threshold = 0.5 * (low + high)
    threshold = np.where((low <= threshold) & (threshold < high), threshold, low)

    go_left = (X_pad[grid, feature[:, None]] <= threshold[:, None]) & real
    go_right = real & ~go_left
    return (
        splits, feature, threshold,
        _children(grid, y_grid, go_left), _children(grid, y_grid, go_right),
    )


def _children(grid: np.ndarray, y_grid: np.ndarray, member: np.ndarray) -> List[tuple]:
    """``(rows, targets, constant target?)`` of one child of every node."""
    rows = grid[member]
    targets = y_grid[member]
    constant = (
        np.where(member, y_grid, np.inf).min(axis=1)
        == np.where(member, y_grid, -np.inf).max(axis=1)
    ).tolist()
    ends = np.cumsum(member.sum(axis=1)).tolist()
    starts = [0] + ends[:-1]
    return [
        (rows[start:end], targets[start:end], flat)
        for start, end, flat in zip(starts, ends, constant)
    ]


def _chunks(nodes: List[_Pending], n_draw: int) -> List[List[_Pending]]:
    """Group pending nodes, largest first, under :data:`SPLIT_SEARCH_CELLS`."""
    nodes = sorted(nodes, key=lambda node: -node.rows.shape[0])
    chunks = []
    start = 0
    while start < len(nodes):
        width = nodes[start].rows.shape[0]
        size = max(1, SPLIT_SEARCH_CELLS // (n_draw * width))
        chunks.append(nodes[start:start + size])
        start += size
    return chunks


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence[np.ndarray],
    random_states: Sequence[object],
    *,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: MaxFeatures,
) -> FlatForest:
    """Grow one CART tree per ``(samples[t], random_states[t])`` in lockstep.

    Tree ``t`` is fitted on the rows ``X[samples[t]]`` (in that order,
    duplicates allowed) with ``np.random.default_rng(random_states[t])``
    drawing its per-split feature subsets.  A node becomes a leaf when
    it has fewer than ``min_samples_split`` rows, sits at ``max_depth``,
    has a constant target, or has no split with positive gain; its value
    is the mean target of its rows.

    Each step pops, from every tree, nodes off its stack until one needs
    a split search (leaves by the stopping rules are recorded on the
    way), then searches all those nodes at once.  Per-node target sums
    are taken on the node's own rows, so they round exactly as a
    per-node ``np.sum``/``np.mean`` does.  Nodes are recorded in visit
    order; a stable sort by (tree, depth) turns each tree's preorder
    into its breadth-first layout.
    """
    n_trees = len(samples)
    n_features = X.shape[1]
    n_draw = n_split_features(max_features, n_features)
    all_features = np.arange(n_features)
    rngs = [np.random.default_rng(state) for state in random_states]
    # One filler row (index n) pads short nodes in the split search.
    X_pad = np.vstack([X, np.full((1, n_features), np.inf)])
    y_pad = np.append(y, 0.0)
    ranks = _dense_ranks(X)

    record_tree: List[int] = []
    record_depth: List[int] = []
    record_parent: List[int] = []
    record_is_right: List[bool] = []
    record_value: List[float] = []
    record_feature: List[int] = []
    record_threshold: List[float] = []

    # A stack entry is (rows, their targets, constant target?, depth,
    # parent record, is right child).
    stacks = []
    for rows in samples:
        rows = np.asarray(rows)
        y_rows = y[rows]
        stacks.append([(rows, y_rows, y_rows.min() == y_rows.max(), 0, -1, False)])
    live = list(range(n_trees))
    while live:
        pending: List[_Pending] = []
        for t in live:
            stack = stacks[t]
            while stack:
                rows, y_rows, constant, depth, parent, is_right = stack.pop()
                n = rows.shape[0]
                total_sum = y_rows.sum()
                record = len(record_value)
                record_tree.append(t)
                record_depth.append(depth)
                record_parent.append(parent)
                record_is_right.append(is_right)
                record_value.append(total_sum / n)
                record_feature.append(-1)
                record_threshold.append(0.0)
                if (
                    n < min_samples_split
                    or (max_depth is not None and depth >= max_depth)
                    or constant
                ):
                    continue
                if n_draw < n_features:
                    features = rngs[t].choice(n_features, size=n_draw, replace=False)
                else:
                    features = all_features
                total_sq = (y_rows ** 2).sum()
                impurity = total_sq / n - (total_sum / n) ** 2
                pending.append(_Pending(
                    record, t, rows, depth, features, total_sum, total_sq, impurity
                ))
                break

        for chunk in _chunks(pending, n_draw):
            splits, feature, threshold, left, right = _search_splits(
                X_pad, y_pad, ranks, chunk, min_samples_leaf
            )
            for k in np.nonzero(splits)[0]:
                node = chunk[k]
                record_feature[node.record] = int(feature[k])
                record_threshold[node.record] = float(threshold[k])
                stack = stacks[node.tree]
                stack.append((*right[k], node.depth + 1, node.record, True))
                stack.append((*left[k], node.depth + 1, node.record, False))
        live = [t for t in live if stacks[t]]

    tree_of = np.array(record_tree)
    order = np.lexsort((np.array(record_depth), tree_of))
    node_id = np.empty_like(order)
    node_id[order] = np.arange(order.shape[0])
    parent = np.array(record_parent)
    is_right = np.array(record_is_right, dtype=bool)
    children = np.nonzero(parent >= 0)[0]
    left = np.full(order.shape[0], -1, dtype=np.int64)
    right = np.full(order.shape[0], -1, dtype=np.int64)
    on_right = is_right[children]
    left[node_id[parent[children[~on_right]]]] = node_id[children[~on_right]]
    right[node_id[parent[children[on_right]]]] = node_id[children[on_right]]
    roots = np.searchsorted(tree_of[order], np.arange(n_trees))
    return (
        roots.astype(np.int64),
        np.array(record_feature, dtype=np.int64)[order],
        np.array(record_threshold, dtype=np.float64)[order],
        left,
        right,
        np.array(record_value, dtype=np.float64)[order],
    )


class DecisionTreeRegressor(Regressor):
    """CART regression tree with MSE splitting."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = None,
        random_state: Optional[int] = None,
    ) -> None:
        check_growth_params(min_samples_split, min_samples_leaf, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _n_split_features(self, n_features: int) -> int:
        return n_split_features(self.max_features, n_features)

    def fit(self, X: ArrayLike, y: ArrayLike) -> "DecisionTreeRegressor":
        X_arr, y_arr = validate_fit_args(X, y)
        self.n_features_ = X_arr.shape[1]
        (
            _roots,
            self.feature_,
            self.threshold_,
            self.children_left_,
            self.children_right_,
            self.value_,
        ) = grow_trees(
            X_arr, y_arr, [np.arange(X_arr.shape[0])], [self.random_state],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        return self

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("feature_")
        X_arr = as_2d_array(X, allow_empty=True)
        if X_arr.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X_arr.shape[1]} features, tree was fitted with {self.n_features_}"
            )
        return flat_tree_predict(
            self.feature_, self.threshold_, self.children_left_,
            self.children_right_, self.value_, X_arr,
        )

    def depth(self) -> int:
        """Maximum depth of the fitted tree (0 for a single leaf)."""
        self._check_fitted("feature_")
        level = np.zeros(1, dtype=np.int64)
        depth = 0
        while True:
            internal = level[self.feature_[level] >= 0]
            if internal.size == 0:
                return depth
            level = np.concatenate(
                (self.children_left_[internal], self.children_right_[internal])
            )
            depth += 1

    def node_count(self) -> int:
        """Total number of nodes (internal + leaves) in the fitted tree."""
        self._check_fitted("feature_")
        return int(self.feature_.shape[0])
