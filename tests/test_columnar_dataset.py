"""Columnar dataset builders: equivalence with the per-sample reference.

``build_wer_dataset`` / ``build_pue_dataset`` stream a campaign's
columnar store straight into a :class:`ColumnarDataset`; the pre-columnar
per-``Sample`` builders live on in ``tests/oracles/core.py`` as the
independent oracle, and ``reference_matrices`` stacks their
``input_row``s one sample at a time.  Every matrix comparison in this
file is exact (``tobytes()`` on floats) — that is the columnar-vs-per-
sample API contract, mirroring the grid engine's scalar-vs-batch
contract.

Also pinned here: the dataset error paths (missing profiles list every
absent workload, empty campaigns raise for both builders, rank-less
datasets raise from ``ranks()``) and that a dataset is one read-only
columnar record — hand-built samples are packed once, and neither the
``samples`` view nor the columns can be edited.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.characterization.campaign import CampaignConfig, CampaignResult
from repro.core.dataset import (
    ColumnarDataset,
    ErrorDataset,
    Sample,
    build_pue_dataset,
    build_wer_dataset,
)
from repro.core.features import INPUT_SET_1, INPUT_SET_2, INPUT_SET_3
from repro.dram.operating import OperatingPoint
from repro.errors import DataError
from tests.oracles.core import (
    reference_build_pue_dataset,
    reference_build_wer_dataset,
    reference_matrices,
)


def _assert_identical_matrices(columnar, reference, feature_set):
    """``columnar`` is an ErrorDataset, ``reference`` a Sample list."""
    Xc, yc, gc = columnar.matrices(feature_set)
    Xr, yr, gr = reference_matrices(reference, feature_set)
    assert Xc.dtype == Xr.dtype and Xc.shape == Xr.shape
    assert Xc.tobytes() == Xr.tobytes()
    assert yc.tobytes() == yr.tobytes()
    assert bool((gc == gr).all())


class TestColumnarEquivalence:
    @pytest.mark.parametrize("feature_set", [INPUT_SET_1, INPUT_SET_2, INPUT_SET_3],
                             ids=lambda fs: fs.name)
    def test_wer_matrices_bit_identical(self, small_campaign, small_profiles,
                                        feature_set):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, feature_set)

    def test_pue_matrices_bit_identical(self, small_campaign, small_profiles):
        columnar = build_pue_dataset(small_campaign, small_profiles)
        reference = reference_build_pue_dataset(small_campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, INPUT_SET_2)

    def test_materialized_samples_equal_reference(self, small_campaign,
                                                  small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert columnar.samples == tuple(reference)
        pue = build_pue_dataset(small_campaign, small_profiles)
        assert pue.samples == tuple(reference_build_pue_dataset(
            small_campaign, small_profiles
        ))

    def test_group_accessors_match(self, small_campaign, small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        assert columnar.workloads() == sorted({s.workload for s in reference})
        assert columnar.ranks() == sorted({s.rank for s in reference})
        targets = {}
        for sample in reference:
            targets.setdefault(sample.workload, []).append(sample.target)
        assert columnar.targets_by_workload() == targets

    def test_filter_rank_stays_columnar_and_matches(self, small_campaign,
                                                    small_profiles):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        for rank in columnar.ranks()[:3]:
            filtered = columnar.filter_rank(rank)
            assert isinstance(filtered.columns(), ColumnarDataset)
            _assert_identical_matrices(
                filtered, [s for s in reference if s.rank == rank], INPUT_SET_1
            )

    def test_hand_built_dataset_matches_reference(self, small_campaign,
                                                  small_profiles):
        """A Sample list is packed once into the same columns."""
        reference = reference_build_wer_dataset(small_campaign, small_profiles)
        hand_built = ErrorDataset(samples=reference)
        for feature_set in (INPUT_SET_1, INPUT_SET_2):
            _assert_identical_matrices(hand_built, reference, feature_set)
        assert hand_built.samples == tuple(reference)
        assert hand_built.ranks() == sorted({s.rank for s in reference})

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           keep=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_measurement_subsets_match_reference(self, small_campaign,
                                                 small_profiles, seed, keep):
        """Hypothesis: any campaign subset builds identical matrices."""
        measurements = small_campaign.wer_measurements
        rng = np.random.default_rng(seed)
        mask = rng.random(len(measurements)) < keep
        if not mask.any():
            mask[int(rng.integers(len(measurements)))] = True
        subset = [m for m, kept in zip(measurements, mask) if kept]
        campaign = CampaignResult(config=small_campaign.config,
                                  wer_measurements=subset)
        columnar = build_wer_dataset(campaign, small_profiles)
        reference = reference_build_wer_dataset(campaign, small_profiles)
        _assert_identical_matrices(columnar, reference, INPUT_SET_1)
        assert columnar.samples == tuple(reference)


class TestDatasetErrorPaths:
    def test_missing_profiles_error_lists_all_missing_workloads(
        self, small_campaign, small_profiles
    ):
        partial = {"backprop": small_profiles["backprop"]}
        with pytest.raises(DataError) as excinfo:
            build_wer_dataset(small_campaign, partial)
        message = str(excinfo.value)
        for workload in ("bfs", "kmeans", "memcached", "srad(par)"):
            assert workload in message

    def test_empty_campaign_raises_for_both_builders(self):
        empty = CampaignResult(config=CampaignConfig())
        with pytest.raises(DataError):
            build_wer_dataset(empty)
        with pytest.raises(DataError):
            build_pue_dataset(empty)

    def test_pue_only_dataset_ranks_raises(self, small_campaign, small_profiles):
        pue = build_pue_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            pue.ranks()

    def test_empty_dataset_ranks_raises(self):
        with pytest.raises(DataError):
            ErrorDataset().ranks()

    def test_unknown_rank_filter_raises(self, small_wer_dataset):
        from repro.dram.geometry import RankLocation

        with pytest.raises(DataError):
            small_wer_dataset.filter_rank(RankLocation(7, 1))

    def test_empty_columnar_dataset_matrices_raise(self, small_campaign,
                                                   small_profiles):
        dataset = build_wer_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            dataset.columns().subset(
                np.zeros(len(dataset), dtype=bool)
            ).matrices(INPUT_SET_1)


class TestMutationSemantics:
    """A dataset is one read-only columnar record: nothing can go stale."""

    def test_samples_view_is_read_only(self, small_campaign, small_profiles):
        dataset = build_wer_dataset(small_campaign, small_profiles)
        X_before, y_before, _ = dataset.matrices(INPUT_SET_1)
        sample = dataset.samples[0]
        with pytest.raises(TypeError):
            dataset.samples[0] = replace(sample, target=5.0)
        with pytest.raises(AttributeError):
            sample.target = 5.0
        X_after, y_after, _ = dataset.matrices(INPUT_SET_1)
        assert X_after.tobytes() == X_before.tobytes()
        assert y_after.tobytes() == y_before.tobytes()
        assert dataset.samples[0] == sample

    def test_add_drops_columnar_backing(self, small_campaign, small_profiles):
        # ``add`` is gone: nothing can drop the columnar backing, and the
        # matrices keep one row per sample.
        dataset = build_wer_dataset(small_campaign, small_profiles)
        columns = dataset.columns()
        assert not hasattr(dataset, "add")
        assert dataset.columns() is columns
        assert len(dataset) == len(small_campaign.wer_measurements)
        X, y, groups = dataset.matrices(INPUT_SET_1)
        assert X.shape[0] == len(dataset)

    def test_direct_append_to_samples_detected_by_length(
        self, small_campaign, small_profiles
    ):
        # A direct append to ``samples`` raises instead of needing a
        # length check: the view is a tuple and the record is unchanged.
        dataset = build_wer_dataset(small_campaign, small_profiles)
        n = len(dataset)
        with pytest.raises(AttributeError):
            dataset.samples.append(dataset.samples[0])
        assert len(dataset) == len(dataset.samples) == n
        assert dataset.columns() is not None
        assert dataset.matrices(INPUT_SET_1)[0].shape[0] == n

    def test_columns_are_read_only(self, small_campaign, small_profiles):
        columns = build_wer_dataset(small_campaign, small_profiles).columns()
        for array in (columns.targets, columns.operating_columns,
                      columns.workload_codes, columns.rank_codes):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_conflicting_program_features_raise(self):
        op = OperatingPoint(trefp_s=1.173, vdd_v=1.428, temperature_c=50.0)
        first = Sample(workload="w", operating_point=op, target=1.0,
                       program_features={"f": 1.0})
        equal = replace(first, program_features={"f": 1.0})
        ErrorDataset(samples=[first, equal])  # equal values are fine
        with pytest.raises(DataError, match="'w'"):
            ErrorDataset(samples=[first, replace(first, program_features={"f": 2.0})])

    def test_samples_and_columns_are_mutually_exclusive(
        self, small_campaign, small_profiles
    ):
        columnar = build_wer_dataset(small_campaign, small_profiles)
        with pytest.raises(DataError):
            ErrorDataset(samples=[], columns=columnar.columns())
