"""Columnar dataset assembly: per-sample equivalence and throughput floor.

The "Build data set" step of Fig. 3 joins every campaign measurement
with its workload's program features.  These benchmarks pin two
properties of the columnar builders, mirroring how the ECC and campaign
benchmarks pin their batch engines:

* ``build_wer_dataset`` / ``build_pue_dataset`` produce *bit-identical*
  ``(X, y, groups)`` matrices — and equal ``Sample`` views — to the
  per-sample oracles (``tests/oracles/core.py``, the pre-columnar
  builder bodies, with matrices stacked one ``input_row`` at a time) on
  the paper's default campaign;
* assembling the WER design matrix through the columnar path is at
  least 10x faster than the per-sample list scan.
"""

import time

import pytest

from repro.core.dataset import build_pue_dataset, build_wer_dataset
from repro.core.features import INPUT_SET_1, INPUT_SET_3
from tests.oracles.core import (
    reference_build_pue_dataset,
    reference_build_wer_dataset,
    reference_matrices,
)

pytestmark = pytest.mark.slow


def _assert_identical_matrices(columnar, reference, feature_set):
    """``columnar`` is an ErrorDataset, ``reference`` a Sample list."""
    Xc, yc, gc = columnar.matrices(feature_set)
    Xr, yr, gr = reference_matrices(reference, feature_set)
    assert Xc.dtype == Xr.dtype and Xc.shape == Xr.shape
    assert Xc.tobytes() == Xr.tobytes()
    assert yc.tobytes() == yr.tobytes()
    assert bool((gc == gr).all())


def test_columnar_wer_dataset_matches_reference_exactly(
    full_campaign, campaign_profiles
):
    columnar = build_wer_dataset(full_campaign, campaign_profiles)
    reference = reference_build_wer_dataset(full_campaign, campaign_profiles)
    assert len(columnar) == len(reference) > 1000
    for feature_set in (INPUT_SET_1, INPUT_SET_3):
        _assert_identical_matrices(columnar, reference, feature_set)
    # Rank filtering must stay columnar and still match the list filter.
    rank = columnar.ranks()[0]
    _assert_identical_matrices(
        columnar.filter_rank(rank), [s for s in reference if s.rank == rank],
        INPUT_SET_1,
    )
    # The lazily materialized Sample view reproduces the reference samples.
    assert columnar.samples == tuple(reference)


def test_columnar_pue_dataset_matches_reference_exactly(
    full_campaign, campaign_profiles
):
    columnar = build_pue_dataset(full_campaign, campaign_profiles)
    reference = reference_build_pue_dataset(full_campaign, campaign_profiles)
    _assert_identical_matrices(columnar, reference, INPUT_SET_1)
    assert columnar.samples == tuple(reference)


def test_dataset_assembly_at_least_10x_list_scan(
    full_campaign, campaign_profiles, bench_report
):
    # Warm both paths (store/profile caches, imports).
    build_wer_dataset(full_campaign, campaign_profiles).matrices(INPUT_SET_1)
    reference_matrices(
        reference_build_wer_dataset(full_campaign, campaign_profiles), INPUT_SET_1
    )

    # Min-of-N timing on both sides, as in the campaign benchmark: the
    # floor must hold on noisy shared CI runners.
    scalar_s = min(
        _timed(lambda: reference_matrices(reference_build_wer_dataset(
            full_campaign, campaign_profiles), INPUT_SET_1))
        for _ in range(3)
    )
    batch_s = min(
        _timed(lambda: build_wer_dataset(
            full_campaign, campaign_profiles).matrices(INPUT_SET_1))
        for _ in range(5)
    )
    rows = len(full_campaign.wer_columns())
    speedup = bench_report.record(
        "dataset_assembly", floor=10.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="rows", work_items=rows,
    )
    assert speedup >= 10.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
