"""Columnar profiling: exact equivalence with the object oracle and a >=4x floor.

A cold ``profile_campaign_workloads()`` — the profiling stage of every
cold pipeline — records, simulates and summarises about 643k accesses
over the 14 campaign workloads.  The library does it on typed column
buffers and numpy arrays; ``tests/oracles/profiling.py`` does it one
``MemoryAccess`` object at a time.  This benchmark pins both properties
of the columnar layer:

* all 249 features of every campaign profile are bit-identical to the
  oracle's;
* the columnar path is at least 4x faster (4.7-5.1x measured on a
  2-core x86-64 host).
"""

import time

import numpy as np
import pytest

from repro.profiling.counters import all_feature_names
from repro.profiling.profiler import clear_profile_cache, profile_campaign_workloads
from repro.workloads.registry import campaign_workload_names, create_workload
from tests.oracles.profiling import OracleProfiler

pytestmark = pytest.mark.slow

FLOOR = 4.0


def _oracle_profiles():
    profiler = OracleProfiler()
    return {name: profiler.profile(create_workload(name)) for name in campaign_workload_names()}


def _cold_profiles():
    clear_profile_cache()
    return profile_campaign_workloads()


def _feature_matrix(profiles):
    names = all_feature_names()
    return np.array([profiles[w].feature_vector(names) for w in campaign_workload_names()])


def _best_of(repeats, fn):
    """(min wall time, result of the last run) over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_cold_profiling_at_least_4x_oracle(bench_report):
    # Min-of-N on both sides: the floor must hold on noisy shared runners.
    oracle_s, oracle = _best_of(2, _oracle_profiles)
    columnar_s, columnar = _best_of(3, _cold_profiles)
    assert np.array_equal(_feature_matrix(columnar), _feature_matrix(oracle))
    speedup = bench_report.record(
        "profiling", floor=FLOOR, scalar_s=oracle_s, batch_s=columnar_s,
        units_label="workloads", work_items=len(campaign_workload_names()),
    )
    assert speedup >= FLOOR
