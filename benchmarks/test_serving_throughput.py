"""Serving layer: batched grid floors and facade throughput.

The ISSUE-10 serving stack is only worth its API surface if the batched
path actually beats per-point prediction, so these benchmarks pin — the
same way the ECC, dataset and ML benchmarks pin their batch engines —

* ``WorkloadAwarePredictor.predict_grid`` against the per-point oracle
  (:func:`repro.core.reference.reference_predict_grid`): at least 10x
  faster over a campaign-scale operating grid, agreeing to 1e-9
  relative tolerance (BLAS batch shape may differ in the last ulps);
* :class:`repro.serving.PredictionService` throughput: a warm service
  answers a request sweep at least 10x faster than fresh scalar
  ``predict`` calls (the cache and request coalescing at work), with an
  absolute predictions-per-second floor.

Both floors land in the benchmark artifact (``BENCH_12.json``).
"""

import time

import numpy as np
import pytest

from repro.core.predictor import WorkloadAwarePredictor
from repro.core.reference import reference_predict_grid
from repro.dram.operating import OperatingPoint
from repro.serving import PredictionService, PredictRequest
from repro.workloads.registry import campaign_workload_names

pytestmark = pytest.mark.slow

TREFPS = (0.618, 1.173, 1.450, 1.727, 2.283)
TEMPERATURES = (50.0, 60.0, 70.0)

#: Absolute facade floor: a warm in-process service must answer at least
#: this many predictions per second (cache hits dominate a steady state).
SERVICE_PREDICTIONS_PER_S_FLOOR = 2_000.0


def test_predict_grid_at_least_10x_per_point(bench_report, full_campaign,
                                             campaign_profiles):
    predictor = WorkloadAwarePredictor().fit(full_campaign, campaign_profiles)
    workloads = list(campaign_workload_names())

    # Warm both paths (profile cache, BLAS thread pools) on a tiny grid.
    predictor.predict_grid(workloads[:2], TREFPS[:1], TEMPERATURES[:1])
    reference_predict_grid(predictor, workloads[:2], TREFPS[:1],
                           TEMPERATURES[:1], (1.428,))

    start = time.perf_counter()
    grid = predictor.predict_grid(workloads, TREFPS, TEMPERATURES)
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    ref_wer, ref_pue = reference_predict_grid(
        predictor, workloads, TREFPS, TEMPERATURES, grid.vdd_v
    )
    scalar_s = time.perf_counter() - start

    np.testing.assert_allclose(grid.wer, ref_wer, rtol=1e-9)
    assert grid.pue is not None and ref_pue is not None
    np.testing.assert_allclose(grid.pue, ref_pue, rtol=1e-9)

    speedup = bench_report.record(
        "predict_grid", floor=10.0, scalar_s=scalar_s, batch_s=batch_s,
        units_label="predictions", work_items=grid.num_predictions,
    )
    assert speedup >= 10.0


def test_service_throughput_floor(bench_report, full_campaign,
                                  campaign_profiles):
    predictor = WorkloadAwarePredictor().fit(full_campaign, campaign_profiles)
    requests = [
        PredictRequest.at(name, OperatingPoint.relaxed(trefp, temp))
        for name in campaign_workload_names()
        for trefp in TREFPS
        for temp in TEMPERATURES
    ]
    # Profiles are resolved per call on the scalar path; warm the registry
    # cache so both sides measure prediction, not profiling.
    profiles = {r.workload: campaign_profiles[r.workload] for r in requests}

    # Scalar baseline: one predict() per request (no cache, no batching).
    start = time.perf_counter()
    for request in requests:
        predictor.predict(profiles[request.workload], request.operating_point())
    scalar_s = time.perf_counter() - start

    repeats = 4
    with PredictionService(predictor, batch_window_s=0.001) as service:
        service.predict_many(requests)          # warm: populate the cache
        start = time.perf_counter()
        for _ in range(repeats):
            service.predict_many(requests)
        batch_s = time.perf_counter() - start
        stats = service.stats()

    served = repeats * len(requests)
    predictions_per_s = served / batch_s
    speedup = bench_report.record(
        "prediction_service", floor=10.0,
        scalar_s=scalar_s * repeats, batch_s=batch_s,
        units_label="predictions", work_items=served,
    )
    assert stats.cache_hits >= served            # the steady state is all hits
    assert predictions_per_s >= SERVICE_PREDICTIONS_PER_S_FLOOR
    assert speedup >= 10.0
