"""``cold_pipeline``: profile -> campaign -> datasets -> fit -> grid -> registry.

The ROADMAP's unit of account.  Every pipeline starts from an empty
profile cache, so profiling (trace recording, hierarchy simulation,
reuse and entropy) does almost all the work and ML fitting almost none.
One operation is one whole pipeline; ``latency_p50_ms`` is its median
wall time (the ``pipeline_s`` of the layer map).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.core.predictor import PredictionGrid, WorkloadAwarePredictor
from repro.serving.registry import ModelRegistry

import harness
from harness import Outcome, Prepared, Window
from tracer import Tracer

#: Operating grid of the design sweep: 14 workloads x 40 x 25 = 14,000 rows.
TREFP_GRID = tuple(float(v) for v in np.linspace(0.064, 2.283, 40))
TEMPERATURE_GRID = tuple(float(v) for v in np.linspace(30.0, 70.0, 25))
MIN_PIPELINES = 2
MODEL_NAME = "wer-pue"
#: Profile, campaign, datasets, fit, grid, registry save, registry load.
STAGES = 7


@dataclass
class Products:
    prepared: Prepared
    predictor: WorkloadAwarePredictor
    grid: PredictionGrid
    loaded: WorkloadAwarePredictor

    def digests(self) -> str:
        return (
            f"profiles={harness.profiles_digest(self.prepared.profiles)} "
            f"wer={harness.wer_digest(self.prepared.campaign)} "
            f"grid={harness.array_digest(self.grid.wer, self.grid.pue)}"
        )


def pipeline(seed: int, registry_root: Path) -> Products:
    prepared = harness.prepare(seed)
    predictor = WorkloadAwarePredictor().fit(prepared.campaign, prepared.profiles)
    grid = predictor.predict_grid(list(prepared.profiles), TREFP_GRID, TEMPERATURE_GRID)
    registry = ModelRegistry(registry_root)
    loaded = registry.load(MODEL_NAME, registry.save(MODEL_NAME, predictor))
    return Products(prepared, predictor, grid, loaded)


def check(outcome: Outcome, products: Products) -> None:
    harness.check_profiles(outcome, products.prepared.profiles)
    harness.check_campaign(outcome, products.prepared.campaign)
    grid = products.grid
    outcome.check(
        grid.num_predictions == len(products.prepared.profiles)
        * len(TREFP_GRID) * len(TEMPERATURE_GRID),
        f"grid has {grid.num_predictions} rows",
    )
    reloaded = products.loaded.predict_grid(list(grid.workloads), TREFP_GRID, TEMPERATURE_GRID)
    outcome.check(
        np.array_equal(reloaded.wer, grid.wer) and np.array_equal(reloaded.pue, grid.pue),
        "registry-loaded model's predict_grid differs from the in-memory model's",
    )


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    outcome = Outcome()
    registry_root, setup = harness.measure(lambda: _make_dir(work_dir / "registry"))
    tracer = Tracer()
    products: List[Products] = []
    untraced: List[Window] = []
    traced: List[Window] = []

    def op(i: int) -> None:
        # A traced run alternates untraced and traced pipelines.
        is_traced = trace and i % 2 == 1
        result, window = harness.measure(
            lambda: pipeline(seed, registry_root), tracer if is_traced else None
        )
        outcome.attempted += STAGES
        products.append(result)
        (traced if is_traced else untraced).append(window)

    wall = harness.repeat_for(seconds, MIN_PIPELINES * (2 if trace else 1), op)
    check(outcome, products[0])
    digests = {p.digests() for p in products}
    outcome.check(len(digests) == 1, f"pipelines disagree: {sorted(digests)}")
    outcome.notes.append(f"digest {products[0].digests()}")
    harness.add_quality(outcome, seed, products[0].prepared.profiles)

    latencies = [w.wall for w in untraced]
    outcome.notes.append(f"pipeline_s (median) = {harness.median(latencies):.4f} s")
    if trace:
        values = harness.ledger(traced)
        values["pipeline.unattributed_s"] = harness.median([w.unattributed for w in traced])
        harness.add_tracing_cost(
            values, traced, harness.median([w.wall for w in traced]), harness.median(latencies)
        )
        harness.finish_ledger(outcome, values)
    else:
        outcome.end_to_end["setup_s"] = (setup.wall, "s")
        harness.add_latency(outcome, latencies, wall)
    return outcome


def _make_dir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path
