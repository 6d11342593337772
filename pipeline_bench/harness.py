"""Shared pieces of the pipeline benchmark: inputs, timing, checks, digests."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.characterization.campaign import (
    CampaignConfig,
    CampaignResult,
    CharacterizationCampaign,
)
from repro.core import dataset as dataset_module
from repro.core.dataset import ErrorDataset
from repro.core.evaluation import AccuracyEvaluator
from repro.profiling.counters import all_feature_names
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import clear_profile_cache, profile_campaign_workloads

from tracer import Span, Tracer, covered_seconds, totals_by_name

#: What a user imports to run the pipeline; timed in a fresh interpreter.
IMPORT_STATEMENT = (
    "import repro, repro.core.evaluation, repro.core.predictor, "
    "repro.serving.registry, repro.serving.service"
)
#: Set-up passes per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Samples a reported tail percentile must have beyond it.
TAIL_SAMPLES = 10
#: Seeded campaign replicas the accuracy metrics average over.
QUALITY_REPLICAS = 48
NUM_FEATURES = len(all_feature_names())


Metric = Tuple[float, str]
T = TypeVar("T")


@dataclass
class Outcome:
    """What one workload run reports."""

    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0 and self.attempted > 0


# ---------------------------------------------------------------------------
# Timing.
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def import_seconds(root: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing the pipeline."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_STATEMENT],
            cwd=root, env=env, check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """One measured operation: its wall interval and, when traced, its spans."""

    spans: List[Span]
    start: float
    end: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def unattributed(self) -> float:
        return self.wall - covered_seconds(self.spans, self.start, self.end)


def measure(fn: Callable[[], T], tracer: Optional[Tracer] = None) -> Tuple[T, Window]:
    """Run ``fn``, traced when a tracer is given; its result and window."""
    if tracer is not None:
        tracer.install()
    mark = tracer.mark() if tracer is not None else 0
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.since(mark) if tracer is not None else []
    return result, Window(spans, start, end)


def set_up(fn: Callable[[], T], tracer: Optional[Tracer]) -> Tuple[T, List[Window]]:
    """Run the set-up :data:`SETUP_REPEATS` times; the last result and every window."""
    windows = []
    for _ in range(SETUP_REPEATS):
        result, window = measure(fn, tracer)
        windows.append(window)
    return result, windows


def repeat_for(seconds: float, min_ops: int, op: Callable[[int], None]) -> float:
    """Call ``op(i)`` until ``seconds`` have passed and ``min_ops`` ran."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        op(i)
        i += 1
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------
def expected_wer_rows(config: CampaignConfig, num_ranks: int) -> int:
    per_workload = (
        len(config.temperatures_c) * len(config.trefp_values_s) * config.repetitions
        + len(config.ue_trefp_values_s)      # first 70 C repetition only
    )
    return len(config.resolved_workloads()) * per_workload * num_ranks


def run_campaign(seed: int) -> CampaignResult:
    """The paper's default sweep over the 14 campaign workloads, UE study included."""
    return CharacterizationCampaign(config=CampaignConfig(), seed=seed).run(
        include_ue_study=True
    )


@dataclass
class Prepared:
    """Profiles, a campaign and its datasets (the shared set-up)."""

    profiles: Dict[str, WorkloadProfile]
    campaign: CampaignResult
    wer: ErrorDataset
    pue: ErrorDataset


def prepare(seed: int) -> Prepared:
    """Profile from an empty cache, run the campaign, build both datasets."""
    clear_profile_cache()
    profiles = profile_campaign_workloads()
    campaign = run_campaign(seed)
    wer = dataset_module.build_wer_dataset(campaign, profiles)
    pue = dataset_module.build_pue_dataset(campaign, profiles)
    return Prepared(profiles, campaign, wer, pue)


# ---------------------------------------------------------------------------
# Checks and digests.
# ---------------------------------------------------------------------------
def check_profiles(outcome: Outcome, profiles: Dict[str, WorkloadProfile]) -> None:
    names = sorted(all_feature_names())
    for name, profile in profiles.items():
        values = np.array([profile.features[f] for f in names])
        outcome.check(
            profile.num_features == NUM_FEATURES and bool(np.isfinite(values).all()),
            f"profile {name}: {profile.num_features} features, finite="
            f"{bool(np.isfinite(values).all())}",
        )


def check_campaign(outcome: Outcome, campaign: CampaignResult) -> None:
    config = campaign.config
    store = campaign.wer_columns()
    expected = expected_wer_rows(config, len(store.ranks))
    outcome.check(
        campaign.num_wer_measurements == expected,
        f"campaign has {campaign.num_wer_measurements} WER rows, grid implies {expected}",
    )
    expected_pue = len(config.resolved_workloads()) * len(config.ue_trefp_values_s)
    outcome.check(
        len(campaign.pue_summaries) == expected_pue,
        f"campaign has {len(campaign.pue_summaries)} PUE rows, grid implies {expected_pue}",
    )


def digest(chunks: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def profiles_digest(profiles: Dict[str, WorkloadProfile]) -> str:
    names = sorted(all_feature_names())
    return digest(
        name.encode() + np.array([profiles[name].features[f] for f in names]).tobytes()
        for name in sorted(profiles)
    )


def wer_digest(campaign: CampaignResult) -> str:
    rows = campaign.wer_columns().rows
    pue = np.array([s.pue for s in campaign.pue_summaries])
    return digest(
        [np.ascontiguousarray(rows[name]).tobytes() for name in rows.dtype.names]
        + [pue.tobytes()]
    )


def array_digest(*arrays: Optional[np.ndarray]) -> str:
    return digest(np.ascontiguousarray(a).tobytes() for a in arrays if a is not None)


# ---------------------------------------------------------------------------
# Accuracy (the quality metrics every workload reports).
# ---------------------------------------------------------------------------
def knn_errors(prepared: Prepared) -> Tuple[float, float]:
    """Mean leave-one-workload-out error of knn / input set 1: (WER, PUE)."""
    evaluator = AccuracyEvaluator()
    wer = evaluator.evaluate_wer(prepared.wer, "knn", "set1")
    pue = evaluator.evaluate_pue(prepared.pue, "knn", "set1")
    return wer.average_rank_error, pue.average_error


def add_quality(outcome: Outcome, seed: int, profiles: Dict[str, WorkloadProfile]) -> None:
    """``wer_error_pct``/``pue_error_pct``: knn errors over seeded campaign replicas.

    One campaign's PUE targets are k-of-10 UE counts, so a single seed's
    PUE error spreads by about 40% between seeds; the mean over
    :data:`QUALITY_REPLICAS` campaigns derived from ``seed`` is steady.
    """
    errors = []
    for replica in range(QUALITY_REPLICAS):
        campaign = run_campaign(seed * QUALITY_REPLICAS + replica)
        errors.append(knn_errors(Prepared(
            profiles, campaign,
            dataset_module.build_wer_dataset(campaign, profiles),
            dataset_module.build_pue_dataset(campaign, profiles),
        )))
    wer_error, pue_error = (float(np.mean(column)) for column in zip(*errors))
    outcome.check(
        math.isfinite(wer_error) and math.isfinite(pue_error),
        f"non-finite knn error: WER {wer_error}, PUE {pue_error}",
    )
    outcome.end_to_end["wer_error_pct"] = (wer_error, "%")
    outcome.end_to_end["pue_error_pct"] = (pue_error, "%")


def tail_percentile(samples: int, highest: float) -> float:
    """``highest``, or the highest percentile with ten samples beyond it (50 at least)."""
    return min(highest, max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / samples)))


def add_latency(outcome: Outcome, latencies_s: Sequence[float], wall_s: float) -> None:
    """The operation-latency end-to-end metrics of a measured phase.

    The gated tail is p90: on a shared 2-core machine the serving p99
    spread by 30-50% between runs (it follows stalls of the machine),
    p90 by under 10%.  The p99 is printed in the report lines.
    """
    ms = [v * 1000.0 for v in latencies_s]
    p90 = tail_percentile(len(ms), 90.0)
    p99 = tail_percentile(len(ms), 99.0)
    outcome.end_to_end["latency_p50_ms"] = (median(ms), "ms")
    outcome.end_to_end["latency_p90_ms"] = (percentile(ms, p90), "ms")
    outcome.end_to_end["throughput_ops"] = (len(ms) / wall_s, "1/s")
    outcome.notes.append(
        f"operations measured: {len(ms)} in {wall_s:.3f} s; latency_p90_ms is p{p90:.4g}; "
        f"p{p99:.4g} = {percentile(ms, p99):.4f} ms"
    )
    if len(ms) <= 10:
        outcome.notes.append("operation latencies (ms): " + " ".join(f"{v:.1f}" for v in ms))


# ---------------------------------------------------------------------------
# Per-layer ledger.
# ---------------------------------------------------------------------------
#: Every per-layer metric with its unit; layers a workload does not call
#: read 0 on that workload.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.record_trace_s": "s",
    "workloads.accesses": "count",
    "memsys.simulate_s": "s",
    "memsys.accesses_per_s": "1/s",
    "memsys.dram_accesses": "count",
    "profiling.reuse_s": "s",
    "profiling.entropy_s": "s",
    "profiling.profile_s": "s",
    "profiling.unattributed_s": "s",
    "characterization.campaign_s": "s",
    "characterization.wer_rows": "count",
    "core.dataset_s": "s",
    "core.fit_s": "s",
    "core.predict_grid_s": "s",
    "core.grid_rows_per_s": "1/s",
    "core.predict_batch_ms": "ms",
    "core.cv_folds": "count",
    "ml.knn_cv_s": "s",
    "ml.svm_cv_s": "s",
    "ml.rdf_cv_s": "s",
    "serving.registry_save_s": "s",
    "serving.registry_load_s": "s",
    "serving.hit_ratio": "ratio",
    "serving.hit_latency_p50_ms": "ms",
    "serving.miss_latency_p50_ms": "ms",
    "serving.mean_batch_size": "count",
    "serving.repeat_share": "ratio",
    "serving.distinct_keys": "count",
    "pipeline.unattributed_s": "s",
    "bench.unattributed_share": "ratio",
    "bench.tracing_overhead_pct": "%",
}

#: Span name -> per-layer metric reporting its seconds per window.
_SECONDS = {
    "workloads.record_trace": "workloads.record_trace_s",
    "memsys.simulate": "memsys.simulate_s",
    "profiling.reuse": "profiling.reuse_s",
    "profiling.entropy": "profiling.entropy_s",
    "profiling.profile": "profiling.profile_s",
    "characterization.campaign": "characterization.campaign_s",
    "core.dataset": "core.dataset_s",
    "core.fit": "core.fit_s",
    "core.predict_grid": "core.predict_grid_s",
    "ml.knn_cv": "ml.knn_cv_s",
    "ml.svm_cv": "ml.svm_cv_s",
    "ml.rdf_cv": "ml.rdf_cv_s",
    "serving.registry_save": "serving.registry_save_s",
    "serving.registry_load": "serving.registry_load_s",
}
#: (span name, count key) -> per-layer metric reporting that count per window.
_COUNTS = {
    ("workloads.record_trace", "accesses"): "workloads.accesses",
    ("memsys.simulate", "dram_accesses"): "memsys.dram_accesses",
    ("characterization.campaign", "rows"): "characterization.wer_rows",
    ("core.cv_fold", "folds"): "core.cv_folds",
}
_PROFILE_PARTS = (
    "workloads.record_trace", "memsys.simulate", "profiling.reuse", "profiling.entropy",
)


def _window_values(window: Window) -> Dict[str, float]:
    """Per-layer values of one window, for the layers it called."""
    totals = totals_by_name(window.spans)
    values: Dict[str, float] = {}
    for span_name, metric in _SECONDS.items():
        if span_name in totals:
            values[metric] = totals[span_name].seconds
    for (span_name, key), metric in _COUNTS.items():
        if span_name in totals:
            values[metric] = totals[span_name].counts[key]
    simulate = totals.get("memsys.simulate")
    if simulate is not None:
        values["memsys.accesses_per_s"] = simulate.counts["accesses"] / simulate.seconds
    grid = totals.get("core.predict_grid")
    if grid is not None:
        values["core.grid_rows_per_s"] = grid.counts["rows"] / grid.seconds
    profile = totals.get("profiling.profile")
    if profile is not None:
        values["profiling.unattributed_s"] = profile.seconds - sum(
            totals[name].seconds for name in _PROFILE_PARTS if name in totals
        )
    return values


def ledger(windows: Sequence[Window]) -> Dict[str, float]:
    """Median over the windows that called each layer; 0 where none did."""
    per_window = [_window_values(w) for w in windows]
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in values:
        seen = [v[name] for v in per_window if name in v]
        if seen:
            values[name] = median(seen)
    batch_ms = [
        s.duration * 1000.0 for w in windows for s in w.spans if s.name == "core.predict_batch"
    ]
    values["core.predict_batch_ms"] = median(batch_ms)
    return values


def add_tracing_cost(values: Dict[str, float], traced: Sequence[Window],
                     traced_p50: float, untraced_p50: float) -> None:
    """The unattributed share of the traced windows and the tracer's overhead."""
    values["bench.unattributed_share"] = median([w.unattributed / w.wall for w in traced])
    values["bench.tracing_overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0


def finish_ledger(outcome: Outcome, values: Dict[str, float]) -> None:
    for name, unit in PER_LAYER_UNITS.items():
        outcome.per_layer[name] = (values[name], unit)
