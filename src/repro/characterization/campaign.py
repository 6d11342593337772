"""Characterization campaigns: the parameter sweeps of Section V.

A campaign runs every benchmark under a grid of refresh periods and
temperatures (always with the lowered VDD), collects per-rank WER
measurements and — for the 70 C points — repeats each run several times
to estimate PUE.  The result object offers the aggregations every figure
of the evaluation needs.

Grid engine
-----------
Both sweeps hand each workload's whole operating-point grid to
:meth:`CharacterizationExperiment.run_grid_columns` in one call, so the
expected-WER surface, run-to-run noise, maturity scaling and UE sampling
are evaluated as array operations instead of per-run Python work, and
the sampled surfaces stream straight into columnar
:class:`~repro.characterization.metrics.WerColumnStore` blocks — no
``ExperimentResult`` / ``WerMeasurement`` objects are built during a
sweep.  The scalar-vs-batch contract: a grid cell is bit-identical to
the scalar ``experiment.run`` call with the same seed and repetition
index (the scalar path *is* a one-point grid), and
``tests/test_campaign_grid.py`` pins that equivalence plus
campaign-level determinism.  ``benchmarks/test_campaign_throughput.py``
pins the speedup floor of the batched sweep over the scalar loop.

Parallel execution
------------------
Each workload's sweep is independent, so ``run(parallel=n)`` fans the
per-workload grid calls across a ``concurrent.futures`` process pool:
workers receive picklable :class:`WorkloadSweepSpec` grid specs, return
columnar blocks, and the parent merges blocks in workload order — the
result is bit-identical to the sequential sweep for any worker count
(pinned by ``tests/test_campaign_parallel.py``).

:class:`CampaignResult` holds the WER record as one columnar store.
Sweeps append blocks with :meth:`CampaignResult.extend_wer_columns`,
hand-built records go through :meth:`CampaignResult.add_wer_measurements`,
and ``wer_measurements`` is a read-only tuple view of the store.

Telemetry
---------
When the active :mod:`repro.telemetry` registry is enabled, campaigns
record a span tree (``campaign.run`` → ``campaign.wer_sweep`` /
``campaign.ue_sweep`` → ``workload:<name>`` → the experiment/model
spans) plus row counters.  Parallel workers capture their own registry
and ship a picklable snapshot home in the sweep outcome; the parent
merges snapshots in workload order, so the merged report has the same
per-workload span counts as a sequential run.  The default registry is
a no-op, and enabling telemetry never changes results
(``tests/test_telemetry_equivalence.py``).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.characterization.experiment import CharacterizationExperiment, GridColumns
from repro.characterization.metrics import (
    PueSummary,
    UeObservation,
    WerColumnStore,
    WerMeasurement,
    rank_ue_distribution,
)
from repro.characterization.server import XGene2Server
from repro.dram.geometry import RankLocation
from repro.dram.operating import OperatingPoint
from repro.errors import CharacterizationError
from repro.profiling.profiler import profile_workload
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    get_telemetry,
    set_telemetry,
)
from repro.workloads.registry import campaign_workload_names

logger = logging.getLogger("repro.characterization.campaign")


@dataclass(frozen=True)
class CampaignConfig:
    """What to sweep and how often to repeat."""

    workloads: Tuple[str, ...] = ()
    trefp_values_s: Tuple[float, ...] = units.TREFP_SWEEP_S
    temperatures_c: Tuple[float, ...] = (50.0, 60.0)
    vdd_v: float = units.MIN_VDD_V
    repetitions: int = 1
    ue_trefp_values_s: Tuple[float, ...] = units.TREFP_UE_SWEEP_S
    ue_temperature_c: float = 70.0
    ue_repetitions: int = 10

    def resolved_workloads(self) -> Tuple[str, ...]:
        return self.workloads or tuple(campaign_workload_names())

    def wer_operating_points(self) -> List[OperatingPoint]:
        """The CE study's grid: temperature-major, TREFP-minor, lowered VDD.

        Single source of the sweep order — the campaign, the grid engine
        callers and the throughput benchmark must all iterate the same
        points in the same sequence.
        """
        return [
            OperatingPoint(
                trefp_s=trefp, vdd_v=self.vdd_v, temperature_c=temperature
            )
            for temperature in self.temperatures_c
            for trefp in self.trefp_values_s
        ]

    def ue_operating_points(self) -> List[OperatingPoint]:
        """The UE study's grid: the 70 C points, one per UE TREFP value."""
        return [
            OperatingPoint(
                trefp_s=trefp, vdd_v=self.vdd_v,
                temperature_c=self.ue_temperature_c,
            )
            for trefp in self.ue_trefp_values_s
        ]


class CampaignResult:
    """All measurements of one campaign, with the aggregations the figures use.

    The WER record is one :class:`WerColumnStore`.  It grows only through
    :meth:`extend_wer_columns` (sweep blocks) and
    :meth:`add_wer_measurements` (hand-built records); both reset the
    cached ``wer_measurements`` tuple, so no view of the record can go
    stale.
    """

    def __init__(
        self,
        config: CampaignConfig,
        wer_measurements: Iterable[WerMeasurement] = (),
        pue_summaries: Optional[List[PueSummary]] = None,
    ) -> None:
        self.config = config
        self.pue_summaries: List[PueSummary] = (
            pue_summaries if pue_summaries is not None else []
        )
        self._wer_store = WerColumnStore(list(wer_measurements))
        self._wer_view: Optional[Tuple[WerMeasurement, ...]] = None

    @property
    def wer_measurements(self) -> Tuple[WerMeasurement, ...]:
        """The flat measurement record: a read-only view built from the columns."""
        if self._wer_view is None:
            self._wer_view = tuple(self._wer_store.to_measurements())
        return self._wer_view

    @property
    def num_wer_measurements(self) -> int:
        """Number of WER records, without materializing the record view."""
        return len(self._wer_store)

    def wer_columns(self) -> WerColumnStore:
        """The columnar WER record backing the aggregations."""
        return self._wer_store

    def extend_wer_columns(self, blocks: Sequence[WerColumnStore]) -> None:
        """Append columnar measurement blocks to the WER record."""
        blocks = [block for block in blocks if len(block)]
        if not blocks:
            return
        existing = [self._wer_store] if len(self._wer_store) else []
        self._wer_store = WerColumnStore.concat(existing + blocks)
        self._wer_view = None

    def add_wer_measurements(self, records: Iterable[WerMeasurement]) -> None:
        """Append hand-built measurement records to the WER record."""
        self.extend_wer_columns([WerColumnStore(list(records))])

    # -- WER aggregations ------------------------------------------------------
    def wer_by_workload(self, trefp_s: float, temperature_c: float) -> Dict[str, float]:
        """Memory-wide WER per workload at one operating point (Fig. 7a-e bars).

        Raises :class:`CharacterizationError` when the operating point has
        no measurements.
        """
        return self.wer_columns().mean_wer_by_workload(trefp_s, temperature_c)

    def wer_by_rank(self, trefp_s: float, temperature_c: float) -> Dict[str, Dict[RankLocation, float]]:
        """Per-workload, per-rank WER (Fig. 8).

        Raises :class:`CharacterizationError` when the operating point has
        no measurements — the same contract as :meth:`wer_by_workload`
        (it used to return ``{}`` silently).
        """
        return self.wer_columns().mean_wer_by_workload_rank(trefp_s, temperature_c)

    def mean_wer(self, trefp_s: float, temperature_c: float) -> float:
        """WER averaged over all benchmarks at one operating point (Fig. 7f)."""
        per_workload = self.wer_by_workload(trefp_s, temperature_c)
        return float(np.mean(list(per_workload.values())))

    def workload_spread(self, trefp_s: float, temperature_c: float) -> float:
        """Max/min WER ratio across workloads (the "8x" claim).

        Workloads that measured no errors at all (WER = 0, common at mild
        operating points) are excluded: the ratio against them is
        undefined, and the paper's spread compares measurable rates.
        """
        per_workload = self.wer_by_workload(trefp_s, temperature_c)
        positive = [v for v in per_workload.values() if v > 0]
        if len(positive) < 2:
            raise CharacterizationError(
                f"workload spread undefined at TREFP={trefp_s}s, "
                f"T={temperature_c}C: fewer than two workloads measured a "
                "positive WER"
            )
        return max(positive) / min(positive)

    def rank_spread(self, trefp_s: float, temperature_c: float) -> float:
        """Largest max/min WER ratio across DIMM/ranks for a single workload.

        This is the quantity behind the paper's "up to 188x" claim: the bc
        benchmark's WER differs by that factor between its strongest and
        weakest rank (Fig. 8).
        """
        per_rank = self.wer_by_rank(trefp_s, temperature_c)
        spreads = []
        for ranks in per_rank.values():
            positive = [v for v in ranks.values() if v > 0]
            if len(positive) >= 2:
                spreads.append(max(positive) / min(positive))
        if not spreads:
            raise CharacterizationError("no positive per-rank WER measurements")
        return max(spreads)

    # -- PUE aggregations ------------------------------------------------------
    def pue_by_workload(self, trefp_s: float) -> Dict[str, float]:
        """PUE per workload at one refresh period of the 70 C study (Fig. 9a)."""
        result = {}
        for summary in self.pue_summaries:
            if _close(summary.trefp_s, trefp_s):
                result[summary.workload] = summary.pue
        if not result:
            raise CharacterizationError(f"no UE observations at TREFP={trefp_s}s")
        return result

    def mean_pue(self, trefp_s: float) -> float:
        per_workload = self.pue_by_workload(trefp_s)
        return float(np.mean(list(per_workload.values())))

    def ue_rank_distribution(self) -> Dict[RankLocation, float]:
        """Fig. 9b: probability a UE lands on each DIMM/rank."""
        return rank_ue_distribution(self.pue_summaries)


def _close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return abs(a - b) <= tolerance


def _grid_pue_summaries(grid: GridColumns) -> List[PueSummary]:
    """Reduce a UE-study grid to one :class:`PueSummary` per operating point."""
    summaries = []
    for op, events in zip(grid.ops, grid.ue_ranks):
        summary = PueSummary(
            workload=grid.workload, trefp_s=op.trefp_s,
            temperature_c=op.temperature_c,
        )
        for ue_rank in events:
            summary.add(UeObservation(
                workload=grid.workload, trefp_s=op.trefp_s,
                temperature_c=op.temperature_c,
                crashed=ue_rank is not None, rank=ue_rank,
            ))
        summaries.append(summary)
    return summaries


@dataclass(frozen=True, eq=False)
class WorkloadSweepSpec:
    """Picklable description of one workload's share of a campaign.

    This is the unit the process pool distributes: everything a worker
    needs to reproduce the sequential sweep for one workload — the
    server model (cheap to pickle), the experiment seed and the two
    operating-point grids.
    """

    workload: str
    seed: int
    server: XGene2Server
    wer_ops: Tuple[OperatingPoint, ...]
    wer_repetitions: int
    ue_ops: Tuple[OperatingPoint, ...]
    ue_repetitions: int
    #: capture telemetry in the worker and ship a snapshot back
    telemetry: bool = False


@dataclass
class WorkloadSweepOutcome:
    """Columnar blocks one worker sends back: CE rows, UE rows, summaries.

    ``telemetry`` carries the worker's picklable snapshot when the spec
    requested capture; the parent merges outcomes in workload order, so
    the merged span tree matches the sequential sweep's shape.
    """

    workload: str
    wer_block: Optional[WerColumnStore]
    ue_block: Optional[WerColumnStore]
    pue_summaries: List[PueSummary]
    telemetry: Optional[TelemetrySnapshot] = None


def _run_workload_sweep(spec: WorkloadSweepSpec) -> WorkloadSweepOutcome:
    """Process-pool worker: one workload's full sweep, returned columnar.

    Module-level so it pickles; builds a fresh experiment around the
    spec's server copy.  Workload sweeps consume independent keyed RNG
    streams, so a fresh experiment reproduces the sequential results
    bit for bit.  Spans are recorded under the same
    ``campaign.wer_sweep / campaign.ue_sweep -> workload:<name>`` names
    the sequential path uses, so merged parallel reports line up with
    sequential ones.
    """
    worker_telemetry = Telemetry(enabled=spec.telemetry)
    previous = set_telemetry(worker_telemetry)
    try:
        experiment = CharacterizationExperiment(server=spec.server, seed=spec.seed)
        profile = profile_workload(spec.workload)
        wer_block: Optional[WerColumnStore] = None
        ue_block: Optional[WerColumnStore] = None
        summaries: List[PueSummary] = []
        if spec.wer_ops:
            with worker_telemetry.span("campaign.wer_sweep"):
                with worker_telemetry.span(f"workload:{spec.workload}"):
                    wer_block = experiment.run_grid_columns(
                        spec.workload, spec.wer_ops,
                        repetitions=spec.wer_repetitions, profile=profile,
                    ).wer_block()
        if spec.ue_ops:
            with worker_telemetry.span("campaign.ue_sweep"):
                with worker_telemetry.span(f"workload:{spec.workload}"):
                    grid = experiment.run_grid_columns(
                        spec.workload, spec.ue_ops,
                        repetitions=spec.ue_repetitions, profile=profile,
                    )
                    # WER data from the first 70 C repetition also feeds the
                    # dataset.
                    ue_block = grid.wer_block(first_repetition_only=True)
                    summaries = _grid_pue_summaries(grid)
    finally:
        set_telemetry(previous)
    return WorkloadSweepOutcome(
        workload=spec.workload, wer_block=wer_block,
        ue_block=ue_block, pue_summaries=summaries,
        telemetry=worker_telemetry.snapshot() if spec.telemetry else None,
    )


class CharacterizationCampaign:
    """Drives the full sweep of Section V on a server model."""

    def __init__(
        self,
        server: Optional[XGene2Server] = None,
        config: Optional[CampaignConfig] = None,
        seed: int = 7,
    ) -> None:
        self.server = server or XGene2Server()
        self.config = config or CampaignConfig()
        self.experiment = CharacterizationExperiment(self.server, seed=seed)

    # ------------------------------------------------------------------
    def run_wer_sweep(self, result: CampaignResult) -> None:
        """The CE study: workloads x TREFP x {50, 60} C (Fig. 7 / Fig. 8).

        Each workload's whole (temperature x TREFP) grid goes through the
        batched ``run_grid_columns`` engine in one call and lands as one
        columnar block; rows sit in the same order the scalar nested loop
        produced them.
        """
        ops = self.config.wer_operating_points()
        if not ops:
            return
        telemetry = get_telemetry()
        workloads = self.config.resolved_workloads()
        logger.info(
            "WER sweep starting: %d workloads x %d operating points x %d reps",
            len(workloads), len(ops), self.config.repetitions,
        )
        start = time.perf_counter()
        blocks = []
        with telemetry.span("campaign.wer_sweep"):
            for workload in workloads:
                logger.debug("WER sweep: workload %s", workload)
                with telemetry.span(f"workload:{workload}"):
                    profile = profile_workload(workload)
                    grid = self.experiment.run_grid_columns(
                        workload, ops, repetitions=self.config.repetitions,
                        profile=profile,
                    )
                    blocks.append(grid.wer_block())
        result.extend_wer_columns(blocks)
        if telemetry.enabled:
            telemetry.incr("campaign.wer_rows", sum(len(b) for b in blocks))
        logger.info(
            "WER sweep finished: %d workloads in %.3fs",
            len(workloads), time.perf_counter() - start,
        )

    def run_ue_sweep(self, result: CampaignResult) -> None:
        """The UE study: workloads x TREFP x 70 C, repeated 10 times (Fig. 9)."""
        ops = self.config.ue_operating_points()
        if not ops:
            return
        telemetry = get_telemetry()
        workloads = self.config.resolved_workloads()
        logger.info(
            "UE sweep starting: %d workloads x %d operating points x %d reps",
            len(workloads), len(ops), self.config.ue_repetitions,
        )
        start = time.perf_counter()
        blocks = []
        with telemetry.span("campaign.ue_sweep"):
            for workload in workloads:
                logger.debug("UE sweep: workload %s", workload)
                with telemetry.span(f"workload:{workload}"):
                    profile = profile_workload(workload)
                    grid = self.experiment.run_grid_columns(
                        workload, ops, repetitions=self.config.ue_repetitions,
                        profile=profile,
                    )
                    # WER data from the first 70 C repetition also feeds the
                    # dataset.
                    blocks.append(grid.wer_block(first_repetition_only=True))
                    result.pue_summaries.extend(_grid_pue_summaries(grid))
        result.extend_wer_columns(blocks)
        if telemetry.enabled:
            telemetry.incr("campaign.ue_rows", sum(len(b) for b in blocks))
        logger.info(
            "UE sweep finished: %d workloads in %.3fs",
            len(workloads), time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _workload_specs(self, include_ue_study: bool) -> List[WorkloadSweepSpec]:
        wer_ops = tuple(self.config.wer_operating_points())
        ue_ops = tuple(self.config.ue_operating_points()) if include_ue_study else ()
        capture = get_telemetry().enabled
        return [
            WorkloadSweepSpec(
                workload=workload, seed=self.experiment.seed, server=self.server,
                wer_ops=wer_ops, wer_repetitions=self.config.repetitions,
                ue_ops=ue_ops, ue_repetitions=self.config.ue_repetitions,
                telemetry=capture,
            )
            for workload in self.config.resolved_workloads()
        ]

    def _run_parallel(
        self, result: CampaignResult, include_ue_study: bool, max_workers: int
    ) -> None:
        """Fan per-workload sweeps across a process pool, merge in order.

        Outcomes are merged in workload submission order — first every
        workload's CE block, then every workload's UE block and
        summaries — so the record is bit-identical to the sequential
        sweep regardless of worker count or completion order.
        """
        if isinstance(max_workers, bool) or not isinstance(max_workers, int):
            raise CharacterizationError("parallel must be an integer worker count")
        if max_workers < 1:
            raise CharacterizationError("parallel must be at least 1 worker")
        specs = self._workload_specs(include_ue_study)
        if not specs:
            return
        telemetry = get_telemetry()
        workers = min(max_workers, len(specs))
        if telemetry.enabled:
            telemetry.gauge("campaign.parallel_workers", workers)
        logger.info(
            "parallel sweep starting: %d workloads over %d workers",
            len(specs), workers,
        )
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_workload_sweep, specs))
        # Worker snapshots merge in workload (submission) order, mirroring
        # the deterministic block merge below — the combined span tree is
        # independent of worker count and completion order.
        for outcome in outcomes:
            telemetry.merge_snapshot(outcome.telemetry)
        wer_blocks = [o.wer_block for o in outcomes if o.wer_block is not None]
        result.extend_wer_columns(wer_blocks)
        if telemetry.enabled:
            telemetry.incr("campaign.wer_rows", sum(len(b) for b in wer_blocks))
        if include_ue_study:
            ue_blocks = [o.ue_block for o in outcomes if o.ue_block is not None]
            result.extend_wer_columns(ue_blocks)
            if telemetry.enabled:
                telemetry.incr("campaign.ue_rows", sum(len(b) for b in ue_blocks))
            for outcome in outcomes:
                result.pue_summaries.extend(outcome.pue_summaries)
        logger.info(
            "parallel sweep finished: %d workloads in %.3fs",
            len(specs), time.perf_counter() - start,
        )

    def run(
        self, include_ue_study: bool = True, parallel: Optional[int] = None
    ) -> CampaignResult:
        """Run the full campaign and return the collected measurements.

        ``parallel=None`` sweeps in-process; ``parallel=n`` distributes
        the per-workload sweeps over an ``n``-worker process pool.  Both
        paths produce bit-identical results.
        """
        result = CampaignResult(config=self.config)
        with get_telemetry().span("campaign.run"):
            if parallel is None:
                self.run_wer_sweep(result)
                if include_ue_study:
                    self.run_ue_sweep(result)
            else:
                self._run_parallel(result, include_ue_study, parallel)
        if result.num_wer_measurements == 0:
            raise CharacterizationError("campaign produced no measurements")
        return result


def run_default_campaign(
    workloads: Optional[Sequence[str]] = None,
    include_ue_study: bool = True,
    seed: int = 7,
    parallel: Optional[int] = None,
) -> CampaignResult:
    """Convenience helper: run the paper's campaign with default settings."""
    config = CampaignConfig(workloads=tuple(workloads) if workloads else ())
    campaign = CharacterizationCampaign(config=config, seed=seed)
    return campaign.run(include_ue_study=include_ue_study, parallel=parallel)
