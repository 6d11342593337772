"""Spans around calls into each ``repro`` layer, recorded from outside.

The program itself carries no benchmark instrumentation: :class:`Tracer`
replaces a fixed list of public entry points (class methods and module
functions) with timing wrappers while it is installed, and restores the
originals on :meth:`Tracer.uninstall`.  Each call becomes one span
``(name, thread, start, end, depth, counts)``; ``depth`` is the nesting
level on the calling thread and ``counts`` the work counts read off the
call's result (accesses traced, rows predicted, ...).

Spans are kept in memory and summarised per *window*: one traced
operation (a pipeline, a study, a set-up pass or a serving phase).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.characterization.campaign import CharacterizationCampaign
from repro.core import dataset as dataset_module
from repro.core.evaluation import AccuracyEvaluator
from repro.core.predictor import WorkloadAwarePredictor
from repro.memsys.hierarchy import MemoryHierarchy
from repro.ml.cross_validation import LeaveOneGroupOut
from repro.profiling import profiler as profiler_module
from repro.profiling.entropy import DataEntropyEstimator
from repro.profiling.profiler import WorkloadProfiler
from repro.serving.registry import ModelRegistry
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    depth: int
    counts: Dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[[Any], Dict[str, float]]


def _family_cv(args: tuple, kwargs: dict) -> str:
    """``ml.<family>_cv`` from ``evaluate_*(self, dataset, family, ...)``."""
    family = kwargs["family"] if "family" in kwargs else args[2]
    return f"ml.{family}_cv"


def _rows(result: Any) -> Dict[str, float]:
    return {"rows": float(len(result))}


#: (owner, attribute, span name or namer, work count read off the result)
TARGETS: Tuple[Tuple[Any, str, Any, Optional[Counter]], ...] = (
    (Workload, "record_trace", "workloads.record_trace",
     lambda recorder: {"accesses": float(recorder.num_accesses)}),
    (MemoryHierarchy, "simulate", "memsys.simulate",
     lambda stats: {"accesses": float(stats.total_accesses),
                    "dram_accesses": float(stats.dram_accesses)}),
    # The profiler looks ``reuse_statistics`` up in its own module.
    (profiler_module, "reuse_statistics", "profiling.reuse", None),
    (DataEntropyEstimator, "estimate", "profiling.entropy", None),
    (WorkloadProfiler, "profile", "profiling.profile", None),
    (CharacterizationCampaign, "run", "characterization.campaign",
     lambda result: {"rows": float(result.num_wer_measurements)}),
    (dataset_module, "build_wer_dataset", "core.dataset", _rows),
    (dataset_module, "build_pue_dataset", "core.dataset", _rows),
    (WorkloadAwarePredictor, "fit", "core.fit", None),
    (WorkloadAwarePredictor, "predict_grid", "core.predict_grid",
     lambda grid: {"rows": float(grid.num_predictions)}),
    (WorkloadAwarePredictor, "predict_batch", "core.predict_batch", _rows),
    (AccuracyEvaluator, "evaluate_wer", _family_cv, None),
    (AccuracyEvaluator, "evaluate_pue", _family_cv, None),
    (ModelRegistry, "save", "serving.registry_save", None),
    (ModelRegistry, "load", "serving.registry_load", None),
)


class Tracer:
    """Installs timing wrappers on :data:`TARGETS` and collects spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for owner, attribute, name, counter in TARGETS:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))
        split = LeaveOneGroupOut.__dict__["split"]
        self._originals.append((LeaveOneGroupOut, "split", split))
        setattr(LeaveOneGroupOut, "split", self._wrap_folds(split))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def mark(self) -> int:
        """Index of the next span, to open a window."""
        with self._lock:
            return len(self.spans)

    def since(self, mark: int) -> List[Span]:
        with self._lock:
            return list(self.spans[mark:])

    # ------------------------------------------------------------------
    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _wrap(self, original: Any, name: Any, counter: Optional[Counter]) -> Any:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            depth = getattr(tracer._local, "depth", 0)
            tracer._local.depth = depth + 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._local.depth = depth
            label = name(args, kwargs) if callable(name) else name
            counts = counter(result) if counter is not None else {}
            tracer._record(Span(label, threading.get_ident(), start, end, depth, counts))
            return result

        return traced

    def _wrap_folds(self, original: Any) -> Any:
        """Count the folds a cross-validation splitter yields."""
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            for fold in original(*args, **kwargs):
                now = time.perf_counter()
                depth = getattr(tracer._local, "depth", 0)
                tracer._record(
                    Span("core.cv_fold", threading.get_ident(), now, now, depth, {"folds": 1.0})
                )
                yield fold

        return traced


# ---------------------------------------------------------------------------
# Window summaries.
# ---------------------------------------------------------------------------
@dataclass
class Totals:
    seconds: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def totals_by_name(spans: List[Span]) -> Dict[str, Totals]:
    totals: Dict[str, Totals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, Totals())
        entry.seconds += span.duration
        for key, value in span.counts.items():
            entry.counts[key] = entry.counts.get(key, 0.0) + value
    return totals


def covered_seconds(spans: List[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the top-level spans (any thread)."""
    intervals = sorted(
        (max(s.start, start), min(s.end, end))
        for s in spans if s.depth == 0 and s.end > s.start
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
