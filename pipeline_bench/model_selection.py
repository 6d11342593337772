"""``model_selection``: the Fig. 11/12 leave-one-workload-out study.

Profiles, the campaign and both datasets are built in set-up, so the
measured phase is ML fitting and prediction only.  One operation is one
study: knn over every rank, svm and rdf over :data:`SUBSET_RANKS` ranks
(the per-rank models are independent, so a subset is representative and
keeps rdf tractable), plus the PUE model of each family, all on input
set 1.  ``latency_p50_ms`` is the study's median wall time (the
``study_s`` of the layer map).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.evaluation import AccuracyEvaluator, PueAccuracyReport, WerAccuracyReport
from repro.dram.geometry import RankLocation

import harness
from harness import Outcome, Prepared, Window
from tracer import Tracer

FAMILIES = ("knn", "svm", "rdf")
FEATURE_SET = "set1"
SUBSET_RANKS = 1
MIN_STUDIES = 2

Study = Dict[str, Tuple[WerAccuracyReport, PueAccuracyReport]]


def study_ranks(prepared: Prepared, family: str) -> List[RankLocation]:
    ranks = prepared.wer.ranks()
    return ranks if family == "knn" else ranks[:SUBSET_RANKS]


def folds_per_study(prepared: Prepared) -> int:
    """Leave-one-workload-out folds: one per workload per WER rank and PUE model."""
    num_workloads = len(prepared.wer.workloads())
    return sum(num_workloads * (len(study_ranks(prepared, f)) + 1) for f in FAMILIES)


def run_study(prepared: Prepared) -> Study:
    """Every family's WER and PUE evaluation."""
    evaluator = AccuracyEvaluator()
    return {
        family: (
            evaluator.evaluate_wer(
                prepared.wer, family, FEATURE_SET, ranks=study_ranks(prepared, family)
            ),
            evaluator.evaluate_pue(prepared.pue, family, FEATURE_SET),
        )
        for family in FAMILIES
    }


def check(outcome: Outcome, prepared: Prepared, study: Study) -> None:
    workloads = set(prepared.wer.workloads())
    for family, (wer, pue) in study.items():
        errors = (
            list(wer.error_by_rank.values()) + list(wer.error_by_workload.values())
            + list(pue.error_by_workload.values())
        )
        outcome.check(
            all(math.isfinite(e) for e in errors), f"{family}: non-finite error"
        )
        outcome.check(
            set(wer.error_by_rank) == set(study_ranks(prepared, family)),
            f"{family}: WER ranks covered {sorted(map(str, wer.error_by_rank))}",
        )
        outcome.check(
            set(wer.error_by_workload) == workloads
            and set(pue.error_by_workload) == workloads,
            f"{family}: not every workload is covered",
        )


def study_digest(study: Study) -> str:
    return harness.digest(
        repr((family, sorted(map(repr, wer.error_by_rank.items())),
              sorted(wer.error_by_workload.items()),
              sorted(pue.error_by_workload.items()))).encode()
        for family, (wer, pue) in study.items()
    )


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    prepared, setups = harness.set_up(lambda: harness.prepare(seed), tracer if trace else None)
    harness.check_profiles(outcome, prepared.profiles)
    harness.check_campaign(outcome, prepared.campaign)

    untraced: List[Window] = []
    traced: List[Window] = []
    digests = set()

    def op(i: int) -> None:
        # A traced run alternates untraced and traced studies.
        is_traced = trace and i % 2 == 1
        study, window = harness.measure(
            lambda: run_study(prepared), tracer if is_traced else None
        )
        (traced if is_traced else untraced).append(window)
        outcome.attempted += folds_per_study(prepared)
        if i == 0:
            check(outcome, prepared, study)
        digests.add(study_digest(study))

    wall = harness.repeat_for(seconds, MIN_STUDIES * (2 if trace else 1), op)
    outcome.check(len(digests) == 1, f"studies disagree: {sorted(digests)}")
    outcome.notes.append(
        f"digest profiles={harness.profiles_digest(prepared.profiles)} "
        f"wer={harness.wer_digest(prepared.campaign)} study={sorted(digests)[0]}"
    )
    outcome.notes.append(f"CV folds per study: {folds_per_study(prepared)}")
    harness.add_quality(outcome, seed, prepared.profiles)

    latencies = [w.wall for w in untraced]
    outcome.notes.append(f"study_s (median) = {harness.median(latencies):.4f} s")
    if trace:
        values = harness.ledger(setups + traced)
        harness.add_tracing_cost(
            values, traced, harness.median([w.wall for w in traced]), harness.median(latencies)
        )
        harness.finish_ledger(outcome, values)
    else:
        outcome.end_to_end["setup_s"] = (harness.median([w.wall for w in setups]), "s")
        harness.add_latency(outcome, latencies, wall)
    return outcome
