"""Session fixtures shared by the benchmark harness.

The full characterization campaign (14 benchmarks x 4 refresh periods x
{50, 60} C plus the 70 C UE study) and the extended campaign used by the
Fig. 13 case study are run once per session and shared by every
benchmark.

The throughput benchmarks (SECDED decode, the packed-lane codec,
campaign grid, dataset assembly, telemetry overhead) report their floors
through one shared :class:`BenchReport` fixture so the scalar/batch
timings print uniformly, and the measured speedups are dumped to a JSON
file (:data:`repro.telemetry.report.BENCH_ARTIFACT_NAME` by default,
overridable via ``BENCH_REPORT_JSON``) that CI uploads as a per-PR
artifact.  The whole benchmark session runs inside a telemetry session,
and the artifact embeds the resulting :class:`RunReport` (span timings
plus environment metadata) under a ``"run_report"`` key.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import units
from repro.characterization.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.dataset import build_pue_dataset, build_wer_dataset
from repro.profiling.profiler import profile_workload
from repro.telemetry import RunReport, telemetry_session
from repro.telemetry.report import BENCH_ARTIFACT_NAME
from repro.workloads.registry import campaign_workload_names


def _print_table(title, rows):
    """Print a small aligned table to the benchmark log."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


@pytest.fixture(scope="session")
def print_table():
    return _print_table


class BenchReport:
    """Uniform floor reporting shared by every throughput benchmark.

    Each benchmark records one entry (scalar time, batch time, floor);
    the report prints the standard scalar/batch/speedup table and, at
    session end, writes every entry to the benchmark-artifact JSON.
    """

    def __init__(self):
        self.entries = {}

    def record(self, benchmark, *, floor, scalar_s, batch_s, units_label="runs",
               work_items=None):
        """Record one floor measurement; returns the measured speedup."""
        speedup = scalar_s / batch_s
        self.entries[benchmark] = {
            "benchmark": benchmark,
            "floor_x": floor,
            "speedup_x": round(speedup, 2),
            "scalar_s": round(scalar_s, 6),
            "batch_s": round(batch_s, 6),
        }
        rows = [
            ("scalar loop", f"{scalar_s:.4f} s",
             f"{work_items / scalar_s:,.0f} {units_label}/s" if work_items else ""),
            ("batch engine", f"{batch_s:.4f} s",
             f"{work_items / batch_s:,.0f} {units_label}/s" if work_items else ""),
            ("speedup", f"{speedup:.1f}x", f"(floor {floor:.3g}x)"),
        ]
        _print_table(f"{benchmark} throughput", rows)
        return speedup


@pytest.fixture(scope="session")
def bench_report():
    with telemetry_session() as telemetry:
        report = BenchReport()
        yield report
        run_report = RunReport.capture(telemetry)
    if report.entries:
        path = os.environ.get("BENCH_REPORT_JSON", BENCH_ARTIFACT_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmarks": sorted(report.entries.values(),
                                         key=lambda e: e["benchmark"]),
                    "run_report": run_report.to_json_dict(),
                },
                handle, indent=2,
            )
            handle.write("\n")


@pytest.fixture(scope="session")
def campaign_profiles():
    return {name: profile_workload(name) for name in campaign_workload_names()}


@pytest.fixture(scope="session")
def full_campaign(campaign_profiles):
    """The paper's main campaign (Sections V.A and V.B)."""
    campaign = CharacterizationCampaign(config=CampaignConfig(), seed=7)
    return campaign.run(include_ue_study=True)


@pytest.fixture(scope="session")
def full_wer_dataset(full_campaign, campaign_profiles):
    return build_wer_dataset(full_campaign, campaign_profiles)


@pytest.fixture(scope="session")
def full_pue_dataset(full_campaign, campaign_profiles):
    return build_pue_dataset(full_campaign, campaign_profiles)


EXTENDED_WORKLOADS = tuple(campaign_workload_names()) + (
    "lulesh(O2)", "lulesh(F)", "data-pattern-random",
)


@pytest.fixture(scope="session")
def extended_campaign():
    """Campaign including lulesh and the data-pattern micro, with 70 C WER points.

    This is the training/measurement set of the Fig. 13 case study (the
    workload-aware model vs. the conventional constant-rate model).
    """
    config = CampaignConfig(
        workloads=EXTENDED_WORKLOADS,
        trefp_values_s=units.TREFP_SWEEP_S,
        temperatures_c=(50.0, 60.0, 70.0),
        ue_repetitions=0,
    )
    campaign = CharacterizationCampaign(config=config, seed=7)
    return campaign.run(include_ue_study=False)


@pytest.fixture(scope="session")
def extended_wer_dataset(extended_campaign):
    return build_wer_dataset(extended_campaign)
