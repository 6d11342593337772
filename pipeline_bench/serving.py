"""``serving``: closed-loop one-row requests to a default ``PredictionService``.

Set-up profiles, runs the campaign, fits the default predictor and
round-trips it through a ``ModelRegistry``; the measured phase serves a
registry-loaded model.  :data:`CLIENTS` client threads each send their
next request only after the previous one was answered (a closed loop).
Keys come from a seeded stream over workloads x TREFP x temperature in
which about :data:`REPEAT_SHARE` of the requests repeat a recent key, so
most requests take the model path while the LRU cache still shows in
throughput.  One operation is one request.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro import units
from repro.core.predictor import WorkloadAwarePredictor
from repro.serving.registry import ModelRegistry
from repro.serving.service import PredictionService, PredictRequest, PredictResponse

import harness
from harness import Outcome, Prepared
from tracer import Tracer

CLIENTS = 2
REPEAT_SHARE = 0.25
#: A repeat re-sends one of the keys sent between this many and
#: :data:`REPEAT_MIN_AGE` requests ago: old enough to have been answered
#: and cached, recent enough to still sit in the default LRU cache.
REPEAT_MAX_AGE = 512
REPEAT_MIN_AGE = 2 * CLIENTS
#: Upper bound on the request rate the stream is sized for.
MAX_RATE_RPS = 4000
TREFP_AXIS = tuple(float(v) for v in np.linspace(units.NOMINAL_TREFP_S, units.MAX_TREFP_S, 400))
TEMPERATURE_AXIS = tuple(float(v) for v in np.arange(20.0, units.MAX_TEMP_C + 0.125, 0.25))
MODEL_NAME = "wer-pue"


def request_stream(seed: int, workloads: List[str], length: int) -> List[PredictRequest]:
    """Seeded keys; about ``REPEAT_SHARE`` of them repeat a recent key."""
    rng = np.random.default_rng(seed)
    keys: List[Tuple[int, int, int]] = []
    for i in range(length):
        if i >= REPEAT_MIN_AGE and rng.random() < REPEAT_SHARE:
            keys.append(keys[i - int(rng.integers(REPEAT_MIN_AGE, min(i, REPEAT_MAX_AGE) + 1))])
        else:
            keys.append((
                int(rng.integers(len(workloads))),
                int(rng.integers(len(TREFP_AXIS))),
                int(rng.integers(len(TEMPERATURE_AXIS))),
            ))
    return [
        PredictRequest(workloads[w], TREFP_AXIS[t], units.MIN_VDD_V, TEMPERATURE_AXIS[c])
        for w, t, c in keys
    ]


def setup_pass(seed: int, registry: ModelRegistry) -> Tuple[Prepared, WorkloadAwarePredictor]:
    prepared = harness.prepare(seed)
    predictor = WorkloadAwarePredictor().fit(prepared.campaign, prepared.profiles)
    version = registry.save(MODEL_NAME, predictor)
    return prepared, registry.load(MODEL_NAME, version)


@dataclass
class Served:
    index: int
    latency_s: float
    response: Optional[PredictResponse]


@dataclass
class Phase:
    served: List[Served]
    wall_s: float
    hit_ratio: float
    mean_batch_size: float


def serve(model: WorkloadAwarePredictor, stream: List[PredictRequest], seconds: float,
          outcome: Outcome) -> Phase:
    """Run the closed loop for ``seconds`` against a fresh service."""
    counter = itertools.count()
    results: List[List[Served]] = [[] for _ in range(CLIENTS)]
    errors: List[str] = []

    def client(service: PredictionService, out: List[Served], deadline: float) -> None:
        while time.perf_counter() < deadline:
            index = next(counter)
            if index >= len(stream):
                return
            start = time.perf_counter()
            try:
                response = service.submit(stream[index]).result()
            except Exception as error:    # counted as a failed request
                errors.append(repr(error))
                response = None
            out.append(Served(index, time.perf_counter() - start, response))

    with PredictionService(model) as service:
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=client, args=(service, out, deadline)) for out in results
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        stats = service.stats()
    served = sorted(itertools.chain.from_iterable(results), key=lambda s: s.index)
    outcome.attempted += len(served)
    outcome.failed += sum(1 for s in served if s.response is None)
    if errors:
        outcome.failures.append(f"{len(errors)} requests raised, first: {errors[0]}")
    return Phase(
        served, wall, stats.hit_rate,
        stats.predictions / stats.batches if stats.batches else 0.0,
    )


def check(outcome: Outcome, model: WorkloadAwarePredictor, phase: Phase) -> None:
    """Every response equals a direct ``predict_batch`` of its key, bit for bit.

    The reference is one ``predict_batch`` call with one row for
    responses the service computed alone, and with every served key for
    responses computed in a batch of two or more.  The two can differ:
    for one row the distance kernel's ``A @ B.T`` takes another BLAS path,
    and at points equidistant from two training points (55 C lies halfway
    between the 50 C and 60 C sweeps) that round-off changes the nearest
    neighbours.
    """
    answered = [s.response for s in phase.served if s.response is not None]
    keys = sorted({r.request.key for r in answered if r.batch_size > 1})
    reference = {}
    if keys:
        batch = model.predict_batch(
            [k[0] for k in keys], [PredictRequest(*k).operating_point() for k in keys]
        )
        for i, key in enumerate(keys):
            reference[key, False] = (tuple(float(v) for v in batch.wer[:, i]), float(batch.pue[i]))
    for key in {r.request.key for r in answered if r.batch_size == 1}:
        batch = model.predict_batch([key[0]], [PredictRequest(*key).operating_point()])
        reference[key, True] = (tuple(float(v) for v in batch.wer[:, 0]), float(batch.pue[0]))
    mismatched = sum(
        (r.wer, r.pue) != reference[r.request.key, r.batch_size == 1] for r in answered
    )
    outcome.check(mismatched == 0, f"{mismatched} responses differ from predict_batch")


def stream_properties(phase: Phase, stream: List[PredictRequest]) -> Tuple[int, float]:
    """(distinct keys, share of requests whose key was sent before)."""
    seen = set()
    repeats = 0
    for s in phase.served:
        key = stream[s.index].key
        repeats += key in seen
        seen.add(key)
    return len(seen), repeats / len(phase.served)


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    registry = ModelRegistry(work_dir / "registry")
    (prepared, model), setups = harness.set_up(
        lambda: setup_pass(seed, registry), tracer if trace else None
    )
    harness.check_profiles(outcome, prepared.profiles)
    harness.check_campaign(outcome, prepared.campaign)
    stream = request_stream(seed, sorted(prepared.profiles), int(MAX_RATE_RPS * seconds))

    if trace:
        # Same stream, fresh service: an untraced half, then a traced half.
        untraced = serve(model, stream, seconds / 2, outcome)
        check(outcome, model, untraced)
        phase, window = harness.measure(lambda: serve(model, stream, seconds / 2, outcome), tracer)
    else:
        phase = serve(model, stream, seconds, outcome)
    check(outcome, model, phase)
    distinct, repeat_share = stream_properties(phase, stream)
    latencies = [s.latency_s for s in phase.served]
    outcome.notes.append(
        f"requests={len(latencies)} distinct_keys={distinct} repeat_share={repeat_share:.4f} "
        f"hit_ratio={phase.hit_ratio:.4f} mean_batch_size={phase.mean_batch_size:.4f}"
    )
    outcome.notes.append(
        f"digest profiles={harness.profiles_digest(prepared.profiles)} "
        f"wer={harness.wer_digest(prepared.campaign)}"
    )
    harness.add_quality(outcome, seed, prepared.profiles)

    if trace:
        values = harness.ledger(setups + [window])
        hits = [s.latency_s * 1000.0 for s in phase.served if s.response and s.response.cached]
        misses = [s.latency_s * 1000.0 for s in phase.served
                  if s.response and not s.response.cached]
        values.update({
            "serving.hit_ratio": phase.hit_ratio,
            "serving.hit_latency_p50_ms": harness.median(hits),
            "serving.miss_latency_p50_ms": harness.median(misses),
            "serving.mean_batch_size": phase.mean_batch_size,
            "serving.repeat_share": repeat_share,
            "serving.distinct_keys": float(distinct),
        })
        harness.add_tracing_cost(
            values, [window], harness.median(latencies),
            harness.median([s.latency_s for s in untraced.served]),
        )
        harness.finish_ledger(outcome, values)
    else:
        outcome.end_to_end["setup_s"] = (harness.median([w.wall for w in setups]), "s")
        harness.add_latency(outcome, latencies, phase.wall_s)
    return outcome
