"""``stream-full``: one PV KPI through ``MonitoringService`` in-process.

A round sets the service up (fit the default diagnoser, build the
service with the full Table 3 bank and the 50-tree forest, bootstrap on
two labelled weeks), then ingests two live weeks one ``ingest`` call at
a time. At the end of each week it submits the week's labels and
retrains. Every eighth of a week it checkpoints the service, drops it
and restores a fresh one from the checkpoint, as a restarted monitor
would; ``recover_s`` is the time from dropping the service to the ack
of the next point.

Every round replays the same inputs from the same state, so rounds are
interchangeable: the first is checked in full, later ones must raise
exactly the first round's alert events.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List

import inputs
from checks import (
    Operations, alert_spans, derive_events, event_key, ground_truth,
    mean, median, peak_rss_mb,
)

BOOTSTRAP_WEEKS = 2
LIVE_WEEKS = 2
#: The service is checkpointed, dropped and restored every eighth of a
#: week: 15 recoveries a round, whose mean is `recover_s`.
RESTARTS_PER_WEEK = 8


def _scenario(seed: int):
    from repro.loadgen.scenario import ScenarioSpec

    spec = ScenarioSpec(
        n_kpis=1, weeks=LIVE_WEEKS, bootstrap_weeks=BOOTSTRAP_WEEKS,
        profiles=("PV",), seed_offset=inputs.HISTORY_SEED,
    )
    return inputs.scenario(spec, seed)[0]


def _new_service(diagnoser, sink):
    from repro.core import MonitoringService

    return MonitoringService(diagnoser=diagnoser, alert_callback=sink.append)


def _labels(kpi, since: int, horizon: int):
    """The injected windows overlapping ``[since, horizon)``, clipped to
    it: the operator's labels for the week just ingested."""
    from repro.timeseries import AnomalyWindow

    return [
        AnomalyWindow(max(w.begin, since), min(w.end, horizon))
        for w in kpi.windows
        if w.begin < horizon and w.end > since
    ]


def _restart(service, diagnoser, events, workdir: Path, value: float):
    """Checkpoint ``service``, drop it, restore a new one from the
    checkpoint and ingest ``value``; returns the new service and the
    time from the drop to the ack."""
    from repro import core

    core.save_model(service.opprentice, workdir / "model.json")
    core.save_service_checkpoint(service, workdir / "service.json")
    crashed = time.perf_counter()
    service = _new_service(diagnoser, events)
    core.load_model(workdir / "model.json", opprentice=service.opprentice)
    core.load_service_checkpoint(workdir / "service.json", service)
    service.ingest(value)
    return service, time.perf_counter() - crashed


def _round(kpi, workdir: Path, tracer, check: bool, ops: Operations,
           samples: dict) -> tuple:
    """One round; returns (alert event keys, check failures)."""
    from repro import diagnosis
    from repro.diagnosis import training

    failures: List[str] = []
    events: list = []
    began = time.perf_counter()
    # default_diagnoser() caches its fit per process; clear it so that
    # every round pays for the fit, as a freshly launched monitor does.
    training.default_diagnoser.cache_clear()
    diagnoser = diagnosis.default_diagnoser()
    service = _new_service(diagnoser, events)
    service.bootstrap(kpi.bootstrap)
    samples["setup_s"].append(time.perf_counter() - began)

    live = kpi.live_values
    per_week = len(live) // LIVE_WEEKS
    base = kpi.bootstrap_points
    for week in range(LIVE_WEEKS):
        first = base + week * per_week
        week_events_from = len(events)
        values = live[week * per_week:(week + 1) * per_week]
        for offset, value in enumerate(values):
            if tracer:
                tracer.set_request(first + offset)
            index = week * per_week + offset
            if index and index % (per_week // RESTARTS_PER_WEEK) == 0:
                service, elapsed = _restart(service, diagnoser, events,
                                            workdir, value)
                samples["recover_s"].append(elapsed)
                ops.record("recovery")
                continue
            sent = time.perf_counter()
            service.ingest(value)
            elapsed = time.perf_counter() - sent
            samples["ingest_time"] += elapsed
            samples["points"] += 1
            samples["ack_s"].append(elapsed)
        if tracer:
            tracer.set_request(None)
        ops.record("ingest", count=len(values))

        expected = None
        if check:
            week_series = kpi.series.slice(first, first + len(values))
            detection = service.opprentice.detect(week_series)
            expected = derive_events(
                detection.scores, detection.predictions, first,
                service.min_duration_points,
            )
        wave = time.perf_counter()
        service.submit_labels(_labels(kpi, first, first + len(values)))
        ops.record("labels")
        service.retrain()
        samples["retrain_s"].append(time.perf_counter() - wave)
        ops.record("retrain")
        if expected is not None:
            got = [event_key(e)[:4] for e in events[week_events_from:]]
            if got != expected:
                failures.append(
                    f"stream != batch in live week {week}: "
                    f"{len(got)} streamed events, {len(expected)} derived"
                )
    samples["rss_mb"].append(peak_rss_mb([os.getpid()]))

    keys = [event_key(e) for e in events]
    if check:
        horizon = base + len(live)
        cuts = [base + (w + 1) * per_week for w in range(LIVE_WEEKS)]
        alerts = alert_spans(keys, cuts)
        summary, gt_failures = ground_truth(
            {kpi.kpi_id: (alerts, [(w.begin, w.end) for w in kpi.windows],
                          base, horizon)}
        )
        samples["ground_truth"] = summary
        failures.extend(gt_failures)
    return keys, failures


def run(seed: int, seconds: float, tracer, workdir: Path) -> dict:
    kpi = _scenario(seed)
    ops = Operations()
    samples = {"setup_s": [], "ack_s": [], "retrain_s": [], "recover_s": [],
               "rss_mb": [], "ingest_time": 0.0, "points": 0}
    failures: List[str] = []
    first_keys = None
    rounds = 0
    began = time.perf_counter()
    while True:
        keys, round_failures = _round(
            kpi, workdir, tracer, first_keys is None, ops, samples
        )
        failures.extend(round_failures)
        if first_keys is None:
            first_keys = keys
        elif keys != first_keys:
            failures.append(f"round {rounds} raised other alerts than round 0")
        rounds += 1
        if time.perf_counter() - began >= seconds:
            break
    metrics = {
        "setup_s": (median(samples["setup_s"]), "s"),
        "points_per_s": (samples["points"] / samples["ingest_time"], "1/s"),
        "ack_p50_ms": (median(samples["ack_s"]) * 1e3, "ms"),
        "recover_s": (mean(samples["recover_s"]), "s"),
        "peak_rss_mb": (median(samples["rss_mb"]), "MB"),
    }
    return {
        "metrics": metrics,
        "ops": ops,
        "failures": failures,
        "rounds": rounds,
        "acks": samples["ack_s"],
        "retrain_waves": samples["retrain_s"],
        "ground_truth": samples.get("ground_truth"),
    }
