"""Per-layer metrics from the spans of a traced run.

Input is one document per process (``{"notes": ..., "spans": [...]}``,
see :mod:`spans`) plus, for serve-durable, the client's own
request spans. Each metric is a median per call unless its name says
otherwise, and comes with the number of calls it was taken over. A
layer that the workload does not run reads 0 over 0 calls.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from spans import ATTR, END, NAME, PARENT, SID, START

#: Detector families of the full Table 3 bank, as ``spans.family_label``
#: names them. The serve plane's small bank runs the first five.
FAMILIES = (
    "Window", "Diff", "EWMA", "SeasonalResidual", "Historical",
    "HoltWinters", "SVDDetector", "Wavelet", "ARIMA",
)

#: (name, unit) of every per-layer metric, in print order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("detectors.point_us", "us"),
    *((f"detectors.{family}_us", "us") for family in FAMILIES),
    ("detectors.fused_configs", "count"),
    ("ml.predict_us", "us"),
    ("ml.impute_us", "us"),
    ("ml.fit_ms", "ms"),
    ("core.ingest_self_us", "us"),
    ("core.retrain_ms", "ms"),
    ("core.bootstrap_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.checkpoint_kb_per_kpi", "KB"),
    ("diagnosis.fit_s", "s"),
    ("diagnosis.diagnose_us", "us"),
    ("fleet.self_us_per_point", "us"),
    ("fleet.save_ms", "ms"),
    ("fleet.restore_ms", "ms"),
    ("serve.edge_ms", "ms"),
    ("serve.shard_rtt_ms", "ms"),
    ("serve.durable_ms", "ms"),
    ("serve.durable_bytes_per_batch", "bytes"),
    ("serve.frame_bytes_per_point", "bytes"),
)

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _dur(span) -> float:
    return span[END] - span[START]


def compute(documents: List[dict], client: Sequence[Tuple[float, float, int]] = ()
            ) -> Dict[str, Tuple[float, str, int]]:
    """``{metric: (value, unit, calls)}`` over every process's spans.

    ``client`` holds ``(start, end, points)`` of each measured ingest
    request, timed by the benchmark on the same clock as the spans.
    """
    out: Dict[str, Tuple[float, str, int]] = {}
    units = dict(METRICS)

    def timed(name: str, values: Sequence[float]) -> None:
        scale = _SCALE[units[name]]
        out[name] = (_median(values) * scale, units[name], len(values))

    by_name = _index(documents)
    fused = max((d["notes"].get("fused_configs", 0) for d in documents),
                default=0)
    ingest_ids = set()
    # Span ids are per process; key them by (process, id).
    for document, span in by_name.get("core.ingest", []):
        ingest_ids.add((id(document), span[SID]))
    points = [
        (d, s) for d, s in by_name.get("detectors.point", [])
        if (id(d), s[PARENT]) in ingest_ids
    ]
    point_ids = {(id(d), s[SID]) for d, s in points}
    timed("detectors.point_us", [_dur(s) for _, s in points])
    for family in FAMILIES:
        timed(f"detectors.{family}_us", [
            _dur(s) for d, s in by_name.get(f"detectors.family.{family}", [])
            if (id(d), s[PARENT]) in point_ids
        ])
    out["detectors.fused_configs"] = (float(fused), "count",
                                      len(point_ids))

    def in_ingest(name: str) -> list:
        return [
            (d, s) for d, s in by_name.get(name, [])
            if s[ATTR] == 1 and (id(d), s[PARENT]) in ingest_ids
        ]

    predicts, imputes = in_ingest("ml.predict"), in_ingest("ml.impute")
    timed("ml.predict_us", [_dur(s) for _, s in predicts])
    timed("ml.impute_us", [_dur(s) for _, s in imputes])
    timed("ml.fit_ms", [_dur(s) for _, s in by_name.get("ml.fit", [])])

    children: Dict[tuple, float] = {}
    for d, s in points + predicts + imputes:
        key = (id(d), s[PARENT])
        children[key] = children.get(key, 0.0) + _dur(s)
    timed("core.ingest_self_us", [
        _dur(s) - children.get((id(d), s[SID]), 0.0)
        for d, s in by_name.get("core.ingest", [])
    ])
    for metric, name in (("core.retrain_ms", "core.retrain"),
                         ("core.bootstrap_ms", "core.bootstrap"),
                         ("core.extract_ms", "core.extract"),
                         ("diagnosis.diagnose_us", "diagnosis.diagnose"),
                         ("fleet.save_ms", "fleet.save"),
                         ("fleet.restore_ms", "fleet.restore")):
        timed(metric, [_dur(s) for _, s in by_name.get(name, [])])
    sizes = [s[ATTR] for _, s in by_name.get("core.checkpoint", [])]
    out["core.checkpoint_kb_per_kpi"] = (_median(sizes) / 1024.0, "KB",
                                         len(sizes))
    # default_diagnoser() is cached: the first call of a process fits.
    fits = [_dur(s) for _, s in by_name.get("diagnosis.fit", [])]
    out["diagnosis.fit_s"] = (max(fits) if fits else 0.0, "s", len(fits))

    # Fleet self time: offer + drain_all minus the ingests inside them.
    offers = by_name.get("fleet.offer", [])
    drains = by_name.get("fleet.drain_all", [])
    drain_ids = {(id(d), s[SID]) for d, s in drains}
    inner = sum(
        _dur(s) for d, s in by_name.get("core.ingest", [])
        if (id(d), s[PARENT]) in drain_ids
    )
    fleet_time = sum(_dur(s) for _, s in offers + drains) - inner
    out["fleet.self_us_per_point"] = (
        fleet_time / len(offers) * 1e6 if offers else 0.0, "us", len(offers)
    )

    _serve(by_name, client, out)
    return {name: out[name] for name, _ in METRICS}


def _index(documents: List[dict]) -> Dict[str, list]:
    """``{span name: [(document, span), ...]}`` over every process."""
    by_name: Dict[str, list] = {}
    for document in documents:
        for span in document["spans"]:
            by_name.setdefault(span[NAME], []).append((document, span))
    return by_name


def _shard_spans(by_name: dict, names: Sequence[str]) -> Dict[int, list]:
    """Spans of ``names`` written by shard processes, per shard index."""
    per_shard: Dict[int, list] = {}
    for name in names:
        for document, span in by_name.get(name, []):
            shard = document["notes"].get("shard")
            if shard is not None:
                per_shard.setdefault(shard, []).append(span)
    return per_shard


def _within(spans, start: float, end: float) -> list:
    return [s for s in spans if s[START] >= start and s[END] <= end]


def _round_trips(by_name: dict, client) -> list:
    """``(round trip, shard fleet spans inside it)`` for every
    shard round trip that can be split: it lies inside a measured client
    request (so not in a batch that follows a kill, whose round trip
    holds the re-fork and restore), and its shard's spans survived (a
    ``FleetManager.offer`` or ``drain_all`` of that shard lies inside
    it; a killed incarnation's spans are lost)."""
    fleet = _shard_spans(by_name, ("fleet.offer", "fleet.drain_all"))
    rtts = [s for _, s in by_name.get("serve.offer_batch", [])]
    found = []
    for start, end, _ in client:
        for span in _within(rtts, start, end):
            inside = _within(fleet.get(span[ATTR], []), span[START], span[END])
            if inside:
                found.append((span, inside))
    return found


def _serve(by_name: dict, client, out: dict) -> None:
    """The serve-plane split: edge, shard round trip, durable part."""
    trips = _round_trips(by_name, client)
    timed_rtt = [_dur(span) for span, _ in trips]
    out["serve.shard_rtt_ms"] = (_median(timed_rtt) * 1e3, "ms",
                                 len(timed_rtt))
    durable = [_dur(span) - sum(_dur(s) for s in inside)
               for span, inside in trips]
    out["serve.durable_ms"] = (_median(durable) * 1e3, "ms", len(durable))

    # The edge needs no shard spans: every round trip inside a request
    # counts, the killed shard's included.
    rtts = [s for _, s in by_name.get("serve.offer_batch", [])]
    edges = []
    for start, end, _ in client:
        longest = max((_dur(s) for s in _within(rtts, start, end)),
                      default=None)
        if longest is not None:
            edges.append(end - start - longest)
    out["serve.edge_ms"] = (_median(edges) * 1e3, "ms", len(edges))

    written = [s[ATTR] for _, s in by_name.get("serve.shard_batch", [])]
    out["serve.durable_bytes_per_batch"] = (
        sum(written) / len(written) if written else 0.0, "bytes", len(written)
    )
    frames = [(d, s) for d, s in by_name.get("serve.frame", [])
              if s[ATTR] is not None]
    frame_bytes = sum(s[ATTR][0] for _, s in frames)
    frame_points = sum(s[ATTR][1] for _, s in frames)
    out["serve.frame_bytes_per_point"] = (
        frame_bytes / frame_points if frame_points else 0.0, "bytes",
        len(frames),
    )


def unattributed_share(documents: List[dict], client, per_layer,
                       ack_ms: float) -> float:
    """Share of a traced run's ``ack_p50_ms`` that no span accounts for.

    In-process: the ack minus the medians of extraction, imputation,
    prediction and the service's own time. Over the serve plane, per
    request: the longest shard round trip inside it, minus the spans of
    that shard within the round trip (fleet offer and drain, ingest
    included, and ``FleetManager.save``), over the request's ack; the
    median over the requests whose longest round trip can be split (see
    :func:`_round_trips`).
    """
    if not client:
        value = {name: v for name, (v, _, _) in per_layer.items()}
        per_point_us = (value["detectors.point_us"] + value["ml.impute_us"]
                        + value["ml.predict_us"]
                        + value["core.ingest_self_us"])
        return 1.0 - per_point_us / 1e3 / ack_ms
    by_name = _index(documents)
    saves = _shard_spans(by_name, ("fleet.save",))
    rtts = [s for _, s in by_name.get("serve.offer_batch", [])]
    splittable = {span[SID]: inside
                  for span, inside in _round_trips(by_name, client)}
    shares = []
    for start, end, _ in client:
        span = max(_within(rtts, start, end), key=_dur,
                   default=None)
        if span is None or span[SID] not in splittable:
            continue
        inside = splittable[span[SID]]
        covered = sum(_dur(s) for s in inside + _within(
            saves.get(span[ATTR], []), span[START], span[END]))
        shares.append((_dur(span) - covered) / (end - start))
    return _median(shares)
