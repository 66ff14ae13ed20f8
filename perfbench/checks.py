"""Correctness checks computed apart from the program, and shared
measurement helpers.

Every check returns a list of failure strings; an empty list passes.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Window = Tuple[int, int]  # [begin, end) in absolute series indices


# ----------------------------------------------------------------------
# Alert runs derived from batch predictions
# ----------------------------------------------------------------------
def derive_events(
    scores: Sequence[float],
    predictions: Sequence[int],
    first_index: int,
    min_duration: int,
) -> List[tuple]:
    """The alert events a point-by-point run over ``predictions`` must
    raise, ending with a retrain (which closes a dangling run at the
    last point). Events are ``(kind, begin, end, peak_score)``.

    This restates the documented alert contract independently of
    ``MonitoringService``: a run of anomalous points opens an alert on
    the point where it reaches ``min_duration`` points and closes on
    the first normal point after it, if it was long enough.
    """
    events: List[tuple] = []
    begin: Optional[int] = None
    peak = 0.0
    index = first_index
    for offset, (score, flagged) in enumerate(zip(scores, predictions)):
        index = first_index + offset
        if flagged:
            if begin is None:
                begin, peak = index, score
            peak = max(peak, score)
            if index - begin + 1 == min_duration:
                events.append(("opened", begin, index + 1, peak))
        elif begin is not None:
            if index - begin >= min_duration:
                events.append(("closed", begin, index, peak))
            begin = None
    end = first_index + len(predictions)
    if begin is not None and end - begin >= min_duration:
        events.append(("closed", begin, end, peak))
    return events


def event_key(event) -> tuple:
    """Comparable form of an ``AlertEvent`` or a serve-plane event dict."""
    if isinstance(event, dict):
        return (event["kind"], int(event["begin_index"]),
                int(event["end_index"]), float(event["peak_score"]),
                event.get("diagnosis"))
    return (event.kind, event.begin_index, event.end_index,
            event.peak_score, event.diagnosis)


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
def alert_spans(events: Iterable[tuple], cuts: Sequence[int]) -> List[Window]:
    """``[begin, end)`` of every alert, from ``(kind, begin, end, ...)``
    events. An alert with no ``closed`` event was closed by a retrain
    (or is still open): it ends at the first of ``cuts`` (retrain
    points, then the last point) after its begin."""
    closed: Dict[int, int] = {}
    opened: List[int] = []
    for kind, begin, end, *_ in events:
        if kind == "opened":
            opened.append(begin)
        else:
            closed[begin] = end
    return [
        (begin, closed.get(begin, next(c for c in cuts if c > begin)))
        for begin in opened
    ]


def _overlaps(a: Window, b: Window) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _covered_starts(length: int, truth: Sequence[Window], lo: int,
                    hi: int) -> int:
    """Start positions ``s`` in ``[lo, hi - length]`` at which an alert
    of ``length`` points overlaps any window of ``truth``."""
    last = hi - length
    intervals = sorted(
        (max(b - length + 1, lo), min(e - 1, last)) for b, e in truth
    )
    covered, reach = 0, lo - 1
    for a, b in intervals:
        a = max(a, reach + 1)
        if b >= a:
            covered += b - a + 1
            reach = b
    return covered


def ground_truth(
    per_kpi: Dict[str, Tuple[List[Window], List[Window], int, int]],
) -> Tuple[dict, List[str]]:
    """Window recall and alert precision, each against what the same
    alerts placed uniformly at random over each KPI's live span reach.

    ``per_kpi`` maps a KPI to ``(alerts, truth, live_begin, live_end)``;
    truth windows are those overlapping the live span.
    """
    hit_windows = n_windows = good_alerts = n_alerts = 0
    random_hits = random_good = 0.0
    for alerts, truth, lo, hi in per_kpi.values():
        truth = [(max(b, lo), min(e, hi)) for b, e in truth if e > lo and b < hi]
        n_windows += len(truth)
        n_alerts += len(alerts)
        hit_windows += sum(
            any(_overlaps(w, a) for a in alerts) for w in truth
        )
        good_alerts += sum(
            any(_overlaps(a, w) for w in truth) for a in alerts
        )
        positions = [
            max(hi - lo - (e - b) + 1, 1) for b, e in alerts
        ]
        for (b, e), slots in zip(alerts, positions):
            random_good += _covered_starts(e - b, truth, lo, hi) / slots
        for w in truth:
            miss = 1.0
            for (b, e), slots in zip(alerts, positions):
                miss *= 1.0 - _covered_starts(e - b, [w], lo, hi) / slots
            random_hits += 1.0 - miss
    result = {
        "windows": n_windows,
        "alerts": n_alerts,
        "window_recall": hit_windows / n_windows if n_windows else 0.0,
        "alert_precision": good_alerts / n_alerts if n_alerts else 0.0,
        "random_recall": random_hits / n_windows if n_windows else 0.0,
        "random_precision": random_good / n_alerts if n_alerts else 0.0,
    }
    failures = []
    if not n_windows or not n_alerts:
        failures.append(
            f"ground truth: {n_windows} live windows, {n_alerts} alerts"
        )
    elif result["window_recall"] <= result["random_recall"]:
        failures.append(
            "ground truth: window recall {window_recall:.3f} is not above "
            "random {random_recall:.3f}".format(**result)
        )
    elif result["alert_precision"] <= result["random_precision"]:
        failures.append(
            "ground truth: alert precision {alert_precision:.3f} is not "
            "above random {random_precision:.3f}".format(**result)
        )
    return result, failures


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


class Operations:
    """Attempted and failed operations, by kind."""

    def __init__(self) -> None:
        self.kinds: Dict[str, List[int]] = {}

    def record(self, kind: str, ok: bool = True, count: int = 1) -> None:
        entry = self.kinds.setdefault(kind, [0, 0])
        entry[0] += count
        if not ok:
            entry[1] += count

    @property
    def attempted(self) -> int:
        return sum(entry[0] for entry in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(entry[1] for entry in self.kinds.values())

    def as_dict(self) -> dict:
        return {
            kind: {"attempted": a, "failed": f}
            for kind, (a, f) in sorted(self.kinds.items())
        }
