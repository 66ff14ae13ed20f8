"""In-memory spans around the program's public calls, for traced runs.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the benchmark, the serve plane and its shards), the
span that was open on the same thread when it began (its parent), a
request id, and one optional attribute. Spans stay in memory and are
written out once, when the process ends its run.

The wrappers live here, in the benchmark, and are installed by
patching the program's classes and module attributes. Nothing in the
program is changed on disk, and an untraced run installs nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# Span record layout: (span_id, name, start, end, parent_id, rid, attr).
SID, NAME, START, END, PARENT, RID, ATTR = range(7)


class Tracer:
    """Collects spans for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.notes: Dict[str, Any] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget spans and the open-span stack (a forked child starts
        clean: it inherited the parent's records by memory)."""
        self.spans = []
        self.notes = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[int]) -> None:
        self._local.rid = rid

    def wrap(
        self,
        name: str,
        fn: Callable,
        attr: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``attr(result, *args,
        **kwargs)`` computes the span's attribute after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = attr(result, *args, **kwargs) if attr else None
            tracer.spans.append(
                (sid, name, start, end, parent,
                 getattr(tracer._local, "rid", None), value)
            )
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def patch(self, owner: Any, attribute: str, name: str, attr=None) -> None:
        original = getattr(owner, attribute)
        if getattr(original, "__wrapped_by_perfbench__", False):
            return
        setattr(owner, attribute, self.wrap(name, original, attr))

    def dump(self, directory: str, tag: str) -> None:
        """Write this process's spans to ``<directory>/spans-<tag>-<pid>.json``."""
        path = Path(directory) / f"spans-{tag}-{os.getpid()}.json"
        path.write_text(
            json.dumps({"notes": self.notes, "spans": self.spans})
        )


def load_spans(directory: str) -> List[dict]:
    """Every span file under ``directory``, one dict per process."""
    documents = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        documents.append(json.loads(path.read_text()))
    return documents


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _rows(result, self, x, *args, **kwargs):
    return len(x)


def _file_bytes(result, service, path, *args, **kwargs):
    return os.path.getsize(path)


def family_label(evaluator) -> str:
    """The detector class of a solo config (``SVDDetector``), else the
    family evaluator's name without ``Evaluator``/``Bank``
    (``HoltWinters``, ``Window``)."""
    from repro.detectors.base import SoloEvaluator

    if isinstance(evaluator, SoloEvaluator):
        return type(evaluator.configs[0].detector).__name__
    return type(evaluator).__name__.removesuffix("Evaluator").removesuffix(
        "Bank"
    )


def install_core(tracer: Tracer) -> None:
    """Spans for the per-point, training and checkpoint layers."""
    from repro import core, diagnosis
    from repro.core import feature_matrix, service
    from repro.detectors import base
    from repro.diagnosis import classifier
    from repro.fleet import manager
    from repro.ml import forest, preprocessing

    tracer.patch(service.MonitoringService, "ingest", "core.ingest")
    tracer.patch(service.MonitoringService, "retrain", "core.retrain")
    tracer.patch(service.MonitoringService, "bootstrap", "core.bootstrap")
    tracer.patch(feature_matrix.FeatureExtractor, "extract", "core.extract")
    tracer.patch(base.StreamBank, "extract_point", "detectors.point")
    tracer.patch(forest.RandomForest, "predict_proba", "ml.predict", _rows)
    tracer.patch(preprocessing.Imputer, "transform", "ml.impute", _rows)
    tracer.patch(forest.RandomForest, "fit", "ml.fit")
    tracer.patch(diagnosis, "default_diagnoser", "diagnosis.fit")
    tracer.patch(classifier.AnomalyDiagnoser, "diagnose", "diagnosis.diagnose")
    # The fleet and in-process callers look the function up in
    # different modules.
    for owner in (manager, core):
        tracer.patch(owner, "save_service_checkpoint", "core.checkpoint",
                     _file_bytes)

    original_init = base.StreamBank.__init__
    if not getattr(original_init, "__wrapped_by_perfbench__", False):

        @functools.wraps(original_init)
        def traced_init(bank, configs):
            original_init(bank, configs)
            fused = 0
            for evaluator, stream in zip(bank._evaluators, bank._streams):
                if not isinstance(stream, base.PerConfigStreams):
                    fused += len(evaluator.configs)
                stream.update = tracer.wrap(
                    f"detectors.family.{family_label(evaluator)}",
                    stream.update,
                )
            tracer.notes["fused_configs"] = fused

        traced_init.__wrapped_by_perfbench__ = True
        base.StreamBank.__init__ = traced_init


def install_fleet(tracer: Tracer) -> None:
    from repro.fleet import manager

    tracer.patch(manager.FleetManager, "offer", "fleet.offer")
    tracer.patch(manager.FleetManager, "drain_all", "fleet.drain_all")
    tracer.patch(manager.FleetManager, "save", "fleet.save")
    tracer.patch(manager.FleetManager, "restore", "fleet.restore")


__all__ = [
    "Tracer", "load_spans", "install_core", "install_fleet", "family_label",
    "SID", "NAME", "START", "END", "PARENT", "RID", "ATTR",
]
