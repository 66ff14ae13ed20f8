"""The benchmark's inputs: a fixed labelled history, live data drawn
from the seed.

Every KPI bootstraps on the same labelled history whatever the seed:
the history of KPI ``i`` of the scenario generated at
``HISTORY_SEED``. Its live part is the same scenario's clean series
after the history, with anomalies injected from ``--seed``, so the
seed draws what the live weeks bring: where the anomalies fall, how
long they last, their kind and their severity.

The history is fixed because it sets the size of the trained forests,
and the forest size sets the cost of both the set-up and every vote:
with the history drawn from the seed as well, one PV KPI's 50-tree
forest held 2114 to 5524 nodes over seeds 1-8, and its median ingest
call took 3.4 to 6.4 ms. A run would then measure the draw more than
the program.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: The seed offset of the scenario whose history every run bootstraps on.
HISTORY_SEED = 0


def _live_seed(seed: int, index: int) -> int:
    """The injection seed of KPI ``index`` in a run with ``--seed seed``."""
    sequence = np.random.SeedSequence([seed % 2**32, index])
    return int(sequence.generate_state(1)[0])


def scenario(spec, seed: int) -> List:
    """The KPIs of ``spec`` (whose ``seed_offset`` must be
    ``HISTORY_SEED``) with their live parts drawn from ``seed``.

    Each KPI's bootstrap slice is exactly what ``repro-serve`` builds
    from the same spec, so a plane started on ``spec`` bootstraps on
    it. Ground-truth windows are those of the history that end inside
    it, and those injected into the live part.
    """
    from repro.data import datasets
    from repro.data.anomalies import DEFAULT_INJECTORS, inject_anomalies
    from repro.loadgen.scenario import ScenarioKpi, build_scenario
    from repro.timeseries import AnomalyWindow, TimeSeries

    if spec.seed_offset != HISTORY_SEED:
        raise ValueError("the scenario spec must use HISTORY_SEED")
    kpis = []
    for kpi in build_scenario(spec):
        profile = datasets.PROFILES[kpi.profile]
        clean = datasets.make_kpi(
            profile, seed_offset=spec.seed_offset + kpi.index,
            weeks=spec.bootstrap_weeks + spec.weeks, with_anomalies=False,
        ).series
        base = kpi.bootstrap_points
        injectors = None
        if profile.injector_mix is not None:
            injectors = {kind: (DEFAULT_INJECTORS[kind][0], weight)
                         for kind, weight in profile.injector_mix.items()}
        live = inject_anomalies(
            clean.slice(base, len(clean)),
            target_fraction=profile.anomaly_fraction,
            seed=_live_seed(seed, kpi.index),
            mean_window=profile.mean_anomaly_window,
            severity_range=profile.severity_range,
            injectors=injectors,
        )
        history = kpi.series
        series = TimeSeries(
            values=np.concatenate([history.values[:base],
                                   live.series.values]),
            interval=history.interval,
            start=history.start,
            labels=np.concatenate([history.labels[:base],
                                   live.series.labels]),
            name=history.name,
        )
        windows = [w for w in kpi.windows if w.end <= base] + [
            AnomalyWindow(w.begin + base, w.end + base) for w in live.windows
        ]
        kpis.append(ScenarioKpi(
            kpi_id=kpi.kpi_id, profile=kpi.profile, index=kpi.index,
            interval=kpi.interval, bootstrap_points=base, series=series,
            windows=tuple(sorted(windows)),
        ))
    return kpis
