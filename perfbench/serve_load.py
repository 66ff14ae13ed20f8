"""``serve-durable``: ``repro-serve`` at its defaults, over HTTP.

A round launches ``repro-serve`` (``setup_s`` runs until its ready
line), then drives it from one connection in a closed loop: one
``POST /ingest/batch`` per batch of scenario ticks, the next sent only
when the previous reply is in. After every ``WAVE_EVERY`` batches it
posts each KPI's labels and one ``/retrain`` (a retrain wave). Before
the batches in ``KILLS`` it SIGKILLs the smaller shard; ``recover_s``
runs from the kill to the ack of the next batch, which that shard must
serve. After the last batch it sends the edge probe, reads
``/status``, stops the server with SIGTERM and runs the checks while
the server exits.

The first round is checked in full; later rounds must raise exactly
the first round's alert events.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
from checks import (
    Operations, alert_spans, event_key, ground_truth, mean, median,
    peak_rss_mb,
)

HERE = Path(__file__).resolve().parent


#: Scenario: 16 KPIs cycling the three Table 1 profiles, 2 shards.
KPIS = 16
PROFILES = ("PV", "#SR", "SRT")
SHARDS = 2
BOOTSTRAP_WEEKS = 1.0
#: One batch carries one simulated hour (6 ticks of 10 minutes): 36
#: batches cover a day and a half, enough injected windows for the
#: ground-truth check, at one durable ack per batch; 24 timed acks and
#: 12 recoveries a round, so a short slow spell of the host weighs less.
TICKS_PER_BATCH = 6
BATCHES = 36
WAVE_EVERY = 6
#: Two kills per wave interval, at the same positions in each.
KILLS = tuple(range(1, BATCHES, 3))
#: KPIs of the other shard that the in-process twin also covers.
TWIN_OTHERS = 1
READY_TIMEOUT_S = 150.0

#: Edge probe: (JSON value text, status the edge must answer).
PROBES = (
    ("Infinity", 400),
    ("-Infinity", 400),
    ('"1e999"', 400),
    ("NaN", 200),
)


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: bytes = b""):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        payload = response.read()
        try:
            parsed = json.loads(payload) if payload else {}
        except json.JSONDecodeError:
            parsed = {}
        return response.status, parsed

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro-serve`` process and its ready line."""

    def __init__(self, command: List[str], source: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(source), str(HERE)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(log, "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self.ready = threading.Event()
        self.port: Optional[int] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace")
            if "listening on http://" in line and self.port is None:
                self.port = int(line.split("http://")[1].split()[0]
                                .rsplit(":", 1)[1])
                self.ready.set()
        self.ready.set()

    def wait_ready(self) -> int:
        if not self.ready.wait(READY_TIMEOUT_S) or self.port is None:
            raise RuntimeError("repro-serve did not print its ready line")
        return self.port

    def terminate(self) -> None:
        """Ask for a graceful shutdown (final checkpoints); returns at once."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)

    def stop(self) -> None:
        self.terminate()
        try:
            self.process.wait(timeout=90)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self.log.close()


def _tick() -> int:
    from repro.data import datasets

    return math.gcd(*(datasets.PROFILES[p].interval for p in PROFILES))


def _spec():
    from repro.loadgen.scenario import SECONDS_PER_WEEK, ScenarioSpec

    live_seconds = (BATCHES * TICKS_PER_BATCH + 1) * _tick()
    return ScenarioSpec(
        n_kpis=KPIS,
        weeks=math.ceil(100 * live_seconds / SECONDS_PER_WEEK) / 100,
        bootstrap_weeks=BOOTSTRAP_WEEKS,
        profiles=PROFILES,
        seed_offset=inputs.HISTORY_SEED,
    )


def _command(spec, workdir: Path, traced: bool,
             spans_dir: Path) -> List[str]:
    # Everything else, the checkpoint cadence of 1 included, stays at
    # the command's defaults.
    serve_args = [
        "--kpis", str(spec.n_kpis), "--weeks", str(spec.weeks),
        "--bootstrap-weeks", str(spec.bootstrap_weeks),
        "--profiles", *spec.profiles, "--seed-offset", str(spec.seed_offset),
        "--shards", str(SHARDS), "--port", "0", "--workdir", str(workdir),
    ]
    if traced:
        return [sys.executable, str(HERE / "launch_serve.py"),
                str(spans_dir), "--", *serve_args]
    return [sys.executable, "-m", "repro.serve", *serve_args]


def _wait_dead(pid: int, timeout: float = 10.0) -> None:
    """Until ``pid`` is a zombie or gone (it is not our child)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.001)
    raise RuntimeError(f"shard pid {pid} did not die after SIGKILL")


class _Round:
    """One life of the server: launch, drive, stop; plus what it saw."""

    def __init__(self, spec, kpis, assignment):
        self.spec = spec
        self.kpis = kpis
        self.assignment = assignment
        self.acked: Dict[str, int] = {k.kpi_id: 0 for k in kpis}
        self.events: Dict[str, list] = {k.kpi_id: [] for k in kpis}
        #: Per KPI: the points fed, and the retrain waves as
        #: (points fed before the wave, label windows).
        self.waves: List[Tuple[Dict[str, int], Dict[str, list]]] = []
        self.failures: List[str] = []
        self.ground_truth: Optional[dict] = None
        # Kill the shard with the fewest KPIs: the twin must cover all
        # of them, and it is the cost of the run that grows with them.
        sizes = {}
        for shard in assignment.values():
            sizes[shard] = sizes.get(shard, 0) + 1
        self.killed_shard = min(sorted(sizes), key=sizes.get)
        self._cursor: Dict[str, int] = {k.kpi_id: 0 for k in kpis}

    def batch_points(self, index: int):
        tick = _tick()
        points = []
        for step in range(TICKS_PER_BATCH):
            now = (index * TICKS_PER_BATCH + step + 1) * tick
            for kpi in self.kpis:
                if now % kpi.interval == 0:
                    fed = self._cursor[kpi.kpi_id]
                    points.append((kpi.kpi_id, kpi.live_values[fed]))
                    self._cursor[kpi.kpi_id] = fed + 1
        return points


def _post_batch(client: Client, points) -> Tuple[int, dict]:
    body = "\n".join(
        json.dumps({"kpi": kpi, "value": value}, separators=(",", ":"))
        for kpi, value in points
    ).encode()
    return client.request("POST", "/ingest/batch", body)


def _labels_for(kpi, since: int, horizon: int) -> list:
    """The injected windows that ended in ``(since, horizon]``: what an
    operator labels for the span since the last wave (a window still
    open at ``horizon`` waits for the next wave)."""
    return [[w.begin, w.end] for w in kpi.windows if since < w.end <= horizon]


def _drive(state: _Round, client: Client, ops: Operations,
           samples: dict) -> None:
    by_id = {k.kpi_id: k for k in state.kpis}
    for index in range(BATCHES):
        if index in KILLS:
            _, document = client.request("GET", "/status")
            pid = next(s["pid"] for s in document["shards"]
                       if s["shard"] == state.killed_shard)
            killed = time.perf_counter()
            os.kill(pid, signal.SIGKILL)
            _wait_dead(pid)
            ops.record("kill")
        points = state.batch_points(index)
        sent = time.perf_counter()
        status, reply = _post_batch(client, points)
        done = time.perf_counter()
        ok = (status == 200 and reply.get("accepted") == len(points)
              and not reply.get("rejected") and not reply.get("unknown"))
        ops.record("ingest", ok)
        if not ok:
            state.failures.append(
                f"batch {index}: {status} accepted "
                f"{reply.get('accepted')} of {len(points)}"
            )
        else:
            for kpi, _ in points:
                state.acked[kpi] += 1
        for event in reply.get("events", []):
            state.events[event["kpi"]].append(event)
        if index in KILLS:
            if not any(state.assignment[kpi] == state.killed_shard
                       for kpi, _ in points):
                state.failures.append("the batch after the kill missed "
                                      "the killed shard")
            samples["recover_s"].append(done - killed)
            ops.record("recovery", ok)
        else:
            samples["ack_s"].append(done - sent)
            samples["batch_time"] += done - sent
            samples["points"] += len(points)
            samples["client"].append((sent, done, len(points)))
        if (index + 1) % WAVE_EVERY == 0:
            wave = time.perf_counter()
            labels = {}
            last = state.waves[-1][0] if state.waves else {}
            for kpi_id in state.acked:
                kpi = by_id[kpi_id]
                windows = _labels_for(
                    kpi, kpi.bootstrap_points + last.get(kpi_id, 0),
                    kpi.bootstrap_points + state.acked[kpi_id],
                )
                labels[kpi_id] = windows
                status, _ = client.request("POST", "/labels", json.dumps(
                    {"kpi": kpi_id, "windows": windows}).encode())
                ops.record("labels", status == 200)
            status, _ = client.request("POST", "/retrain", b"{}")
            ops.record("retrain", status == 200)
            samples["retrain_s"].append(time.perf_counter() - wave)
            state.waves.append((dict(state.acked), labels))
            if status != 200:
                state.failures.append(f"/retrain answered {status}")


def _probe(state: _Round, client: Client, ops: Operations) -> None:
    """Non-finite values at the edge: refused with 400, except NaN (the
    missing-data sentinel), which is accepted."""
    probe_kpi = state.spec.kpi_ids()[-1]
    for text, expected in PROBES:
        body = ('{"kpi": %s, "value": %s}' % (json.dumps(probe_kpi), text))
        status, reply = client.request("POST", "/ingest", body.encode())
        ops.record("probe", status == expected)
        if status == 200 and reply.get("accepted"):
            state.acked[probe_kpi] += 1


def _twin(state: _Round, twin_ids: List[str]) -> List[str]:
    """Feed ``twin_ids`` through in-process services built as the serve
    plane builds its own, with the same points, labels and retrains;
    their alert events must equal the plane's."""
    from repro import diagnosis
    from repro.core import MonitoringService
    from repro.fleet.banks import small_bank
    from repro.loadgen.scenario import SECONDS_PER_WEEK
    from repro.ml import RandomForest
    from repro.timeseries import AnomalyWindow, TimeSeries

    diagnoser = diagnosis.default_diagnoser()
    by_id = {k.kpi_id: k for k in state.kpis}
    failures = []
    for kpi_id in twin_ids:
        kpi = by_id[kpi_id]
        service = MonitoringService(
            configs=small_bank(SECONDS_PER_WEEK // kpi.interval),
            classifier_factory=lambda: RandomForest(n_estimators=10, seed=0),
            min_duration_points=2,
            diagnoser=diagnoser,
        )
        boot = kpi.bootstrap
        service.bootstrap(TimeSeries(values=boot.values, interval=boot.interval,
                                     start=boot.start, labels=boot.labels,
                                     name=kpi_id))
        events, fed = [], 0
        for fed_before, labels in state.waves + [(state.acked, {})]:
            for value in kpi.live_values[fed:fed_before[kpi_id]]:
                events.extend(service.ingest(value))
            fed = fed_before[kpi_id]
            if labels.get(kpi_id):
                service.submit_labels(
                    [AnomalyWindow(b, e) for b, e in labels[kpi_id]]
                )
            if labels and service.pending_points:
                service.retrain()
        got = [event_key(e) for e in state.events[kpi_id]]
        if got != [event_key(e) for e in events]:
            failures.append(
                f"{kpi_id}: the plane raised {len(got)} alert events, the "
                f"in-process twin {len(events)}"
            )
    return failures


def _round(spec, kpis, traced: bool, workdir: Path,
           source: Path, number: int, check: bool, ops: Operations,
           samples: dict) -> _Round:
    spans_dir = workdir / f"spans-{number}"
    serve_dir = workdir / f"serve-{number}"
    began = time.perf_counter()
    server = Server(_command(spec, serve_dir, traced, spans_dir),
                    source, workdir / f"serve-{number}.log")
    client = None
    try:
        port = server.wait_ready()
        samples["setup_s"].append(time.perf_counter() - began)
        client = Client(port)
        _, document = client.request("GET", "/status")
        assignment = {k["kpi_id"]: k["shard"]
                      for k in document["fleet"]["kpis"]}
        state = _Round(spec, kpis, assignment)
        _drive(state, client, ops, samples)
        _probe(state, client, ops)
        status, document = client.request("GET", "/status")
        pids = [server.process.pid] + [s["pid"] for s in document["shards"]]
        samples["rss_mb"].append(peak_rss_mb(pids))
        if status != 200:
            state.failures.append(f"/status answered {status}")
        for row in document["fleet"]["kpis"]:
            if row["points_ingested"] != state.acked[row["kpi_id"]]:
                state.failures.append(
                    f"{row['kpi_id']}: /status counts "
                    f"{row['points_ingested']} points, "
                    f"{state.acked[row['kpi_id']]} were acknowledged"
                )
        client.close()
        client = None
        # The checks need nothing more from the server: run them while
        # it checkpoints and exits, on the other core.
        server.terminate()
        if check:
            _checks(state)
    finally:
        if client is not None:
            client.close()
        server.stop()
    if server.process.returncode != 0:
        state.failures.append(
            f"repro-serve exited with {server.process.returncode}"
        )
    if traced:
        from spans import load_spans

        samples["documents"].extend(load_spans(str(spans_dir)))
    return state


def _checks(state: _Round) -> None:
    probe_kpi = state.spec.kpi_ids()[-1]
    shards: Dict[int, List[str]] = {}
    for kpi_id, shard in sorted(state.assignment.items()):
        if kpi_id != probe_kpi:
            shards.setdefault(shard, []).append(kpi_id)
    twin = []
    for shard, ids in sorted(shards.items()):
        twin.extend(ids if shard == state.killed_shard else ids[:TWIN_OTHERS])
    state.failures.extend(_twin(state, twin))

    per_kpi = {}
    for kpi in state.kpis:
        if kpi.kpi_id == probe_kpi:
            continue
        base = kpi.bootstrap_points
        horizon = base + state.acked[kpi.kpi_id]
        cuts = [base + fed[kpi.kpi_id] for fed, _ in state.waves] + [horizon + 1]
        keys = [event_key(e) for e in state.events[kpi.kpi_id]]
        per_kpi[kpi.kpi_id] = (
            alert_spans(keys, cuts),
            [(w_.begin, w_.end) for w_ in kpi.windows], base, horizon,
        )
    state.ground_truth, failures = ground_truth(per_kpi)
    state.failures.extend(failures)


def run(seed: int, seconds: float, traced: bool, workdir: Path,
        source: Path) -> dict:
    spec = _spec()
    kpis = inputs.scenario(spec, seed)
    ops = Operations()
    samples = {"setup_s": [], "ack_s": [], "retrain_s": [], "recover_s": [],
               "rss_mb": [], "batch_time": 0.0, "points": 0, "client": [],
               "documents": []}
    failures: List[str] = []
    first = None
    rounds = 0
    began = time.perf_counter()
    while True:
        state = _round(spec, kpis, traced, workdir, source, rounds,
                       first is None, ops, samples)
        failures.extend(state.failures)
        if first is None:
            first = state
        elif state.events != first.events:
            failures.append(f"round {rounds} raised other alerts than round 0")
        rounds += 1
        if time.perf_counter() - began >= seconds:
            break
    metrics = {
        "setup_s": (median(samples["setup_s"]), "s"),
        "points_per_s": (samples["points"] / samples["batch_time"], "1/s"),
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
        "client": samples["client"],
        "documents": samples["documents"],
        "ground_truth": first.ground_truth,
    }
