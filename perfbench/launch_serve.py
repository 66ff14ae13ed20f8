"""Start ``repro-serve`` with spans around its calls (traced runs only).

    PYTHONPATH=src python3 perfbench/launch_serve.py SPANS_DIR -- [repro-serve args]

Installs the wrappers of :mod:`spans`, plus the serve-plane ones below,
then calls ``repro.serve.cli.main``. The shards are forked from this
process, so they inherit the wrappers; each shard starts with an empty
span list and writes its spans when it exits. A shard that is killed
loses its spans. The serving process writes its own when ``main``
returns, after a SIGTERM.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from spans import Tracer, install_core, install_fleet


def _wchar() -> int:
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def install_serve(tracer: Tracer, spans_dir: str) -> None:
    from repro.serve import shard, supervisor

    tracer.patch(
        supervisor.ShardSupervisor, "offer_batch", "serve.offer_batch",
        lambda result, self, index, points: index,
    )

    def frame_attr(result, sock, message):
        if message.get("op") == "offer_batch":
            points = len(message["points"])
        elif "accepted" in message:
            points = 0
        else:
            return None
        size = len(json.dumps(message, separators=(",", ":")).encode()) + 4
        return [size, points]

    for module in (supervisor, shard):
        module.send_message = tracer.wrap(
            "serve.frame", module.send_message, frame_attr
        )

    original_offer = shard._ShardServer.op_offer_batch

    @functools.wraps(original_offer)
    def op_offer_batch(server, payload):
        before = _wchar()
        start = time.perf_counter()
        reply = original_offer(server, payload)
        end = time.perf_counter()
        tracer.spans.append(
            (-1, "serve.shard_batch", start, end, None, None,
             _wchar() - before)
        )
        return reply

    shard._ShardServer.op_offer_batch = op_offer_batch

    original_main = supervisor.shard_worker_main

    def shard_worker_main(conn, parent_end, spec):
        tracer.reset()
        tracer.notes["shard"] = spec.index
        try:
            original_main(conn, parent_end, spec)
        finally:
            tracer.dump(spans_dir, f"shard{spec.index}")

    supervisor.shard_worker_main = shard_worker_main


def main(argv) -> int:
    spans_dir, serve_args = argv[0], argv[1:]
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracer = Tracer()
    install_core(tracer)
    install_fleet(tracer)
    install_serve(tracer, spans_dir)
    from repro.serve import cli

    try:
        return cli.main(serve_args)
    finally:
        tracer.dump(spans_dir, "server")


if __name__ == "__main__":
    os.makedirs(sys.argv[1], exist_ok=True)
    sys.exit(main(sys.argv[1:]))
