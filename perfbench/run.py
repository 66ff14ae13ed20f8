"""Run one benchmark workload against the program in ``src/``.

    python3 perfbench/run.py --workload stream-full --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. A run repeats whole rounds of its
workload until ``--seconds`` have passed (at least one round), checks
the program's outputs, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same workload runs with spans around the program's calls and the
metrics are the per-layer ones. The lines before it report the rounds,
the ground-truth figures, the operations by kind, the ack-time tail
and the retrain-wave times; with ``--trace 1`` also the traced run's
end-to-end figures, each per-layer metric with its call count, and the
share of ``ack_p50_ms`` that no span accounts for.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("stream-full", "serve-durable")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ack_tail(acks) -> dict:
    """Ack-time percentiles (ms) that have at least ten samples beyond
    them, with the sample count; reference figures, not gated."""
    ordered = sorted(acks)
    tail = {"samples": len(ordered)}
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        if len(ordered) * (1 - q) >= 10 or name == "p50":
            tail[name] = ordered[min(int(q * len(ordered)),
                                     len(ordered) - 1)] * 1e3
    return tail


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {source}/repro; run from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))

    import layers
    import serve_load
    import stream_full
    from spans import Tracer, install_core

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "stream-full":
            tracer = None
            if args.trace:
                tracer = Tracer()
                install_core(tracer)
            result = stream_full.run(args.seed, args.seconds, tracer, workdir)
            documents = [{"notes": tracer.notes, "spans": tracer.spans}] \
                if tracer else []
        else:
            result = serve_load.run(
                args.seed, args.seconds, bool(args.trace), workdir, source,
            )
            documents = result.get("documents", [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    for failure in result["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    ops = result["ops"]
    print("rounds: %d" % result["rounds"])
    if result.get("ground_truth"):
        print("ground truth: " + json.dumps(result["ground_truth"]))
    print("operations: " + json.dumps(ops.as_dict(), sort_keys=True))
    print("ack tail: " + json.dumps(ack_tail(result["acks"])))
    waves = result["retrain_waves"]
    print("retrain waves: " + json.dumps(
        {"samples": len(waves), "median_s": statistics.median(waves)}))
    if args.trace:
        # End-to-end figures of a traced run: for the tracing overhead.
        print("traced end-to-end: " + json.dumps(
            {name: v for name, (v, _) in result["metrics"].items()}))
        per_layer = layers.compute(documents, result.get("client", ()))
        print("layers: " + json.dumps(
            {name: {"value": v, "unit": u, "calls": n}
             for name, (v, u, n) in per_layer.items()}
        ))
        share = layers.unattributed_share(
            documents, result.get("client", ()), per_layer,
            result["metrics"]["ack_p50_ms"][0],
        )
        print(f"unattributed share of ack_p50_ms: {share:.3f}")
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u, _) in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in result["metrics"].items()}
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
