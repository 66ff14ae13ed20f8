"""Are the end-to-end metrics steady enough for their bounds?

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Run from the root of a checkout. For each workload it makes two sets
of ``--runs`` untraced runs, interleaved (A, B, A, B, ...), each run
with its own seed: set A takes seeds ``first-seed, first-seed + 2,
...`` and set B the seeds between. For every end-to-end metric of
``BENCHMARK.json`` it prints each set's median and quartiles, the
spread (quartile distance over the median) and whether the two sets
agree: each set's spread is within the metric's bound, and the two
medians differ by no more than the bound, in either direction. It also
checks that both sets fail the same share of operations. Exit status
1 if any comparison fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for index in range(2 * args.runs):
            name = "AB"[index % 2]
            seed = args.first_seed + index
            began = time.monotonic()
            result = run_once(workload, seed, spec["run_seconds"])
            wall = time.monotonic() - began
            sets[name].append(result)
            print(f"{workload} set {name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()
            ), flush=True)
        shares = {
            name: {r["failed"] / r["attempted"] for r in runs}
            for name, runs in sets.items()
        }
        same_share = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok &= same_share
        print(f"{workload}: failed share A {sorted(shares['A'])} "
              f"B {sorted(shares['B'])} -> "
              f"{'same' if same_share else 'DIFFERENT'}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            row = {}
            for set_name, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                row[set_name] = {"q1": q1, "median": q2, "q3": q3,
                                 "spread": (q3 - q1) / q2}
            a, b = row["A"]["median"], row["B"]["median"]
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            agree = abs(change) <= bound and all(
                row[s]["spread"] <= bound for s in "AB"
            )
            pooled = [r["metrics"][name]["value"]
                      for runs in sets.values() for r in runs]
            q1, q2, q3 = quartiles(pooled)
            ok &= agree
            print(
                f"  {name:<12} bound {bound:.2f}  "
                + "  ".join(
                    f"{s}: {row[s]['median']:.4g} "
                    f"[{row[s]['q1']:.4g}, {row[s]['q3']:.4g}] "
                    f"spread {row[s]['spread']:.3f}"
                    for s in "AB"
                )
                + f"  all {(q3 - q1) / q2:.3f}"
                + f"  B worse by {change:+.3f} -> "
                + ("agree" if agree else "DISAGREE")
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
