"""Traced run of every workload, every metric, and the pairing check.

    python3 hkbench/report.py [--seed 1] [--seconds 15]

Runs each workload once with the per-layer replay, prints every end-to-end
and per-layer metric with its unit, and asserts the pairings the workloads
were chosen for.  Exits non-zero if a run is incorrect or a pairing fails.
"""

from __future__ import annotations

import argparse
import sys

from run import ROOT, print_run, run_workload
from workloads import WORKLOADS

SERVER_LAYERS = ("service", "cache", "push", "plan", "engine", "finalize")


def _share(metrics, *layers) -> float:
    return sum(metrics[f"self_share.{layer}"][0] for layer in layers)


def pairing_failures(results) -> list[str]:
    """The pairings, checked on ``{workload: RunResult}`` of traced runs."""
    failures = []
    push = results["push-bound"].per_layer
    shares = {name: value for name, (value, _) in push.items() if name.startswith("self_share.")}
    largest = max(shares, key=shares.get)
    if largest != "self_share.push":
        failures.append(f"push-bound: largest self share is {largest}, not push")

    walk = results["walk-bound"]
    if walk.server_push_ops or walk.per_layer["push.teaplus_ops_mean"][0] or walk.per_layer["push.fora_ops_mean"][0]:
        failures.append(f"walk-bound: {walk.server_push_ops} push operations on the server, want 0")
    if _share(walk.per_layer, "engine", "finalize", "http") <= _share(walk.per_layer, "push", "plan"):
        failures.append("walk-bound: engine + finalize + http do not outweigh push + plan")
    if _share(walk.per_layer, "engine", "finalize") <= 0.5 * _share(walk.per_layer, *SERVER_LAYERS):
        failures.append("walk-bound: engine + finalize do not hold most of the server-side compute")

    for name, result in results.items():
        epoch = result.per_layer["dynamic.epoch_end"][0]
        hits = result.per_layer["cache.hit_ratio"][0]
        writes = WORKLOADS[name].writes
        if writes and not (epoch > 0 and hits > 0):
            failures.append(f"{name}: epoch_end={epoch:g}, cache.hit_ratio={hits:g}; want both > 0")
        if not writes and (epoch != 0 or hits != 0):
            failures.append(f"{name}: epoch_end={epoch:g}, cache.hit_ratio={hits:g}; want both 0")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        results[name] = run_workload(name, args.seed, args.seconds, trace=True)
        print_run(results[name], trace=True)
    failures = pairing_failures(results)
    failures += [f"{name}: run not correct" for name, result in results.items() if not result.correct]
    for failure in failures:
        print("PAIRING FAILED  " + failure)
    if not failures:
        print("pairings: all hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
