"""Reproduce the hand-measured baseline table of ROADMAP.md from the harness.

    python3 perfbench/baseline.py [--seed 1]

For each `run_trials` row it prints two figures: the amortized one the table
was measured as (wall time of `run_trials`, set-up included, divided by the
trial count) and the benchmark's per-trial p50 of `run_tester` alone. The
remaining rows time the layers the table names; `Distribution.uniform(22)`
allocates a few hundred MB.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
from juntatester import harness  # noqa: E402
from juntatester.distribution import Distribution, distance_to_k_junta  # noqa: E402
from juntatester.tester import Variant  # noqa: E402
from spans import layer_stats  # noqa: E402

# (row label, ROADMAP figure, n, k, eps, variant, fixture, trials)
RUN_TRIALS_ROWS = (
    ("classical, junta, n=12 k=3 eps=.25", "1.8 ms/trial", 12, 3, 0.25,
     Variant.CLASSICAL, {"kind": "junta"}, 200),
    ("classical, parity-far, n=12 k=3 eps=.25", "0.34 ms/trial", 12, 3, 0.25,
     Variant.CLASSICAL, {"kind": "far", "family": "parity"}, 200),
    ("classical, junta, n=20 k=4 eps=.1", "10.3 ms/trial", 20, 4, 0.1,
     Variant.CLASSICAL, {"kind": "junta"}, 100),
    ("amplified, junta, n=20 k=4 eps=.1", "2937 ms/trial", 20, 4, 0.1,
     Variant.AMPLIFIED, {"kind": "junta"}, 3),
)


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seed = args.seed
    print("| what | ROADMAP | harness: amortized | harness: per-trial p50 |")
    print("|---|---|---|---|")
    for label, roadmap, n, k, eps, variant, fixture, trials in RUN_TRIALS_ROWS:
        w = bench.Workload(label, n, k, eps, variant, fixture, trials, 1)
        _, wall = timed(harness.run_trials, w.config(seed, trials))
        built = harness.build_fixture(w.config(seed, trials), harness.derive_rng(seed, 0))
        p50 = statistics.median(bench.run_trial(w, built, seed, i).ms for i in range(trials))
        print(f"| `run_trials` {label}, {trials} trials | {roadmap} | "
              f"{wall / trials * 1e3:.2f} ms/trial | {p50:.2f} ms |")

    w = bench.WORKLOADS["completeness-amplified"]
    tracer, *_ = bench.traced_run(w, seed)
    stats = layer_stats(tracer.spans)
    share = stats["quantum.attempt_success_probability"]["s"] / stats["tester.run_tester"]["s"]
    print(f"| `attempt_success_probability` share of amplified n=16 trials "
          f"({w.checked_trials} trials) | 89 % | {share:.0%} of `run_tester` time | |")

    for n in (20, 22):
        _, wall = timed(Distribution.uniform, n)
        print(f"| `Distribution.uniform({n})` | {'0.81' if n == 20 else '4.4'} s | "
              f"{wall:.2f} s | |")

    planted = bench.WORKLOADS["soundness-planted"]
    f, dist, _ = harness.build_fixture(planted.config(seed, 1), harness.derive_rng(seed, 0))
    _, wall = timed(distance_to_k_junta, f, dist, 4)
    print(f"| `distance_to_k_junta`, n=16 k=4 (planted fixture) | 2.5–4.3 s | {wall:.2f} s | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
