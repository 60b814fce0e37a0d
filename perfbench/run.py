"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload completeness-classical --seed 1 \
        --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is the result object (`correct`, `attempted`, `failed`, `metrics`); the
line before it carries the run's metadata. Both are also written to
`.perfbench_out/`. The exit code is 0 for a correct run, 1 when the
correctness gate fails and 2 when the checkout has no `src/juntatester`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "juntatester" / "__init__.py").is_file():
        print(f"perfbench: no juntatester sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per process: the runs are single-threaded by design, and a
    # BLAS pool would make timings depend on what else shares the machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}")
    result, meta = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.OUT_DIR.mkdir(exist_ok=True)
    out = bench.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    for problem in meta["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
