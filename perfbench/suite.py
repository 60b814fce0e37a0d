"""Run every workload, each in its own process, and print its metrics as a table.

    python3 perfbench/suite.py --seed 1                 # end-to-end metrics
    python3 perfbench/suite.py --seed 1 --trace         # plus the traced run

Each workload runs in a fresh interpreter so that `peak_rss_mb` belongs to
that workload alone. The runs are sequential: the benchmark is single-threaded
and timings assume nothing else of ours shares the machine. Exits 1 if any
run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, int]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        return {}, {"correct": False, "metrics": {}}, proc.returncode or 1
    return json.loads(lines[-2])["meta"], json.loads(lines[-1]), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run the traced run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    status = 0
    for workload in bench.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            meta, result, code = run_one(workload, args.seed, args.seconds, trace)
            status |= code != 0 or not result["correct"]
            print(f"== {workload} seed={args.seed} trace={trace} correct={result['correct']} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')} "
                  f"report_sha256={meta.get('report_sha256')}")
            for name, m in result["metrics"].items():
                print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
