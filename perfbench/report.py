"""Run every workload once untraced and once traced; print each metric with
its unit, plus each run's record line (seed, environment, counters, digests).

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout. Exits non-zero if any run fails or is not
correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr.strip()[-2000:])
                status = 1
                continue
            result = json.loads(lines[-1])
            print(lines[-2])
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:28s} {metric['value']:>16.6g} {metric['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
