"""Run every workload untraced and traced, one run at a time, and print all
metrics by name and unit in one table per workload. From the repo root:

    python3 perfbench/report.py --seed 0 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    all_correct = True
    for workload in WORKLOAD_NAMES:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for trace in (0, 1):
            text, result = run_one(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            for line in text:
                if line.startswith(("metric ", "share ", "digest ", "latency_tail_ms is")):
                    print(f"  {line}")
                elif trace == 0 and line.startswith("env "):
                    print(f"  {line}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
