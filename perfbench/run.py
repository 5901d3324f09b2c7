"""maskops benchmark: one closed-loop workload per run, from the repo root.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 10 --trace 0

Prints the environment, every metric by name with its unit, the failure
count and a digest of all outputs, then one JSON result as the last line.
`--trace 0` reports the end-to-end metrics; `--trace 1` replays every op
through its stage functions with spans and reports the per-layer metrics.
The package is imported from `src/` beside this directory; without it the
run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pipeline", "crowd_suppress", "maskset_io")
DEFAULT_SEED = 0
# Gain claims must also hold on this seed, which no tuning run uses.
HELD_OUT_SEED = 7919

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0.0 < args.seconds <= 600.0:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def import_maskops():
    """Import maskops from this checkout's src/ only."""
    if not (SOURCE / "maskops" / "__init__.py").is_file():
        raise SystemExit(f"error: no maskops package at {SOURCE / 'maskops'}")
    sys.path.insert(0, str(SOURCE))
    import maskops

    if Path(maskops.__file__).resolve().parent != SOURCE / "maskops":
        raise SystemExit(f"error: imported maskops from {maskops.__file__}")


def import_seconds(repeats: int) -> float:
    """Median time a fresh interpreter takes to import maskops (NumPy
    included), over `repeats` child processes run one after another."""
    code = "import time; t = time.perf_counter(); import maskops; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS before NumPy loads it: one caller, one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_maskops()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import harness

    wl = harness.WORKLOADS[args.workload]()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    for name, value in harness.environment(BLAS_THREAD_VARS).items():
        print(f"env {name} {value}")
    print(f"loop closed, 1 caller, 1 thread; {wl.distinct_keys} distinct inputs cycled")

    gen_times = []
    pool, setup_samples = harness.setup(wl, args.seed, gen_times)
    tally, latencies, layers = harness.measure(wl, pool, args.seconds, bool(args.trace))

    if args.trace:
        metrics = layers.metrics(wl, latencies, gen_times)
        units = dict(harness.PER_LAYER)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
        layers.tracer.dump(spans_path)
        print(f"traced ops {layers.ops}; spans written to {spans_path.relative_to(HERE.parent)}")
        for name, share in layers.shares():
            print(f"share {name} {share:.1%} of traced op time")
    else:
        import_s = import_seconds(harness.SETUP_REPEATS)
        metrics = harness.end_to_end(import_s, setup_samples, latencies)
        units = dict(harness.END_TO_END)
        value, pct = harness.tail(latencies)
        print(f"latency_tail_ms is p{pct:.1f}: {harness.TAIL_BEYOND} of "
              f"{len(latencies)} samples lie beyond it")
    for name, value in metrics.items():
        print(f"metric {name} {fmt(value)} {units[name]}")
    failed_share = tally.failed / tally.attempted
    print(f"metric failed_share {fmt(failed_share)} ratio ({tally.failed} of {tally.attempted} ops)")
    for problem in tally.problems[:5]:
        print(f"failure {problem}", file=sys.stderr)
    print(f"digest sha256 {tally.digest(wl)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
