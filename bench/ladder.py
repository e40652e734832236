"""Build-time and peak-memory ladder of the uniform C^2 cubic space.

    python3 bench/ladder.py

Each mesh size m of SIZES is built in its own process, with BLAS pinned to
one thread and the same address-space cap as the benchmark workloads; the
process reports the median of REPEATS build times and its peak resident
memory.  A size that outgrows the cap is reported as failed with its error
class.  Prints a markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SIZES = (10, 20, 40, 80, 96, 128, 160, 320)
REPEATS = 3


def child(m: int) -> None:
    import workload  # pins the thread pools before numpy is imported

    workload.set_memory_cap()
    import resource
    from time import perf_counter

    import gen_inputs
    from gtbsplines import SpaceConfig, build_space

    config = SpaceConfig.from_dict(gen_inputs.cubic_space(m, random.Random(0)))
    times, n_basis = [], 0
    try:
        for _ in range(REPEATS):
            t0 = perf_counter()
            space = build_space(config)
            times.append(perf_counter() - t0)
            n_basis = space.n_basis
            del space
        error = None
    except MemoryError as exc:
        error = type(exc).__name__
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"m": m, "N": n_basis, "build_s": statistics.median(times) if times else None,
                      "peak_rss_mb": peak, "error": error}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    print("| m | N | build_s (median) | peak_rss_mb | result |")
    print("| ---: | ---: | ---: | ---: | --- |")
    for m in SIZES:
        cmd = [sys.executable, os.path.abspath(__file__), "--child", str(m)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"| {m} | | | | exit {proc.returncode} |")
            continue
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        build = f"{r['build_s']:.3f}" if r["build_s"] is not None else "-"
        n_basis = r["N"] or "-"
        print(f"| {m} | {n_basis} | {build} | {r['peak_rss_mb']:.0f} | {r['error'] or 'ok'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
