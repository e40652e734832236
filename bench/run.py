"""Benchmark of gtbsplines: build, evaluation, CLI verbs and knot insertion.

    python3 bench/run.py --workload sample-mixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload refine-mixed --smoke          # tiny, seconds

Run from anywhere; the library is imported from the ``src/`` directory next
to ``bench/``.  Workloads (see ``BENCHMARK.json`` and ``bench/README.md``):
``build-cubic-fine``, ``sample-mixed`` and ``refine-mixed``.

The script writes the seeded inputs into a working directory under
``.bench_work/``, times ``import gtbsplines`` plus config loading in several
fresh processes (``setup_s``, median), and runs the workload in one child
process with BLAS pinned to one thread and a capped address space.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Earlier lines of standard output
describe the environment and every failed operation; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A traced run also leaves all its spans in
``.bench_work/spans-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0


def _child_env() -> dict:
    """The caller's environment, importing gtbsplines from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(args: list[str], timeout: float) -> dict:
    """Run ``bench/workload.py`` and return the JSON of its last line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (m <= 10)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gtbsplines", "__init__.py")):
        print(f"error: no gtbsplines sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        gen_inputs.write(args.workload, args.seed, work, args.smoke)
        setup = []
        if not args.trace:
            for _ in range(2 if args.smoke else SETUP_PROBES):
                setup.append(_run_child(["--inputs", work, "--setup-probe"], 60.0)["setup_s"])
        child_args = ["--inputs", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = _run_child(child_args, CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"rounds {result['rounds']}")
    for failure in result["failures"][: len(result["failures"]) // result["rounds"]]:
        print("failed-per-round " + json.dumps(failure, sort_keys=True))
    for problem in result["problems"]:
        print("check-failed " + problem)
    summary = {k: result[k] for k in ("correct", "attempted", "failed")}
    summary["metrics"] = dict(sorted(metrics.items()))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
