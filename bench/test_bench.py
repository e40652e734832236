"""Smoke test of the benchmark: every workload at a tiny size (m <= 10).

    python3 -m pytest bench/test_bench.py -q

Each case runs ``bench/run.py --smoke`` in a subprocess and checks that
every metric named in ``BENCHMARK.json`` is reported with its unit and that
every output check of the workload passes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(run_py: str, *args: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, run_py, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_and_passes_checks(workload, trace):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = _run(os.path.join(HERE, "run.py"), *args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path / "bench" / "run.py"), "--workload", "sample-mixed", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_seed():
    for workload in gen_inputs.WORKLOADS:
        assert gen_inputs.generate(workload, 3) == gen_inputs.generate(workload, 3)
        assert gen_inputs.generate(workload, 3) != gen_inputs.generate(workload, 4)
