"""Test ids must name the same cases in every run, so that a list of ids (a
deselection, a record of the tests that pass) still holds in the next one.
An id built from an object's default repr carries a memory address that
changes from run to run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_collected_ids_are_the_same_in_two_runs():
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONHASHSEED": "random"}
    runs = [
        subprocess.Popen(
            command + ["tests"], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0], outputs
    first, second = ([line for line in out.splitlines() if "::" in line] for out in outputs)
    assert first, outputs[0]
    assert [i for i in first if "0x" in i] == []
    assert first == second
