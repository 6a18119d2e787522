"""Smoke run of the benchmark at its tiny size, traced.

The benchmark binds the library's public API (for example
``PolySeries(dim, terms, truncation=...)``), and its tracer wraps every
public layer function at every binding, aliases included, then checks
that no unwrapped reference escaped.  A short traced run of each workload
guards both against changes to the library.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["dense_products", "mc_crosscheck", "calculator"])
def test_tiny_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--tiny",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
