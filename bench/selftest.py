"""Self-test of the benchmark (not of wickchaos).

    python3 bench/selftest.py

For each workload, at a tiny size: every metric named in BENCHMARK.json is
emitted with its unit, traced and untraced; no task fails; the workload
touches the layers it is meant to and not the others; and a deliberately
wrong result (--inject-fault) is caught by its oracle and drives ok_frac
below 1.  Finally the benchmark must refuse to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark's
own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.5", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def check_workload(name: str) -> None:
    rc, res, err = run(name, "--tiny", "--trace", "0")
    assert rc == 0 and res is not None, f"{name}: exit {rc}\n{err}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (res, err)
    assert units(res) == E2E, f"{name}: end-to-end metrics {units(res)} != {E2E}"
    assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]

    rc, res, err = run(name, "--tiny", "--trace", "1")
    assert rc == 0 and res is not None and res["correct"], f"{name} traced: exit {rc}\n{err}"
    assert units(res) == LAYER, f"{name}: per-layer metrics differ from BENCHMARK.json"
    m = {k: v["value"] for k, v in res["metrics"].items()}
    products = m["chaos.wick_product.calls"] + m["chaos.ordinary_product.calls"]
    if name == "dense_products":
        assert m["sampling.chunk_normals.calls"] == 0, "dense_products sampled"
        assert m["chaos.wick_product.calls"] > 0 and m["chaos.ordinary_product.calls"] > 0
    if name == "mc_crosscheck":
        assert products == 0, "mc_crosscheck called a product"
        assert m["chaos.evaluate.busy_s"] > 0 and m["sampling.chunk_normals.calls"] > 0
        share = m["chaos.evaluate.busy_s"] / m["montecarlo.mean_estimate.busy_s"]
        print(f"  mc_crosscheck: chaos.evaluate is {share:.0%} of mean_estimate busy time")
    if name == "calculator":
        assert m["cli.main.busy_s"] > 0 and m["dsl.parse_program.busy_s"] > 0
        assert m["checks.row.failed"] == 0

    rc, res, err = run(name, "--tiny", "--trace", "0", "--inject-fault")
    assert rc == 0 and res is not None, f"{name} with fault: exit {rc}\n{err}"
    assert not res["correct"] and res["failed"] > 0, f"{name}: injected fault not caught"
    assert res["metrics"]["ok_frac"]["value"] < 1.0
    # The oracle itself must catch the fault: only the corrupted task fails,
    # not later repeats by bitwise comparison with a corrupted reference.
    assert res["failed"] == 1 and "bitwise" not in err, f"{name}: fault not caught by oracle\n{err}"
    if name == "mc_crosscheck":
        assert "; redraw: z = " in err, f"mc_crosscheck: fault not caught by the z-test\n{err}"
    print(f"  {name}: ok")


def check_bare_directory() -> None:
    """Without the sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        rc, res, _ = run(SPEC["workloads"][0]["name"], "--trace", "0", cwd=bare)
        assert rc != 0 and res is None, f"bare directory: exit {rc}, result {res}"
        print("  bare directory: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for w in SPEC["workloads"]:
        check_workload(w["name"])
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
