"""Smoke test of the benchmark at tiny size (n <= 8); no timing assertions.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
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

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 5])
def test_end_to_end_metrics_and_checks(seed):
    text, res = bench("--workload", "all", "--seed", str(seed), "--trace", "0")
    assert res["correct"], text
    # attempted counts distinct items, however many passes fit in the time
    items = [int(line.split(" passes of ")[1].split()[0]) for line in text if " passes of " in line]
    assert res["attempted"] == sum(items) >= 1
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    expected = {f"{w}.{k}" for w in run.WORKLOADS for k in run.END_TO_END}
    assert set(res["metrics"]) == expected
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name
        assert m["unit"] == run.END_TO_END[name.split(".", 1)[1]]
    check = "check: reference" if seed == run.DEFAULT_SEED else "check: own checks"
    assert sum(line.startswith(check) for line in text) == len(run.WORKLOADS)


def test_traced_counts_repeat_and_orlicz_idle_on_decomp():
    runs = [bench("--workload", w, "--seed", "11", "--trace", "1") for w in run.WORKLOADS for _ in range(2)]
    for (text, first), (_, second) in zip(runs[::2], runs[1::2]):
        assert first["correct"] and second["correct"], text
        assert {k: m["unit"] for k, m in first["metrics"].items()} == PER_LAYER
        for name, unit in tracing.COUNTS.items():
            assert first["metrics"][name] == second["metrics"][name] == {
                "value": first["metrics"][name]["value"], "unit": unit}
    suite, decomp = (r[1]["metrics"] for r in runs[::2])
    assert suite["orlicz.phi_evals"]["value"] > 0 and suite["orlicz.dphi_evals"]["value"] > 0
    for name, m in decomp.items():
        if name.startswith("orlicz."):
            assert m["value"] == 0, name
    assert decomp["czdecomp.levels"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "suite-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
