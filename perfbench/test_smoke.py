"""Smoke self-test of the benchmark on cyclic STS(13) and the Fano plane.

    python3 -m pytest perfbench -q

Runs in seconds: the smoke workloads are small copies of the three
benchmark workloads and go through the same code, processes and output.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import ROOT, import_library

import_library()

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["smoke-cli", "smoke-classify", "smoke-search"])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_changes_generators_not_work(tmp_path):
    w = workloads.WORKLOADS["smoke-search"]
    insts = {seed: w.setup(seed, str(tmp_path)) for seed in (0, 7)}
    assert insts[0][0].inputs["G"].generators != insts[7][0].inputs["G"].generators
    rounds = [run.run_round(w, insts[seed]) for seed in insts]
    assert rounds[0].failures == rounds[1].failures == []
    assert rounds[0].summaries == rounds[1].summaries


def test_invariants_hold_under_a_free_relabeling(tmp_path):
    w = workloads.WORKLOADS["smoke-classify"]
    base, moved = w.setup(0, str(tmp_path)), w.setup(0, str(tmp_path))
    rng = random.Random(5)
    for inst in moved:
        sigma = list(range(inst.inputs["v"]))
        rng.shuffle(sigma)
        inst.inputs["G"] = workloads.relabel(inst.inputs["G"], sigma)
        inst.inputs["N"] = workloads.relabel(inst.inputs["N"], sigma)
    rounds = [run.run_round(w, insts) for insts in (base, moved)]
    assert rounds[0].failures == rounds[1].failures == []
    # (good orbits, Ncal, designs, aut orders); solver nodes follow the labels
    kept = [[s[:2] + s[3:] for s in rnd.summaries] for rnd in rounds]
    assert kept[0] == kept[1]


def test_wrong_output_counts_as_failed(tmp_path):
    w = workloads.Classify(
        "wrong", [{"v": 7, "k": 3, "orbits": 2, "ncal": 1, "aut_orders": [42]}]
    )
    rnd = run.run_round(w, w.setup(0, str(tmp_path)))
    assert rnd.attempted == 1 and len(rnd.failures) == 1
    assert "aut orders" in rnd.failures[0][1]


def test_self_time_subtracts_children():
    # root [0, 10] holds children [1, 4] and [5, 6]; the first holds [2, 3]
    spans = [
        ["a", "x", 0.0, 10.0, -1, None, None],
        ["b", "y", 1.0, 4.0, 0, None, None],
        ["c", "z", 2.0, 3.0, 1, None, None],
        ["d", "y", 5.0, 6.0, 0, None, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke-search", "--seconds", "0.2", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
