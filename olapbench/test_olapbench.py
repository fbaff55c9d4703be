"""Checks of the benchmark itself: exact counts, answer checking, exit codes.

Run from the repository root with ``python3 -m pytest olapbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "olapbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _traced_report(tmp_path: Path, workload: str, tag: str) -> dict:
    report = tmp_path / f"{workload}-{tag}.json"
    proc = _run(
        tmp_path, "--workload", workload, "--seed", "7", "--seconds", "0.2",
        "--trace", "1", "--report", str(report),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in run.spec()["per_layer"]]
    return json.loads(report.read_text())


@pytest.mark.parametrize("workload", sorted(wl.PARAMS))
def test_counts_repeat_exactly_for_a_seed(tmp_path, workload):
    first = _traced_report(tmp_path, workload, "a")
    second = _traced_report(tmp_path, workload, "b")
    for name in run.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["extra"]["stored_cells_ratio"] == second["extra"]["stored_cells_ratio"]
    assert first["metrics"]["trace.answers_identical"]["value"] == 1.0
    spans = first["extra"]["spans"]
    assert spans and all(s["op"] < first["extra"]["block_ops"] for s in spans)


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = _run(
        tmp_path, "--workload", "dashboard", "--seed", "3", "--seconds", "0.5",
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in run.spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert "provenance " in proc.stdout


def test_check_rejects_a_wrong_answer():
    plan = wl.build_plan("explore", 1)
    shadow = wl.Shadow(plan.values)
    view = wl.Op("view", ("d0",))
    right = shadow.answer(("view", ("d0",))).copy()
    assert wl.check(shadow, view, right)
    right[0, 0, 0] += 1
    assert not wl.check(shadow, view, right)
    ranges = ((0, 3), (1, 5), (2, 9))
    assert not wl.check(shadow, wl.Op("range", ranges), shadow.range_sum(ranges) + 1)


def test_rollup_oracle_is_a_dyadic_block_sum():
    values = np.arange(4 * 8 * 2, dtype=np.float64).reshape(4, 8, 2)
    got = wl.Shadow(values).answer(("rollup", (1, 2, 0)))
    want = np.array([
        [[values[2 * i:2 * i + 2, 4 * j:4 * j + 4, k].sum() for k in range(2)]
         for j in range(2)]
        for i in range(2)
    ])
    assert np.array_equal(got, want)


def test_inputs_depend_only_on_the_seed():
    a, b = wl.build_plan("ingest", 5), wl.build_plan("ingest", 5)
    assert np.array_equal(a.values, b.values)
    for op_a, op_b, _ in zip(a.ops(), b.ops(), range(200)):
        assert op_a.kind == op_b.kind
        if op_a.kind == "update":
            assert all(np.array_equal(x, y) for x, y in zip(op_a.arg, op_b.arg))
        else:
            assert op_a.arg == op_b.arg


@pytest.mark.parametrize("workload", sorted(wl.PARAMS))
def test_warmup_does_not_depend_on_the_seed(workload):
    """``setup_s`` must time the same work whatever the seed."""
    a, b = wl.build_plan(workload, 1), wl.build_plan(workload, 2)
    assert a.warmup == b.warmup
    assert not np.array_equal(a.values, b.values)


def test_reselect_alternates_a_hot_set_and_its_mirror():
    plan = wl.build_plan("reselect", 4)
    per_phase = wl.PARAMS["reselect"]["queries_per_phase"]
    phases, seen = [], set()
    for op, _ in zip(plan.ops(), range(4 * (per_phase + 1))):
        if op.kind == "reconfigure":
            phases.append(seen)
            seen = set()
        else:
            seen.add(op.arg)
    hot = set(wl.PARAMS["reselect"]["hot_views"])
    mirrored = {("d2",), ("d0", "d2"), ("d0",)}
    assert phases == [hot, mirrored, hot, mirrored]


def test_host_speed_helper_answers_and_ends():
    with hostspeed.HostSpeed() as host:
        factors = [host.factor() for _ in range(3)]
        proc = host._proc
    assert all(f > 0 for f in factors)
    assert proc.returncode == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "olapbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(
        tmp_path, "--workload", "dashboard", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
