"""Minimal-length runs of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spec

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in spec.WORKLOADS])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "5",
               "--seconds", "0.5", "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    rows = spec.END_TO_END if trace == 0 else [
        {"name": name, "unit": unit} for name, unit, *_ in spec.PER_LAYER]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in rows}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    else:
        # a wrapper that stops firing reads 0 where its layer must show
        for name, _unit, _src, _moves, shows_on, _idle in spec.PER_LAYER:
            if workload in shows_on:
                ok = values[name] != 0 if name in spec.SIGNED \
                    else values[name] > 0
                assert ok, f"{name} = {values[name]} on {workload}"
            if name not in spec.SIGNED:
                assert values[name] >= 0, f"{name} = {values[name]}"
    text = "\n".join(lines[:-1])
    for name in spec.NAMED[workload] + ["error_rate"]:
        assert f"  {name} " in text
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_run"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(tmp_path, "--workload", "fork-follow", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
