"""Tests of the benchmark itself, on the smoke sizes of each workload.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing

BENCH = Path(__file__).resolve().parent


def _run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd or BENCH.parent, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = _run("--workload", "all", "--smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    if trace == "0":
        for name in run.WORKLOADS:
            for metric, unit in run.END_TO_END_UNITS.items():
                assert metrics[f"{name}/{metric}"]["unit"] == unit
                assert metrics[f"{name}/{metric}"]["value"] > 0
    else:
        for name in run.WORKLOADS:
            for span in tracing.SPANS:
                assert f"{name}/{span}.self_s" in metrics
            assert metrics[f"{name}/trace.absent_spans"]["value"] == 0
            assert metrics[f"{name}/aggregate.compute_rule_sums.per_group"]["value"] == 4.0
        assert metrics["train-count/sim.PolicyTable.log_probs.per_step"]["value"] == 10.0
        assert metrics["analyze-long/sim.sample_group.calls"]["value"] == 0


def test_benchmark_json_matches_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert {f"{s}.{k}" for s in tracing.SPANS for k in ("calls", "self_s", "self_share")} <= per_layer


def test_no_program_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "train-count", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _checked_outputs(name, tmp_path):
    wl = run.Workload(name, 3, True, tmp_path)
    _, outputs = run.invoke(wl, wl.check_args, False, tmp_path)
    assert wl.check(outputs) == []
    return wl, outputs


def test_analyze_check_catches_wrong_outputs(tmp_path):
    wl, outputs = _checked_outputs("analyze-short", tmp_path)
    lines = outputs["analysis.csv"].decode().splitlines()
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    lines[3] = ",".join(fields)
    bad = dict(outputs, **{"analysis.csv": ("\n".join(lines) + "\n").encode()})
    assert any("objective" in p for p in wl.check(bad))
    stderr = outputs["stderr"].decode().splitlines(keepends=True)
    bad = dict(outputs, stderr="".join(stderr[1:]).encode())
    assert any("malformed" in p for p in wl.check(bad))


def test_train_check_catches_wrong_outputs(tmp_path):
    wl, outputs = _checked_outputs("train-count", tmp_path)
    lines = outputs["metrics_balanced.csv"].decode().splitlines()
    fields = lines[5].split(",")
    fields[8] = repr(float(fields[8]) + 0.01)
    lines[5] = ",".join(fields)
    bad = dict(outputs, **{"metrics_balanced.csv": ("\n".join(lines) + "\n").encode()})
    assert any("mean_reward" in p for p in wl.check(bad))


def test_reference_objectives_by_hand():
    # G=2, one positive and one negative response, ratios inside the clip band
    objectives = inputs.rule_objectives([[1.0, 1.1], [0.9]], inputs.advantages([1.0, 0.0]))
    assert objectives["token"] == pytest.approx((1.0 + 1.1 - 0.9) / 3)
    assert objectives["seq"] == pytest.approx((2.1 / 2 - 0.9) / 2)
    assert objectives["balanced"] == pytest.approx(0.5 * 2.1 / 2 - 0.5 * 0.9)
    assert objectives["balanced_gen"] == pytest.approx(0.5 * 2.1 / 2 - 0.5 * 0.9)


def test_self_times_subtract_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 6]
    records = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 4.0, 0),
        (2, 2.0, 3.0, 1),
        (1, 5.0, 6.0, 0),
    ]
    calls, self_s, root = tracing.self_times(records)
    assert calls[:3] == [1, 2, 1]
    assert self_s[:3] == [6.0, 3.0, 1.0]
    assert root == 10.0 == sum(self_s)
