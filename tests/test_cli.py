import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import grpoagg
from grpoagg import sim
from grpoagg.cli import main
from grpoagg.aggregate import RuleSums
from grpoagg.groups import AdvantageSet, Response, RolloutGroup
from grpoagg.rollout_io import METRIC_FIELDS, read_metrics, read_rollouts

from conftest import count_constructions

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify ---

def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "all passed" in out
    assert out.count("PASS") == 13


def test_verify_deterministic_report_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_injected_fault_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-fault", "mass_symmetry")
    assert code == 1
    assert "FAIL mass_symmetry" in out


def test_verify_unknown_fault_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--inject-fault", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grpoagg.cli", "verify", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all passed" in proc.stdout


# --- analyze ---

def write_log(path, n_groups, ratios=True):
    lines = []
    for i in range(n_groups):
        if ratios:
            responses = [
                {"tokens": [1, 1, 0], "reward": 1.0, "ratios": [1.0, 0.95, 1.1]},
                {"tokens": [2, 0], "reward": 0.0, "ratios": [1.05, 0.9]},
            ]
        else:
            responses = [
                {"token_count": 3, "reward": 1.0},
                {"token_count": 2, "reward": 0.0},
            ]
        lines.append(
            json.dumps(
                {"group_id": f"g{i}", "prompt_id": f"p{i}", "responses": responses}
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_analyze_windowing(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    write_log(log, 10)
    code, out, _ = run_cli(
        capsys, "analyze", "--input", str(log), "--window", "5", "--out", str(tmp_path)
    )
    assert code == 0
    records = read_metrics(tmp_path / "analysis.csv")
    assert {r.step for r in records} == {0, 1}
    assert len(records) == 2 * 4
    assert all(r.objective is not None for r in records)
    assert (tmp_path / "regime.txt").exists()
    assert "overall:" in out


def test_analyze_builds_no_per_group_record(tmp_path, capsys, monkeypatch):
    # clean groups, a length-only one and a degenerate one are normalised
    # and evaluated as columns
    log = tmp_path / "log.jsonl"
    write_log(log, 10)
    with open(log, "a", encoding="utf-8") as fh:
        for responses in ([{"token_count": 3, "reward": 1.0}, {"token_count": 2, "reward": 0.0}],
                          [{"tokens": [1, 0], "reward": 0.5, "ratios": [1.0, 1.2]}] * 2):
            fh.write(json.dumps({"prompt_id": "q", "responses": responses}) + "\n")
    built = count_constructions(monkeypatch, AdvantageSet, RuleSums, Response, RolloutGroup)
    code, out, err = run_cli(capsys, "analyze", "--input", str(log), "--window", "4", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert "notice: 1 degenerate group(s)" in out and "notice: 1 length-only group(s)" in out
    assert built == []


def test_analyze_length_only(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    write_log(log, 4, ratios=False)
    code, out, _ = run_cli(
        capsys, "analyze", "--input", str(log), "--window", "4", "--out", str(tmp_path)
    )
    assert code == 0
    assert "length-only" in out
    records = read_metrics(tmp_path / "analysis.csv")
    assert all(r.objective is None and r.pg_loss is None for r in records)
    assert all(r.len_cv is not None for r in records)


def test_analyze_empty_file(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--input", str(log), "--out", str(tmp_path))
    assert code == 1
    assert "no groups parsed" in err


def test_analyze_window_output_independent_of_group_order(tmp_path, capsys):
    # per-group statistics pool with exactly rounded sums, so shuffling
    # groups within one window leaves the window's CSV rows byte-identical
    lines = []
    for i in range(6):
        responses = [
            {"tokens": [1] * (i + 1) + [0], "reward": 1.0, "ratios": [1.0 + 0.01 * i] * (i + 2)},
            {"tokens": [2, 0], "reward": 0.0, "ratios": [0.9, 1.1]},
            {"tokens": [2] * (i + 2) + [0], "reward": 0.0, "ratios": [1.02] * (i + 3)},
        ]
        lines.append(
            json.dumps({"group_id": f"g{i}", "prompt_id": f"p{i}", "responses": responses})
        )
    shuffled = [lines[j] for j in (4, 0, 5, 2, 1, 3)]
    for name, payload in (("a", lines), ("b", shuffled)):
        log = tmp_path / f"{name}.jsonl"
        log.write_text("\n".join(payload) + "\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "analyze", "--input", str(log), "--window", "6",
            "--out", str(tmp_path / name),
        )
        assert code == 0
    assert (tmp_path / "a" / "analysis.csv").read_bytes() == (
        tmp_path / "b" / "analysis.csv"
    ).read_bytes()


def test_analyze_reports_fault_lines(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "analyze",
        "--input",
        str(DATA / "faulty_rollouts.jsonl"),
        "--window",
        "2",
        "--out",
        str(tmp_path),
    )
    assert code == 0  # four valid groups remain
    for line_no in (2, 4, 6):
        assert f"line {line_no}" in err


def test_analyze_reports_and_skips_groups_that_fail_validation(tmp_path, capsys):
    good = {"tokens": [1, 0], "reward": 1.0, "ratios": [1.0, 0.9]}
    bad_groups = [
        [{"token_count": 1e200, "reward": 1.0}, {"token_count": 2, "reward": 0.0}],
        [{"token_count": 1, "reward": 1e308}, {"token_count": 1, "reward": -1e308}],
        [{"token_count": 1, "reward": r} for r in (1e308, 1e308, 0.0)],
        [{"tokens": [1, 0], "reward": 1.0, "ratios": ["1.0", True]}, good],
        # nine positives and one negative: a huge ratio overflows phi
        [dict(good, reward=1.0)] * 9 + [{"tokens": [1], "reward": 0.0, "ratios": [1e308]}],
    ]
    groups = [[good, dict(good, reward=0.0)]] + bad_groups + [[good, dict(good, reward=0.0)]]
    log = tmp_path / "log.jsonl"
    log.write_text(
        "".join(json.dumps({"prompt_id": f"p{i}", "responses": g}) + "\n"
                for i, g in enumerate(groups)),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", "--input", str(log), "--out", str(tmp_path))
    assert code == 0
    assert [line.split(":")[1] for line in err.splitlines()] == [
        f" line {n}" for n in range(2, 2 + len(bad_groups))
    ]
    assert "overall: groups=2 " in out


def test_analyze_reports_undecodable_lines_and_keeps_the_rest(tmp_path, capsys):
    good = {"tokens": [1, 0], "reward": 1.0, "ratios": [1.0, 0.9]}
    line = json.dumps({"prompt_id": "p", "responses": [good, dict(good, reward=0.0)]})
    log = tmp_path / "log.jsonl"
    # "\r\n", a lone "\r" and "\n" each end one line, as in text mode
    log.write_bytes(f"{line}\r\n".encode() + b"\xff\xfe\r" + f"{line}\n\n{line}".encode())
    code, out, err = run_cli(capsys, "analyze", "--input", str(log), "--out", str(tmp_path))
    assert code == 0
    assert err.startswith("error: line 2: not UTF-8: ") and err.count("\n") == 1
    assert "overall: groups=3 " in out


@pytest.mark.parametrize("eps_var", ["-1", "nan", "inf"])
def test_analyze_rejects_bad_eps_var_once(tmp_path, capsys, eps_var):
    log = tmp_path / "log.jsonl"
    write_log(log, 3)
    code, _, err = run_cli(
        capsys, "analyze", "--input", str(log), "--eps-var", eps_var, "--out", str(tmp_path)
    )
    assert code == 2
    assert err.startswith("error: --eps-var must be finite and >= 0") and err.count("\n") == 1


def test_analyze_pools_extreme_but_valid_groups(tmp_path, capsys):
    # each group is valid, but the window sums of objectives and rewards
    # overflow a float; the pooled means are still exact enough to print
    pair = [
        {"tokens": [1], "reward": 1.0, "ratios": [1.0]},
        {"tokens": [1], "reward": 0.0, "ratios": [1e308]},
    ]
    degenerate = [{"token_count": 1, "reward": 1e308}] * 2
    log = tmp_path / "log.jsonl"
    log.write_text(
        "".join(json.dumps({"prompt_id": f"p{i}", "responses": pair}) + "\n" for i in range(4))
        + json.dumps({"prompt_id": "d", "responses": degenerate}) + "\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(
        capsys, "analyze", "--input", str(log), "--window", "8", "--out", str(tmp_path)
    )
    assert code == 0 and err == ""
    records = read_metrics(tmp_path / "analysis.csv")
    assert [r.objective for r in records] == [-5e307] * 4
    assert {r.mean_reward for r in records} == {2e307}


def test_analyze_memory_is_set_by_the_window_not_the_log(tmp_path, capsys):
    # tracemalloc counts Python allocations, which unlike RSS are deterministic.
    # It also counts CPython's tuple free lists (sizes below 20, bounded), so
    # groups hold 24 responses of 40 or more tokens, whose tuples are larger.
    rng = random.Random(0)
    lines = []
    for i in range(96):
        responses = []
        for _ in range(24):
            n = rng.randrange(40, 80)
            responses.append({"tokens": [rng.randrange(5) for _ in range(n)],
                              "reward": float(rng.random() < 0.5),
                              "ratios": [rng.uniform(0.7, 1.4) for _ in range(n)]})
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}) + "\n")

    def peak(n_groups):
        log = tmp_path / f"log{n_groups}.jsonl"
        log.write_text("".join(lines[:n_groups]), encoding="utf-8")
        argv = ["analyze", "--input", str(log), "--window", "4", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        return peak

    peak(4)  # first-call allocations (imports, caches) out of the way
    assert peak(96) <= 1.25 * peak(24)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--input", str(DATA / "faulty_rollouts.jsonl")],
     ["simulate", "--steps", "1"],
     ["compare", "--steps", "1"]],
    ids=["analyze", "simulate", "compare"],
)
def test_out_that_cannot_be_created_is_an_error_line(tmp_path, capsys, monkeypatch, argv):
    # refused before any training: the run would be lost at its end
    monkeypatch.setattr("grpoagg.cli.run_training", None)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory")]:
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert err.splitlines()[-1] == f"error: cannot write {out}: {reason}"
        assert all(line.startswith("error: ") for line in err.splitlines())


def test_orjson_is_loaded_only_to_decode_a_rollout_log(tmp_path):
    # importing the package and training must not pay for importing orjson
    code = (
        "import sys, grpoagg.cli\n"
        "assert 'orjson' not in sys.modules\n"
        "assert grpoagg.cli.main(['simulate', '--steps', '1', '--out', sys.argv[1]]) == 0\n"
        "assert grpoagg.cli.main(['compare', '--steps', '1', '--out', sys.argv[1]]) == 0\n"
        "assert 'orjson' not in sys.modules\n"
    )
    src = str(Path(grpoagg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# --- simulate / compare ---

def test_simulate_writes_metrics(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--task",
        "count",
        "--rule",
        "balanced",
        "--steps",
        "3",
        "--group-size",
        "4",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    records = read_metrics(tmp_path / "metrics_balanced.csv")
    assert len(records) == 3 * 4
    assert (tmp_path / "policy_balanced.npz").exists()


def test_simulate_zero_steps_header_only(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--steps", "0", "--out", str(tmp_path)
    )
    assert code == 0
    text = (tmp_path / "metrics_balanced.csv").read_text(encoding="utf-8")
    assert text == ",".join(METRIC_FIELDS) + "\n"


def test_simulate_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--steps",
            "5",
            "--group-size",
            "4",
            "--seed",
            "11",
            "--out",
            str(tmp_path / sub),
        )
        assert code == 0
    assert (tmp_path / "a" / "metrics_balanced.csv").read_bytes() == (
        tmp_path / "b" / "metrics_balanced.csv"
    ).read_bytes()


def test_compare_file_contract(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--task",
        "count",
        "--steps",
        "3",
        "--group-size",
        "4",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    for rule in ("token", "seq", "balanced", "balanced_gen"):
        records = read_metrics(tmp_path / f"metrics_{rule}.csv")
        assert len(records) == 3
        assert all(r.rule == rule for r in records)
    comparison = (tmp_path / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert len(comparison) == 4  # header + 3 steps
    assert comparison[0].startswith("step,token_objective,token_pg_loss")


def test_compare_locked_rollouts(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "compare",
        "--locked-rollouts",
        "--steps",
        "3",
        "--group-size",
        "4",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "policy_locked.npz").exists()
    for rule in ("token", "seq", "balanced", "balanced_gen"):
        records = read_metrics(tmp_path / f"metrics_{rule}.csv")
        assert len(records) == 3
        # single lineage: shared rollouts, so shared reward diagnostics
        base = read_metrics(tmp_path / "metrics_token.csv")
        assert [r.mean_reward for r in records] == [r.mean_reward for r in base]


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_refused_arguments_leave_no_out_directory(tmp_path, capsys, command):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--group-size", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_run_leaves_no_out_directory(tmp_path, capsys, monkeypatch, command):
    # rewards of 0 and 1e308 in one group: its reward variance overflows, so
    # the first step cannot normalise it
    reward = sim._reward
    monkeypatch.setattr(sim, "_reward", lambda *args: 1e308 * reward(*args))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--steps", "5", "--out", str(out))
    assert code == 2
    assert err == "error: group '0': reward variance is out of float range\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_degenerate_groups_are_zero_advantage_in_every_command(tmp_path, capsys, command):
    # at eps_var 0 an all-wrong group is degenerate; the run takes it as
    # zero-advantage and counts it, as analyze does for the same groups
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys, command, "--eps-var", "0", "--steps", "5", "--dump-rollouts", "--out", str(out)
    )
    assert code == 0 and err == ""
    flat = 0
    for dump in sorted(out.glob("rollouts_*.jsonl")):
        groups = list(read_rollouts(dump))
        assert all(g.eps_var == 0.0 for g in groups)
        equal = sum(len(set(g.rewards)) == 1 for g in groups)
        code, analyzed, _ = run_cli(capsys, "analyze", "--input", str(dump), "--out", str(tmp_path / dump.stem))
        assert code == 0
        assert f"notice: {equal} degenerate group(s) treated as zero-advantage" in analyzed.splitlines()
        flat += equal
    assert flat > 0
    assert stdout.splitlines()[0] == f"notice: {flat} degenerate group(s) treated as zero-advantage"
    # with the default floor no group is degenerate, and no notice is printed
    code, stdout, _ = run_cli(capsys, command, "--steps", "5", "--out", str(tmp_path / "floor"))
    assert code == 0 and "notice" not in stdout


def test_compare_shares_rollout_seeds_at_step_zero(tmp_path, capsys):
    # step 0 starts from the same uniform policy in every lineage, and the
    # rollout seed ignores the rule, so step-0 diagnostics coincide
    code, _, _ = run_cli(
        capsys, "compare", "--steps", "2", "--group-size", "8", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert code == 0
    rows = {
        rule: read_metrics(tmp_path / f"metrics_{rule}.csv")[0]
        for rule in ("token", "seq", "balanced", "balanced_gen")
    }
    rewards = {r.mean_reward for r in rows.values()}
    assert len(rewards) == 1
