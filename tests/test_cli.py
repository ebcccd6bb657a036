import errno
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import grpoagg
from grpoagg import cli, rollout_io, sim
from grpoagg.cli import main
from grpoagg.aggregate import ClipConfig, FlatBatch
from grpoagg.decompose import length_stats
from grpoagg.groups import MAX_TOKEN_COUNT, Response, RolloutGroup, normalize_columns
from grpoagg.rollout_io import METRIC_FIELDS, RolloutLogError, read_group_columns, read_metrics, read_rollouts

from conftest import count_constructions, fail_check

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


def test_verify_injected_fault_exits_one(capsys, monkeypatch):
    fail_check(monkeypatch, "mass_symmetry")
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL mass_symmetry" in out


def test_verify_narrow_clip_band_is_usage_error(capsys):
    # the gradient check draws ratios 0.05 inside the band, which needs a
    # band wider than 0.1; refused before the header is printed
    code, out, err = run_cli(capsys, "verify", "--clip-low", "0.01", "--clip-high", "0.01")
    assert (code, out) == (2, "")
    assert err == (
        "error: clip band (0.01,0.01) is too narrow: the gradient check draws ratios 0.05 inside it, "
        "so clip_low + clip_high must exceed 0.1\n"
    )


def test_verify_negative_seed_is_usage_error(capsys):
    # refused before the header, with the text simulate and compare print
    assert run_cli(capsys, "verify", "--seed", "-1") == (2, "", "error: seed must be >= 0\n")


@pytest.mark.parametrize("high", ["1e17", "1e308"])
def test_verify_clip_high_above_the_ceiling_is_usage_error(capsys, high):
    # beyond 1e4 the gradient check's finite differences fail spuriously
    # (1e17) or its sums overflow (1e308); refused before the header
    code, out, err = run_cli(capsys, "verify", "--clip-high", high)
    assert (code, out) == (2, "")
    assert err == (
        f"error: clip band (0.2,{float(high):g}) is too wide: the gradient check's finite differences "
        "lose precision at large ratios, so clip_high must be at most 10000\n"
    )


def test_verify_failure_hint_reproduces_the_failure(capsys, monkeypatch):
    fail_check(monkeypatch, "mass_symmetry")  # still in place when the hint runs again
    argv = ["verify", "--seed", "3", "--clip-low", "0.1", "--clip-high", str(0.1 + 0.2)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    hints = [line for line in out.splitlines() if line.startswith("  reproduce with: grpoagg ")]
    assert len(hints) == 1
    hint = shlex.split(hints[0].removeprefix("  reproduce with: grpoagg "))
    assert hint[hint.index("--clip-high") + 1] == "0.30000000000000004"
    again = run_cli(capsys, *hint)
    assert again == (1, out, "")
    assert out.splitlines()[0] == "identity suite: seed=3 clip=(0.1,0.3)"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "log.jsonl", "--seed", "1"],
        ["verify", "--eps-var", "0"],
        ["verify", "--out", "d"],
        ["verify", "--inject-fault", "mass_symmetry"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class FullStdout:
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


STDOUT_FULL = f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


def test_verify_stdout_write_error_is_one_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["verify"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == STDOUT_FULL


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--input", str(DATA / "faulty_rollouts.jsonl")],
     ["simulate", "--eps-var", "0", "--steps", "3"],
     ["compare", "--eps-var", "0", "--steps", "3"]],
    ids=["analyze", "simulate", "compare"],
)
def test_a_full_stdout_loses_no_file_and_names_stdout(tmp_path, capsys, monkeypatch, argv):
    # every file is written before the first stdout line, which here is a notice
    code, out, want_err = run_cli(capsys, *argv, "--out", str(tmp_path / "want"))
    assert code == 0 and out.startswith("notice: ")
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main([*argv, "--out", str(tmp_path / "got")])
    assert (code, capsys.readouterr().err) == (1, want_err + STDOUT_FULL)
    want = sorted(path.name for path in (tmp_path / "want").iterdir())
    assert sorted(path.name for path in (tmp_path / "got").iterdir()) == want
    for name in want:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["verify"],
     ["analyze", "--input", str(DATA / "golden" / "rollouts_balanced.jsonl"), "--out"],
     ["simulate", "--steps", "3", "--out"]],
    ids=["verify", "analyze", "simulate"],
)
def test_a_stdout_that_fails_at_its_final_flush_is_one_error_line(tmp_path, argv):
    # a block-buffered stdout (PYTHONUNBUFFERED unset) first fails when it is
    # flushed; that failure too is main's, not one at interpreter exit
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path)]
    src = str(Path(grpoagg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "grpoagg.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (1, STDOUT_FULL)


def test_a_full_disk_still_names_out(tmp_path, capsys, monkeypatch):
    # a failed file write carries no file name either
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full)
    code, out, err = run_cli(capsys, "simulate", "--steps", "1", "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: cannot write {tmp_path}: {os.strerror(errno.ENOSPC)}\n")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grpoagg.cli", "analyze", "--input", str(DATA / "faulty_rollouts.jsonl"),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


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
    built = count_constructions(monkeypatch, Response, RolloutGroup)
    code, out, err = run_cli(capsys, "analyze", "--input", str(log), "--window", "4", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert "notice: 1 degenerate group(s)" in out and "notice: 1 length-only group(s)" in out
    assert built == []


def count_calls(monkeypatch, fn):
    """A list that gets an entry per call of ``fn``, replaced in every
    grpoagg module that holds it, so callers that imported it by name count."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "grpoagg" or name.startswith("grpoagg."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("window", [1, 4, 10])
def test_analyze_computes_length_stats_once_per_window_and_overall(tmp_path, capsys, monkeypatch, window):
    log = tmp_path / "log.jsonl"
    write_log(log, 10)  # ten groups that all evaluate
    calls = count_calls(monkeypatch, length_stats)
    code, _, err = run_cli(capsys, "analyze", "--input", str(log), "--window", str(window), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert len(calls) == -(-10 // window) + 1


def test_simulate_computes_length_stats_once_per_step(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, length_stats)
    code, _, _ = run_cli(capsys, "simulate", "--steps", "3", "--group-size", "4", "--out", str(tmp_path))
    assert code == 0
    assert len(calls) == 3


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


def test_analyze_rejects_a_window_below_one(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    write_log(log, 3)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "analyze", "--input", str(log), "--out", str(out), "--window", "0")
    assert (code, stdout, err) == (2, "", "error: --window must be >= 1\n")
    assert not out.exists()


def test_analyze_takes_a_window_above_sys_maxsize_as_one_window(tmp_path, capsys):
    # itertools.islice refuses a stop above sys.maxsize; such a window holds every group
    log = str(DATA / "faulty_rollouts.jsonl")
    huge = "99999999999999999999"
    assert int(huge) > sys.maxsize
    runs = {}
    for window in (huge, "16"):
        code, stdout, err = run_cli(capsys, "analyze", "--input", log, "--window", window,
                                    "--out", str(tmp_path / window))
        assert code == 0, err
        assert stdout.count("window ") == 1
        runs[window] = (stdout.replace(str(tmp_path / window), "<out>"), err,
                        (tmp_path / window / "analysis.csv").read_bytes())
    assert runs[huge] == runs["16"]


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


def test_analyze_read_error_mid_log_keeps_the_windows_read_before_it(tmp_path, capsys, monkeypatch):
    # the lines read before the error complete three windows of two groups;
    # their rows are written, the seventh group is not, and no regime.txt is
    log = tmp_path / "log.jsonl"
    write_log(log, 7)
    lines = log.read_bytes().splitlines(keepends=True)
    six = tmp_path / "six.jsonl"
    six.write_bytes(b"".join(lines[:6]))
    code, _, _ = run_cli(capsys, "analyze", "--input", str(six), "--window", "2", "--out", str(tmp_path / "six"))
    assert code == 0

    def raw_lines(fh):
        yield from lines
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(rollout_io, "_raw_lines", raw_lines)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "analyze", "--input", str(log), "--window", "2", "--out", str(out))
    assert code == 1
    assert err.splitlines()[-1] == f"error: cannot read {log}: [Errno 5] Input/output error"
    assert (out / "analysis.csv").read_bytes() == (tmp_path / "six" / "analysis.csv").read_bytes()
    assert len((out / "analysis.csv").read_text(encoding="utf-8").splitlines()) == 1 + 3 * 4
    assert not (out / "regime.txt").exists()


# Runs in a child: analyze reads the log of argv[1] in two worker processes,
# one span a line; the worker that gets the span of line 21 SIGKILLs itself
# once the spans of lines 1-20 are read. Prints the exit code and the
# processes left whose parent is the child.
WORKER_DIES = """
import json, multiprocessing, os, signal, sys, time
from pathlib import Path
from grpoagg import cli, rollout_io

main_pid = os.getpid()
span_columns = rollout_io._span_columns
read = multiprocessing.Value("i", 0)

def dying_span_columns(fd, first, *rest):
    if first == 21 and os.getpid() != main_pid:
        deadline = time.monotonic() + 5
        while read.value < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # their replies are sent
        os.kill(os.getpid(), signal.SIGKILL)
    items = span_columns(fd, first, *rest)
    with read.get_lock():
        read.value += 1
    return items

rollout_io._span_columns = dying_span_columns
rollout_io._PARALLEL_BYTES = 0
rollout_io._SPAN_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(["analyze", "--input", sys.argv[1], "--window", "4", "--out", sys.argv[2]])

def parent_of(stat):
    try:
        return int(stat.read_text().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError):
        return None  # the process ended while it was listed

left = [p.parent.name for p in Path("/proc").glob("[0-9]*/stat") if parent_of(p) == main_pid]
print(json.dumps({"code": code, "active": len(multiprocessing.active_children()), "left": left}))
"""


def test_analyze_ends_with_an_error_when_a_worker_dies(tmp_path, capsys):
    # the worker's span and those after it are lost; the windows of lines
    # 1-20, read before it, are written, and no worker is left running
    log = tmp_path / "log.jsonl"
    write_log(log, 40)
    twenty = tmp_path / "twenty.jsonl"
    twenty.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:20]))
    code, _, _ = run_cli(capsys, "analyze", "--input", str(twenty), "--window", "4", "--out", str(tmp_path / "twenty"))
    assert code == 0
    src = str(Path(grpoagg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", WORKER_DIES, str(log), str(out)], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 1, "active": 0, "left": []}
    assert proc.stderr == f"error: cannot read {log}: a worker process ended\n"
    assert (out / "analysis.csv").read_bytes() == (tmp_path / "twenty" / "analysis.csv").read_bytes()
    assert len((out / "analysis.csv").read_text(encoding="utf-8").splitlines()) == 1 + 5 * 4
    assert not (out / "regime.txt").exists()


def test_the_worker_path_imports_no_process_pool(tmp_path):
    # a fresh process that analyzes a log in two forked workers, which
    # inherit its bulk decoder
    code = (
        "import os, sys\n"
        "from grpoagg import cli, rollout_io\n"
        "spawn = rollout_io._columns_in_workers\n"
        "spawned = []\n"
        "rollout_io._columns_in_workers = lambda *args: spawned.append(1) or spawn(*args)\n"
        "rollout_io._PARALLEL_BYTES = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "assert cli.main(['analyze', '--input', sys.argv[1], '--window', '2', '--out', sys.argv[2]]) == 0\n"
        "assert spawned == [1]\n"
        "assert rollout_io._fast_loads is not rollout_io._UNRESOLVED  # resolved here, for the workers\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = str(Path(grpoagg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, str(DATA / "faulty_rollouts.jsonl"), str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "analysis.csv").read_bytes() == (DATA / "golden" / "analysis.csv").read_bytes()


def _refill_log(path):
    """A log of about 12,000 tokens in which some groups fail normalisation
    or overflow an objective, so windows are refilled from later lines; one
    group is degenerate and one length-only."""
    rng = random.Random(3)
    lines = []
    for i in range(120):
        if i % 7 == 3:  # the reward variance overflows
            responses = [{"token_count": 1, "reward": 1e308}, {"token_count": 1, "reward": -1e308}]
        elif i % 11 == 5:  # nine positives and one negative: a huge ratio overflows phi
            responses = [{"tokens": [1, 0], "reward": 1.0, "ratios": [1.0, 0.9]}] * 9
            responses.append({"tokens": [1], "reward": 0.0, "ratios": [1e308]})
        elif i == 40:
            responses = [{"token_count": 30, "reward": 0.5}, {"token_count": 9, "reward": 0.0}]
        else:
            responses = []
            for _ in range(rng.randrange(2, 5)):
                n = rng.randrange(20, 60)
                responses.append({"tokens": [rng.randrange(3) for _ in range(n)],
                                  "reward": 1.0 if i == 61 else float(rng.random() < 0.5),
                                  "ratios": [rng.uniform(0.7, 1.4) for _ in range(n)]})
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def test_a_refused_group_reaches_on_error_in_line_order(tmp_path, monkeypatch):
    # a group that normalisation or an objective refuses is a RolloutLogError
    # for on_error, as a line that does not parse is, from either reader path
    log = tmp_path / "refill.jsonl"
    _refill_log(log)
    evaluate = partial(cli._group_rows, ClipConfig())
    spawned = []
    spawn = rollout_io._columns_in_workers

    def refusals():
        errors = []
        rows = list(read_group_columns(log, on_error=errors.append, evaluate=evaluate))
        assert len(rows) + len(errors) == 120
        return [(type(e), e.line_no, str(e)) for e in errors]

    serial = refusals()
    for span_bytes in (1, 4096):
        with monkeypatch.context() as m:
            m.setattr(rollout_io, "_columns_in_workers", lambda *args: spawned.append(1) or spawn(*args))
            m.setattr(rollout_io, "_PARALLEL_BYTES", 0)
            m.setattr(rollout_io, "_SPAN_BYTES", span_bytes)
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            assert refusals() == serial
    assert len(spawned) == 2
    normalisation = [i + 1 for i in range(120) if i % 7 == 3]
    objective = [i + 1 for i in range(120) if i % 11 == 5 and i % 7 != 3]
    assert (len(normalisation), len(objective)) == (17, 9)
    assert [line_no for _, line_no, _ in serial] == sorted(normalisation + objective)
    for kind, line_no, text in serial:
        assert kind is RolloutLogError and text.startswith(f"line {line_no}: group 'p{line_no - 1}': ")
        assert text.endswith(": an objective overflows a float") == (line_no in objective)
    with pytest.raises(RolloutLogError, match=r"^line 4: group 'p3': "):  # without on_error, the first raises
        list(read_group_columns(log, evaluate=evaluate))


def test_group_rows_counts_are_the_sign_split_of_the_advantages():
    # each row's k, n_pos, neg_count and n_neg are the counts and token totals
    # of the responses whose normalize_columns advantage is > 0 and < 0; a
    # group of 1,025 responses whose positive lengths total 2**63 takes the
    # exact-integer path for its whole run
    rng = random.Random(31)

    def ratios(lengths):
        return np.array([rng.uniform(0.8, 1.2) for _ in range(sum(lengths))])

    run = [
        ("degenerate", 0.0, [1.0, 1.0], [2, 3], ratios([2, 3])),
        ("zero advantage", 1e-6, [1.0, 0.0, 0.5], [1, 2, 4], ratios([1, 2, 4])),
        ("length-only", 0.0, [1.0, 0.0, 0.0], [MAX_TOKEN_COUNT, 7, MAX_TOKEN_COUNT - 1], None),
        ("refused", 0.0, [1e308, -1e308], [1, 1], None),
        ("binary", 0.0, [0.0, 1.0, 1.0, 0.0], [3, 1, 4, 1], ratios([3, 1, 4, 1])),
    ]
    wide = ("wide", 0.0, [1.0] * 1024 + [0.0], [MAX_TOKEN_COUNT] * 1024 + [5], None)
    for groups in (run, [*run, wide]):
        prompt_ids, eps_vars, rewards, lengths, _ = zip(*groups)
        sizes = list(map(len, rewards))
        advantages = normalize_columns([r for group in rewards for r in group], sizes, eps_vars, prompt_ids).advantages
        split = np.split(advantages.tolist(), np.cumsum(sizes)[:-1])
        rows = cli._group_rows(ClipConfig(), [(line_no, *group) for line_no, group in enumerate(groups, 1)])
        assert isinstance(rows[3], RolloutLogError) and str(rows[3]).startswith("line 4: group 'refused': ")
        assert rows[0][3] and rows[2][0] is None  # degenerate; length-only
        for row, group_lengths, adv in zip(rows, lengths, split):
            if isinstance(row, RolloutLogError):
                continue
            pos = [t for t, a in zip(group_lengths, adv) if a > 0.0]
            neg = [t for t, a in zip(group_lengths, adv) if a < 0.0]
            assert row[6:] == (len(pos), sum(pos), len(neg), sum(neg))
            assert all(type(count) is int for count in row[6:])
        assert [row[6:] for row in rows[:3]] == [(0, 0, 0, 0), (1, 1, 1, 2), (1, 2**53, 2, 2**53 + 6)]
    assert rows[-1][6:] == (1024, 2**63, 1, 5)


@pytest.mark.parametrize("window", [1, 3, 16])
@pytest.mark.parametrize("log_name", ["faulty", "refill"])
def test_analyze_outputs_do_not_depend_on_the_chunk_budget(tmp_path, capsys, monkeypatch, window, log_name):
    log = DATA / "faulty_rollouts.jsonl"
    if log_name == "refill":
        log = tmp_path / "refill.jsonl"
        _refill_log(log)
    out = tmp_path / "out"
    results = []

    def analyze():
        code, stdout, stderr = run_cli(capsys, "analyze", "--input", str(log), "--window", str(window),
                                       "--out", str(out))
        assert code == 0
        results.append(((out / "analysis.csv").read_bytes(), (out / "regime.txt").read_bytes(), stdout, stderr))

    for budget in (rollout_io._RUN_TOKENS, 1, 2**62):  # the serial reader's runs
        monkeypatch.setattr(rollout_io, "_RUN_TOKENS", budget)
        analyze()
    spawned = []
    spawn = rollout_io._columns_in_workers
    for span_bytes in (1, 4096):  # one evaluation per span, in worker processes
        with monkeypatch.context() as m:
            m.setattr(rollout_io, "_columns_in_workers", lambda *args: spawned.append(1) or spawn(*args))
            m.setattr(rollout_io, "_PARALLEL_BYTES", 0)
            m.setattr(rollout_io, "_SPAN_BYTES", span_bytes)
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            analyze()
    assert results[1:] == [results[0]] * 4 and len(spawned) == 2
    if log_name == "refill":
        assert results[0][3].count("\n") == 26  # 17 normalisation and 9 objective errors


def test_analyze_evaluates_many_windows_per_batch(tmp_path, capsys, monkeypatch):
    # 64 groups of 8 short responses hold fewer tokens than one chunk, so
    # their 16 windows are normalised and evaluated by one FlatBatch
    rng = random.Random(1)
    lines = []
    for i in range(64):
        responses = []
        for _ in range(8):
            n = rng.randrange(1, 16)
            responses.append({"tokens": [rng.randrange(3) for _ in range(n)],
                              "reward": float(rng.random() < 0.5),
                              "ratios": [rng.uniform(0.8, 1.2) for _ in range(n)]})
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}) + "\n")
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    calls = []
    rule_sums = FlatBatch.rule_sums
    monkeypatch.setattr(FlatBatch, "rule_sums", lambda self, clip: calls.append(1) or rule_sums(self, clip))
    code, out, err = run_cli(capsys, "analyze", "--input", str(log), "--window", "4", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert "window 15:" in out and "window 16:" not in out
    assert len(calls) == 1


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


def test_analyze_without_orjson_writes_the_golden_outputs(tmp_path):
    # a fresh process in which orjson cannot be imported
    code = (
        "import sys\n"
        "sys.modules['orjson'] = None\n"
        "from grpoagg import cli, rollout_io\n"
        "assert cli.main(['analyze', '--input', sys.argv[1], '--window', '2', '--out', sys.argv[2]]) == 0\n"
        "assert rollout_io._fast_loads is None\n"
    )
    src = str(Path(grpoagg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, str(DATA / "faulty_rollouts.jsonl"), str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for name in ("analysis.csv", "regime.txt"):
        assert (tmp_path / name).read_bytes() == (DATA / "golden" / name).read_bytes(), name


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


def test_compare_zero_steps_header_only(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compare", "--steps", "0", "--out", str(tmp_path))
    assert code == 0
    # as simulate --steps 0, no rule line: no step has a reward or a loss to print
    assert out == f"wrote {tmp_path / 'comparison.csv'} and per-rule metrics_<rule>.csv\n"
    header = ",".join(f"{r}_objective,{r}_pg_loss,{r}_mean_reward" for r in cli.RULES)
    assert (tmp_path / "comparison.csv").read_text(encoding="utf-8") == f"step,{header}\n"


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


def test_oversized_prompts_error_names_the_step_cells(tmp_path, capsys):
    # 10,923 prompts at the default G16/T8/V3 is the smallest step over the cap
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "simulate", "--prompts", "10923", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == (
        "error: step cells (prompts * group_size * t_max * vocab_size) is 4194432, above the cap of 4194304\n"
    )
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


def _failing_at_step(monkeypatch, exc, step, rule=None):
    """Make evaluate_batch raise ``exc`` at ``step`` of each lineage (of
    ``rule``'s alone, given one); every step evaluates one batch."""
    evaluate = sim.evaluate_batch
    calls = Counter()

    def failing(policy, rollouts, advantages, rule_, *args, **kwargs):
        calls[rule_] += 1
        if calls[rule_] == step + 1 and rule in (None, rule_):
            raise exc
        return evaluate(policy, rollouts, advantages, rule_, *args, **kwargs)

    monkeypatch.setattr(sim, "evaluate_batch", failing)


@pytest.mark.parametrize("exc", [sim.SimulationError("non-finite gradient for prompt 0"), KeyboardInterrupt()],
                         ids=["SimulationError", "KeyboardInterrupt"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_a_failed_dumping_run_leaves_no_dump_and_no_out_it_created(tmp_path, monkeypatch, exc, existing):
    # the dump is written as each step ends; when step 2 fails, the written
    # steps, the file they went to and every directory made for it go
    if existing:
        (tmp_path / "made" / "out").mkdir(parents=True)
    _failing_at_step(monkeypatch, exc, 2)
    with pytest.raises(type(exc)):
        main(["simulate", "--steps", "5", "--dump-rollouts", "--out", str(tmp_path / "made" / "out")])
    assert sorted(tmp_path.rglob("*")) == ([tmp_path / "made", tmp_path / "made" / "out"] if existing else [])


def test_a_compare_that_fails_in_its_second_lineage_keeps_the_first_lineage_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "compare", "--steps", "5", "--dump-rollouts", "--out", str(tmp_path / "want"))
    assert code == 0
    _failing_at_step(monkeypatch, sim.SimulationError("non-finite gradient for prompt 0"), 2, rule="seq")
    with pytest.raises(sim.SimulationError):
        main(["compare", "--steps", "5", "--dump-rollouts", "--out", str(out)])
    assert sorted(path.name for path in out.iterdir()) == ["policy_token.npz", "rollouts_token.jsonl"]
    assert (out / "rollouts_token.jsonl").read_bytes() == (tmp_path / "want" / "rollouts_token.jsonl").read_bytes()


def test_a_dump_of_zero_steps_is_an_empty_file(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", "--steps", "0", "--dump-rollouts", "--out", str(out))
    assert (code, err) == (0, "")
    assert sorted(path.name for path in out.iterdir()) == ["metrics_balanced.csv", "policy_balanced.npz",
                                                           "rollouts_balanced.jsonl"]
    assert (out / "rollouts_balanced.jsonl").read_bytes() == b""


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
