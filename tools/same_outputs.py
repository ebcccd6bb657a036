"""Check that this tree's command line gives the same outputs as another tree's.

Runs ``grpoagg.cli.main`` in a fresh child process for each case, once with
this tree's ``src`` and once with ``<other-tree>/src``, each in an empty
working directory, and compares every file the case writes, its stdout, its
stderr and its exit code. An ``.npz`` file is compared by its arrays, since
its zip entries carry the time they were written.

The ``analyze`` cases run each log at ``--window`` 16, 3 and 1, with the
serial reader (``rollout_io._PARALLEL_BYTES`` patched high), with worker
processes (patched to 0, with two CPUs in the affinity) and with worker
processes reading spans of 4 KiB (``rollout_io._SPAN_BYTES`` patched too,
so that a worker reads spans of very different sizes into its one buffer),
each with orjson and with its import blocked. The logs are the benchmark's
seed-0 ``analyze-long`` and ``analyze-short`` logs (written by
``bench/inputs.py``), ``tests/data/faulty_rollouts.jsonl``,
``tests/data/golden/rollouts_balanced.jsonl``, a log whose groups are
refused by normalisation or by an overflowing objective, a log of header
and record-parser fallback line shapes, a length-only log whose per-sign
token totals pass 2**53 (and, in one group, 2**63), and a log of every line
end (``\\n``, ``\\r\\n``, a lone ``\\r``, none after the last line) with a
line that is not UTF-8, a whitespace line, broken JSON, a line nested past
512 levels and a line of over 1 MiB among them. The other cases are
``verify --seed 0`` and ``--seed 7``,
``simulate --steps 20``, ``compare --steps 10 --locked-rollouts``, and the
rollout dumps of ``simulate --steps 20``, ``compare --steps 10`` and
``simulate --steps 0`` (``--dump-rollouts``), two runs whose sampling
seeds are several 32-bit words, ``simulate --steps 300 --seed 4294967296``
and ``compare --steps 270 --prompts 5 --seed 79228162514264337593543950341``
(2**96 + 5), each with ``--dump-rollouts``, and the dispatch and error
cases: no command, ``--help``, ``analyze --help``, ``analyze`` with no
``--input`` and with a missing one, the faulty log at ``--window 0``,
``--eps-var nan`` and ``--window 99999999999999999999``, ``simulate --steps
-1``, ``simulate --steps 1 --out /dev/null`` and ``verify --clip-high 1e5``.

Prints each case that differs and then ``k of n identical``; the exit code is
1 on any difference. Needs only the standard library and numpy.

usage: python tools/same_outputs.py <other-tree>
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: argv is the src directory, the patches and the command line.
CHILD = """
import json, os, sys
src, patches, argv = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
if patches.get("orjson") is False:
    sys.modules["orjson"] = None  # import orjson raises ImportError
from grpoagg import cli, rollout_io
assert rollout_io.__file__.startswith(src), rollout_io.__file__
if "parallel_bytes" in patches:
    rollout_io._PARALLEL_BYTES = patches["parallel_bytes"]
    os.sched_getaffinity = lambda pid: {0, 1}
if "span_bytes" in patches:
    rollout_io._SPAN_BYTES = patches["span_bytes"]
sys.exit(cli.main(argv))
"""


def refused_groups_log(path: Path) -> None:
    """120 groups, of which every seventh fails normalisation (its reward
    variance overflows) and every eleventh overflows an objective."""
    rng = random.Random(3)
    lines = []
    for i in range(120):
        if i % 7 == 3:
            responses = [{"token_count": 1, "reward": 1e308}, {"token_count": 1, "reward": -1e308}]
        elif i % 11 == 5:
            responses = [{"tokens": [1, 0], "reward": 1.0, "ratios": [1.0, 0.9]}] * 9
            responses.append({"tokens": [1], "reward": 0.0, "ratios": [1e308]})
        else:
            responses = []
            for _ in range(rng.randrange(2, 5)):
                n = rng.randrange(20, 60)
                responses.append({"tokens": [rng.randrange(3) for _ in range(n)],
                                  "reward": float(rng.random() < 0.5),
                                  "ratios": [rng.uniform(0.7, 1.4) for _ in range(n)]})
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def header_shapes_log(path: Path) -> None:
    """60 groups, of which every third takes in turn one of nine header or
    record-parser fallback shapes: ``"v"`` 1.0, true or 2, a JSON array, an
    object with no ``responses``, integral-float token ids, ``token_count``
    beside ``tokens``, ratios beside a logp pair, and a reward of 1e300."""
    rng = random.Random(5)
    lines = []
    for i in range(60):
        responses = []
        for _ in range(rng.randrange(2, 5)):
            n = rng.randrange(1, 9)
            responses.append({"tokens": [rng.randrange(3) for _ in range(n)], "reward": float(rng.random() < 0.5),
                              "ratios": [rng.uniform(0.7, 1.4) for _ in range(n)]})
        line: object = {"prompt_id": f"p{i}", "responses": responses}
        shape = i // 3 % 9 if i % 3 == 1 else None
        if shape in (0, 1, 2):
            line = {"v": (1.0, True, 2)[shape], **line}
        elif shape == 3:
            line = [line]
        elif shape == 4:
            del line["responses"]
        elif shape == 8:
            responses[0]["reward"] = 1e300
        for response in responses:
            if shape == 5:
                response["tokens"] = [float(token) for token in response["tokens"]]
            elif shape == 6:
                response["token_count"] = len(response["tokens"])
            elif shape == 7:
                old = response["logp_old"] = [rng.uniform(-3.0, 0.0) for _ in response["ratios"]]
                new = response["logp_new"] = [x + rng.uniform(-0.3, 0.3) for x in old]
                response["ratios"] = [math.exp(a - b) for a, b in zip(new, old)]
        lines.append(json.dumps(line) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def long_lengths_log(path: Path) -> None:
    """40 length-only groups of 2 to 5 responses of up to 2**53 tokens, so
    that a window's per-sign token totals pass 2**53 and round, then one
    group of 1,025 whose positive responses' lengths total 2**63."""
    rng = random.Random(7)
    lines = []
    for i in range(40):
        responses = [{"token_count": rng.choice([1, 3, 2**40 + rng.randrange(9), 2**53 - rng.randrange(3)]),
                      "reward": float(rng.random() < 0.5)} for _ in range(rng.randrange(2, 6))]
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}) + "\n")
    wide = [{"token_count": 2**53, "reward": 1.0}] * 1024 + [{"token_count": 5, "reward": 0.0}]
    lines.append(json.dumps({"prompt_id": "wide", "responses": wide}) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def line_ends_log(path: Path) -> None:
    """100 groups whose lines end in turn in "\\n", "\\r\\n" and a lone "\\r",
    in runs of 20, with no end after the last; among them a line that is not
    UTF-8, a whitespace line, a line of broken JSON, a line nested past 512
    levels and a group of 150,000 tokens, a line of over 1 MiB."""
    rng = random.Random(9)
    lines = []
    for i in range(100):
        responses = []
        for _ in range(rng.randrange(2, 5)):
            n = rng.randrange(1, 30)
            responses.append({"tokens": [rng.randrange(3) for _ in range(n)], "reward": float(rng.random() < 0.5),
                              "ratios": [rng.uniform(0.7, 1.4) for _ in range(n)]})
        lines.append(json.dumps({"prompt_id": f"p{i}", "responses": responses}).encode())
    wide = [{"tokens": [1] * 150_000, "reward": 1.0, "ratios": [1.05] * 150_000},
            {"tokens": [2, 0], "reward": 0.0, "ratios": [0.9, 1.0]}]
    lines[7] = lines[7].replace(b'"p7"', b'"p7\xff"')
    lines[13] = b" \t "
    lines[26] = lines[26][:-1]
    lines[62] = lines[62].replace(b'"p62"', b"[" * 600 + b"0" + b"]" * 600)
    lines[66] = json.dumps({"prompt_id": "wide", "responses": wide}).encode()
    ends = [(b"\n", b"\r\n", b"\r")[i // 20 % 3] for i in range(99)] + [b""]
    path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))


def logs(directory: Path) -> dict[str, Path]:
    """The analyze cases' logs by name, the generated ones written to ``directory``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs
    from run import WORKLOADS

    found = {}
    for name in ("analyze-long", "analyze-short"):
        params = {key: WORKLOADS[name][key] for key in ("groups", "group_size", "len_lo", "len_hi")}
        found[name] = inputs.make_analyze_input(directory / f"{name}.jsonl", 0, **params).path
    found["faulty"] = ROOT / "tests" / "data" / "faulty_rollouts.jsonl"
    found["golden-balanced"] = ROOT / "tests" / "data" / "golden" / "rollouts_balanced.jsonl"
    found["refused-groups"] = directory / "refused-groups.jsonl"
    refused_groups_log(found["refused-groups"])
    found["header-shapes"] = directory / "header-shapes.jsonl"
    header_shapes_log(found["header-shapes"])
    found["long-lengths"] = directory / "long-lengths.jsonl"
    long_lengths_log(found["long-lengths"])
    found["line-ends"] = directory / "line-ends.jsonl"
    line_ends_log(found["line-ends"])
    return found


def cases(directory: Path) -> list[tuple[str, dict, list[str]]]:
    """``(name, patches, argv)`` of every case."""
    found = []
    for log_name, log in logs(directory).items():
        for window in ("16", "3", "1"):
            for path, patches in (("serial", {"parallel_bytes": 1 << 62}), ("workers", {"parallel_bytes": 0}),
                                  ("workers 4KiB", {"parallel_bytes": 0, "span_bytes": 4096})):
                for decoder in ("orjson", "json"):
                    name = f"analyze {log_name} --window {window} {path} {decoder}"
                    argv = ["analyze", "--input", str(log), "--window", window, "--out", "out"]
                    found.append((name, dict(patches, orjson=decoder == "orjson"), argv))
    faulty = ["analyze", "--input", str(ROOT / "tests" / "data" / "faulty_rollouts.jsonl"), "--out", "out"]
    for argv in (["verify", "--seed", "0"], ["verify", "--seed", "7"],
                 ["simulate", "--steps", "20", "--out", "out"],
                 ["compare", "--steps", "10", "--locked-rollouts", "--out", "out"],
                 ["simulate", "--steps", "20", "--dump-rollouts", "--out", "out"],
                 ["compare", "--steps", "10", "--dump-rollouts", "--out", "out"],
                 ["simulate", "--steps", "0", "--dump-rollouts", "--out", "out"],
                 ["simulate", "--steps", "300", "--seed", "4294967296", "--dump-rollouts", "--out", "out"],
                 ["compare", "--steps", "270", "--prompts", "5", "--seed", "79228162514264337593543950341",
                  "--dump-rollouts", "--out", "out"],
                 [], ["--help"], ["analyze", "--help"], ["analyze"], ["analyze", "--input", "missing.jsonl"],
                 [*faulty, "--window", "0"], [*faulty, "--eps-var", "nan"],
                 [*faulty, "--window", "99999999999999999999"],
                 ["simulate", "--steps", "-1"], ["simulate", "--steps", "1", "--out", "/dev/null"],
                 ["verify", "--clip-high", "1e5"]):
        found.append((" ".join(argv) or "no command", {}, argv))
    return found


def run(src: Path, patches: dict, argv: list[str]) -> dict[str, object]:
    """The exit code, stdout, stderr and written files of one case run with ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(patches), json.dumps(argv)],
                              cwd=cwd, env=env, capture_output=True)
        outputs: dict[str, object] = {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(cwd))] = file_contents(path)
    return outputs


def file_contents(path: Path) -> object:
    """A file's bytes, or for an ``.npz`` file each array's dtype, shape and bytes."""
    data = path.read_bytes()
    if path.suffix != ".npz":
        return data
    with np.load(io.BytesIO(data)) as archive:
        return {name: (archive[name].dtype.str, archive[name].shape, archive[name].tobytes())
                for name in archive.files}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py <other-tree>", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() / "src"
    if not (other / "grpoagg").is_dir():
        print(f"error: no src/grpoagg under {argv[0]}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        todo = cases(Path(directory))
        identical = 0
        for name, patches, case_argv in todo:
            here, there = run(ROOT / "src", patches, case_argv), run(other, patches, case_argv)
            differing = [key for key in sorted(here.keys() | there.keys()) if here.get(key) != there.get(key)]
            if differing:
                print(f"differs: {name}: {', '.join(differing)}")
            else:
                identical += 1
    print(f"{identical} of {len(todo)} identical")
    return 0 if identical == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
