"""The two line decoders give the same groups, the same errors and the same outputs.

``parse_rollout_line`` decodes with orjson where that gives json.loads'
value and with json.loads otherwise. Each case runs under orjson (skipped
when it is not installed) and under json.loads alone, and is compared with
json.loads alone. Groups are compared by ``repr``, which shows every float
by its shortest round-trip form, so equal reprs mean equal bits.
"""

import json
import math
import random
import struct
from decimal import Decimal
from pathlib import Path

import pytest

from grpoagg import rollout_io
from grpoagg.cli import main
from grpoagg.rollout_io import RolloutLogError, parse_rollout_line

from conftest import DECODERS, decoding_with, orjson

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
LOGS = {"faulty": DATA / "faulty_rollouts.jsonl", "golden-dump": GOLDEN / "rollouts_balanced.jsonl"}


def record(v="1", token="1", token_count="3", reward="1.0", prompt='"p0"') -> str:
    """A group line with the given JSON literals spliced into it."""
    return (
        f'{{"v": {v}, "prompt_id": {prompt}, "responses": ['
        f'{{"tokens": [{token}, 2, 0], "token_count": {token_count}, "reward": {reward}, '
        f'"ratios": [1.0, 0.97, 1.05]}}, {{"token_count": 2, "reward": 0.0}}]}}'
    )


BIG_INTS = [str(2**64), str(-(2**63) - 1), "9" * 400, str(2**64 - 1), str(-(2**63)), "1" + "0" * 18]
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1.7976931348623159e308"]
EDGE_LINES = (
    [record(**{field: value}) for field in ("v", "token", "token_count", "reward")
     for value in BIG_INTS + NON_FINITE]
    + [
        record(reward="1e-400"),
        record(reward="5e-324"),
        record(reward="0.1000000000000000055511151231257827021181583404541015625"),
        record(prompt='"\\ud800"'),
        record(prompt='"\\udc00"'),
        record(prompt='"\\ud83d\\ude00"'),
        record(prompt='"a\x01"'),
        record(prompt='"' + "7" * 30 + '"'),
        record(prompt="[" * 600 + "]" * 600),
        "[" * 1100 + "]" * 1100,
        "[" * 990 + "]" * 990,
        '{"a":' * 700 + "1" + "}" * 700,
        record().replace('"prompt_id": "p0"', '"prompt_id": "a", "prompt_id": "b"'),
        "﻿" + record(),
        record() + " x",
        record() + " \t\r\n",
        "\x0c" + record(),
        record()[:-1],
        "",
    ]
)


def outcome(line: str, line_no: int = 7):
    try:
        group = parse_rollout_line(line, line_no)
    except RolloutLogError as exc:
        return "error", type(exc).__name__, exc.line_no, str(exc)
    return "group", repr(group)


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("source", ["edge", "faulty", "golden-dump"])
def test_lines_decode_as_with_json_loads(decoder, source):
    lines = EDGE_LINES if source == "edge" else LOGS[source].read_text(encoding="utf-8").splitlines()
    with decoding_with("stdlib"):
        want = [outcome(line) for line in lines]
    with decoding_with(decoder):
        got = [outcome(line) for line in lines]
    for line, g, w in zip(lines, got, want):
        assert g == w, line[:80]


@pytest.mark.parametrize("decoder", DECODERS)
def test_integers_beyond_64_bits_stay_exact(decoder):
    with decoding_with(decoder):
        group = parse_rollout_line(record(token=str(2**64)), 1)
        assert group.responses[0].tokens == (2**64, 2, 0)
        group = parse_rollout_line(record(token=str(-(2**63) - 1)), 1)
        assert group.responses[0].tokens == (-(2**63) - 1, 2, 0)
        assert outcome(record(token_count=str(2**64)))[-1] == (
            "line 7: response 0: token_count 18446744073709551616 does not match 3 tokens"
        )
        assert outcome(record(v=str(2**64)))[-1] == (
            "line 7: unsupported schema version 18446744073709551616"
        )
        assert outcome(record(reward="9" * 400))[-1] == "line 7: response 0: reward is out of float range"
        assert outcome(record(reward="NaN"))[-1] == (
            "line 7: response 0: reward must be a finite real number, got nan"
        )


def _draw_decimals(rng: random.Random, n: int) -> list[str]:
    """Decimal strings around doubles: shortest forms, long forms, exact midpoints."""
    out = []
    while len(out) < n:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        y = math.nextafter(x, math.inf)
        if not (math.isfinite(x) and math.isfinite(y)) or abs(x) >= 1e18:
            continue
        mid = (Decimal(x) + Decimal(y)) / 2  # a tie: round half to even
        out += [repr(x), f"{x:.25e}", f"{mid:.60e}", f"{mid:.60e}".replace("e", "1e", 1)]
        if abs(x) >= 1e-4:
            out.append(f"{mid:f}")  # the exact tie, every digit written out
    return out


@pytest.mark.skipif(orjson is None, reason="orjson is not installed")
def test_floats_decode_bitwise_as_with_json_loads():
    text = "[" + ",".join(_draw_decimals(random.Random(0), 20000)) + "]"
    assert rollout_io._fast_safe(text)
    got, want = orjson.loads(text), json.loads(text)
    assert len(got) == len(want)
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


def _analyze(tmp_path, capsys, log: Path, window: str, tag: str) -> dict:
    out = tmp_path / tag
    code = main(["analyze", "--input", str(log), "--window", window, "--out", str(out)])
    captured = capsys.readouterr()
    files = {name: (out / name).read_bytes() for name in ("analysis.csv", "regime.txt")}
    return {"code": code, "stdout": captured.out.replace(str(out), "OUT"),
            "stderr": captured.err, **files}


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("log", ["faulty", "golden-dump", "edge"])
def test_analyze_outputs_match_across_decoders(tmp_path, capsys, decoder, log):
    path = LOGS.get(log, tmp_path / "edge.jsonl")
    if log == "edge":
        good = [record(reward=r) for r in ("1.0", "0.0", "0.5", "0.25")]
        path.write_text("\n".join(good + EDGE_LINES + good) + "\n", encoding="utf-8")
    with decoding_with("stdlib"):
        want = _analyze(tmp_path, capsys, path, "2", "stdlib")
    with decoding_with(decoder):
        got = _analyze(tmp_path, capsys, path, "2", decoder)
    assert got == want
    assert got["code"] == 0
    if log == "faulty":
        assert got["analysis.csv"] == (GOLDEN / "analysis.csv").read_bytes()
        assert got["regime.txt"] == (GOLDEN / "regime.txt").read_bytes()
