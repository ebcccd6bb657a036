"""The two line decoders give the same groups, the same errors and the same outputs.

``parse_rollout_line`` decodes with orjson where that gives json.loads'
value and with json.loads otherwise. Each case runs under orjson (skipped
when it is not installed) and under json.loads alone, and is compared with
json.loads alone. Groups are compared by ``repr``, which shows every float
by its shortest round-trip form, so equal reprs mean equal bits.
``read_group_columns`` is compared, line by line, with the record path.
"""

import json
import math
import random
import struct
from decimal import Decimal
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from grpoagg import rollout_io
from grpoagg.cli import main
from grpoagg.rollout_io import RolloutLogError, parse_rollout_line, read_group_columns, read_rollouts

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


def _at_depth(frames: int, fn):
    """``fn()`` called ``frames`` frames deeper than this call."""
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


@pytest.mark.parametrize("decoder", DECODERS)
def test_nesting_limit_does_not_depend_on_the_callers_stack_depth(decoder):
    # json.loads' own recursion limit counts the caller's frames; the
    # nesting limit of 512 levels does not
    body = record()[1:]
    too_deep = '{"pad": ' + "[" * 985 + "]" * 985 + ", " + body
    over = '{"pad": ' + "[" * 512 + "]" * 512 + ", " + body  # 513 levels
    at_limit = '{"pad": ' + "[" * 511 + "]" * 511 + ", " + body  # 512 levels
    in_strings = '{"pad": ["' + "[{" * 600 + '", "\\"' + "[" * 600 + '"], ' + body
    error = ("error", "MalformedLineError", 7, "line 7: invalid JSON: nesting deeper than 512 levels")
    with decoding_with(decoder):
        for frames in (0, 5, 10, 100):
            assert _at_depth(frames, lambda: outcome(too_deep)) == error
            assert _at_depth(frames, lambda: outcome(over)) == error
            for line in (at_limit, in_strings):
                assert _at_depth(frames, lambda: outcome(line)) == outcome(record())


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


def group(eps="0.0", reward="1.0", ratio="1.0", logp_new="-0.5", logp_old="-0.25", prompt='"p0"', gid='"g0"') -> str:
    """A line of three responses with ratios given, from a logp pair, and given."""
    return (
        f'{{"v": 1, "group_id": {gid}, "prompt_id": {prompt}, "eps_var": {eps}, "responses": ['
        f'{{"tokens": [1, 2], "reward": {reward}, "ratios": [{ratio}, 1.1]}}, '
        f'{{"tokens": [3], "reward": 0.0, "logp_new": [{logp_new}], "logp_old": [{logp_old}]}}, '
        f'{{"tokens": [4, 5], "reward": 0.5, "ratios": [0.9, 1.0]}}]}}'
    )


# integers from 2**63 in magnitude, some halfway between two floats beyond 2**64
WIDE_INTS = [str(2**63), str(2**64 - 1), str(2**64), str(2**64 + 2**11), str(2**64 + 2**11 + 1),
             str(-(2**63) - 1), str(-(2**63)), "9" * 400]
COLUMN_LINES = (
    [group(**{field: value}) for field in ("eps", "reward", "ratio", "logp_new", "logp_old")
     for value in WIDE_INTS + ["1", "0", "-1", "-0.0", "1e19", "5e-324", "NaN", "1e400"]]
    + [
        group(logp_new="800", logp_old="-800"),
        group(logp_new=str(2**64), logp_old=str(2**64)),
        group(prompt='"\u00e9"'),
        group(prompt='"\u00e9t\u00e9"', gid='"\u65e5\u672c"'),
        group(prompt='"\\u00e9"'),
        group(ratio="true"),
        group(reward='"1.0"'),
        group().replace('"v": 1', '"v": 1.0'),
        " " + group(),
        "\t" + group(),
        "\ufeff" + group(),
        '{"pad": ' + "[" * 600 + "]" * 600 + ", " + group()[1:],
        '{"pad": ' + "[" * 990 + "]" * 990 + ", " + group()[1:],
        group().replace('"tokens": [3]', '"tokens": [3], "pad": ' + "{" * 300 + "}" * 300, 1),
    ]
)


def _column_log(path: Path, source: str) -> Path:
    """A log of ``source``'s lines; "columns" adds lines that are not UTF-8
    and lines that end at a lone "\\r" or at "\\r\\n"."""
    if source in LOGS:
        return LOGS[source]
    good = [group(reward=r) for r in ("1.0", "0.0", "0.5", "0.25")]
    lines = good + (EDGE_LINES if source == "edge" else COLUMN_LINES) + good
    data = "\n".join(lines).encode("utf-8", "surrogatepass") + b"\n"
    if source == "columns":
        for bad in (b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"):  # not UTF-8, inside a string
            data += group(prompt='"x"').encode().replace(b'"x"', b'"x' + bad + b'"') + b"\n"
        # a lone "\r" and "\r\n" inside one "\n"-terminated read, and blank lines
        data += group().encode() + b"\r" + group(reward="0.0").encode() + b"\r\n\r\n \t\n"
        data += group(reward="0.5").encode()  # no end of line
    path.write_bytes(data)
    return path


def _events(reader, path: Path) -> list:
    """Each group a reader yields and each error it passes on, in order; a
    group as line number, prompt id, eps_var, rewards, lengths, ratio bits."""
    events: list = []

    def report(exc):
        events.append(("error", type(exc).__name__, exc.line_no, str(exc)))

    for item in reader(path, 0.0, report):
        if reader is read_rollouts:
            flat = list(chain.from_iterable(r.ratios for r in item.responses)) if item.has_ratios else None
            item = (item.source_line, item.prompt_id, item.eps_var, list(item.rewards), list(item.lengths),
                    None if flat is None else ("float64", struct.pack(f"={len(flat)}d", *flat)))
        else:
            *item, ratios = item
            item = (*item, None if ratios is None else (ratios.dtype.name, ratios.tobytes()))
        line_no, prompt_id, eps_var, rewards, lengths, ratios = item
        events.append(("group", line_no, prompt_id, repr(eps_var), repr(rewards), lengths, ratios))
    return events


def _until_error(reader, path: Path):
    """The line numbers of the groups a strict reader yields, then its error."""
    lines = []
    try:
        for item in reader(path):
            lines.append(item.source_line if reader is read_rollouts else item[0])
    except RolloutLogError as exc:
        return lines, str(exc)
    return lines, None


@pytest.mark.parametrize("batch_bytes", [1, 300, rollout_io._BATCH_BYTES])
@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("source", ["edge", "columns", "faulty", "golden-dump"])
def test_group_columns_match_the_record_path(tmp_path, monkeypatch, source, decoder, batch_bytes):
    # a batch of lines is checked at once; each line must still give the
    # record path's group or error, in line order
    monkeypatch.setattr(rollout_io, "_BATCH_BYTES", batch_bytes)
    path = _column_log(tmp_path / "log.jsonl", source)
    with decoding_with("stdlib"):
        want = _events(read_rollouts, path)
        want_strict = _until_error(read_rollouts, path)
    with decoding_with(decoder):
        got = _events(read_group_columns, path)
        got_strict = _until_error(read_group_columns, path)
    assert [e[:3] for e in got] == [e[:3] for e in want]
    for g, w in zip(got, want):
        assert g == w
    assert got_strict == want_strict
    assert any(e[0] == "group" and e[-1] is not None for e in got)


def test_group_columns_yield_ratios_as_views_of_one_float64_array(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join([group(), group(ratio="2.5"), record()]) + "\n", encoding="utf-8")
    (_, *_, first), (_, *_, second), (_, *_, length_only) = read_group_columns(path)
    assert first.dtype == np.float64 and first.tolist() == [1.0, 1.1, math.exp(-0.25), 0.9, 1.0]
    assert second[0] == 2.5 and np.shares_memory(first.base, second)
    assert length_only is None


@pytest.mark.parametrize("reader", [read_rollouts, read_group_columns], ids=["records", "columns"])
def test_a_read_error_comes_after_the_groups_read_before_it(tmp_path, monkeypatch, reader):
    def failing_lines(fh):
        yield from (f"{group(reward=r)}\n".encode() for r in ("1.0", "0.0", "0.5"))
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(rollout_io, "_raw_lines", failing_lines)
    path = tmp_path / "log.jsonl"
    path.write_text("", encoding="utf-8")
    read = reader(path)
    assert len([next(read) for _ in range(3)]) == 3
    with pytest.raises(OSError, match="Input/output error"):
        next(read)
