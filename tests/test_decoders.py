"""The two bulk-check decoders give the same groups, the same errors and the same outputs.

``parse_rollout_line``, the record path, decodes with json.loads alone and
is the reference; its cases run under either bulk decoder setting, which it
must ignore. ``read_group_columns`` decodes a line from its raw bytes
with orjson or, without it, with json.loads; each of its cases runs under
orjson (skipped when it is not installed) and under json.loads alone, and
is compared, line by line, with the record path. Groups are compared by
``repr``, which shows every float by its shortest round-trip form, so equal
reprs mean equal bits.
"""

import contextlib
import json
import math
import multiprocessing
import os
import pickle
import random
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from decimal import Decimal
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest

from grpoagg import rollout_io
from grpoagg.aggregate import FlatBatch
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


NESTING_ERROR = ("error", "MalformedLineError", 7, "line 7: invalid JSON: nesting deeper than 512 levels")


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("source", ["edge", "faulty", "golden-dump"])
def test_lines_decode_as_with_json_loads(decoder, source):
    # a line's group or error is that of json.loads' value of it, re-encoded,
    # and its JSON error is json.loads' own, whichever bulk decoder is set
    lines = EDGE_LINES if source == "edge" else LOGS[source].read_text(encoding="utf-8").splitlines()
    with decoding_with(decoder):
        for line in lines:
            try:
                want = outcome(json.dumps(json.loads(line)))
            except ValueError as exc:
                want = ("error", "MalformedLineError", 7, f"line 7: invalid JSON: {exc}")
            except RecursionError:
                want = NESTING_ERROR
            assert outcome(line) == want, line[:80]


def test_the_record_path_does_not_use_the_bulk_decoder(monkeypatch):
    def refuse(line):
        raise AssertionError("the record path called the bulk decoder")

    with decoding_with("stdlib"):
        want = [outcome(line) for line in EDGE_LINES]
    monkeypatch.setattr(rollout_io, "_fast_loads", refuse)
    assert [outcome(line) for line in EDGE_LINES] == want


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
    with decoding_with(decoder):
        for frames in (0, 5, 10, 100):
            assert _at_depth(frames, lambda: outcome(too_deep)) == NESTING_ERROR
            assert _at_depth(frames, lambda: outcome(over)) == NESTING_ERROR
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
    got, want = orjson.loads(text.encode()), json.loads(text)
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
    # a length-only group whose other responses carry ratios the record rules refuse
    + [group(ratio=value).replace(', "ratios": [0.9, 1.0]', "") for value in ("0.0", "-1.0", "NaN")]
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


@pytest.mark.parametrize("read_buffer", [1, 300, 16384])
@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("source", ["edge", "columns", "faulty", "golden-dump"])
def test_group_columns_match_the_record_path(tmp_path, monkeypatch, source, decoder, read_buffer):
    # each line must give the record path's group or error, in line order,
    # whether it spans many refills of the read buffer or fits in one
    monkeypatch.setattr(rollout_io, "_READ_BUFFER", read_buffer)
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


@pytest.mark.parametrize("decoder", DECODERS)
def test_a_non_ascii_line_is_accepted_in_bulk(tmp_path, monkeypatch, decoder):
    calls = []
    monkeypatch.setattr(rollout_io, "parse_rollout_line", lambda *args: calls.append(args))
    path = tmp_path / "log.jsonl"
    path.write_text(group(prompt='"\u00e9t\u00e9"') + "\n", encoding="utf-8")
    with decoding_with(decoder):
        (line_no, prompt_id, *_), = read_group_columns(path)
    assert (line_no, prompt_id, calls) == (1, "\u00e9t\u00e9", [])


@pytest.mark.parametrize("decoder", DECODERS)
def test_a_float_version_line_is_accepted_in_bulk(tmp_path, monkeypatch, decoder):
    # "v": 1.0 is version 1 to the one header reader, as to the record path
    calls = []
    monkeypatch.setattr(rollout_io, "parse_rollout_line", lambda *args: calls.append(args))
    path = tmp_path / "log.jsonl"
    path.write_text(group().replace('"v": 1', '"v": 1.0') + "\n", encoding="utf-8")
    with decoding_with(decoder):
        (line_no, prompt_id, *_), = read_group_columns(path)
    assert (line_no, prompt_id, calls) == (1, "p0", [])


def _padded(brackets: int) -> str:
    """``group()`` with exactly ``brackets`` "[" and "{" bytes: openers alone
    inside a string value, the rest nested 100 deep in an ignored key."""
    in_string = brackets - (group().count("[") + group().count("{")) - 100
    pad = "[{" * (in_string // 2) + "[" * (in_string % 2)
    return '{"pad": "' + pad + '", "deep": ' + "[" * 100 + "]" * 100 + ", " + group()[1:]


@pytest.mark.parametrize("decoder", DECODERS)
def test_the_bulk_decoder_takes_lines_below_the_nesting_limit_alone(tmp_path, decoder):
    # the guard counts every "[" and "{" byte, those in strings included,
    # and hands the bulk decoder only a line with fewer than MAX_NESTING
    below, at = _padded(rollout_io.MAX_NESTING - 1), _padded(rollout_io.MAX_NESTING)
    assert [line.count("[") + line.count("{") for line in (below, at)] == [511, 512]
    path = tmp_path / "log.jsonl"
    path.write_text(below + "\n" + at + "\n", encoding="utf-8")
    with decoding_with("stdlib"):
        want = _events(read_rollouts, path)
    decoded = []
    with decoding_with(decoder):
        bulk = rollout_io._orjson() or rollout_io._stdlib_loads

        def recorder(raw):
            decoded.append(raw)
            return bulk(raw)

        rollout_io._fast_loads = recorder  # decoding_with restores it
        got = _events(read_group_columns, path)
    assert decoded == [below.encode() + b"\n"]
    assert got == want and [e[:2] for e in got] == [("group", 1), ("group", 2)]


def test_group_columns_yield_each_lines_ratios_as_one_float64_array(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join([group(), group(ratio="2.5"), record()]) + "\n", encoding="utf-8")
    (_, *_, first), (_, *_, second), (_, *_, length_only) = read_group_columns(path)
    assert first.dtype == np.float64 and first.tolist() == [1.0, 1.1, math.exp(-0.25), 0.9, 1.0]
    assert second.dtype == np.float64 and second[0] == 2.5 and not np.shares_memory(first, second)
    assert length_only is None


def _wide_ints_one_ulp_off(raw: bytes):
    """json.loads of ``raw``, except that an integer literal from 2**63 in
    magnitude up to the float range reads as the float one ulp beyond
    ``float(int)``, away from zero: a decoder that the 2**63 bound of the
    fast check must send to the record path."""
    def parse_int(text: str):
        value = int(text)
        if abs(value) < 2**63:
            return value
        try:
            wide = float(value)
        except OverflowError:
            return value
        return math.nextafter(wide, math.copysign(math.inf, wide))

    return json.loads(raw, parse_int=parse_int)


def test_a_wide_integer_read_as_another_float_goes_to_the_record_path(tmp_path, monkeypatch):
    # orjson 3.8 rounds such integers as float(int) does, so only a decoder
    # that reads them otherwise shows that the bound is applied
    good = [group(reward=r) for r in ("1.0", "0.0", "0.5", "0.25")]
    wide = [group(**{field: value}) for field in ("eps", "reward", "ratio", "logp_new", "logp_old")
            for value in WIDE_INTS]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(good + wide + good) + "\n", encoding="utf-8")
    with decoding_with("stdlib"):
        want = _events(read_rollouts, path)
    monkeypatch.setattr(rollout_io, "_fast_loads", _wide_ints_one_ulp_off)
    assert _events(read_group_columns, path) == want
    assert sum(e[0] == "group" for e in want) > len(good) * 2  # some wide values are valid


def test_the_column_reader_holds_one_line_at_a_time(tmp_path, monkeypatch):
    taken = []
    raw_lines = rollout_io._raw_lines

    def counted(fh):
        for line in raw_lines(fh):
            taken.append(line)
            yield line

    monkeypatch.setattr(rollout_io, "_raw_lines", counted)
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(group(reward=r) for r in ("1.0", "0.0", "0.5")) + "\n", encoding="utf-8")
    read = read_group_columns(path)
    assert next(read)[0] == 1
    assert len(taken) == 1
    read.close()


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


# --- worker processes ---

@contextlib.contextmanager
def in_workers(span_bytes: int):
    """read_group_columns checks any regular file in two worker processes,
    in spans that first reach ``span_bytes``; 1 makes every line a span."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rollout_io, "_PARALLEL_BYTES", 0)
        m.setattr(rollout_io, "_SPAN_BYTES", span_bytes)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield


def _children() -> list[int]:
    """The processes under /proc whose parent is this one."""
    kids = []
    for stat_file in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat_file.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while it was listed
        if int(fields[1]) == os.getpid():
            kids.append(int(stat_file.parent.name))
    return kids


def _assert_no_worker_left():
    assert multiprocessing.active_children() == []
    assert _children() == []


@pytest.fixture(params=[1, 4096], ids=["span-1B", "span-4KiB"])
def workers(request, monkeypatch):
    """Every read in the test goes through worker processes (and at least
    one does); none is left running after it."""
    pools = []
    spawn = rollout_io._columns_in_workers

    def counted(*args):
        pools.append(args)
        return spawn(*args)

    monkeypatch.setattr(rollout_io, "_columns_in_workers", counted)
    with in_workers(request.param):
        yield
    assert pools
    _assert_no_worker_left()


@pytest.mark.parametrize("read_buffer", [1, 300, 16384])
@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("source", ["edge", "columns", "faulty", "golden-dump"])
def test_group_columns_in_workers_match_the_record_path(workers, tmp_path, monkeypatch, source, decoder,
                                                        read_buffer):
    test_group_columns_match_the_record_path(tmp_path, monkeypatch, source, decoder, read_buffer)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_workers_split_lines_as_the_line_pass_does(workers, tmp_path, end):
    lines = [group(reward=r) for r in ("1.0", "0.0", "0.5")] + ["", " \t", group(reward="0.25"), "   "]
    not_utf8 = group(prompt='"x"').encode().replace(b'"x"', b'"x\xff"')
    data = end.join(lines).encode() + end.encode() + not_utf8 + end.encode() + group(reward="0.75").encode()
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    want = _events(read_rollouts, path)
    assert [e[:3] for e in want] == [("group", 1, "p0"), ("group", 2, "p0"), ("group", 3, "p0"),
                                     ("group", 6, "p0"), ("error", "MalformedLineError", 8), ("group", 9, "p0")]
    assert _events(read_group_columns, path) == want


FAULTY = DATA / "faulty_rollouts.jsonl"


@pytest.mark.parametrize("span_bytes", [1, 4096])
@pytest.mark.parametrize("window", [1, 3, 16])
def test_analyze_in_workers_gives_the_serial_bytes(tmp_path, capsys, window, span_bytes):
    out = tmp_path / "out"

    def analyze():
        code = main(["analyze", "--input", str(FAULTY), "--out", str(out), "--window", str(window)])
        captured = capsys.readouterr()
        files = {name: (out / name).read_bytes() for name in ("analysis.csv", "regime.txt")}
        shutil.rmtree(out)
        return code, captured.out, captured.err, files

    serial = analyze()
    with in_workers(span_bytes):
        assert analyze() == serial
    assert serial[0] == 0 and serial[2].count("error: line") == 3


@pytest.mark.parametrize("span_bytes", [1, 4096])
def test_analyze_in_workers_evaluates_nothing_in_this_process(tmp_path, capsys, monkeypatch, span_bytes):
    # the workers, forked from this process, inherit the patch but not its pid
    out = tmp_path / "out"
    pid, rule_sums = os.getpid(), FlatBatch.rule_sums

    def rule_sums_elsewhere(self, clip):
        assert os.getpid() != pid, "rule_sums ran in the main process"
        return rule_sums(self, clip)

    def analyze():
        code = main(["analyze", "--input", str(FAULTY), "--out", str(out), "--window", "2"])
        captured = capsys.readouterr()
        files = {name: (out / name).read_bytes() for name in ("analysis.csv", "regime.txt")}
        shutil.rmtree(out)
        return code, captured.out, captured.err, files

    serial = analyze()
    monkeypatch.setattr(FlatBatch, "rule_sums", rule_sums_elsewhere)
    with in_workers(span_bytes):
        assert analyze() == serial
    with pytest.raises(AssertionError, match="rule_sums ran in the main process"):
        analyze()
    assert serial[0] == 0 and serial[3]["analysis.csv"] == (GOLDEN / "analysis.csv").read_bytes()


def _log_of(path: Path, lines: int) -> Path:
    path.write_text("".join(f"{group(reward=str(i % 4 / 4))}\n" for i in range(lines)), encoding="utf-8")
    return path


def test_a_read_error_in_the_line_pass_comes_after_the_groups_in_workers(workers, tmp_path, monkeypatch):
    raw_lines = rollout_io._raw_lines

    def failing_lines(fh):
        yield from islice(raw_lines(fh), 3)
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(rollout_io, "_raw_lines", failing_lines)
    read = read_group_columns(_log_of(tmp_path / "log.jsonl", 40))
    assert [next(read)[0] for _ in range(3)] == [1, 2, 3]
    with pytest.raises(OSError, match="Input/output error"):
        next(read)


@pytest.mark.parametrize("pass_lines, most", [
    pytest.param(lambda fh: [b"".join(fh)], 0, id="one-line"),
    pytest.param(lambda fh: chain(fh, [f"{group()}\n".encode()]), 40, id="short"),
])
def test_a_span_that_reads_back_otherwise_is_a_read_error(workers, tmp_path, monkeypatch, pass_lines, most):
    # the line pass reads lines that the file does not hold (its 40 lines
    # as one, or a 41st): the groups of the spans before the first such
    # span come, then an OSError, never another group
    monkeypatch.setattr(rollout_io, "_raw_lines", pass_lines)
    path = _log_of(tmp_path / "log.jsonl", 40)
    got = []
    with pytest.raises(OSError, match=r"^lines \d+-\d+ read back as \d+ lines of \d+ bytes$"):
        for item in read_group_columns(path):
            got.append(item[0])
    assert got == list(range(1, len(got) + 1)) and len(got) <= most
    # in this process, as a worker reads a span back: the log's own 40
    # lines, then the lines that the line pass reads
    data = path.read_bytes()
    passed = list(pass_lines(data.splitlines(keepends=True)))
    with path.open("rb") as fh:
        whole = rollout_io._span_columns(fh.fileno(), 1, 0, len(data), 40, 0.0, None)
        assert [item[0] for item in whole] == list(range(1, 41))
        with pytest.raises(OSError, match=rf"^lines 1-{len(passed)} read back as \d+ lines of \d+ bytes$"):
            rollout_io._span_columns(fh.fileno(), 1, 0, sum(map(len, passed)), len(passed), 0.0, None)


def _full_read(path):
    assert len(list(read_group_columns(path))) == 40


def _closed_after_one(path):
    read = read_group_columns(path)
    assert next(read)[0] == 1
    read.close()


def _strict_error(path):
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{\n")
    with pytest.raises(RolloutLogError, match="line 41: invalid JSON"):
        list(read_group_columns(path))


def _read_error(path):
    raw_lines = rollout_io._raw_lines

    def failing_lines(fh):
        yield from islice(raw_lines(fh), 20)
        raise OSError(5, "Input/output error")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rollout_io, "_raw_lines", failing_lines)
        with pytest.raises(OSError, match="Input/output error"):
            list(read_group_columns(path))


def _interrupted(path):
    # the log's 40 lines are three spans: the next two are in flight
    read = read_group_columns(path)
    assert next(read)[0] == 1
    with pytest.raises(KeyboardInterrupt):
        read.throw(KeyboardInterrupt)


@pytest.mark.parametrize("read", [_full_read, _closed_after_one, _strict_error, _read_error, _interrupted],
                         ids=["full", "close", "strict-error", "read-error", "interrupted"])
def test_no_worker_is_left_running(tmp_path, read):
    with in_workers(4096):
        read(_log_of(tmp_path / "log.jsonl", 40))
    _assert_no_worker_left()


# Runs in a child: reads the log of argv[1] in two worker processes, one
# span a line, closes the reader after its first group and prints that
# group's line number, the seconds the close took and the processes left
# whose parent is the child.
CLOSE_WITH_REPLIES_UNREAD = """
import json, os, sys, time
from pathlib import Path
from grpoagg import rollout_io

rollout_io._PARALLEL_BYTES = 0
rollout_io._SPAN_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1}
read = rollout_io.read_group_columns(sys.argv[1])
first = next(read)[0]
start = time.monotonic()
read.close()
seconds = time.monotonic() - start

def parent_of(stat):
    try:
        return int(stat.read_text().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError):
        return None  # the process ended while it was listed

left = [p.parent.name for p in Path("/proc").glob("[0-9]*/stat") if parent_of(p) == os.getpid()]
print(json.dumps({"first": first, "seconds": seconds, "left": left}))
"""


def test_closing_the_reader_ends_workers_blocked_on_a_reply(tmp_path):
    # every span's reply is larger than a pipe holds, so when the reader is
    # closed after its first group, the workers of the spans in flight are
    # blocked writing theirs, with nobody reading: closing the reply pipes
    # must end them at once. Run in a child, so that a hang is a timeout.
    responses = [{"tokens": [1] * 10_000, "reward": reward, "ratios": [1.0] * 10_000} for reward in (0.0, 1.0)]
    line = json.dumps({"prompt_id": "p0", "responses": responses}) + "\n"
    path = tmp_path / "log.jsonl"
    path.write_text(line * 12, encoding="utf-8")
    with path.open("rb") as fh:
        reply = rollout_io._span_columns(fh.fileno(), 1, 0, len(line), 1, 0.0, None)
    assert len(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)) > 1 << 16  # a pipe's default capacity
    src = str(Path(rollout_io.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CLOSE_WITH_REPLIES_UNREAD, str(path)], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert (got["first"], got["left"]) == (1, [])
    assert got["seconds"] < 5


def test_a_worker_exception_reaches_the_caller(tmp_path, monkeypatch):
    # a worker, which ignores SIGINT, fails on the span of line 21 with an
    # exception of its own: the groups of lines 1-20 come, then that
    # exception as its own type, and no worker is left running
    span_columns = rollout_io._span_columns

    def failing_span_columns(fd, first, *rest):
        if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
            raise AssertionError("the span was read by a process that takes SIGINT")
        if first == 21:
            raise MemoryError("no room for the span of line 21")
        return span_columns(fd, first, *rest)

    monkeypatch.setattr(rollout_io, "_span_columns", failing_span_columns)
    got = []
    with in_workers(1), pytest.raises(MemoryError, match="^no room for the span of line 21$"):
        for item in read_group_columns(_log_of(tmp_path / "log.jsonl", 40)):
            got.append(item[0])
    assert got == list(range(1, 21))
    _assert_no_worker_left()


def test_a_span_sent_to_an_ended_worker_is_the_worker_error(tmp_path, monkeypatch):
    # the worker of line 1's span ends at once, and line 3's span is sent
    # to it after that: the pipe it was sent on is broken, but the error is
    # the one of the first span left without a reply, and no worker is left
    span_columns, spans, pid = rollout_io._span_columns, rollout_io._spans, os.getpid()

    def ending_span_columns(fd, first, *rest):
        if first == 1 and os.getpid() != pid:
            os._exit(1)
        return span_columns(fd, first, *rest)

    def late_spans(lines):
        for index, span in enumerate(spans(lines)):
            if index == 2:
                time.sleep(0.2)  # the worker of line 1's span has ended
            yield span

    monkeypatch.setattr(rollout_io, "_span_columns", ending_span_columns)
    monkeypatch.setattr(rollout_io, "_spans", late_spans)
    with in_workers(1), pytest.raises(OSError, match="^a worker process ended$"):
        next(read_group_columns(_log_of(tmp_path / "log.jsonl", 40)))
    _assert_no_worker_left()


# --- where the line-by-line path must run ---

def _refuse_workers(*args):
    raise AssertionError("read_group_columns started worker processes")


def _reads_here(monkeypatch, path) -> list:
    """The events of read_group_columns on ``path``, which must start no
    worker process, against those of the record path."""
    monkeypatch.setattr(rollout_io, "_columns_in_workers", _refuse_workers)
    return _events(read_group_columns, path)


def test_a_fifo_is_read_here(tmp_path, monkeypatch):
    # a FIFO cannot be read back by span, however large
    regular = _log_of(tmp_path / "log.jsonl", 40)
    fifo = tmp_path / "log.fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(rollout_io, "_PARALLEL_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)  # the feeding thread aside

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(regular.read_bytes())

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        got = _reads_here(monkeypatch, fifo)
    finally:
        feeder.join(timeout=30)
    assert not feeder.is_alive()
    assert got == _events(read_rollouts, regular) and len(got) == 40


def test_one_cpu_reads_here(tmp_path, monkeypatch):
    monkeypatch.setattr(rollout_io, "_PARALLEL_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    path = _log_of(tmp_path / "log.jsonl", 40)
    assert _reads_here(monkeypatch, path) == _events(read_rollouts, path)


def test_a_log_below_the_threshold_is_read_here(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = _log_of(tmp_path / "log.jsonl", 40)
    assert 0 < path.stat().st_size < rollout_io._PARALLEL_BYTES
    assert _reads_here(monkeypatch, path) == _events(read_rollouts, path)


def test_without_orjson_the_bulk_decoder_is_json_loads(monkeypatch):
    monkeypatch.setitem(sys.modules, "orjson", None)  # import orjson raises ImportError
    monkeypatch.setattr(rollout_io, "_fast_loads", rollout_io._UNRESOLVED)
    assert rollout_io._orjson() is None
    assert rollout_io._fast_loads is None
