"""JSONL rollout-log ingestion and CSV metric emission.

Rollout logs are line-delimited JSON, one group per line:

    {"v": 1, "group_id": "g0", "prompt_id": "p0", "eps_var": 0.0,
     "responses": [{"tokens": [3, 1, 0], "reward": 1.0,
                    "ratios": [1.0, 0.98, 1.03]}, ...]}

``v`` defaults to 1 when absent. Each response supplies ``tokens`` or a bare
``token_count``, a ``reward``, optionally ``ratios`` or a ``logp_new``/
``logp_old`` pair (from which ratios are derived), and ``"truncated": true``
when it hit the length limit. Records with only token counts are
"length-only": they support length and advantage diagnostics but not
objective evaluation. Both readers check the line header in ``_line_fields``;
every field rule belongs to ``groups.Response`` and ``groups.RolloutGroup``,
whose errors come back as RecordValidationError naming the line and response.

``read_rollouts`` yields one validated RolloutGroup per line; it is the
exact reference reader. ``read_group_columns`` is the fast one: it yields
the same groups as plain columns, one tuple per line, for callers that
evaluate many groups at once. It checks each line (a large log's in worker
processes, a span of lines each) with ``groups.group_columns``, which turns
the line's ratios into one float64 array of its own, and parses only a line
those checks do not accept with ``parse_rollout_line``, so both readers
accept the same groups with the same values and report the same errors in
the same order.

Each reader has one decode path. The fast check decodes a line with fewer
than 512 "[" and "{" from its raw bytes: with ``orjson`` when it is
installed (imported on the first decode, not with the package) and with
``json.loads`` of its UTF-8 text otherwise. Every value kept from it is
type- and range-checked, so a value that orjson reads differently from
json.loads (an integer beyond 64 bits, which orjson 3.8 reads as a float)
sends the line to the record parser, as does any line the fast check does
not accept. The record parser decodes with ``json.loads`` alone, so every
value and every error text is the standard library's. The one exception is
a line nested deeper than ``MAX_NESTING`` (512) levels outside its strings:
it is invalid JSON, "nesting deeper than 512 levels", whatever the caller's
stack depth, where json.loads' own recursion limit would count the caller's
frames too.

Metrics go to CSV with a fixed header and floats rendered with 10
significant digits, so a given record stream always produces byte-identical
output.
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import re
import signal
import stat
import struct
import threading
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .groups import Response, RolloutGroup, group_columns

__all__ = [
    "METRIC_FIELDS",
    "MetricRecord",
    "RolloutLogError",
    "MalformedLineError",
    "RecordValidationError",
    "parse_rollout_line",
    "read_rollouts",
    "read_group_columns",
    "write_rollouts",
    "group_to_dict",
    "write_metrics",
    "format_metrics",
    "read_metrics",
]

METRIC_FIELDS = (
    "step",
    "rule",
    "objective",
    "pg_loss",
    "len_cv",
    "len_gap",
    "tbar_pos",
    "tbar_neg",
    "mean_reward",
    "k_mean",
    "clip_fraction",
)
METRIC_HEADER = ",".join(METRIC_FIELDS) + "\n"


class RolloutLogError(ValueError):
    """Base class for rollout-log failures: a line that does not parse, or a
    group that a reader's ``evaluate`` refuses; carries the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class MalformedLineError(RolloutLogError):
    """A line is not valid JSON or not an object."""


class RecordValidationError(RolloutLogError):
    """A parsed record violates the rollout schema."""


@dataclass(frozen=True)
class MetricRecord:
    """One (step, rule) row of the metric CSV; None renders as an empty field."""

    step: int
    rule: str
    objective: float | None
    pg_loss: float | None
    len_cv: float | None
    len_gap: float | None
    tbar_pos: float | None
    tbar_neg: float | None
    mean_reward: float | None
    k_mean: float | None
    clip_fraction: float | None

    def __post_init__(self) -> None:
        for name in METRIC_FIELDS[2:]:
            v = getattr(self, name)
            if v is not None and not math.isfinite(float(v)):
                raise ValueError(f"metric field {name} is non-finite: {v!r}")


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{float(value):.10g}"


def format_metrics(records: Iterable[MetricRecord]) -> str:
    """The CSV rows of ``records``, each ending in a newline; no header."""
    return "".join(
        ",".join([str(rec.step), rec.rule] + [_fmt(getattr(rec, name)) for name in METRIC_FIELDS[2:]])
        + "\n"
        for rec in records
    )


def write_metrics(records: Sequence[MetricRecord], path: str | Path) -> None:
    """Write records to CSV, creating its directory; records must be ordered
    by non-decreasing step."""
    last = None
    for rec in records:
        if last is not None and rec.step < last:
            raise ValueError(
                f"records out of order: step {rec.step} after step {last}"
            )
        last = rec.step
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(METRIC_HEADER + format_metrics(records), encoding="utf-8")


def read_metrics(path: str | Path) -> list[MetricRecord]:
    """Parse a metric CSV written by write_metrics."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] + "\n" != METRIC_HEADER:
        raise ValueError(f"{path}: unexpected metric CSV header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(METRIC_FIELDS):
            raise ValueError(f"{path}: bad row {line!r}")
        values = [None if p == "" else float(p) for p in parts[2:]]
        records.append(MetricRecord(int(parts[0]), parts[1], *values))
    return records


# orjson.loads once resolved, or None without orjson; resolved on the first
# decode so that importing the package never loads orjson.
_UNRESOLVED = object()
_fast_loads = _UNRESOLVED
# orjson 3.8 has no nesting limit (a line nested ~10**5 deep crashes the
# process), while json.loads raises RecursionError once the nesting plus the
# caller's stack depth passes sys.getrecursionlimit(), 1000 by default.
# Nesting is at most the number of "[" and "{", the bytes x with x | 0x20 ==
# 0x7B, so the fast check, counting them in one numpy pass over the line's
# bytes, decodes no line with MAX_NESTING or more, and the record parser
# gives json.loads no line nested deeper than MAX_NESTING: such a line is
# invalid JSON ("nesting deeper than 512 levels") at any caller's depth.
MAX_NESTING = 512
# A JSON string (its escapes included), or a run of characters that are
# neither a quote nor a bracket.
_NOT_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"|[^"\[\]{}]+')


def _orjson():
    """orjson.loads, or None without orjson."""
    global _fast_loads
    if _fast_loads is _UNRESOLVED:
        try:
            from orjson import loads as _fast_loads
        except ImportError:
            _fast_loads = None
    return _fast_loads


def _stdlib_loads(raw: bytes | memoryview):
    return json.loads(str(raw, "utf-8"))


def _nesting(line: str) -> int:
    """The deepest nesting of "[" and "{" in ``line``, outside its strings."""
    depth = deepest = 0
    for bracket in _NOT_BRACKETS.sub("", line):
        if bracket in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif bracket in "]}":
            depth -= 1
    return deepest


def parse_rollout_line(
    line: str, line_no: int | None = None, default_eps_var: float = 0.0
) -> RolloutGroup:
    """Parse one JSONL line into a validated RolloutGroup.

    ``default_eps_var`` applies to groups without an explicit ``eps_var``
    field. The line number is attached to the group for provenance and to
    any error raised.
    """
    try:
        if line.count("[") + line.count("{") > MAX_NESTING and _nesting(line) > MAX_NESTING:
            raise ValueError(f"nesting deeper than {MAX_NESTING} levels")
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedLineError(f"line {line_no}: invalid JSON: {exc}", line_no) from exc
    prompt_id, raw_responses, eps_var, group_id = _line_fields(obj, line_no, default_eps_var)
    responses = []
    for idx, raw in enumerate(raw_responses):
        where = f"line {line_no}: response {idx}"
        if not isinstance(raw, dict):
            raise RecordValidationError(f"{where}: expected an object", line_no)
        try:
            responses.append(Response(
                tokens=raw.get("tokens"), reward=raw.get("reward"), ratios=raw.get("ratios"),
                logp_new=raw.get("logp_new"), logp_old=raw.get("logp_old"),
                token_count=raw.get("token_count"), truncated=raw.get("truncated", False),
            ))
        except (TypeError, ValueError) as exc:
            raise RecordValidationError(f"{where}: {exc}", line_no) from exc
    try:
        return RolloutGroup(
            prompt_id=prompt_id,
            responses=tuple(responses),
            eps_var=eps_var,
            group_id=group_id,
            source_line=line_no,
        )
    except (TypeError, ValueError) as exc:
        raise RecordValidationError(f"line {line_no}: {exc}", line_no) from exc


def _line_fields(obj, line_no: int | None, default_eps_var: float) -> tuple:
    """A decoded line's ``(prompt_id, responses, eps_var, group_id)``, once its header is checked."""
    if not isinstance(obj, dict):
        raise MalformedLineError(f"line {line_no}: expected a JSON object", line_no)
    version = obj.get("v", 1)
    if version != 1 or version is True:  # True == 1 in Python
        raise RecordValidationError(
            f"line {line_no}: unsupported schema version {version!r}", line_no
        )
    responses = obj.get("responses")
    if not isinstance(responses, list):
        raise RecordValidationError(f"line {line_no}: missing or non-list responses", line_no)
    return obj.get("prompt_id"), responses, obj.get("eps_var", default_eps_var), obj.get("group_id")


def read_rollouts(
    path: str | Path,
    default_eps_var: float = 0.0,
    on_error: Callable[[RolloutLogError], None] | None = None,
) -> Iterator[RolloutGroup]:
    """Stream validated groups from a JSONL file, one group per line.

    Only the current line and its group are held, so a caller that drops
    each group in turn reads a log of any length in bounded memory. Each
    line is read as ``_parse_raw`` reads it. An invalid line raises
    MalformedLineError / RecordValidationError with its 1-based line number
    or, when ``on_error`` is given, is passed to it and skipped.
    """
    with _open_log(path) as fh:
        lines = enumerate(_raw_lines(fh), 1)
        yield from _reported((_parse_raw(raw, line_no, default_eps_var) for line_no, raw in lines), on_error)


def _reported(items: Iterable, on_error: Callable[[RolloutLogError], None] | None) -> Iterator:
    """Each item of ``items`` other than None, in order; a RolloutLogError
    is raised or, when ``on_error`` is given, passed to it instead."""
    for item in items:
        if isinstance(item, RolloutLogError):
            if on_error is None:
                raise item
            on_error(item)
        elif item is not None:
            yield item


# Read buffer of a log: a line that fits in it is read in one pass.
_READ_BUFFER = 1 << 18


def _open_log(path: str | Path) -> io.BufferedReader:
    """The log opened for reading bytes through a ``_READ_BUFFER``-byte
    buffer; unlike ``open``, which reads a buffering of 1 as line buffering,
    every size is taken as bytes."""
    return io.BufferedReader(open(path, "rb", buffering=0), _READ_BUFFER)


def _raw_lines(fh) -> Iterator[bytes]:
    """Each line of a binary file with its end; as in text mode, a line ends
    at "\\n", "\\r\\n" or a lone "\\r"."""
    for chunk in fh:
        if b"\r" in chunk:
            yield from chunk.splitlines(keepends=True)
        else:
            yield chunk  # one line: reading bytes splits at "\\n" alone


def _parse_raw(raw: bytes | memoryview, line_no: int, default_eps_var: float) -> RolloutGroup | RolloutLogError | None:
    """``parse_rollout_line`` of one raw line, the RolloutLogError it
    raises, or None for a line that is whitespace only. A line that is not
    UTF-8 fails alone (MalformedLineError), and its end is given as "\\n", as
    text mode gives it."""
    try:
        line = _decode_line(raw, line_no)
        return None if line.isspace() else parse_rollout_line(line, line_no, default_eps_var)
    except RolloutLogError as exc:
        return exc


def _decode_line(raw: bytes | memoryview, line_no: int) -> str:
    """One line as text mode reads it: UTF-8, its line end (if any) as "\\n"."""
    try:
        line = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLineError(f"line {line_no}: not UTF-8: {exc}", line_no) from exc
    if line.endswith("\r"):
        return line[:-1] + "\n"
    if line.endswith("\r\n"):
        return line[:-2] + "\n"
    return line


def read_group_columns(
    path: str | Path,
    default_eps_var: float = 0.0,
    on_error: Callable[[RolloutLogError], None] | None = None,
    evaluate: Callable[[list[tuple]], list[tuple | RolloutLogError]] | None = None,
) -> Iterator[tuple]:
    """Stream a log's valid groups as columns, one tuple per group:
    ``(line_no, prompt_id, eps_var, rewards, lengths, ratios)``.

    ``rewards`` and ``lengths`` are lists, ``ratios`` one float64 array of
    the group's own, ordered by response and position, or None for a
    length-only group; every value is what the line's RolloutGroup holds.
    Each line is checked by ``_line_columns``, so the values, error texts
    and line numbers are the record API's. A regular file of
    ``_PARALLEL_BYTES`` or more is checked in spans of whole lines by a
    worker process per CPU in this process's affinity; at most
    ``_SPANS_PER_WORKER`` spans per worker are in flight, besides the one
    being yielded. Any other log is checked here, holding only the current
    line. Errors are raised or passed to ``on_error`` in line order, each
    when the groups of the lines before it have been yielded, as
    ``read_rollouts`` does; an OSError in reading the log's lines is raised
    after the items of every line read before it. Closing the generator
    closes the log and stops the workers.

    ``evaluate``, a function from a list of such tuples to one
    tuple or RolloutLogError per group that does not depend on the other
    groups, makes the reader yield its tuples instead, and treat its errors
    as a line's: without ``on_error``, the first group it refuses raises.
    It runs on each span's groups in the worker, or here on each run of
    lines that first holds ``_RUN_TOKENS`` tokens, so only one run of
    columns is held.
    """
    with _open_log(path) as fh:
        failures: list[OSError] = []
        lines = _until_failure(enumerate(_raw_lines(fh), 1), failures)
        info = os.fstat(fh.fileno())
        # fork copies only this thread; sched_getaffinity exists only where fork does
        parallel = stat.S_ISREG(info.st_mode) and info.st_size >= _PARALLEL_BYTES \
            and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
        workers = len(os.sched_getaffinity(0)) if parallel else 1
        if workers > 1:
            items = _columns_in_workers(fh.fileno(), lines, workers, default_eps_var, evaluate)
        else:
            items = _line_columns(_orjson() or _stdlib_loads, lines, default_eps_var)
            if evaluate is not None:
                items = _in_runs(items, evaluate)
        with closing(items):
            yield from _reported(items, on_error)
        if failures:
            raise failures[0]


def _until_failure(lines: Iterator[tuple[int, bytes]], failures: list[OSError]) -> Iterator[tuple[int, bytes]]:
    """The items of ``lines`` up to its OSError, if any, which goes to ``failures``."""
    try:
        yield from lines
    except OSError as exc:
        failures.append(exc)


def _line_columns(loads, lines: Iterable[tuple[int, bytes | memoryview]], default_eps_var: float) -> Iterator:
    """For each ``(line_no, raw)`` of ``lines``, its columns as read_group_columns
    yields them or its RolloutLogError, or nothing for a whitespace line.
    ``_line_fields`` and ``groups.group_columns`` check a decoded line without
    building a Response; a line they do not accept is parsed alone by ``_parse_raw``."""
    for line_no, raw in lines:
        brackets = np.count_nonzero((np.frombuffer(raw, np.uint8) | 32) == 123)
        try:
            fields = brackets < MAX_NESTING and _line_fields(loads(raw), line_no, default_eps_var)
        except (ValueError, RecursionError):  # a RolloutLogError too
            fields = None
        columns = fields and group_columns(*fields)
        if columns:
            yield line_no, fields[0], *columns
            continue
        group = _parse_raw(raw, line_no, default_eps_var)
        if isinstance(group, RolloutLogError):
            yield group
        elif group is not None:
            ratios = (np.fromiter(chain.from_iterable(r.ratios for r in group.responses), float, group.total_tokens)
                      if group.has_ratios else None)
            yield line_no, group.prompt_id, group.eps_var, list(group.rewards), list(group.lengths), ratios


# The serial reader's evaluated runs of lines hold at least this many tokens.
# On groups of 8 responses of 1-15 tokens, 8,192 adds 0.5 MB of peak RSS to
# runs of one line, and 32,768 adds 2.4 MB.
_RUN_TOKENS = 8192


def _in_runs(items: Iterator, evaluate: Callable[[list[tuple]], list[tuple | RolloutLogError]]) -> Iterator:
    """``_evaluated`` of each run of ``items`` that first holds
    ``_RUN_TOKENS`` tokens, and of the rest."""
    run: list = []
    tokens = 0
    for item in items:
        run.append(item)
        tokens += sum(item[4]) if type(item) is tuple else 0
        if tokens >= _RUN_TOKENS:
            yield from _evaluated(run, evaluate)
            run, tokens = [], 0
    yield from _evaluated(run, evaluate)


def _evaluated(items: list, evaluate: Callable[[list[tuple]], list[tuple | RolloutLogError]]) -> list:
    """``items`` with its groups' columns replaced by what ``evaluate`` gives for them all."""
    groups = [item for item in items if type(item) is tuple]
    if not groups:
        return items
    rows = iter(evaluate(groups))
    return [next(rows) if type(item) is tuple else item for item in items]


# The workers pay off only on a large log: starting two and a first reply
# take about 8 ms, and each one's first span 7-22 ms more CPU than its later
# ones (an unforked process's first span costs about as much more). On a
# 2-CPU host the bench's analyze-short log (7.95 MiB) reads 1.13-1.40 M
# tokens/s through the workers against 0.85-0.91 M serially (bench/run.py,
# 5 pairs).
# A span is a run of whole lines that first reaches _SPAN_BYTES.
_PARALLEL_BYTES = 5 << 20
_SPAN_BYTES = 1 << 20
_SPANS_PER_WORKER = 2
_TASK = struct.Struct("4q")  # a span as _spans gives it, as sent to a worker


def _columns_in_workers(fd: int, lines: Iterable[tuple[int, bytes]], workers: int, default_eps_var: float,
                        evaluate: Callable[[list[tuple]], list[tuple | RolloutLogError]] | None):
    """``_line_columns`` of ``lines``, of the log open at ``fd``, from ``workers``
    forked processes that each read back a span at a time and, given
    ``evaluate``, evaluate its groups; span i goes to worker i % ``workers``.
    A worker that ends abruptly is an OSError, raised in place of the first
    span it leaves without a reply."""
    _orjson()  # resolved before the fork, so that every worker inherits it
    children: list[tuple[int, io.FileIO, io.BufferedReader]] = []
    try:
        for _ in range(workers):
            children.append(_fork_worker(fd, default_eps_var, evaluate, children))
        sent: deque = deque()
        for index, span in enumerate(_spans(lines)):
            _, tasks, replies = children[index % workers]
            with suppress(BrokenPipeError):  # the worker has ended: its replies end too
                tasks.write(_TASK.pack(*span))
            sent.append(replies)
            if len(sent) > _SPANS_PER_WORKER * workers:
                yield from _reply(sent.popleft())
        while sent:
            yield from _reply(sent.popleft())
    finally:  # ends a worker blocked on sending a reply, then one waiting for a span
        for pipe in [replies for *_, replies in children] + [tasks for _, tasks, _ in children]:
            pipe.close()
        for pid, *_ in children:
            os.waitpid(pid, 0)


def _fork_worker(fd: int, default_eps_var: float, evaluate, others: list) -> tuple[int, io.FileIO, io.BufferedReader]:
    """A forked worker's pid, task pipe and reply pipe. Until its task pipe ends it
    replies to each span with ``_span_columns`` or the exception that raises,
    pickled, after their size. It ignores SIGINT and leaves only by ``os._exit``."""
    task_read, task_write, reply_read, reply_write = ends = os.pipe() + os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for end in ends:
            os.close(end)
        raise
    if pid:
        os.close(task_read)
        os.close(reply_write)
        return pid, open(task_write, "wb", buffering=0), open(reply_read, "rb")
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for end in [task_write, reply_read, *chain.from_iterable((t.fileno(), r.fileno()) for _, t, r in others)]:
            os.close(end)
        buffer = bytearray()  # every span is read into it
        with open(task_read, "rb") as tasks, open(reply_write, "wb") as replies:
            while task := tasks.read(_TASK.size):
                try:
                    reply = _span_columns(fd, *_TASK.unpack(task), default_eps_var, evaluate, buffer)
                except Exception as exc:
                    reply = exc
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                replies.write(len(data).to_bytes(8, "little") + data)
                replies.flush()
    finally:
        os._exit(0)


def _reply(replies: io.BufferedReader) -> list:
    """The items of a worker's next reply; an exception sent in their place
    is raised, and so is an OSError if the pipe ends first."""
    size = int.from_bytes(replies.read(8), "little")
    data = replies.read(size)
    if not data or len(data) < size:
        raise OSError("a worker process ended")
    reply = pickle.loads(data)
    if isinstance(reply, BaseException):
        raise reply
    return reply


def _spans(lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, int, int, int]]:
    """``(first line number, offset, size, number of lines)`` of each span of ``lines``."""
    before = offset = size = line_no = 0
    for line_no, raw in lines:
        size += len(raw)
        if size >= _SPAN_BYTES:
            yield before + 1, offset, size, line_no - before
            before, offset, size = line_no, offset + size, 0
    if line_no > before:
        yield before + 1, offset, size, line_no - before


def _span_columns(fd: int, first: int, offset: int, size: int, count: int, default_eps_var: float,
                  evaluate: Callable[[list[tuple]], list[tuple | RolloutLogError]] | None,
                  buffer: bytearray) -> list:
    """A worker's ``_line_columns`` of a span read back from ``fd`` into
    ``buffer``, which grows only when the span does not fit in it; given
    ``evaluate`` its ``_evaluated``: bytes that split into other lines than
    the line pass read are an OSError. A span's lines are split as
    ``_raw_lines`` splits them, from the bytes read alone, and decoded in
    place as views of ``buffer`` (from a copy if the span holds a "\\r");
    every view is released before this returns or raises, so no item holds
    one and ``buffer`` can grow again."""
    if len(buffer) < size:
        buffer.extend(bytes(size - len(buffer)))
    views: list[memoryview] = []
    with memoryview(buffer) as whole:
        try:
            read = os.preadv(fd, [whole[:size]], offset)
            if buffer.find(b"\r", 0, read) < 0:
                start = 0
                while start < read:
                    end = buffer.find(b"\n", start, read) + 1 or read
                    views.append(whole[start:end])
                    start = end
                lines: list = views
            else:  # "\r\n" and a lone "\r" end a line too
                lines = whole[:read].tobytes().splitlines(keepends=True)
            if read != size or len(lines) != count:
                raise OSError(f"lines {first}-{first + count - 1} read back as {len(lines)} lines of {read} bytes")
            items = list(_line_columns(_orjson() or _stdlib_loads, enumerate(lines, first), default_eps_var))
        finally:
            for view in views:
                view.release()
    return items if evaluate is None else _evaluated(items, evaluate)


def group_to_dict(group: RolloutGroup) -> dict:
    """Canonical JSON form of a group (fixed key order, floats via repr)."""
    responses = []
    for resp in group.responses:
        r: dict = {}
        if resp.tokens is not None:
            r["tokens"] = list(resp.tokens)
        else:
            r["token_count"] = resp.token_count
        r["reward"] = resp.reward
        if resp.ratios is not None:
            r["ratios"] = list(resp.ratios)
        if resp.logp_new is not None:
            r["logp_new"] = list(resp.logp_new)
            r["logp_old"] = list(resp.logp_old)
        if resp.truncated:
            r["truncated"] = True
        responses.append(r)
    out: dict = {"v": 1}
    if group.group_id is not None:
        out["group_id"] = group.group_id
    out["prompt_id"] = group.prompt_id
    out["eps_var"] = group.eps_var
    out["responses"] = responses
    return out


def write_rollouts(groups: Iterable[RolloutGroup], path: str | Path) -> None:
    """Write groups as canonical JSONL (the read_rollouts round-trip form),
    creating its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for group in groups:
            fh.write(json.dumps(group_to_dict(group), separators=(",", ":")))
            fh.write("\n")
