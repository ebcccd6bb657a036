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
objective evaluation. The parser checks only the line format; every field
rule belongs to ``groups.Response`` and ``groups.RolloutGroup``, whose errors
come back as RecordValidationError naming the line and response.

``read_rollouts`` yields one validated RolloutGroup per line.
``read_group_columns`` yields the same groups as plain columns, one tuple per
line, for callers that evaluate many groups at once. It reads the log in
batches of lines, checks each batch in bulk with ``groups.group_columns``
(every ratio of the batch converted to float64 and range-checked in one
numpy pass), and parses only a line those checks do not accept with
``parse_rollout_line``, so both readers accept the same groups with the same
values and report the same errors in the same order.

Lines are decoded with ``orjson`` when it is installed and with ``json``
otherwise, with the same result either way. ``read_group_columns`` hands a
line to orjson as raw bytes, with no text decode, when it starts with "{",
is ASCII and holds fewer than 512 "[" and "{". Every value kept from it is
type- and range-checked, so a value that orjson reads differently from
json.loads (an integer beyond 64 bits, which orjson 3.8 reads as a float)
sends the line to the record parser. Every other line, and every line of the record
API, is decoded as text by ``_loads``: a line that orjson rejects, or that
may hold an integer beyond 64 bits or 512 or more "[" and "{", is decoded by
``json.loads``, so every value and every error text is the standard
library's. The one exception is a line nested deeper than ``MAX_NESTING``
(512) levels outside its strings: it is invalid JSON, "nesting deeper than
512 levels", whatever the caller's stack depth, where json.loads' own
recursion limit would count the caller's frames too. orjson is imported on
the first decode, not with the package.

Metrics go to CSV with a fixed header and floats rendered with 10
significant digits, so a given record stream always produces byte-identical
output.
"""

from __future__ import annotations

import json
import math
import re
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
    """Base class for rollout-log parsing failures; carries the line number."""

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
# In the mask every ASCII digit is "0" and every "{" is "[". A run of 19
# digits (>= 10**18) that does not follow a digit or "." may be an integer
# beyond 64 bits, which orjson 3.8 reads as a float instead of an int.
_MASK = str.maketrans("123456789{", "000000000[")
_LONG_DIGITS = "0" * 19
# orjson 3.8 has no nesting limit (a line nested ~10**5 deep crashes the
# process), while json.loads raises RecursionError once the nesting plus the
# caller's stack depth passes sys.getrecursionlimit(), 1000 by default.
# Nesting is at most the number of "[" and "{", so a line with 512 or more
# of them is left to json.loads, and json.loads is given no line nested
# deeper than MAX_NESTING: such a line is invalid JSON ("nesting deeper than
# 512 levels") at any stack depth of the caller.
_MAX_FAST_OPENS = 512
MAX_NESTING = 512
# A JSON string (its escapes included), or a run of characters that are
# neither a quote nor a bracket.
_NOT_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"|[^"\[\]{}]+')


def _fast_safe(line: str) -> bool:
    """True when orjson gives json.loads' result for ``line`` or raises."""
    mask = line.translate(_MASK)
    if mask.count("[") >= _MAX_FAST_OPENS:
        return False
    at = mask.find(_LONG_DIGITS)
    while at >= 0:
        if at == 0 or mask[at - 1] not in "0.":
            return False
        at = mask.find(_LONG_DIGITS, at + 1)
    return True


def _orjson():
    """orjson.loads, or None without orjson."""
    global _fast_loads
    if _fast_loads is _UNRESOLVED:
        try:
            from orjson import loads as _fast_loads
        except ImportError:
            _fast_loads = None
    return _fast_loads


def _loads(line: str):
    """``json.loads(line)``, through orjson where that gives the same value;
    ValueError for a line nested deeper than MAX_NESTING."""
    fast = _orjson()
    if fast is not None and _fast_safe(line):
        try:
            return fast(line)
        except ValueError:
            pass  # json.loads raises the error whose text is reported
    if line.count("[") + line.count("{") > MAX_NESTING and _nesting(line) > MAX_NESTING:
        raise ValueError(f"nesting deeper than {MAX_NESTING} levels")
    return json.loads(line)


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
        obj = _loads(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedLineError(f"line {line_no}: invalid JSON: {exc}", line_no) from exc
    if not isinstance(obj, dict):
        raise MalformedLineError(f"line {line_no}: expected a JSON object", line_no)
    version = obj.get("v", 1)
    if version != 1 or version is True:  # True == 1 in Python
        raise RecordValidationError(
            f"line {line_no}: unsupported schema version {version!r}", line_no
        )
    raw_responses = obj.get("responses")
    if not isinstance(raw_responses, list):
        raise RecordValidationError(f"line {line_no}: missing or non-list responses", line_no)
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
            prompt_id=obj.get("prompt_id"),
            responses=tuple(responses),
            eps_var=obj.get("eps_var", default_eps_var),
            group_id=obj.get("group_id"),
            source_line=line_no,
        )
    except (TypeError, ValueError) as exc:
        raise RecordValidationError(f"line {line_no}: {exc}", line_no) from exc


def read_rollouts(
    path: str | Path,
    default_eps_var: float = 0.0,
    on_error: Callable[[RolloutLogError], None] | None = None,
) -> Iterator[RolloutGroup]:
    """Stream validated groups from a JSONL file, one group per line.

    Only the current line and its group are held, so a caller that drops
    each group in turn reads a log of any length in bounded memory. Lines
    are read as ``_text_lines`` reads them. An invalid line raises
    MalformedLineError / RecordValidationError with its 1-based line number
    or, when ``on_error`` is given, is passed to it and skipped.
    """
    for line_no, line in _text_lines(path, on_error):
        try:
            group = parse_rollout_line(line, line_no, default_eps_var)
        except RolloutLogError as exc:
            _pass_on(exc, on_error)
            continue
        yield group


def _pass_on(exc: RolloutLogError, on_error: Callable[[RolloutLogError], None] | None) -> None:
    if on_error is None:
        raise exc
    on_error(exc)


# Read buffer of a log: a line that fits in it is read in one pass.
_READ_BUFFER = 1 << 18


def _raw_lines(fh) -> Iterator[bytes]:
    """Each line of a binary file with its end; as in text mode, a line ends
    at "\\n", "\\r\\n" or a lone "\\r"."""
    for chunk in fh:
        if b"\r" in chunk:
            yield from chunk.splitlines(keepends=True)
        else:
            yield chunk  # one line: reading bytes splits at "\\n" alone


def _text_lines(path, on_error) -> Iterator[tuple[int, str]]:
    """Each line of a file that is not whitespace only, with its 1-based number.

    The file is read as bytes and decoded one line at a time, so a line that
    is not UTF-8 fails alone (MalformedLineError, raised or passed to
    ``on_error``). A line's end is given as "\\n", as text mode gives it.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        for line_no, raw in enumerate(_raw_lines(fh), 1):
            try:
                line = _decode_line(raw, line_no)
            except MalformedLineError as exc:
                _pass_on(exc, on_error)
                continue
            if not line.isspace():
                yield line_no, line


def _decode_line(raw: bytes, line_no: int) -> str:
    """One line as text mode reads it: UTF-8, its line end (if any) as "\\n"."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLineError(f"line {line_no}: not UTF-8: {exc}", line_no) from exc
    if line.endswith("\r"):
        return line[:-1] + "\n"
    if line.endswith("\r\n"):
        return line[:-2] + "\n"
    return line


# read_group_columns checks the lines of about this many bytes at once; a
# batch holds their bytes and decoded values, and one float64 array of
# their ratios.
_BATCH_BYTES = 1 << 14


def _raw_batches(fh) -> Iterator[list[tuple[int, bytes]]]:
    """The lines of a binary file with their 1-based numbers, in lists of
    at least ``_BATCH_BYTES`` bytes (the last may be shorter or empty). A
    read error is raised after the list of the lines read before it."""
    batch: list[tuple[int, bytes]] = []
    size = 0
    try:
        for line in enumerate(_raw_lines(fh), 1):
            batch.append(line)
            size += len(line[1])
            if size >= _BATCH_BYTES:
                yield batch
                batch, size = [], 0
    except OSError:
        yield batch
        raise
    yield batch


def read_group_columns(
    path: str | Path,
    default_eps_var: float = 0.0,
    on_error: Callable[[RolloutLogError], None] | None = None,
) -> Iterator[tuple]:
    """Stream a log's valid groups as columns, one tuple per group:
    ``(line_no, prompt_id, eps_var, rewards, lengths, ratios)``.

    ``rewards`` and ``lengths`` are lists, ``ratios`` one float64 array
    ordered by response and position, or None for a length-only group;
    every value is what the line's RolloutGroup holds. Lines are read in
    batches of about 16 KiB and checked a batch at a time by
    ``groups.group_columns``, which builds no Response; a line it does not
    accept is parsed from its text by ``parse_rollout_line`` alone, so the
    values, error texts and line numbers are the record API's. Errors are
    raised or passed to ``on_error`` in line order, each when the groups of
    the lines before it have been yielded, and a read error only after
    them, all as ``read_rollouts`` does. Closing the generator closes the
    log.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        for batch in _raw_batches(fh):
            fast = _orjson()
            lines = []  # per line: (line_no, raw, fields or None), or its error
            for line_no, raw in batch:
                if (
                    fast is not None
                    and raw[:1] == b"{"
                    and raw.isascii()
                    and raw.count(b"[") + raw.count(b"{") < _MAX_FAST_OPENS
                ):
                    fields = _line_fields(fast, raw, default_eps_var)
                else:
                    try:
                        text = _decode_line(raw, line_no)
                    except MalformedLineError as exc:
                        lines.append(exc)
                        continue
                    if text.isspace():
                        continue
                    # json.loads' recursion limit counts the caller's
                    # frames, so both decodes of a line run at the same
                    # call depth
                    fields = _line_fields(_loads, text, default_eps_var)
                lines.append((line_no, raw, fields))
            checked = iter(group_columns([line[2] for line in lines if type(line) is tuple and line[2]]))
            for line in lines:
                if type(line) is not tuple:
                    _pass_on(line, on_error)
                    continue
                line_no, raw, fields = line
                columns = fields and next(checked)
                if columns:
                    yield line_no, fields[0], *columns
                    continue
                try:
                    group = parse_rollout_line(_decode_line(raw, line_no), line_no, default_eps_var)
                except RolloutLogError as exc:
                    _pass_on(exc, on_error)
                    continue
                ratios = None
                if group.has_ratios:
                    ratios = np.fromiter(
                        chain.from_iterable(r.ratios for r in group.responses), float, group.total_tokens
                    )
                yield line_no, group.prompt_id, group.eps_var, list(group.rewards), list(group.lengths), ratios


def _line_fields(loads, line: str | bytes, default_eps_var: float) -> tuple | None:
    """A line's ``(prompt_id, responses, eps_var, group_id)`` as
    group_columns takes them, or None unless ``loads`` decodes it to an
    object of the line format."""
    try:
        obj = loads(line)
    except (ValueError, RecursionError):
        return None
    if type(obj) is not dict:
        return None
    version = obj.get("v", 1)
    responses = obj.get("responses")
    if not (type(version) is int and version == 1 and type(responses) is list):
        return None
    return obj.get("prompt_id"), responses, obj.get("eps_var", default_eps_var), obj.get("group_id")


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
