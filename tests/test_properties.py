"""Property tests: no drawn rollout record, log or simulator command line ends
in an undocumented error, and the flat rule-sums core equals its
per-response reference.

Records are drawn around the JSONL schema: well-formed fields next to wrong
types, booleans, strings, huge integers, extreme floats, nesting and missing
keys. Simulator command lines are drawn from tiny valid sizes next to zero,
negative, non-finite and oversized values.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from math import fsum
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from grpoagg.aggregate import RULES, ClipConfig, FlatBatch, compute_rule_sums, rule_table
from grpoagg.cli import main
from grpoagg.decompose import length_stats, pooled_mean, regime_report
from grpoagg.groups import (
    DegenerateGroupError,
    RolloutGroup,
    normalize_advantages,
    normalize_columns,
)
from grpoagg.rollout_io import (
    METRIC_HEADER,
    MetricRecord,
    RolloutLogError,
    format_metrics,
    parse_rollout_line,
    read_group_columns,
)

from conftest import (
    AVAILABLE_DECODERS,
    decoding_with,
    length_columns,
    reference_normalize,
    reference_ratio_gradients,
    reference_rule_sums,
    reference_rule_terms,
    sums_row,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

extreme_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1.0, 1e154, 1e300, 1.7976931348623157e308,
     -1e308, float("inf"), float("nan")]
)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    extreme_floats,
    st.integers(-3, 3),
    st.integers(min_value=10**300, max_value=10**400),
)
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), numbers),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
finite = st.floats(allow_nan=False, allow_infinity=False)
reals = st.one_of(st.floats(0.05, 20.0), finite, numbers, junk)
token_ids = st.one_of(st.integers(0, 9), st.floats(0.0, 3.0), junk)
counts = st.one_of(st.integers(-1, 40), st.just(1e200), st.just(2**53 + 1), junk)

# mostly ordinary values, now and then an extreme one
binary = st.sampled_from([0.0, 1.0])
eps_vars = st.sampled_from([0.0, 1e-6])
rewards = st.one_of(binary, binary, finite, extreme_floats)
ratios = st.one_of(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.05, 20.0), extreme_floats)
logps = st.one_of(st.floats(-20.0, 0.0), st.floats(-20.0, 0.0), finite, extreme_floats)


@st.composite
def well_typed_response(draw, with_ratios: bool):
    """Every field has the right type; values range up to the float extremes."""
    t = draw(st.integers(1, 4))
    resp = {"reward": draw(rewards)}
    if not with_ratios:
        resp["token_count"] = t
    elif draw(st.booleans()):
        resp["tokens"] = draw(st.lists(st.integers(0, 9), min_size=t, max_size=t))
        resp["ratios"] = draw(st.lists(ratios, min_size=t, max_size=t))
    else:
        resp["tokens"] = draw(st.lists(st.integers(0, 9), min_size=t, max_size=t))
        old = draw(st.lists(logps, min_size=t, max_size=t))
        steps = draw(st.lists(st.floats(-0.5, 0.5), min_size=t, max_size=t))
        resp["logp_old"], resp["logp_new"] = old, [o + d for o, d in zip(old, steps)]
    if draw(st.booleans()):
        resp["truncated"] = draw(st.booleans())
    return resp


@st.composite
def loose_response(draw):
    """Any field may be missing or of the wrong type."""
    t = draw(st.integers(1, 4))
    optional = {
        "tokens": st.lists(token_ids, min_size=t, max_size=t) | junk,
        "token_count": st.just(t) | counts,
        "ratios": st.lists(reals, min_size=t, max_size=t) | junk,
        "logp_new": st.lists(reals, min_size=t, max_size=t),
        "logp_old": st.lists(reals, min_size=t, max_size=t),
        "truncated": st.booleans() | junk,
    }
    return draw(st.fixed_dictionaries({}, optional={"reward": reals, **optional}) | junk)


@st.composite
def records(draw):
    """A group record: well-typed throughout, or with junk in any field."""
    if draw(st.integers(0, 2)):
        with_ratios = draw(st.integers(0, 3)) > 0
        return {
            "prompt_id": draw(st.text(max_size=3)),
            "eps_var": draw(st.one_of(eps_vars, eps_vars, extreme_floats)),
            "responses": draw(st.lists(well_typed_response(with_ratios), min_size=2, max_size=5)),
        }
    return draw(
        st.fixed_dictionaries(
            {"responses": st.lists(loose_response(), max_size=5) | junk},
            optional={
                "v": st.just(1) | junk,
                "prompt_id": st.text(max_size=3) | junk,
                "group_id": st.text(max_size=3) | junk,
                "eps_var": eps_vars | reals,
            },
        )
    )


# one line in eight is cut in half, which breaks its JSON
cuts = st.integers(0, 7).map(lambda i: i == 7)


def render(record, cut: bool) -> str:
    line = json.dumps(record)
    return line[: len(line) // 2] if cut else line


@SETTINGS
@given(record=records(), cut=cuts, line_no=st.integers(1, 10**6))
def test_parse_returns_a_group_or_a_rollout_log_error(record, cut, line_no):
    # the record path gives a group or an error naming the line; read as the
    # first line of a log under every available decoder, the line gives that
    # group's columns, ratio bits included, or that error
    line = render(record, cut) + "\n"
    error = ratios = None
    try:
        group = parse_rollout_line(line, line_no)
    except RolloutLogError as exc:
        assert exc.line_no == line_no
        assert str(exc).startswith(prefix := f"line {line_no}:")
        error = (type(exc), 1, "line 1:" + str(exc)[len(prefix):])
    else:
        assert isinstance(group, RolloutGroup)
        if group.has_ratios:
            ratios = np.array([r for resp in group.responses for r in resp.ratios], dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text(line, encoding="utf-8")
        for decoder in AVAILABLE_DECODERS:
            errors = []
            with decoding_with(decoder):
                columns = list(read_group_columns(path, on_error=errors.append))
            if error is not None:
                assert columns == [] and [(type(e), e.line_no, str(e)) for e in errors] == [error], decoder
                continue
            assert errors == [] and len(columns) == 1, decoder
            *fields, got = columns[0]
            want = [1, group.prompt_id, group.eps_var, list(group.rewards), list(group.lengths)]
            assert repr(fields) == repr(want), decoder
            if ratios is None:
                assert got is None, decoder
            else:
                assert got.dtype == np.float64 and got.tobytes() == ratios.tobytes(), decoder


def reference_analyze(lines: list[str], window: int, out: Path) -> dict:
    """What ``analyze --window W`` writes, one group at a time through the record API.

    Each line is parsed, normalised and evaluated before the next is read,
    and its error (if any) is reported at once; a full window's groups give
    its rows.
    """
    clip = ClipConfig()
    stderr, windows, kept = [], [], []
    degenerate = length_only = 0
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            group = parse_rollout_line(line + "\n", line_no)  # as read, with its line end
            try:
                adv, zero = normalize_advantages(group), False
            except DegenerateGroupError:
                adv, zero = [0.0] * group.size, True
            terms = None
            if group.has_ratios:
                try:
                    with np.errstate(over="ignore"):
                        sums = sums_row(compute_rule_sums(group, adv, clip))
                    objectives = [reference_rule_terms(rule, sums)[0] for rule in RULES]
                    if not all(map(math.isfinite, objectives)):
                        raise OverflowError
                except OverflowError:
                    raise ValueError(f"group {group.prompt_id!r}: an objective overflows a float") from None
                terms = (objectives, sums.clipped, sums.total_tokens)
        except RolloutLogError as exc:
            stderr.append(f"error: {exc}\n")
            continue
        except ValueError as exc:
            stderr.append(f"error: line {line_no}: {exc}\n")
            continue
        degenerate += zero
        length_only += terms is None
        kept.append((group, adv, terms))
        if len(kept) == window:
            windows.append(kept)
            kept = []
    windows += [kept] if kept else []
    if not windows:
        return {"code": 1, "stdout": "", "stderr": "".join(stderr) + "error: no groups parsed\n",
                "analysis.csv": None, "regime.txt": None}
    rows, regime = [], []
    for step, batch in enumerate(windows):
        groups, advs, terms = zip(*batch)
        evaluated = [t for t in terms if t is not None]
        tokens = sum(t[2] for t in evaluated)
        stats = length_stats(*length_columns(groups, advs))
        rows += [
            MetricRecord(
                step, rule, objective, None if objective is None else -objective,
                stats.len_cv, stats.len_gap, stats.tbar_pos, stats.tbar_neg,
                pooled_mean([r.reward for g in groups for r in g.responses]),
                fsum(sum(a > 0.0 for a in adv) for adv in advs) / len(advs),
                sum(t[1] for t in evaluated) / tokens if tokens else None,
            )
            for rule, objective in (
                (rule, pooled_mean([t[0][i] for t in evaluated]) if evaluated else None)
                for i, rule in enumerate(RULES)
            )
        ]
        gap = "n/a" if stats.len_gap is None else f"{stats.len_gap:.4f}"
        regime.append(f"window {step}: groups={len(groups)} len_cv={stats.len_cv:.4f} "
                      f"len_gap={gap} regime={regime_report(stats)}\n")
    groups, advs, _ = zip(*(g for batch in windows for g in batch))
    regime.append(f"overall: groups={len(groups)} regime={regime_report(length_stats(*length_columns(groups, advs)))}\n")
    notices = []
    if degenerate:
        notices.append(f"notice: {degenerate} degenerate group(s) treated as zero-advantage\n")
    if length_only:
        notices.append(f"notice: {length_only} length-only group(s); objectives skipped for them\n")
    wrote = f"wrote {out / 'analysis.csv'} and {out / 'regime.txt'}\n"
    return {"code": 0, "stdout": "".join(notices + regime) + wrote, "stderr": "".join(stderr),
            "analysis.csv": METRIC_HEADER + format_metrics(rows), "regime.txt": "".join(regime)}


good = {"tokens": [1, 0], "reward": 1.0, "ratios": [1.0, 0.9]}
bad = dict(good, reward=0.0)
# lines the bulk checks of the window reader leave to the record validator,
# lines that fail exactly one of those checks, and a group whose objective
# overflows, which a window must refill
EXCEPTIONAL = [
    {"prompt_id": "zero", "responses": [dict(good, ratios=[0.0, 1.0]), bad]},
    {"prompt_id": "ints", "responses": [dict(good, ratios=[1, 2], reward=1), dict(bad, reward=0)]},
    {"prompt_id": "tiny", "responses": [dict(good, logp_new=[-800.0, 0.0], logp_old=[0.0, 0.0]), bad]},
    {"prompt_id": "huge", "responses": [dict(good, logp_new=[800.0, 0.0], logp_old=[0.0, 0.0]), bad]},
    {"prompt_id": "long", "responses": [{"token_count": 2**53 + 1, "reward": 1.0}, {"token_count": 2, "reward": 0.0}]},
    {"prompt_id": "eps", "eps_var": -1e-300, "responses": [good, bad]},
    {"prompt_id": "floats", "responses": [dict(good, tokens=[1.0, 0.0]), bad]},
    {"prompt_id": "count", "responses": [{"token_count": 3.0, "reward": 1.0}, {"token_count": 2, "reward": 0.0}]},
    {"prompt_id": "both", "responses": [good, dict(bad, tokens=[2, 2, 0], token_count=3, ratios=[1, 1, 1])]},
    {"prompt_id": "pair", "responses": [dict(good, logp_new=[-1.0, -2.0], logp_old=[-1.0, -1.5]),
                                        dict(bad, ratios=[1.0, 1.0], logp_new=[-0.5, -0.5], logp_old=[-0.5, -0.5])]},
    {"prompt_id": "overflow", "responses": [good] * 9 + [{"tokens": [1], "reward": 0.0, "ratios": [1e308]}]},
    {"prompt_id": "plain", "responses": [good, bad]},
]
drawn_line = st.tuples(records(), cuts).map(lambda rc: render(*rc))
# three in four lines are drawn records, one in four is exceptional or blank
log_lines = st.one_of(
    drawn_line,
    drawn_line,
    drawn_line,
    st.sampled_from([json.dumps(record) for record in EXCEPTIONAL] + ["", "  ", "[1]"]),
)


@SETTINGS
@given(log=st.lists(log_lines, min_size=1, max_size=8), window=st.integers(1, 4))
def test_analyze_exits_zero_or_one_and_reports_lines(log, window):
    # under every available decoder, analyze writes what the record API's
    # group-at-a-time loop gives
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("".join(line + "\n" for line in log), encoding="utf-8")
        out = Path(tmp) / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = reference_analyze(log, window, out)
            for decoder in AVAILABLE_DECODERS:
                shutil.rmtree(out, ignore_errors=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with decoding_with(decoder), contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = main(["analyze", "--input", str(path), "--window", str(window),
                                 "--out", str(out)])
                got = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
                for name in ("analysis.csv", "regime.txt"):
                    got[name] = (out / name).read_text(encoding="utf-8") if (out / name).exists() else None
                assert got == want, decoder
    assert code in (0, 1)
    for line in got["stderr"].splitlines():
        assert line.startswith("error: line ") or line == "error: no groups parsed"


@st.composite
def sim_configs(draw):
    """A small simulate command line with one inner epoch and eps_var > 0."""
    return [
        "simulate",
        "--task", draw(st.sampled_from(["count", "free-length"])),
        "--group-size", str(draw(st.integers(2, 8))),
        "--prompts", str(prompts := draw(st.integers(1, 4))),
        "--t-max", str(draw(st.integers(2, 8))),
        "--vocab-size", str(draw(st.integers(2, 5))),
        "--steps", str(draw(st.integers(1, 5))),
        "--rule", draw(st.sampled_from(RULES)),
        "--eps-var", repr(draw(st.sampled_from([1e-6, 1e-3, 0.5]))),
        "--lr", repr(draw(st.sampled_from([0.01, 0.5, 4.0]))),
        "--seed", str(draw(st.integers(0, 1000))),
        "--inner-epochs", "1",
    ], prompts


@settings(derandomize=True, deadline=None, max_examples=60)
@given(config=sim_configs())
def test_analyze_of_a_rollout_dump_reproduces_the_simulator_metrics(config):
    # with one inner epoch every stored ratio is exactly 1, so analyze, one
    # window per step, must evaluate each step as the simulator did
    argv, prompts = config
    rule = argv[argv.index("--rule") + 1]
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--dump-rollouts", "--out", tmp]) == 0
            assert main(["analyze", "--input", f"{tmp}/rollouts_{rule}.jsonl",
                         "--window", str(prompts), "--out", f"{tmp}/analysis"]) == 0
        metrics = Path(tmp, f"metrics_{rule}.csv").read_bytes()
        assert Path(tmp, "analysis", "analysis.csv").read_bytes() == metrics


# ratios at the clip boundaries of ClipConfig() included, to hit the ties
ratios = st.floats(1e-300, 1e300) | st.sampled_from([0.8, 1.0, 1.28])


@st.composite
def sign_groups(draw):
    g = draw(st.integers(2, 64))
    advantages = st.just(0.0) | st.floats(-1e300, 1e300, allow_nan=False)
    adv = draw(st.lists(advantages, min_size=g, max_size=g))
    arrays = [np.array(draw(st.lists(ratios, min_size=1, max_size=6))) for _ in range(g)]
    return adv, arrays


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(group=sign_groups())
def test_rule_sums_equal_the_per_response_fsum_reference(group):
    adv, arrays = group
    clip = ClipConfig()
    batch = FlatBatch(adv, (len(adv),), tuple(map(len, arrays)), np.concatenate(arrays))
    with np.errstate(over="ignore"):
        got = outcome(lambda: sums_row(batch.rule_sums(clip)))
        want = outcome(reference_rule_sums, adv, arrays, clip)
    if got is None:  # the core's mark for sums that overflow a float
        assert type(want) is tuple and want[0] is OverflowError
    else:
        assert got == want


# advantages of every magnitude; in one group of four also values whose
# sums overflow a float. A ratio of 1e300 times such an advantage is an inf.
group_advantages = st.just(0.0) | st.floats(-1e300, 1e300, allow_nan=False)
extreme_advantages = group_advantages | st.sampled_from([1e308, -1.7e308])
group_ratios = ratios | st.just(1e300)


@st.composite
def sign_runs(draw):
    """1 to 20 groups: mixed, single-sign and all-zero advantages, each
    response with its ratio array."""
    groups = []
    for _ in range(draw(st.integers(1, 20))):
        g = draw(st.integers(1, 64))
        values = draw(st.sampled_from([group_advantages] * 3 + [extreme_advantages]))
        advantages = draw(st.lists(values, min_size=g, max_size=g))
        kind = draw(st.sampled_from(["mixed", "mixed", "positive", "negative", "zero"]))
        if kind != "mixed":
            sign = {"positive": 1.0, "negative": -1.0, "zero": 0.0}[kind]
            advantages = [sign * abs(a) for a in advantages]
        arrays = [np.array(draw(st.lists(group_ratios, min_size=1, max_size=6))) for _ in range(g)]
        groups.append((advantages, arrays))
    return groups


def bits(x: float) -> str:
    return repr(float(x))  # tells -0.0 from 0.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(groups=sign_runs())
def test_flat_batch_columns_equal_the_per_group_reference(groups):
    clip = ClipConfig()
    arrays = [arr for _, group_arrays in groups for arr in group_arrays]
    batch = FlatBatch(
        np.concatenate([adv for adv, _ in groups]),
        [len(adv) for adv, _ in groups],
        [len(arr) for arr in arrays],
        np.concatenate(arrays),
    )
    sums = batch.rule_sums(clip)
    terms = rule_table(sums)
    grads = {rule: batch.ratio_gradients(clip, *terms[rule][2:]) for rule in RULES}
    start = 0
    for i, (adv, group_arrays) in enumerate(groups):
        stop = start + sum(map(len, group_arrays))
        with np.errstate(all="ignore"):
            want = outcome(reference_rule_sums, adv, group_arrays, clip)
        got = sums_row(sums, i)
        if got is None:  # exactly where the reference overflows
            assert type(want) is tuple and want[0] is OverflowError
            start = stop
            continue
        assert repr(got) == repr(want)
        for rule in RULES:
            objective, degenerate, w_pos, w_neg = terms[rule]
            ref_objective, ref_degenerate, ref_pos, ref_neg = reference_rule_terms(rule, want)
            assert bits(objective[i]) == bits(ref_objective)
            assert degenerate[i] == ref_degenerate
            if w_pos is not None:  # seq's weight is per response, in its gradient
                assert (bits(w_pos[i]), bits(w_neg[i])) == (bits(ref_pos(1)), bits(ref_neg(1)))
            with np.errstate(all="ignore"):
                ref_grads = reference_ratio_gradients(rule, want, adv, group_arrays, clip)
            assert grads[rule][start:stop].tobytes() == np.concatenate(ref_grads).tobytes()
        start = stop


@st.composite
def reward_runs(draw):
    """1 to 20 groups of rewards, some all equal, with their variance floors."""
    groups = []
    for _ in range(draw(st.integers(1, 20))):
        g = draw(st.integers(1, 64))
        if draw(st.booleans()):
            values = [draw(rewards)] * g
        else:
            values = draw(st.lists(rewards, min_size=g, max_size=g))
        groups.append((values, draw(eps_vars)))
    return groups


@settings(derandomize=True, deadline=None, max_examples=100)
@given(groups=reward_runs())
def test_normalize_columns_equal_the_per_group_reference(groups):
    got = normalize_columns(
        [r for values, _ in groups for r in values],
        [len(values) for values, _ in groups],
        [eps for _, eps in groups],
        [f"p{j}" for j in range(len(groups))],
    )
    start = 0
    for j, (values, eps) in enumerate(groups):
        stop = start + len(values)
        want = outcome(reference_normalize, values, eps, f"p{j}")
        # the one-group normaliser reads only these fields, so any size goes
        library = outcome(normalize_advantages, SimpleNamespace(rewards=values, eps_var=eps, prompt_id=f"p{j}"))
        if type(want) is tuple:  # the error and its text
            assert type(library) is tuple and library == want
            # a degenerate group is flagged, any other error refuses the group; never both
            if want[0] is DegenerateGroupError:
                assert j in got.degenerate and j not in got.errors
            else:
                assert got.errors[j] == want[1] and j not in got.degenerate
            assert not got.advantages[start:stop].any()
        else:
            assert j not in got.errors and j not in got.degenerate
            assert list(map(bits, got.advantages[start:stop])) == list(map(bits, want))
            assert type(library) is np.ndarray and list(map(bits, library)) == list(map(bits, want))
        start = stop


# tiny sizes, next to values every check must refuse; a huge size is always
# far over the sim.MAX_*_CELLS caps, so it is refused before any allocation
def mostly(value: str, other):
    """``value`` three times in four, else a draw of ``other``."""
    return st.one_of(st.just(value), st.just(value), st.just(value), other)


sizes = mostly("2", st.sampled_from(["-1", "0", "1", "3", str(2**40)]))
reals_arg = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308"])


@st.composite
def sim_argv(draw):
    # "--flag=value", so that argparse takes "-inf" as a value, not as a flag
    command = draw(st.sampled_from(["simulate", "compare"]))
    counts = st.sampled_from(["-1", "0", "1", "2", "3"])  # time grows with these
    args = {"--steps": draw(mostly("2", counts))}
    if draw(st.booleans()):
        args["--inner-epochs"] = draw(counts)
    for flag in ("--group-size", "--prompts", "--vocab-size", "--t-max"):
        if draw(st.booleans()):
            args[flag] = draw(sizes)
    usual = {"--lr": "0.5", "--eps-var": "1e-6", "--clip-low": "0.2", "--clip-high": "0.28"}
    for flag, value in usual.items():
        args[flag] = draw(mostly(value, reals_arg))
    args["--task"] = draw(st.sampled_from(["count", "free-length"]))
    args["--seed"] = draw(mostly("0", st.just("-1")))
    argv = [command] + [f"{flag}={value}" for flag, value in args.items()]
    if command == "simulate":
        argv.append("--rule=" + draw(st.sampled_from(["token", "seq", "balanced", "balanced_gen"])))
    elif draw(st.booleans()):
        argv.append("--locked-rollouts")
    if draw(st.booleans()):
        argv.append("--dump-rollouts")
    return argv


@settings(derandomize=True, deadline=None, max_examples=120)
@given(argv=sim_argv())
def test_simulate_and_compare_exit_zero_or_two_with_error_lines(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out=" + tmp])
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in lines)
    assert (code == 2) == bool(lines)
