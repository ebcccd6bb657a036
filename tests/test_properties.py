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
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from grpoagg.aggregate import ClipConfig, compute_rule_sums
from grpoagg.cli import main
from grpoagg.groups import AdvantageSet, RolloutGroup
from grpoagg.rollout_io import RolloutLogError, parse_rollout_line

from conftest import AVAILABLE_DECODERS, decoding_with, reference_rule_sums

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
    # under every available decoder, with the same group or error text
    outcomes = []
    for decoder in AVAILABLE_DECODERS:
        with decoding_with(decoder):
            try:
                group = parse_rollout_line(render(record, cut), line_no)
            except RolloutLogError as exc:
                assert exc.line_no == line_no
                assert str(exc).startswith(f"line {line_no}:")
                outcomes.append((type(exc), str(exc)))
            else:
                assert isinstance(group, RolloutGroup)
                outcomes.append(repr(group))
    assert outcomes.count(outcomes[0]) == len(outcomes)


@SETTINGS
@given(
    log=st.lists(st.tuples(records(), cuts), min_size=1, max_size=6),
    window=st.integers(1, 4),
)
def test_analyze_exits_zero_or_one_and_reports_lines(log, window):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("".join(render(r, cut) + "\n" for r, cut in log), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--input", str(path), "--window", str(window),
                         "--out", tmp])
    assert code in (0, 1)
    for line in err.getvalue().splitlines():
        assert line.startswith("error: line ") or line == "error: no groups parsed"


# ratios at the clip boundaries of ClipConfig() included, to hit the ties
ratios = st.floats(1e-300, 1e300) | st.sampled_from([0.8, 1.0, 1.28])


@st.composite
def sign_groups(draw):
    g = draw(st.integers(2, 64))
    advantages = st.just(0.0) | st.floats(-1e300, 1e300, allow_nan=False)
    adv = AdvantageSet.from_advantages(draw(st.lists(advantages, min_size=g, max_size=g)))
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
    with np.errstate(over="ignore"):
        got = outcome(compute_rule_sums, adv, arrays, clip)
        assert got == outcome(reference_rule_sums, adv, arrays, clip)


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
