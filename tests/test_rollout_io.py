import math
from pathlib import Path

import pytest

from grpoagg.groups import Response, RolloutGroup
from grpoagg.rollout_io import (
    METRIC_FIELDS,
    MalformedLineError,
    MetricRecord,
    RecordValidationError,
    RolloutLogError,
    group_to_dict,
    parse_rollout_line,
    read_metrics,
    read_rollouts,
    write_metrics,
    write_rollouts,
)

DATA = Path(__file__).parent / "data"

# the fixture plants faults on these lines: truncated JSON, missing reward,
# and a ratios/token-count mismatch
FAULT_LINES = (2, 4, 6)


def record(step, rule="token", objective=0.5):
    return MetricRecord(
        step=step,
        rule=rule,
        objective=objective,
        pg_loss=-objective,
        len_cv=0.25,
        len_gap=0.1,
        tbar_pos=3.0,
        tbar_neg=4.0,
        mean_reward=0.5,
        k_mean=8.0,
        clip_fraction=0.0,
    )


def test_parse_length_only_group():
    line = (
        '{"group_id":"g0","prompt_id":"p0","responses":'
        '[{"token_count":3,"reward":1.0},{"token_count":5,"reward":0.0}]}'
    )
    group = parse_rollout_line(line, 1)
    assert group.size == 2
    assert not group.has_ratios
    assert group.lengths == (3, 5)
    assert group.source_line == 1
    assert group.group_id == "g0"


def test_parse_logp_derivation():
    line = (
        '{"group_id":"g","prompt_id":"p","responses":'
        '[{"tokens":[4],"reward":1.0,"logp_new":[-1.0],"logp_old":[-1.0]},'
        '{"tokens":[2],"reward":0.0,"logp_new":[-2.0],"logp_old":[-1.0]}]}'
    )
    group = parse_rollout_line(line, 1)
    assert group.responses[0].ratios == (1.0,)
    assert group.responses[1].ratios[0] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_parse_ratio_length_mismatch():
    line = (
        '{"group_id":"g","prompt_id":"p","responses":'
        '[{"tokens":[1,2],"reward":1.0,"ratios":[1.0]},'
        '{"tokens":[1],"reward":0.0,"ratios":[1.0]}]}'
    )
    with pytest.raises(RecordValidationError) as err:
        parse_rollout_line(line, 9)
    assert "line 9" in str(err.value)
    assert "response 0" in str(err.value)
    assert err.value.line_no == 9


def test_parse_rejects_bad_version_and_missing_fields():
    with pytest.raises(RecordValidationError):
        parse_rollout_line('{"v":2,"group_id":"g","prompt_id":"p","responses":[]}', 1)
    with pytest.raises(RecordValidationError):
        parse_rollout_line('{"group_id":"g","responses":[]}', 1)
    with pytest.raises(MalformedLineError):
        parse_rollout_line("not json", 1)
    with pytest.raises(MalformedLineError):
        parse_rollout_line("[1,2,3]", 1)

    def one_response(resp: str) -> str:
        return (
            '{"prompt_id":"p","responses":[' + resp + ',{"tokens":[1],"reward":0.0}]}'
        )

    huge = "1" + "0" * 400  # a JSON integer far beyond float range
    bad = [
        # exp(logp_new - logp_old) overflows a float
        ('{"tokens":[1],"reward":1.0,"logp_new":[0.0],"logp_old":[-800.0]}', "logp_new"),
        # non-integer and boolean token counts / token ids
        ('{"token_count":2.7,"reward":1.0}', "token_count"),
        ('{"token_count":true,"reward":1.0}', "token_count"),
        ('{"tokens":[1,1.9],"reward":1.0}', "tokens"),
        ('{"tokens":[false],"reward":1.0}', "tokens"),
        ('{"tokens":"12","reward":1.0}', "tokens"),
        # lengths beyond exact floats
        ('{"token_count":1e200,"reward":1.0}', "token_count"),
        # strings, booleans and out-of-range integers where numbers belong
        ('{"tokens":[1,2],"reward":1.0,"ratios":["1.0",true]}', "ratios"),
        ('{"tokens":[1],"reward":1.0,"ratios":[true]}', "ratios"),
        ('{"tokens":[1],"reward":1.0,"logp_new":[false],"logp_old":[0.0]}', "logp_new"),
        ('{"tokens":[1],"reward":1.0,"logp_new":[0.0],"logp_old":[false]}', "logp_old"),
        ('{"tokens":[1],"reward":"2"}', "reward"),
        ('{"tokens":[1],"reward":' + huge + "}", "reward"),
        ('{"tokens":[1],"reward":1.0,"ratios":[' + huge + "]}", "ratios"),
        ('{"tokens":[1],"reward":1.0,"truncated":1}', "truncated"),
        ("[1]", "expected an object"),
    ]
    for resp, field_name in bad:
        with pytest.raises(RecordValidationError) as err:
            parse_rollout_line(one_response(resp), 7)
        assert err.value.line_no == 7
        assert str(err.value).startswith("line 7: response 0:")
        assert field_name in str(err.value)
    # an integral float is still an integer
    group = parse_rollout_line(one_response('{"token_count":3.0,"reward":1.0}'), 7)
    assert group.lengths == (3, 1)


TWO = '"responses":[{"token_count":1,"reward":1.0},{"token_count":1,"reward":0.0}]'


@pytest.mark.parametrize(
    "line, error, text",
    [
        ('{"prompt_id":"p","eps_var":1' + "0" * 400 + "," + TWO + "}",
         RecordValidationError, "line 3: eps_var"),
        ('{"prompt_id":7,' + TWO + "}", RecordValidationError, "line 3: prompt_id"),
        ('{"v":true,"prompt_id":"p","responses":[]}', RecordValidationError, "line 3: unsupported"),
        ('{"prompt_id":"p","responses":{}}', RecordValidationError, "line 3: "),
        ('{"prompt_id":"p","responses":[]}', RecordValidationError, "line 3: "),
        ('{"reward":' + "1" * 5000 + "}", MalformedLineError, "line 3: invalid JSON"),
        ("[" * 100000, MalformedLineError, "line 3: invalid JSON"),
        ('{"prompt_id":"p","responses":[' + ",".join(['{"tokens":[1],"reward":1.0,"logp_new":[1.7e308],'
                                                      '"logp_old":[-1.7e308]}'] * 2) + "]}",
         RecordValidationError, "line 3: response 0: exp(logp_new - logp_old) overflows a float"),
    ],
)
def test_parse_rejects_bad_groups_and_undecodable_lines(line, error, text):
    with pytest.raises(error) as err:
        parse_rollout_line(line, 3)
    assert err.value.line_no == 3
    assert str(err.value).startswith(text)


def test_read_rollouts_strict_raises_with_line_number(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"group_id":"g0","prompt_id":"p0","responses":'
        '[{"token_count":1,"reward":1.0},{"token_count":2,"reward":0.0}]}\n'
        "garbage\n",
        encoding="utf-8",
    )
    stream = read_rollouts(path)
    first = next(stream)
    assert first.prompt_id == "p0"
    with pytest.raises(MalformedLineError) as err:
        next(stream)
    assert err.value.line_no == 2


def test_read_rollouts_decodes_each_line_and_keeps_line_numbers(tmp_path):
    line = (
        '{"prompt_id":"p0","responses":'
        '[{"token_count":1,"reward":1.0},{"token_count":2,"reward":0.0}]}'
    )
    path = tmp_path / "log.jsonl"
    # lines end at "\r\n", a lone "\r" and "\n"; line 2 is not UTF-8, line 5 not JSON
    path.write_bytes(f"{line}\r\n".encode() + b"\xff\xfe\r" + f"{line}\r \n{{\n{line}".encode())
    stream = read_rollouts(path)
    assert next(stream).source_line == 1
    with pytest.raises(MalformedLineError, match="^line 2: not UTF-8: ") as err:
        next(stream)
    assert err.value.line_no == 2
    errors = []
    groups = list(read_rollouts(path, on_error=errors.append))
    assert [g.source_line for g in groups] == [1, 3, 6]
    assert [e.line_no for e in errors] == [2, 5]


def test_fixture_fault_line_numbers():
    text = (DATA / "faulty_rollouts.jsonl").read_text(encoding="utf-8")
    good, bad = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            good.append(parse_rollout_line(line, line_no))
        except RolloutLogError as exc:
            bad.append(exc.line_no)
    assert tuple(bad) == FAULT_LINES
    assert len(good) == 4


def test_round_trip(tmp_path):
    # round-trip the parseable fixture groups plus a hand-built one
    groups = []
    text = (DATA / "faulty_rollouts.jsonl").read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            groups.append(parse_rollout_line(line, line_no))
        except RolloutLogError:
            pass
    groups.append(
        RolloutGroup(
            "p9",
            (
                Response((1, 2, 0), 1.0, (1.25, 0.75, 1.0)),
                Response((2, 0), 0.0, (0.5, 2.0)),
                Response((2, 2), 0.0, (1.0, 1.0), truncated=True),
            ),
            eps_var=1e-6,
            group_id="g9",
        )
    )
    path = tmp_path / "out.jsonl"
    write_rollouts(groups, path)
    back = list(read_rollouts(path))
    assert len(back) == len(groups)
    for a, b in zip(groups, back):
        assert a.prompt_id == b.prompt_id
        assert a.group_id == b.group_id
        assert a.eps_var == b.eps_var
        for ra, rb in zip(a.responses, b.responses):
            assert ra.tokens == rb.tokens
            assert ra.reward == rb.reward
            assert ra.ratios == rb.ratios
            assert ra.token_count == rb.token_count
            assert ra.truncated == rb.truncated

    # writing the same groups twice is byte-identical
    path2 = tmp_path / "out2.jsonl"
    write_rollouts(groups, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_group_to_dict_key_order():
    group = RolloutGroup(
        "p0",
        (Response((1, 0), 1.0, (1.0, 1.0)), Response((0,), 0.0, (1.0,))),
        group_id="g0",
    )
    d = group_to_dict(group)
    assert list(d) == ["v", "group_id", "prompt_id", "eps_var", "responses"]
    assert list(d["responses"][0]) == ["tokens", "reward", "ratios"]


def test_write_metrics_header_only(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics([], path)
    assert path.read_text(encoding="utf-8") == ",".join(METRIC_FIELDS) + "\n"


def test_read_metrics_rejects_a_bad_header_and_a_bad_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("step,rule\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_metrics(path)
    assert str(err.value) == f"{path}: unexpected metric CSV header"
    write_metrics([], path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write("1,token,2\n")
    with pytest.raises(ValueError) as err:
        read_metrics(path)
    assert str(err.value) == f"{path}: bad row '1,token,2'"


def test_write_metrics_single_row(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics([record(0)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,token,0.5,-0.5,")


def test_write_metrics_deterministic_bytes(tmp_path):
    records = [record(s, rule) for s in range(3) for rule in ("token", "seq")]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics(records, p1)
    write_metrics(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_metrics_requires_step_order(tmp_path):
    with pytest.raises(ValueError):
        write_metrics([record(1), record(0)], tmp_path / "m.csv")


def test_write_metrics_empty_fields(tmp_path):
    rec = MetricRecord(0, "token", None, None, 0.1, None, None, None, 0.5, 0.0, None)
    path = tmp_path / "m.csv"
    write_metrics([rec], path)
    row = path.read_text(encoding="utf-8").splitlines()[1]
    assert row == "0,token,,,0.1,,,,0.5,0,"


def test_metrics_round_trip(tmp_path):
    # values chosen to be exact at the CSV's 10-significant-digit precision
    records = [record(s, rule, objective=s * 0.125 - 0.25) for s in range(4) for rule in ("token", "balanced")]
    path = tmp_path / "m.csv"
    write_metrics(records, path)
    back = read_metrics(path)
    assert back == records


def test_metric_record_rejects_non_finite():
    with pytest.raises(ValueError):
        MetricRecord(0, "token", float("inf"), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_float_formatting_ten_significant_digits(tmp_path):
    rec = MetricRecord(
        0, "token", 1.0 / 3.0, -1.0 / 3.0, 0.0, None, None, None, 2.0 / 3.0, 0.0, 0.0
    )
    path = tmp_path / "m.csv"
    write_metrics([rec], path)
    row = path.read_text(encoding="utf-8").splitlines()[1]
    assert ",0.3333333333,-0.3333333333," in row
    assert ",0.6666666667," in row
