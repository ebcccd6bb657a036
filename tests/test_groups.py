import math

import numpy as np
import pytest

from grpoagg.aggregate import compute_rule_sums
from grpoagg.groups import (
    DegenerateGroupError,
    Response,
    RolloutGroup,
    binary_closed_form,
    normalize_advantages,
    normalize_columns,
    run_fsums,
)

from conftest import make_group


def test_normalize_single_positive():
    group = make_group([(1, 1.0), (1, 0.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    root3 = math.sqrt(3.0)
    assert type(adv) is np.ndarray and adv.dtype == np.float64 and adv.shape == (4,)
    assert adv[0] == pytest.approx(root3, abs=1e-12)
    for a in adv[1:]:
        assert a == pytest.approx(-1.0 / root3, abs=1e-12)
    assert (adv > 0.0).nonzero()[0].tolist() == [0]
    assert (adv < 0.0).nonzero()[0].tolist() == [1, 2, 3]


def test_normalize_all_equal_with_floor_gives_zeros():
    group = make_group([(1, 1.0)] * 4, eps_var=1e-6)
    adv = normalize_advantages(group)
    assert list(map(repr, adv.tolist())) == ["0.0"] * 4  # +0.0, in neither sign subset


def test_normalize_hand_computed_sigma():
    # rewards [2, 1, -3]: mu = 0, sigma = sqrt(14/3)
    group = make_group([(1, 2.0), (1, 1.0), (1, -3.0)])
    adv = normalize_advantages(group)
    columns = normalize_columns(group.rewards, [3], [0.0], ["p0"])
    sigma = math.sqrt(14.0 / 3.0)
    assert adv.tobytes() == columns.advantages.tobytes()
    for a, r in zip(adv, (2.0, 1.0, -3.0)):
        assert a == pytest.approx(r / sigma, abs=1e-14)


def test_normalize_degenerate_raises():
    group = make_group([(1, 0.5)] * 3)
    with pytest.raises(DegenerateGroupError):
        normalize_advantages(group)


def test_normalize_columns_refuses_an_overflowing_variance_and_flags_a_degenerate_group():
    # group "d" is all equal at eps_var 0 (its mean overflows too); the
    # variance of group "v" overflows
    columns = normalize_columns([1e308, 1e308, 1e308, -1e308], [2, 2], [0.0, 0.0], ["d", "v"])
    assert columns.degenerate == [0]
    assert columns.errors == {1: "group 'v': reward variance is out of float range"}
    assert columns.advantages.tolist() == [0.0] * 4
    # the one-group normaliser raises the same class and text for each
    with pytest.raises(DegenerateGroupError) as degenerate:
        normalize_advantages(make_group([(1, 1e308)] * 2, prompt_id="d"))
    assert str(degenerate.value) == "group 'd': all rewards equal (1e+308) with eps_var=0"
    with pytest.raises(ValueError) as refused:
        normalize_advantages(make_group([(1, 1e308), (1, -1e308)], prompt_id="v"))
    assert type(refused.value) is ValueError
    assert str(refused.value) == "group 'v': reward variance is out of float range"


def test_normalize_sum_and_sum_of_squares():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = int(rng.integers(2, 20))
        rewards = rng.normal(size=g)
        group = make_group([(1, r) for r in rewards])
        adv = normalize_advantages(group)
        assert abs(math.fsum(adv)) < 1e-10
        assert math.fsum(a * a for a in adv) == pytest.approx(g, abs=1e-8)


def test_binary_closed_form_values():
    assert binary_closed_form(4, 2) == (1.0, -1.0)
    pos, neg = binary_closed_form(4, 1)
    assert pos == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert neg == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)
    assert binary_closed_form(16, 8) == (1.0, -1.0)


@pytest.mark.parametrize("g,k", [(4, 0), (4, 4), (4, 5), (1, 1)])
def test_binary_closed_form_out_of_range(g, k):
    with pytest.raises(ValueError):
        binary_closed_form(g, k)


def test_normalize_matches_closed_form_on_random_binary():
    rng = np.random.default_rng(1)
    for _ in range(300):
        g = int(rng.integers(2, 33))
        k = int(rng.integers(1, g))
        rewards = np.zeros(g)
        rewards[rng.permutation(g)[:k]] = 1.0
        group = make_group([(1, r) for r in rewards])
        adv = normalize_advantages(group)
        pos, neg = binary_closed_form(g, k)
        for a, r in zip(adv, rewards):
            assert abs(a - (pos if r == 1.0 else neg)) < 1e-10


def test_shift_and_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = int(rng.integers(2, 16))
        rewards = rng.normal(size=g)
        base = normalize_advantages(make_group([(1, r) for r in rewards]))
        c = float(rng.normal() * 10)
        lam = float(rng.uniform(0.01, 100.0))
        shifted = normalize_advantages(make_group([(1, r + c) for r in rewards]))
        scaled = normalize_advantages(make_group([(1, r * lam) for r in rewards]))
        for a, b, s in zip(base, shifted, scaled):
            assert abs(a - b) < 1e-10
            assert abs(a - s) < 1e-10


def test_variance_floor_shrinks_advantages():
    rewards = (1.0, 0.0, 0.0, 2.0, -1.0)
    exact = normalize_advantages(make_group([(1, r) for r in rewards]))
    floored = normalize_advantages(make_group([(1, r) for r in rewards], eps_var=0.5))
    for a, b in zip(exact, floored):
        if a != 0.0:
            assert abs(b) < abs(a)


def test_response_validation():
    with pytest.raises(ValueError):
        Response((), 1.0, ())  # empty
    with pytest.raises(ValueError):
        Response((1, 2), 1.0, (1.0,))  # ratio length mismatch
    with pytest.raises(ValueError):
        Response((1,), 1.0, (0.0,))  # non-positive ratio
    with pytest.raises(ValueError):
        Response((1,), float("nan"), (1.0,))  # non-finite reward
    with pytest.raises(ValueError):
        Response((1,), 1.0, (1.0,), logp_new=(-1.0,))  # logp pair incomplete
    with pytest.raises(ValueError):
        Response((1, 2), 1.0, token_count=3)  # count disagrees with tokens


@pytest.mark.parametrize(
    "fields, text",
    [
        ({}, "response needs tokens or token_count"),
        ({"tokens": (1, 2), "logp_new": (0.0,), "logp_old": (0.0,)},
         "logp arrays of length 1/1 do not match token count 2"),
        # each logp is finite, but their difference is inf
        ({"tokens": (1,), "logp_new": (1.7e308,), "logp_old": (-1.7e308,)},
         "exp(logp_new - logp_old) overflows a float"),
    ],
)
def test_response_error_texts(fields, text):
    with pytest.raises(ValueError) as err:
        Response(**{"tokens": None, "reward": 1.0, **fields})
    assert str(err.value) == text


def test_response_ratio_derivation_and_consistency():
    r = Response((5,), 1.0, logp_new=(-1.0,), logp_old=(-1.0,))
    assert r.ratios == (1.0,)
    r2 = Response((5,), 1.0, logp_new=(-1.0,), logp_old=(-1.5,))
    assert r2.ratios[0] == pytest.approx(math.exp(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        Response((5,), 1.0, ratios=(2.0,), logp_new=(-1.0,), logp_old=(-1.0,))


def test_length_only_response():
    r = Response(None, 1.0, token_count=7)
    assert r.length == 7
    assert r.ratios is None
    group = RolloutGroup("p", (r, Response(None, 0.0, token_count=3)))
    assert not group.has_ratios
    assert group.total_tokens == 10


def test_group_validation():
    one = Response((1,), 1.0, (1.0,))
    with pytest.raises(ValueError):
        RolloutGroup("p", (one,))  # G < 2
    with pytest.raises(ValueError):
        RolloutGroup("p", (one, one), eps_var=-1.0)


def test_advantage_set_partition_consistency(clip):
    # a zero advantage is in neither sign subset, as counts and as tokens
    sums = compute_rule_sums(make_group([(1, 0.0), (2, 0.0), (4, 0.0)]), [2.0, 0.0, -2.0], clip)
    assert (sums.k.item(), sums.neg_count.item()) == (1, 1)
    assert (sums.n_pos.item(), sums.n_neg.item(), sums.total_tokens.item()) == (1, 4, 7)


HUGE = 10**400  # an exact JSON integer far beyond float range


@pytest.mark.parametrize(
    "kwargs, field_name",
    [
        (dict(tokens=(1.9, True), reward=1.0), "tokens"),
        (dict(tokens=(1, True), reward=1.0), "tokens"),
        (dict(tokens=(np.True_,), reward=1.0), "tokens"),
        (dict(tokens=5, reward=1.0), "tokens"),
        (dict(tokens=None, token_count=2.7, reward=1.0), "token_count"),
        (dict(tokens=None, token_count=True, reward=1.0), "token_count"),
        (dict(tokens=None, token_count=1e200, reward=1.0), "token_count"),
        (dict(tokens=None, token_count=2**53 + 1, reward=1.0), "token_count"),
        (dict(tokens=(1,), reward="2"), "reward"),
        (dict(tokens=(1,), reward=True), "reward"),
        (dict(tokens=(1,), reward=None), "reward"),
        (dict(tokens=(1,), reward=HUGE), "reward"),
        (dict(tokens=(1, 2), reward=1.0, ratios=("1.0", True)), "ratios"),
        (dict(tokens=(1, 2), reward=1.0, ratios=(1.0, True)), "ratios"),
        (dict(tokens=(1,), reward=1.0, ratios=(HUGE,)), "ratios"),
        (dict(tokens=(1,), reward=1.0, ratios=([1.0],)), "ratios"),
        (dict(tokens=(1,), reward=1.0, logp_new=(False,), logp_old=(0.0,)), "logp_new"),
        (dict(tokens=(1,), reward=1.0, logp_new=(0.0,), logp_old=(False,)), "logp_old"),
        (dict(tokens=(1,), reward=1.0, truncated=1), "truncated"),
    ],
)
def test_response_rejects_loose_values_naming_the_field(kwargs, field_name):
    with pytest.raises(ValueError, match=field_name):
        Response(**kwargs)


def test_response_accepts_numpy_and_integral_numbers():
    r = Response(
        np.array([1, 2, 0]), np.float64(0.5), np.array([1.0, 2.0, 0.5]), token_count=3.0
    )
    assert r.tokens == (1, 2, 0) and all(type(t) is int for t in r.tokens)
    assert type(r.reward) is float and r.reward == 0.5
    assert r.ratios == (1.0, 2.0, 0.5) and all(type(v) is float for v in r.ratios)
    assert Response((3.0, 1), 1, (1, 2)).tokens == (3, 1)
    assert Response(None, 0.0, token_count=2**53).length == 2**53
    r = Response((1,), 1.0, logp_new=(np.float64(-1.0),), logp_old=(-1,))
    assert r.ratios == (1.0,) and type(r.logp_old[0]) is float


@pytest.mark.parametrize(
    "kwargs, field_name",
    [
        (dict(prompt_id=None), "prompt_id"),
        (dict(prompt_id=3), "prompt_id"),
        (dict(group_id=7), "group_id"),
        (dict(eps_var=HUGE), "eps_var"),
        (dict(eps_var=True), "eps_var"),
        (dict(eps_var="0.1"), "eps_var"),
        (dict(eps_var=float("inf")), "eps_var"),
    ],
)
def test_group_rejects_bad_fields_naming_the_field(kwargs, field_name):
    one = Response((1,), 1.0, (1.0,))
    args = dict(prompt_id="p", responses=(one, one)) | kwargs
    with pytest.raises(ValueError, match=field_name):
        RolloutGroup(**args)


@pytest.mark.parametrize(
    "rewards",
    [
        (1e308, -1e308),  # the squared deviation overflows
        (1e308, 1e308, 0.0),  # the sum of the rewards overflows
        (0.0, 5e-324),  # the variance underflows to zero
    ],
)
def test_normalize_reports_reward_variance_out_of_range(rewards):
    group = make_group([(1, r) for r in rewards], prompt_id="big")
    with pytest.raises(ValueError, match="group 'big'") as err:
        normalize_advantages(group)
    assert not isinstance(err.value, DegenerateGroupError)


def test_run_fsums_sums_each_run_of_one_column_in_order():
    # runs of length 0 give 0.0; a run that overflows gives NaN and leaves
    # the runs after it their own fsum bits, whether the column is a list
    # or a memoryview of a float64 array
    values = [0.1, 0.2, 0.3, 1e308, 1e308, -1e308, 1e-16, 1.0, 1e-16, 2.5]
    lengths = [0, 3, 0, 3, 3, 1, 0]
    want = [0.0, math.fsum(values[:3]), 0.0, math.nan, math.fsum(values[6:9]), 2.5, 0.0]
    assert want[4] != sum(values[6:9])
    for column in (values, memoryview(np.array(values))):
        assert list(map(repr, run_fsums(column, lengths))) == list(map(repr, want))
    rng = np.random.default_rng(0)
    lengths = rng.integers(0, 9, 500).tolist()
    stops = np.add.accumulate(lengths).tolist()
    column = rng.standard_normal(stops[-1]) * 10.0 ** rng.integers(-300, 300, stops[-1])
    want = [math.fsum(column[stop - n : stop].tolist()) for n, stop in zip(lengths, stops)]
    for got in (run_fsums(column.tolist(), lengths), run_fsums(memoryview(column), lengths)):
        assert list(map(repr, got)) == list(map(repr, want))
