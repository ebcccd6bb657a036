import math
import re

import numpy as np
import pytest

from grpoagg.aggregate import (
    RULES,
    BoundaryProximityError,
    ClipConfig,
    FlatBatch,
    MissingRatiosError,
    SumColumns,
    compute_rule_sums,
    gradient_check,
    objective,
    phi,
    rule_table,
)
from grpoagg.decompose import ba_weight_identity, decompose
from grpoagg.groups import (
    Response,
    RolloutGroup,
    normalize_advantages,
)
from grpoagg.verify import random_binary_group, random_real_group, random_smooth_group

from conftest import (
    RefSums,
    drawn_group,
    make_group,
    reference_ratio_gradients,
    reference_rule_sums,
    reference_rule_terms,
    sums_row,
)


# --- independent oracle: literal formulas, plain python loops ---

def oracle_phi(rho, a, clip):
    clamped = min(max(rho, 1.0 - clip.clip_low), 1.0 + clip.clip_high)
    return min(rho * a, clamped * a)


def oracle_objectives(group, adv, clip):
    g = group.size
    adv = [float(a) for a in adv]
    per_resp = []
    for resp, a in zip(group.responses, adv):
        per_resp.append([oracle_phi(r, a, clip) for r in resp.ratios])
    n = sum(len(p) for p in per_resp)
    token = sum(sum(p) for p in per_resp) / n
    seq = sum(sum(p) / len(p) for p in per_resp) / g
    pos = [i for i, a in enumerate(adv) if a > 0.0]
    neg = [i for i, a in enumerate(adv) if a < 0.0]
    n_pos = sum(len(per_resp[i]) for i in pos)
    n_neg = sum(len(per_resp[i]) for i in neg)
    balanced = 0.0
    if pos:
        balanced += (len(pos) / g) * sum(sum(per_resp[i]) for i in pos) / n_pos
    if neg:
        balanced += (len(neg) / g) * sum(sum(per_resp[i]) for i in neg) / n_neg
    m_pos = sum(adv[i] for i in pos)
    m_neg = sum(-adv[i] for i in neg)
    z_pos = sum(adv[i] * len(per_resp[i]) for i in pos)
    z_neg = sum(-adv[i] * len(per_resp[i]) for i in neg)
    gen = 0.0
    if pos:
        gen += (m_pos / g) / z_pos * sum(sum(per_resp[i]) for i in pos)
    if neg:
        gen += (m_neg / g) / z_neg * sum(sum(per_resp[i]) for i in neg)
    return token, seq, balanced, gen


def test_phi_examples(clip):
    assert phi(1.0, 2.0, clip) == 2.0
    assert phi(1.5, 1.0, clip) == pytest.approx(1.28, abs=1e-15)
    assert phi(0.5, -1.0, clip) == pytest.approx(-0.8, abs=1e-15)
    with pytest.raises(ValueError):
        phi(0.0, 1.0, clip)
    with pytest.raises(ValueError):
        phi(-0.5, 1.0, clip)


def test_phi_piecewise_concave_in_ratio(clip):
    rng = np.random.default_rng(3)
    for _ in range(500):
        a = float(rng.normal())
        x, y = sorted(rng.uniform(0.05, 3.0, size=2))
        mid = 0.5 * (x + y)
        chord = 0.5 * (phi(x, a, clip) + phi(y, a, clip))
        assert phi(mid, a, clip) >= chord - 1e-12


def test_clip_config_validation():
    with pytest.raises(ValueError):
        ClipConfig(1.0, 0.28)
    with pytest.raises(ValueError):
        ClipConfig(0.2, 0.0)
    c = ClipConfig(0.2, 0.28)
    assert c.lower == pytest.approx(0.8)
    assert c.upper == pytest.approx(1.28)


def test_objective_token_example(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    result = objective("token", group, adv, clip)
    assert result.objective == pytest.approx(0.5, abs=1e-15)
    assert oracle_objectives(group, adv, clip)[0] == pytest.approx(0.5, abs=1e-12)


def test_objective_token_zero_advantages(clip):
    group = make_group([(2, 1.0), (3, 1.0)], eps_var=1e-6)
    adv = normalize_advantages(group)
    result = objective("token", group, adv, clip)
    assert result.objective == 0.0
    for arr in result.grad_ratios:
        assert np.all(arr == 0.0)


def test_objective_token_unclipped_band_mean(clip):
    rng = np.random.default_rng(4)
    for _ in range(50):
        group = drawn_group(random_binary_group(rng, ratio_low=0.85, ratio_high=1.25))
        adv = normalize_advantages(group)
        expected = sum(
            r * a
            for resp, a in zip(group.responses, adv.tolist())
            for r in resp.ratios
        ) / group.total_tokens
        assert objective("token", group, adv, clip).objective == pytest.approx(
            expected, abs=1e-12
        )


def test_objective_seq_examples(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    assert objective("seq", group, adv, clip).objective == 0.0

    # single-token responses: seq and token coincide bitwise
    rng = np.random.default_rng(5)
    for _ in range(30):
        group = drawn_group(random_binary_group(rng, max_len=1))
        adv = normalize_advantages(group)
        assert (
            objective("seq", group, adv, clip).objective
            == objective("token", group, adv, clip).objective
        )


def test_objective_seq_tiny_delta_example(clip):
    # pos lengths [1, 3] with delta ~ [1] and [0,0,0]; neg lengths [2,2] delta 1
    tiny = 1e-13
    group = make_group(
        [(1, 1.0, 1.0), (3, 1.0, tiny), (2, 0.0, 1.0), (2, 0.0, 1.0)]
    )
    adv = normalize_advantages(group)
    assert objective("seq", group, adv, clip).objective == pytest.approx(-0.25, abs=1e-12)
    assert objective("balanced", group, adv, clip).objective == pytest.approx(
        -0.375, abs=1e-12
    )


def test_objective_balanced_example(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    assert objective("balanced", group, adv, clip).objective == 0.0


def test_objective_balanced_equals_seq_on_uniform_sign_lengths(clip):
    rng = np.random.default_rng(6)
    for _ in range(100):
        g = int(rng.integers(2, 13))
        k = int(rng.integers(1, g))
        lp = int(rng.integers(1, 9))
        ln = int(rng.integers(1, 9))
        specs = [(lp, 1.0, float(rng.uniform(0.85, 1.2))) for _ in range(k)]
        specs += [(ln, 0.0, float(rng.uniform(0.85, 1.2))) for _ in range(g - k)]
        group = make_group(specs)
        adv = normalize_advantages(group)
        assert objective("balanced", group, adv, clip).objective == pytest.approx(
            objective("seq", group, adv, clip).objective, abs=1e-12
        )


def test_objective_balanced_degenerate_flag(clip):
    group = make_group([(2, 1.0), (3, 1.0)], eps_var=1e-6)
    adv = normalize_advantages(group)
    result = objective("balanced", group, adv, clip)
    assert result.objective == 0.0
    assert result.degenerate
    gen = objective("balanced_gen", group, adv, clip)
    assert gen.objective == 0.0 and gen.degenerate


def test_objective_balanced_single_sided(clip):
    # constructed advantage set with an empty negative subset: the negative
    # term drops with its zero weight, no renormalization of the other side
    group = make_group([(2, 0.0), (4, 0.0), (1, 0.0)])
    adv = [2.0, 1.0, 0.0]
    result = objective("balanced", group, adv, clip)
    expected = (2 / 3) * (2 * 2.0 + 4 * 1.0) / 6
    assert result.objective == pytest.approx(expected, abs=1e-14)
    assert not result.degenerate


def test_objective_balanced_gen_example(clip):
    group = make_group([(1, 0.0), (2, 0.0), (3, 0.0)])
    adv = [2.0, 1.0, -3.0]
    assert objective("balanced_gen", group, adv, clip).objective == pytest.approx(
        0.0, abs=1e-15
    )
    token, seq, balanced, gen = oracle_objectives(group, adv, clip)
    assert gen == pytest.approx(0.0, abs=1e-12)


def test_objective_balanced_gen_reduces_to_balanced_on_binary(clip):
    rng = np.random.default_rng(7)
    for _ in range(300):
        group = drawn_group(random_binary_group(rng))
        adv = normalize_advantages(group)
        assert abs(
            objective("balanced_gen", group, adv, clip).objective
            - objective("balanced", group, adv, clip).objective
        ) <= 1e-12


def test_objectives_match_oracle_on_random_groups(clip):
    rng = np.random.default_rng(8)
    for _ in range(100):
        group = drawn_group(random_real_group(rng))
        try:
            adv = normalize_advantages(group)
        except ValueError:
            continue
        expected = oracle_objectives(group, adv, clip)
        for rule, want in zip(RULES, expected):
            assert objective(rule, group, adv, clip).objective == pytest.approx(want, abs=1e-11)


def test_all_ratio_one_closed_forms(clip):
    rng = np.random.default_rng(9)
    for _ in range(100):
        group = drawn_group(random_binary_group(rng, ratio_low=1.0, ratio_high=1.0))
        adv = normalize_advantages(group)
        k = int(np.count_nonzero(adv > 0.0))
        g = group.size
        n = group.total_tokens
        lengths = np.array(group.lengths)
        tbar_pos = lengths[adv > 0.0].sum() / k
        tbar_neg = lengths[adv < 0.0].sum() / (g - k)
        expected = math.sqrt(k * (g - k)) / n * (tbar_pos - tbar_neg)
        assert objective("token", group, adv, clip).objective == pytest.approx(
            expected, abs=1e-12
        )
        assert abs(objective("seq", group, adv, clip).objective) < 1e-13
        assert abs(objective("balanced", group, adv, clip).objective) < 1e-13


def test_permutation_and_token_order_invariance_exact(clip):
    rng = np.random.default_rng(10)
    for _ in range(50):
        group = drawn_group(random_binary_group(rng))
        adv = normalize_advantages(group)
        perm = rng.permutation(group.size)
        permuted = RolloutGroup(
            "p0", tuple(group.responses[i] for i in perm), 0.0
        )
        padv = adv[perm]
        shuffled = RolloutGroup(
            "p0",
            tuple(
                Response(
                    r.tokens,
                    r.reward,
                    tuple(r.ratios[j] for j in rng.permutation(r.length)),
                )
                for r in group.responses
            ),
            0.0,
        )
        for rule in RULES:
            base = objective(rule, group, adv, clip).objective
            assert objective(rule, permuted, padv, clip).objective == base
            assert objective(rule, shuffled, adv, clip).objective == base


def test_mass_symmetry(clip):
    rng = np.random.default_rng(11)
    for _ in range(200):
        group = drawn_group(random_real_group(rng))
        try:
            adv = normalize_advantages(group)
        except ValueError:
            continue
        m_pos = math.fsum(adv[adv > 0.0])
        m_neg = math.fsum(-adv[adv < 0.0])
        half = 0.5 * math.fsum(abs(adv))
        assert abs(m_pos - m_neg) < 1e-10
        assert abs(m_pos - half) < 1e-10


def test_missing_ratios_rejected(clip):
    group = RolloutGroup(
        "p0",
        (Response(None, 1.0, token_count=3), Response(None, 0.0, token_count=5)),
    )
    adv = normalize_advantages(group)
    with pytest.raises(MissingRatiosError):
        objective("token", group, adv, clip)


def test_shape_mismatch_rejected(clip):
    group = make_group([(2, 1.0), (1, 0.0)])
    with pytest.raises(ValueError):
        objective("token", group, [1.0, -1.0, 0.5], clip)


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5", None, 1j])
def test_one_group_calls_reject_an_advantage_that_is_not_a_finite_real(clip, bad, as_array):
    # a NaN fails both ``> 0`` and ``< 0``, so unchecked it would drop out of
    # both sign subsets as if it were a zero advantage
    group = make_group([(2, 1.0, 1.1), (1, 0.0, 0.9), (3, 0.0, 1.05)])
    good = normalize_advantages(group)
    advantages = [*good.tolist()[:2], bad]
    if as_array:
        advantages = np.array(advantages, dtype=float if isinstance(bad, float) else object)
    calls = [
        lambda: objective("token", group, advantages, clip),
        lambda: compute_rule_sums(group, advantages, clip),
        lambda: decompose(group, advantages, clip, "balanced"),
        lambda: gradient_check("token", group, advantages, clip),
        lambda: ba_weight_identity(group, advantages, clip),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("advantages[2]")):
            call()


def test_objective_errors_come_in_order(clip):
    length_only = RolloutGroup(
        "p0", (Response(None, 1.0, token_count=3), Response(None, 0.0, token_count=5))
    )
    with pytest.raises(ValueError, match="advantage set of size 3 does not match group of size 2"):
        objective("mean", length_only, [1.0, -1.0, 0.5], clip)
    with pytest.raises(MissingRatiosError, match="'p0': response 0 is length-only"):
        objective("mean", length_only, [1.0, -1.0], clip)
    # two finite negative phi terms whose sum overflows, then one that is -inf
    huge = make_group([(2, 1.0, 1e308), (1, 0.0)])
    with pytest.raises(OverflowError, match="the rule sums overflow a float"):
        objective("mean", huge, [-1.0, 1.0], clip)
    with pytest.raises(OverflowError, match="the rule sums overflow a float"):
        compute_rule_sums(huge, [-1.0, 1.0], clip)
    infinite = [-1e300, 1.0]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="unknown rule 'mean'"):
            objective("mean", huge, infinite, clip)
        with pytest.raises(ValueError, match="non-finite token objective for group 'p0'"):
            objective("token", huge, infinite, clip)


def test_gradient_check_smooth(clip):
    rng = np.random.default_rng(12)
    for i in range(20):
        group = drawn_group(random_smooth_group(rng, clip))
        adv = normalize_advantages(group)
        assert gradient_check(RULES[i % 4], group, adv, clip, h=1e-6) < 1e-5


def test_gradient_check_zero_advantages(clip):
    group = make_group([(2, 1.0), (3, 1.0)], eps_var=1e-6)
    adv = normalize_advantages(group)
    assert gradient_check("token", group, adv, clip, h=1e-6) == 0.0


def test_gradient_check_boundary_rejected(clip):
    group = make_group([(1, 1.0, 1.28), (1, 0.0, 1.0)])
    adv = normalize_advantages(group)
    with pytest.raises(BoundaryProximityError) as err:
        gradient_check("token", group, adv, clip, h=1e-6)
    assert err.value.offenders[0][:2] == (0, 0)


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan])
def test_gradient_check_refuses_an_h_that_is_not_positive(clip, h):
    # a NaN h fails ``h <= 0`` too, and would perturb every ratio to NaN
    group = make_group([(2, 1.0, 1.1), (1, 0.0, 0.9)])
    with pytest.raises(ValueError, match=re.escape("h must be > 0")):
        gradient_check("token", group, normalize_advantages(group), clip, h=h)


def test_gradient_check_errors_come_in_order(clip):
    # h first, then objective's errors in objective's order
    length_only = RolloutGroup(
        "p0", (Response(None, 1.0, token_count=3), Response(None, 0.0, token_count=5))
    )
    with pytest.raises(ValueError, match=re.escape("h must be > 0")):
        gradient_check("mean", length_only, [1.0, -1.0, 0.5], clip, h=0.0)
    with pytest.raises(ValueError, match="advantage set of size 3 does not match group of size 2"):
        gradient_check("mean", length_only, [1.0, -1.0, 0.5], clip)
    with pytest.raises(MissingRatiosError, match="'p0': response 0 is length-only"):
        gradient_check("mean", length_only, [1.0, -1.0], clip)
    huge = make_group([(2, 1.0, 1e308), (1, 0.0)])
    with pytest.raises(OverflowError, match="the rule sums overflow a float"):
        gradient_check("mean", huge, [-1.0, 1.0], clip)
    infinite = [-1e300, 1.0]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="unknown rule 'mean'"):
            gradient_check("mean", huge, infinite, clip)
        with pytest.raises(ValueError, match="non-finite token objective for group 'p0'"):
            gradient_check("token", huge, infinite, clip)


def test_gradient_check_returns_nan_for_a_nan_gradient(clip, monkeypatch):
    exact = FlatBatch.ratio_gradients
    monkeypatch.setattr(FlatBatch, "ratio_gradients", lambda self, *args: exact(self, *args) * math.nan)
    group = drawn_group(random_smooth_group(np.random.default_rng(12), clip))
    assert math.isnan(gradient_check("seq", group, normalize_advantages(group), clip))


@pytest.mark.parametrize(
    "lengths, ratios, message",
    [
        ([1, 1, 1], 3, "3 ratio arrays and 2 advantages for 2 responses"),
        ([1, 2], 2, "2 ratios for 3 tokens"),
    ],
)
def test_flat_batch_refuses_columns_that_do_not_line_up(lengths, ratios, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FlatBatch(np.array([1.0, -1.0]), [2], lengths, np.ones(ratios))


def test_gradients_zero_beyond_clip(clip):
    # positive advantage clipped above, negative clipped below
    group = make_group([(1, 1.0, 2.0), (1, 0.0, 0.5)])
    adv = normalize_advantages(group)
    result = objective("token", group, adv, clip)
    assert result.grad_ratios[0][0] == 0.0
    assert result.grad_ratios[1][0] == 0.0
    inside = make_group([(1, 1.0, 1.1), (1, 0.0, 0.9)])
    result2 = objective("token", inside, normalize_advantages(inside), clip)
    assert result2.grad_ratios[0][0] == pytest.approx(0.5)  # A=+1 over N=2
    assert result2.grad_ratios[1][0] == pytest.approx(-0.5)


# --- the rule table against the per-rule reference ---

def table_cases(rng):
    """Binary, real, zero-advantage, single-sided and all-zero groups."""
    for _ in range(40):
        group = drawn_group(random_binary_group(rng))
        yield group, normalize_advantages(group)
        group = drawn_group(random_real_group(rng))
        a = normalize_advantages(group)
        yield group, a
        g = group.size
        yield group, [x if i % 3 else 0.0 for i, x in enumerate(a.tolist())]
        yield group, [abs(x) if i % 2 else 0.0 for i, x in enumerate(a.tolist())]
        yield group, -abs(a)
        yield group, [0.0] * g


def test_rule_table_matches_chains_and_objective_exactly(clip):
    rng = np.random.default_rng(21)
    kinds = set()
    for group, adv in table_cases(rng):
        signs = np.sign(adv)
        kinds.add((1.0 in signs, -1.0 in signs, 0.0 in signs))
        arrays = [np.asarray(r.ratios, dtype=float) for r in group.responses]
        sums = compute_rule_sums(group, adv, clip)  # once for all four rules
        row = sums_row(sums)
        assert row == reference_rule_sums(adv, arrays, clip)
        for rule in RULES:
            table, table_degen = (c.item() for c in rule_table(sums, (rule,))[rule][:2])
            result = objective(rule, group, adv, clip)
            want, want_degen, _, _ = reference_rule_terms(rule, row)
            assert table == result.objective == want
            assert table_degen == result.degenerate == want_degen
            want_grads = reference_ratio_gradients(rule, row, adv, arrays, clip)
            assert len(result.grad_ratios) == len(want_grads)
            for got, want_g in zip(result.grad_ratios, want_grads):
                assert got.dtype == want_g.dtype and got.tobytes() == want_g.tobytes()
    # every sign pattern was exercised, the all-zero one included
    assert (False, False, True) in kinds
    assert (True, False, True) in kinds and (False, True, False) in kinds


def test_rule_table_rejects_unknown_rule(clip):
    group = make_group([(2, 1.0), (3, 0.0)])
    sums = compute_rule_sums(group, normalize_advantages(group), clip)
    with pytest.raises(ValueError, match="unknown rule"):
        rule_table(sums, ("mean",))


def test_compute_rule_sums_is_one_row_of_sum_columns(clip):
    # the reference's fields are the columns' fields, minus ``ok``
    assert RefSums._fields == SumColumns._fields[:-1]
    group = make_group([(2, 1.0), (3, 0.0)])
    sums = compute_rule_sums(group, normalize_advantages(group), clip)
    assert type(sums) is SumColumns
    assert all(column.shape == (1,) for column in sums) and sums.ok[0]


def test_the_token_pass_leaves_its_inputs_alone(clip):
    # rule_sums and ratio_gradients work in place only on arrays of their own
    rng = np.random.default_rng(5)
    groups = [drawn_group(random_binary_group(rng)), drawn_group(random_real_group(rng)), make_group([(2, 1.0, 2.0), (1, 0.0, 0.5)])]
    responses = [r for g in groups for r in g.responses]
    advantages = np.concatenate([normalize_advantages(g) for g in groups])
    ratios = np.concatenate([r.ratios for r in responses])
    batch = FlatBatch(advantages, [g.size for g in groups], [len(r.ratios) for r in responses], ratios)
    assert batch.advantages is advantages and batch.ratios is ratios
    columns = (batch.ratios, batch.advantages, batch.token_advantages)
    before = [column.tobytes() for column in columns]
    table = rule_table(batch.rule_sums(clip))
    for rule in RULES:
        batch.ratio_gradients(clip, *table[rule][2:])
    assert [column.tobytes() for column in columns] == before
