import math

import numpy as np
import pytest

from grpoagg.aggregate import (
    RULES,
    BoundaryProximityError,
    ClipConfig,
    MissingRatiosError,
    SumColumns,
    compute_rule_sums,
    gradient_check,
    objective,
    phi,
    rule_terms,
)
from grpoagg.groups import (
    AdvantageSet,
    Response,
    RolloutGroup,
    normalize_advantages,
)
from grpoagg.verify import random_binary_group, random_real_group, random_smooth_group

from conftest import make_group, reference_rule_sums


# --- independent oracle: literal formulas, plain python loops ---

def oracle_phi(rho, a, clip):
    clamped = min(max(rho, 1.0 - clip.clip_low), 1.0 + clip.clip_high)
    return min(rho * a, clamped * a)


def oracle_objectives(group, adv, clip):
    g = group.size
    per_resp = []
    for resp, a in zip(group.responses, adv.advantages):
        per_resp.append([oracle_phi(r, a, clip) for r in resp.ratios])
    n = sum(len(p) for p in per_resp)
    token = sum(sum(p) for p in per_resp) / n
    seq = sum(sum(p) / len(p) for p in per_resp) / g
    pos, neg = adv.pos_indices, adv.neg_indices
    n_pos = sum(len(per_resp[i]) for i in pos)
    n_neg = sum(len(per_resp[i]) for i in neg)
    balanced = 0.0
    if pos:
        balanced += (len(pos) / g) * sum(sum(per_resp[i]) for i in pos) / n_pos
    if neg:
        balanced += (len(neg) / g) * sum(sum(per_resp[i]) for i in neg) / n_neg
    m_pos = sum(adv.advantages[i] for i in pos)
    m_neg = sum(-adv.advantages[i] for i in neg)
    z_pos = sum(adv.advantages[i] * len(per_resp[i]) for i in pos)
    z_neg = sum(-adv.advantages[i] * len(per_resp[i]) for i in neg)
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
        group = random_binary_group(rng, ratio_low=0.85, ratio_high=1.25)
        adv = normalize_advantages(group)
        expected = sum(
            r * a
            for resp, a in zip(group.responses, adv.advantages)
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
        group = random_binary_group(rng, max_len=1)
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
    adv = AdvantageSet.from_advantages([2.0, 1.0, 0.0])
    result = objective("balanced", group, adv, clip)
    expected = (2 / 3) * (2 * 2.0 + 4 * 1.0) / 6
    assert result.objective == pytest.approx(expected, abs=1e-14)
    assert not result.degenerate


def test_objective_balanced_gen_example(clip):
    group = make_group([(1, 0.0), (2, 0.0), (3, 0.0)])
    adv = AdvantageSet.from_advantages([2.0, 1.0, -3.0])
    assert objective("balanced_gen", group, adv, clip).objective == pytest.approx(
        0.0, abs=1e-15
    )
    token, seq, balanced, gen = oracle_objectives(group, adv, clip)
    assert gen == pytest.approx(0.0, abs=1e-12)


def test_objective_balanced_gen_reduces_to_balanced_on_binary(clip):
    rng = np.random.default_rng(7)
    for _ in range(300):
        group = random_binary_group(rng)
        adv = normalize_advantages(group)
        assert abs(
            objective("balanced_gen", group, adv, clip).objective
            - objective("balanced", group, adv, clip).objective
        ) <= 1e-12


def test_objectives_match_oracle_on_random_groups(clip):
    rng = np.random.default_rng(8)
    for _ in range(100):
        group = random_real_group(rng)
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
        group = random_binary_group(rng, ratio_low=1.0, ratio_high=1.0)
        adv = normalize_advantages(group)
        k = adv.k
        g = group.size
        n = group.total_tokens
        lengths = group.lengths
        tbar_pos = sum(lengths[i] for i in adv.pos_indices) / k
        tbar_neg = sum(lengths[i] for i in adv.neg_indices) / (g - k)
        expected = math.sqrt(k * (g - k)) / n * (tbar_pos - tbar_neg)
        assert objective("token", group, adv, clip).objective == pytest.approx(
            expected, abs=1e-12
        )
        assert abs(objective("seq", group, adv, clip).objective) < 1e-13
        assert abs(objective("balanced", group, adv, clip).objective) < 1e-13


def test_permutation_and_token_order_invariance_exact(clip):
    rng = np.random.default_rng(10)
    for _ in range(50):
        group = random_binary_group(rng)
        adv = normalize_advantages(group)
        perm = rng.permutation(group.size)
        permuted = RolloutGroup(
            "p0", tuple(group.responses[i] for i in perm), 0.0
        )
        padv = AdvantageSet.from_advantages([adv.advantages[i] for i in perm])
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
        group = random_real_group(rng)
        try:
            adv = normalize_advantages(group)
        except ValueError:
            continue
        m_pos = math.fsum(adv.advantages[i] for i in adv.pos_indices)
        m_neg = math.fsum(-adv.advantages[i] for i in adv.neg_indices)
        half = 0.5 * math.fsum(abs(a) for a in adv.advantages)
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
    other = AdvantageSet.from_advantages([1.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        objective("token", group, other, clip)


def test_objective_errors_come_in_order(clip):
    length_only = RolloutGroup(
        "p0", (Response(None, 1.0, token_count=3), Response(None, 0.0, token_count=5))
    )
    with pytest.raises(ValueError, match="advantage set of size 3 does not match group of size 2"):
        objective("mean", length_only, AdvantageSet.from_advantages([1.0, -1.0, 0.5]), clip)
    with pytest.raises(MissingRatiosError, match="'p0': response 0 is length-only"):
        objective("mean", length_only, AdvantageSet.from_advantages([1.0, -1.0]), clip)
    # two finite negative phi terms whose sum overflows, then one that is -inf
    huge = make_group([(2, 1.0, 1e308), (1, 0.0)])
    with pytest.raises(OverflowError, match="the rule sums overflow a float"):
        objective("mean", huge, AdvantageSet.from_advantages([-1.0, 1.0]), clip)
    with pytest.raises(OverflowError, match="the rule sums overflow a float"):
        compute_rule_sums(huge, AdvantageSet.from_advantages([-1.0, 1.0]), clip)
    infinite = AdvantageSet.from_advantages([-1e300, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="unknown rule 'mean'"):
            objective("mean", huge, infinite, clip)
        with pytest.raises(ValueError, match="non-finite token objective for group 'p0'"):
            objective("token", huge, infinite, clip)


def test_gradient_check_smooth(clip):
    rng = np.random.default_rng(12)
    for i in range(20):
        group = random_smooth_group(rng, clip)
        adv = normalize_advantages(group)
        result = objective(RULES[i % 4], group, adv, clip)
        assert gradient_check(result, group, adv, clip, h=1e-6) < 1e-5


def test_gradient_check_zero_advantages(clip):
    group = make_group([(2, 1.0), (3, 1.0)], eps_var=1e-6)
    adv = normalize_advantages(group)
    result = objective("token", group, adv, clip)
    assert gradient_check(result, group, adv, clip, h=1e-6) == 0.0


def test_gradient_check_boundary_rejected(clip):
    group = make_group([(1, 1.0, 1.28), (1, 0.0, 1.0)])
    adv = normalize_advantages(group)
    result = objective("token", group, adv, clip)
    with pytest.raises(BoundaryProximityError) as err:
        gradient_check(result, group, adv, clip, h=1e-6)
    assert err.value.offenders[0][:2] == (0, 0)


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


# --- the rule table against the per-rule if-chains it replaced ---

def chain_terms(rule, s):
    """Objective, degenerate flag and sign weights, spelled out per rule."""
    g = s.size
    w_pos = w_neg = 0.0
    degenerate = False
    if rule == "token":
        objective = (s.pos_phi + s.neg_phi) / s.total_tokens
    elif rule == "seq":
        objective = (s.pos_seq + s.neg_seq) / g
    elif rule == "balanced":
        term_pos = (s.k / g) * (s.pos_phi / s.n_pos) if s.k else 0.0
        term_neg = (s.neg_count / g) * (s.neg_phi / s.n_neg) if s.neg_count else 0.0
        objective = term_pos + term_neg
        degenerate = s.k == 0 and s.neg_count == 0
        if s.k:
            w_pos = (s.k / g) / s.n_pos
        if s.neg_count:
            w_neg = (s.neg_count / g) / s.n_neg
    else:
        term_pos = (s.m_pos / g) * (s.pos_phi / s.z_pos) if s.k else 0.0
        term_neg = (s.m_neg / g) * (s.neg_phi / s.z_neg) if s.neg_count else 0.0
        objective = term_pos + term_neg
        degenerate = s.k == 0 and s.neg_count == 0
        if s.k:
            w_pos = (s.m_pos / g) / s.z_pos
        if s.neg_count:
            w_neg = (s.m_neg / g) / s.z_neg
    return objective, degenerate, w_pos, w_neg


def chain_gradients(rule, s, adv, arrays, clip):
    _, _, w_pos, w_neg = chain_terms(rule, s)
    out = []
    for arr, a in zip(arrays, adv.advantages):
        if rule == "token":
            w = 1.0 / s.total_tokens
        elif rule == "seq":
            w = 1.0 / (s.size * len(arr))
        else:
            w = w_pos if a > 0.0 else w_neg if a < 0.0 else 0.0
        if a > 0.0:
            dphi = a * (arr <= clip.upper).astype(float)
        elif a < 0.0:
            dphi = a * (arr >= clip.lower).astype(float)
        else:
            dphi = np.zeros_like(arr)
        out.append(w * dphi)
    return out


def table_cases(rng):
    """Binary, real, zero-advantage, single-sided and all-zero groups."""
    for _ in range(40):
        group = random_binary_group(rng)
        yield group, normalize_advantages(group)
        group = random_real_group(rng)
        adv = normalize_advantages(group)
        yield group, adv
        a = adv.advantages
        g = group.size
        yield group, AdvantageSet.from_advantages([x if i % 3 else 0.0 for i, x in enumerate(a)])
        yield group, AdvantageSet.from_advantages([abs(x) if i % 2 else 0.0 for i, x in enumerate(a)])
        yield group, AdvantageSet.from_advantages([-abs(x) for x in a])
        yield group, AdvantageSet.from_advantages([0.0] * g)


def test_rule_table_matches_chains_and_objective_exactly(clip):
    rng = np.random.default_rng(21)
    kinds = set()
    for group, adv in table_cases(rng):
        kinds.add((adv.k > 0, len(adv.neg_indices) > 0, len(adv.zero_indices) > 0))
        arrays = [np.asarray(r.ratios, dtype=float) for r in group.responses]
        sums = compute_rule_sums(group, adv, clip)  # once for all four rules
        assert sums == reference_rule_sums(adv, arrays, clip)
        for rule in RULES:
            table, table_degen = (c.item() for c in rule_terms(rule, SumColumns.of([sums]))[:2])
            result = objective(rule, group, adv, clip)
            want, want_degen, _, _ = chain_terms(rule, sums)
            assert table == result.objective == want
            assert table_degen == result.degenerate == want_degen
            want_grads = chain_gradients(rule, sums, adv, arrays, clip)
            assert len(result.grad_ratios) == len(want_grads)
            for got, want_g in zip(result.grad_ratios, want_grads):
                assert got.dtype == want_g.dtype and got.tobytes() == want_g.tobytes()
    # every sign pattern was exercised, the all-zero one included
    assert (False, False, True) in kinds
    assert (True, False, True) in kinds and (False, True, False) in kinds


def test_rule_terms_rejects_unknown_rule(clip):
    group = make_group([(2, 1.0), (3, 0.0)])
    sums = compute_rule_sums(group, normalize_advantages(group), clip)
    with pytest.raises(ValueError, match="unknown rule"):
        rule_terms("mean", SumColumns.of([sums]))
