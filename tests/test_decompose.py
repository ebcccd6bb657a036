import importlib
import math

import numpy as np
import pytest

from grpoagg.aggregate import RULES, objective
from grpoagg.decompose import (
    LengthStats,
    LengthTally,
    NonBinaryRewardError,
    ba_weight_identity,
    decompose,
    length_stats,
    pooled_mean,
    regime_report,
)
from grpoagg.groups import Response, RolloutGroup, normalize_advantages
from grpoagg.verify import random_binary_group

from conftest import drawn_group, length_columns, make_group


def test_decompose_token_example(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    report = decompose(group, adv, clip, "token")
    assert report.prefactor == pytest.approx(2.0 / 8.0, abs=1e-15)
    assert report.tbar_pos == 3.0 and report.tbar_neg == 1.0
    assert report.delta_pos == pytest.approx(1.0, abs=1e-13)
    assert report.delta_neg == pytest.approx(1.0, abs=1e-13)
    assert report.reconstructed_objective == pytest.approx(0.5, abs=1e-13)
    assert report.n_pos == 6 and report.n_neg == 2


def test_decompose_seq_example(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    report = decompose(group, adv, clip, "seq")
    assert report.prefactor == pytest.approx(0.5, abs=1e-15)
    assert report.delta_pos == pytest.approx(1.0, abs=1e-13)
    assert report.delta_neg == pytest.approx(1.0, abs=1e-13)
    assert report.reconstructed_objective == pytest.approx(0.0, abs=1e-13)


def test_decompose_gen_example(clip):
    group = make_group([(1, 0.0), (2, 0.0), (3, 0.0)])
    report = decompose(group, [2.0, 1.0, -3.0], clip, "balanced_gen")
    assert report.m_pos == 3.0 and report.m_neg == 3.0
    assert report.z_pos == 4.0 and report.z_neg == 9.0
    assert report.reconstructed_objective == pytest.approx(0.0, abs=1e-14)


def test_decompose_rejects_non_binary_for_binary_rules(clip):
    group = make_group([(1, 2.0), (1, 0.0)])
    adv = normalize_advantages(group)
    for rule in ("token", "seq", "balanced"):
        with pytest.raises(NonBinaryRewardError):
            decompose(group, adv, clip, rule)
    # eps_var > 0 also breaks the closed form
    floored = make_group([(1, 1.0), (1, 0.0)], eps_var=1e-6)
    fadv = normalize_advantages(floored)
    with pytest.raises(NonBinaryRewardError):
        decompose(floored, fadv, clip, "token")


def test_decompose_rejects_an_unknown_rule(clip):
    group = make_group([(1, 1.0), (1, 0.0)])
    with pytest.raises(ValueError) as err:
        decompose(group, normalize_advantages(group), clip, "mean")
    assert str(err.value) == f"unknown rule 'mean'; expected one of {RULES}"


def test_reconstruction_identities_random(clip):
    rng = np.random.default_rng(20)
    for _ in range(300):
        group = drawn_group(random_binary_group(rng))
        adv = normalize_advantages(group)
        for rule in ("token", "seq", "balanced", "balanced_gen"):
            value = objective(rule, group, adv, clip).objective
            report = decompose(group, adv, clip, rule)
            assert abs(value - report.reconstructed_objective) <= 1e-12


def test_token_counts_partition(clip):
    rng = np.random.default_rng(21)
    for _ in range(50):
        group = drawn_group(random_binary_group(rng))
        adv = normalize_advantages(group)
        report = decompose(group, adv, clip, "token")
        assert report.n_pos + report.n_neg == group.total_tokens


def test_token_counts_partition_with_zero_advantages(clip):
    # rewards [0, 1, 2]: the middle response ties the mean, advantage 0,
    # and its tokens count toward N but toward neither sign subset
    group = make_group([(2, 0.0), (3, 1.0), (4, 2.0)])
    adv = normalize_advantages(group)
    assert (adv == 0.0).nonzero()[0].tolist() == [1]
    report = decompose(group, adv, clip, "balanced_gen")
    zero_tokens = group.lengths[1]
    assert report.n_pos + report.n_neg + zero_tokens == group.total_tokens
    assert report.n_pos == 4 and report.n_neg == 2 and zero_tokens == 3


def test_delta_seq_equals_delta_ba_on_uniform_lengths(clip):
    rng = np.random.default_rng(22)
    for _ in range(100):
        g = int(rng.integers(4, 13))
        k = int(rng.integers(1, g))
        lp, ln = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        specs = [(lp, 1.0, float(rng.uniform(0.85, 1.2))) for _ in range(k)]
        specs += [(ln, 0.0, float(rng.uniform(0.85, 1.2))) for _ in range(g - k)]
        group = make_group(specs)
        adv = normalize_advantages(group)
        seq_rep = decompose(group, adv, clip, "seq")
        ba_rep = decompose(group, adv, clip, "balanced")
        assert seq_rep.delta_pos == pytest.approx(ba_rep.delta_pos, abs=1e-12)
        assert seq_rep.delta_neg == pytest.approx(ba_rep.delta_neg, abs=1e-12)


def test_ba_weight_identity_examples(clip):
    group = make_group([(2, 1.0)] * 8 + [(3, 0.0)] * 8)
    adv = normalize_advantages(group)
    ba, seq, match = ba_weight_identity(group, adv, clip)
    assert ba == 0.5 and seq == 0.5 and match

    group41 = make_group([(2, 1.0), (1, 0.0), (4, 0.0), (2, 0.0)])
    adv41 = normalize_advantages(group41)
    ba, seq, match = ba_weight_identity(group41, adv41, clip)
    assert ba == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert seq == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert match


def test_ba_weight_identity_runs_the_sign_sums_once(clip, monkeypatch):
    module = importlib.import_module("grpoagg.decompose")  # the package's name is the function
    calls = []
    sums = module.compute_rule_sums
    monkeypatch.setattr(module, "compute_rule_sums", lambda *a: calls.append(1) or sums(*a))
    group = make_group([(2, 1.0), (1, 0.0), (4, 0.0), (2, 0.0)])
    assert ba_weight_identity(group, normalize_advantages(group), clip)[2]
    assert len(calls) == 1


def test_ba_weight_identity_random(clip):
    rng = np.random.default_rng(23)
    for _ in range(300):
        group = drawn_group(random_binary_group(rng))
        adv = normalize_advantages(group)
        assert ba_weight_identity(group, adv, clip)[2]


def test_ba_weight_identity_rejects_non_binary(clip):
    group = make_group([(1, 0.25), (1, 0.75)])
    adv = normalize_advantages(group)
    with pytest.raises(NonBinaryRewardError):
        ba_weight_identity(group, adv, clip)


def test_ba_weight_identity_size_mismatch_has_the_shared_text(clip):
    group = make_group([(1, 1.0), (2, 0.0)])
    with pytest.raises(ValueError) as exc:
        ba_weight_identity(group, [1.0, -1.0, 0.0], clip)
    assert str(exc.value) == "advantage set of size 3 does not match group of size 2"


def test_ba_weight_identity_rejects_degenerate_subset(clip):
    group = make_group([(1, 1.0), (2, 0.0)])
    with pytest.raises(ValueError, match="degenerate subset"):
        ba_weight_identity(group, [2.0, 1.0], clip)  # no negatives


def test_length_stats_example(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    stats = length_stats(*length_columns([group], [adv]))
    assert stats.mean_len == 2.0
    assert stats.len_cv == pytest.approx(math.sqrt(1.5) / 2.0, abs=1e-15)
    assert stats.tbar_pos == 3.0 and stats.tbar_neg == 1.0
    assert stats.len_gap == pytest.approx(-1.0, abs=1e-15)


def test_length_stats_uniform_lengths(clip):
    group = make_group([(3, 1.0), (3, 0.0), (3, 1.0), (3, 0.0)])
    adv = normalize_advantages(group)
    stats = length_stats(*length_columns([group], [adv]))
    assert stats.len_cv == 0.0
    assert stats.len_gap == 0.0


def test_length_stats_pooling_idempotent(clip):
    group = make_group([(2, 1.0), (4, 1.0), (1, 0.0), (1, 0.0)])
    adv = normalize_advantages(group)
    single = length_stats(*length_columns([group], [adv]))
    double = length_stats(*length_columns([group, group], [adv, adv]))
    assert single == double


def test_length_stats_absent_gap():
    group = make_group([(2, 1.0), (4, 1.0)], eps_var=1e-6)
    adv = normalize_advantages(group)
    stats = length_stats(*length_columns([group], [adv]))
    assert stats.tbar_pos is None and stats.tbar_neg is None
    assert stats.len_gap is None


def test_length_tally_gives_length_stats_bits():
    # lengths up to 2**40 make the fsums' rounding matter; the tally must
    # still give exactly the bits of length_stats over the same groups
    rng = np.random.default_rng(5)
    groups = []
    for _ in range(40):
        responses = [
            Response(None, float(rng.integers(2)), token_count=int(rng.choice([1, 3, 2**40 + int(rng.integers(9))])))
            for _ in range(int(rng.integers(2, 7)))
        ]
        groups.append(RolloutGroup("p", tuple(responses), 1e-6))
    advs = [normalize_advantages(g) for g in groups]
    tally = LengthTally()
    for group, adv in zip(groups, advs):
        tally.add(*length_columns([group], [adv]))
    assert repr(tally.stats()) == repr(length_stats(*length_columns(groups, advs)))
    with pytest.raises(ValueError, match="non-empty"):
        LengthTally().stats()


def test_len_gap_invariant_under_integer_length_scaling(clip):
    rng = np.random.default_rng(24)
    for _ in range(50):
        group = drawn_group(random_binary_group(rng, max_len=6))
        adv = normalize_advantages(group)
        base = length_stats(*length_columns([group], [adv]))
        factor = int(rng.integers(2, 5))
        scaled = make_group(
            [
                (r.length * factor, r.reward)
                for r in group.responses
            ]
        )
        sadv = normalize_advantages(scaled)
        sstats = length_stats(*length_columns([scaled], [sadv]))
        assert sstats.len_gap == pytest.approx(base.len_gap, abs=1e-12)


def test_regime_report_examples():
    assert regime_report(LengthStats(1.0, 0.9, 1.0, 1.0, 0.05)) == "favors-token"
    assert regime_report(LengthStats(1.0, 0.1, 1.0, 1.0, 0.6)) == "favors-seq"
    assert regime_report(LengthStats(1.0, 0.0, 1.0, 1.0, 0.0)) == "mixed"
    assert regime_report(LengthStats(1.0, 0.9, 1.0, 1.0, 0.6)) == "mixed"
    assert regime_report(LengthStats(1.0, 0.9, None, None, None)) == "mixed"
    # the cutoffs are 0.5 on the CV and 0.2 on |len_gap|, both strict
    assert regime_report(LengthStats(1.0, 0.5, 1.0, 1.0, -0.2)) == "mixed"
    assert regime_report(LengthStats(1.0, 0.5000001, 1.0, 1.0, 0.2)) == "favors-token"
    assert regime_report(LengthStats(1.0, 0.5, 1.0, 1.0, -0.2000001)) == "favors-seq"


def test_pooled_mean_is_fsum_mean_unless_the_sum_overflows():
    values = [0.1, 0.2, 0.3, 1e-17]
    assert pooled_mean(values) == math.fsum(values) / 4
    assert pooled_mean([1e308, 1e308, 1e308]) == 1e308
    assert pooled_mean([1.7e308, -1.7e308, 1.7e308]) == pytest.approx(1.7e308 / 3)
