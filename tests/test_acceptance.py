"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import math
import time
from math import fsum
from pathlib import Path

import numpy as np
import pytest

from grpoagg.aggregate import ClipConfig, gradient_check, objective
from grpoagg.decompose import ba_weight_identity, decompose
from grpoagg.groups import (
    binary_closed_form,
    normalize_advantages,
    normalize_columns,
)
from grpoagg.rollout_io import (
    RolloutLogError,
    parse_rollout_line,
    read_rollouts,
    write_metrics,
    write_rollouts,
)
from grpoagg.sim import (
    COUNT_SYMBOL,
    EOS_TOKEN,
    PolicyTable,
    TaskSpec,
    TrainConfig,
    logit_gradient_check,
    rollout_seed,
    run_training,
    sample_group,
    sample_step,
    verify_reward,
)
from grpoagg.verify import random_binary_group, random_real_group, random_smooth_group

from conftest import drawn_group, make_group

DATA = Path(__file__).parent / "data"
CLIP = ClipConfig(0.2, 0.28)


def binary_groups(seed, count, **kw):
    rng = np.random.default_rng(seed)
    kw.setdefault("max_group", 32)
    return [drawn_group(random_binary_group(rng, **kw)) for _ in range(count)]


def binary_instances(seed, count, **kw):
    return [(g, normalize_advantages(g)) for g in binary_groups(seed, count, **kw)]


def test_a1_closed_form_advantages():
    groups = binary_groups(101, 1000)
    start = time.perf_counter()
    worst = 0.0
    for group in groups:
        adv = normalize_advantages(group)
        pos, neg = binary_closed_form(group.size, int(np.count_nonzero(adv > 0.0)))
        for a, r in zip(adv.tolist(), group.rewards):
            worst = np.maximum(worst, abs(a - (pos if r == 1.0 else neg)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"A1 PASS closed-form advantages: max_err={worst:.3e} ({elapsed:.2f}s)")


def test_a2_decomposition_identities():
    instances = binary_instances(101, 1000)
    start = time.perf_counter()
    worst = 0.0
    for group, adv in instances:
        for rule in ("token", "seq", "balanced"):
            value = objective(rule, group, adv, CLIP).objective
            report = decompose(group, adv, CLIP, rule)
            worst = np.maximum(worst, abs(value - report.reconstructed_objective))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"A2 PASS decomposition identities: max_err={worst:.3e} ({elapsed:.2f}s)")


def test_a3_ba_weight_identity():
    worst = 0.0
    for group, adv in binary_instances(103, 1000):
        ba, seq, match = ba_weight_identity(group, adv, CLIP)
        assert match
        worst = np.maximum(worst, abs(ba - seq))
    print(f"A3 PASS inter-sign prefactor identity: max_err={worst:.3e}")


def test_a4_generalized_reduction_on_binary():
    worst = 0.0
    for group, adv in binary_instances(104, 1000, ratio_low=0.5, ratio_high=1.8):
        worst = np.maximum(
            worst,
            abs(
                objective("balanced_gen", group, adv, CLIP).objective
                - objective("balanced", group, adv, CLIP).objective
            ),
        )
    assert worst <= 1e-12
    print(f"A4 PASS generalized rule reduces to balanced: max_err={worst:.3e}")


def test_a5_mass_symmetry():
    rng = np.random.default_rng(105)
    worst = 0.0
    n = 0
    while n < 1000:
        group = drawn_group(random_real_group(rng))
        adv = normalize_advantages(group)
        n += 1
        report = decompose(group, adv, CLIP, "balanced_gen")
        half = 0.5 * fsum(abs(adv))
        worst = np.max([worst, abs(report.m_pos - report.m_neg), abs(report.m_pos - half)])
    assert worst <= 1e-10
    print(f"A5 PASS advantage-mass symmetry: max_err={worst:.3e}")


def test_a6_gradient_correctness():
    start = time.perf_counter()
    rules = ("token", "seq", "balanced", "balanced_gen")
    rng = np.random.default_rng(106)
    worst_ratio = 0.0
    for i in range(60):
        group = drawn_group(random_smooth_group(rng, CLIP))
        adv = normalize_advantages(group)
        worst_ratio = np.maximum(worst_ratio, gradient_check(rules[i % 4], group, adv, CLIP, h=1e-6))
    worst_logit = 0.0
    task = TaskSpec("count", vocab_size=3, t_max=5, num_prompts=2)
    for i in range(40):
        old = PolicyTable(rng.normal(scale=0.3, size=(2, 5, 3)))
        policy = PolicyTable(old.logits + rng.normal(scale=0.05, size=(2, 5, 3)))
        rollouts = sample_step(old, task, [0, 1], 6, [rollout_seed(106, i, p) for p in range(2)])
        advantages = normalize_columns(rollouts.rewards, rollouts.sizes, [1e-6] * 2, ["0", "1"]).advantages
        worst_logit = np.maximum(
            worst_logit,
            logit_gradient_check(policy, rollouts, advantages, rules[i % 4], CLIP),
        )
    elapsed = time.perf_counter() - start
    assert worst_ratio <= 1e-5
    assert worst_logit <= 1e-4
    assert elapsed < 30.0
    print(
        f"A6 PASS gradients: ratio-level max_err={worst_ratio:.3e}, "
        f"logit-level max_err={worst_logit:.3e} ({elapsed:.2f}s)"
    )


def test_a7_sign_length_coupling():
    start = time.perf_counter()

    # exact static form: Tbar- = 2 Tbar+, ratios 1, uniform delta
    group = make_group([(2, 1.0), (2, 1.0), (4, 0.0), (4, 0.0)])
    adv = normalize_advantages(group)
    j_token = objective("token", group, adv, CLIP).objective
    n = group.total_tokens
    expected = math.sqrt(2 * 2) / n * (2.0 - 4.0)
    assert j_token == expected
    assert j_token != 0.0
    assert objective("seq", group, adv, CLIP).objective == 0.0
    assert objective("balanced", group, adv, CLIP).objective == 0.0

    # the same regime realized by the count task: correct answers stop at
    # n+1 tokens while over-generating failures run to t_max
    task = TaskSpec("count", vocab_size=3, t_max=8, num_prompts=1)
    logits = np.zeros((1, 8, 3))
    logits[0, 0, COUNT_SYMBOL] = 50.0  # always start with the count symbol
    logits[0, 2:, COUNT_SYMBOL] = 50.0  # never stop after position 1
    policy = PolicyTable(logits)
    sampled = sample_group(policy, task, 0, 16, rollout_seed(7, 0, 0))
    sadv = normalize_advantages(sampled)
    assert 1 <= np.count_nonzero(sadv > 0.0) <= 15
    report = decompose(sampled, sadv, CLIP, "token")
    assert report.tbar_neg >= 2.0 * report.tbar_pos
    j_tok = objective("token", sampled, sadv, CLIP).objective
    assert abs(j_tok - report.reconstructed_objective) <= 1e-12
    assert j_tok < 0.0
    assert abs(objective("seq", sampled, sadv, CLIP).objective) <= 1e-14
    assert abs(objective("balanced", sampled, sadv, CLIP).objective) <= 1e-14

    # full compare run, frozen pilot calibration: the token lineage's
    # running-mean loss drifts while the balanced lineage stays at zero
    task = TaskSpec("count", vocab_size=3, t_max=8, num_prompts=4)
    tails = {}
    for rule in ("token", "seq", "balanced", "balanced_gen"):
        config = TrainConfig(
            rule=rule, steps=250, group_size=16, learning_rate=0.5, seed=3
        )
        records, _ = run_training(task, config)
        own = [r for r in records if r.rule == rule]
        tails[rule] = fsum(r.pg_loss for r in own[-100:]) / 100.0
    assert abs(tails["token"]) >= 5.0 * abs(tails["balanced"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"A7 PASS sign-length coupling: static J_token={j_token:.6f}, "
        f"tail |pg_loss| token={abs(tails['token']):.3e} vs "
        f"balanced={abs(tails['balanced']):.3e} ({elapsed:.1f}s)"
    )


def heterogeneous_group(rng):
    g = int(rng.integers(4, 17))
    k = int(rng.integers(2, g - 1))
    while True:
        pos_lens = rng.integers(1, 13, size=k)
        neg_lens = rng.integers(1, 13, size=g - k)
        if len(set(pos_lens.tolist())) >= 2 and len(set(neg_lens.tolist())) >= 2:
            break
    specs = [(int(t), 1.0, float(rng.uniform(0.85, 1.2))) for t in pos_lens]
    specs += [(int(t), 0.0, float(rng.uniform(0.85, 1.2))) for t in neg_lens]
    return make_group(specs)


def test_a8_seq_vs_balanced_divergence_and_coincidence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        g = int(rng.integers(4, 17))
        k = int(rng.integers(1, g))
        lp, ln = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        specs = [(lp, 1.0, float(rng.uniform(0.85, 1.2))) for _ in range(k)]
        specs += [(ln, 0.0, float(rng.uniform(0.85, 1.2))) for _ in range(g - k)]
        group = make_group(specs)
        adv = normalize_advantages(group)
        worst = np.maximum(
            worst,
            abs(
                objective("balanced", group, adv, CLIP).objective
                - objective("seq", group, adv, CLIP).objective
            ),
        )
    assert worst <= 1e-12

    differing = 0
    for _ in range(500):
        group = heterogeneous_group(rng)
        adv = normalize_advantages(group)
        gap = abs(
            objective("balanced", group, adv, CLIP).objective
            - objective("seq", group, adv, CLIP).objective
        )
        differing += gap > 1e-6
    assert differing >= 475  # 95% of 500
    print(
        f"A8 PASS seq/balanced coincidence max_err={worst:.3e}, "
        f"divergence on {differing}/500 heterogeneous instances"
    )


def uniform_policy_expected_reward(task, prompt_index):
    """Exact expected reward of the uniform policy by outcome enumeration."""
    v = task.vocab_size
    p_tok = 1.0 / v
    total = 0.0

    def recurse(prefix, prob):
        nonlocal total
        if prefix and prefix[-1] == EOS_TOKEN:
            total += prob * verify_reward(task, prompt_index, prefix)
            return
        if len(prefix) == task.t_max:
            total += prob * verify_reward(task, prompt_index, prefix)
            return
        for sym in range(v):
            recurse(prefix + [sym], prob * p_tok)

    recurse([], 1.0)
    return total


def test_a9_training_beats_enumerated_baseline():
    start = time.perf_counter()
    task = TaskSpec("count", vocab_size=3, t_max=8, num_prompts=4)
    baseline = fsum(
        uniform_policy_expected_reward(task, p) for p in range(task.num_prompts)
    ) / task.num_prompts
    # sanity of the enumeration itself: probabilities sum to the closed form
    assert baseline == pytest.approx(
        fsum((1 / 3) ** (n + 1) for n in task.counts) / 4, abs=1e-12
    )
    config = TrainConfig(
        rule="balanced", steps=200, group_size=16, learning_rate=0.5, seed=3
    )
    records, _ = run_training(task, config)
    own = [r for r in records if r.rule == "balanced"]
    final = fsum(r.mean_reward for r in own[-10:]) / 10.0
    elapsed = time.perf_counter() - start
    assert final >= 3.0 * baseline
    assert elapsed < 120.0
    # deterministic per seed
    records2, _ = run_training(task, config)
    assert records2 == records
    print(
        f"A9 PASS toy learning: baseline={baseline:.4f}, "
        f"final mean reward={final:.4f} ({final / baseline:.1f}x, {elapsed:.1f}s)"
    )


def test_a10_io_contracts(tmp_path):
    # round-trip: simulator dump -> read -> write -> read
    task = TaskSpec("count", vocab_size=3, t_max=8, num_prompts=4)
    config = TrainConfig(rule="balanced", steps=3, group_size=4, seed=2)
    dump = tmp_path / "rollouts.jsonl"
    records, _ = run_training(task, config, rollouts_path=dump)
    first = list(read_rollouts(dump))
    again = tmp_path / "again.jsonl"
    write_rollouts(first, again)
    second = list(read_rollouts(again))
    assert len(first) == len(second) == 3 * 4
    for a, b in zip(first, second):
        assert a.prompt_id == b.prompt_id and a.group_id == b.group_id
        assert a.rewards == b.rewards and a.eps_var == b.eps_var
        for ra, rb in zip(a.responses, b.responses):
            assert ra.tokens == rb.tokens and ra.ratios == rb.ratios

    # CSV byte determinism under a fixed seed
    csv1, csv2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics(run_training(task, config)[0], csv1)
    write_metrics(run_training(task, config)[0], csv2)
    assert csv1.read_bytes() == csv2.read_bytes()

    # planted faults cite their line numbers
    text = (DATA / "faulty_rollouts.jsonl").read_text(encoding="utf-8")
    fault_lines = []
    parsed = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            parse_rollout_line(line, line_no)
            parsed += 1
        except RolloutLogError as exc:
            fault_lines.append(exc.line_no)
            assert f"line {line_no}" in str(exc)
    assert fault_lines == [2, 4, 6]
    assert parsed == 4
    print(
        f"A10 PASS io contracts: {len(first)} groups round-tripped, "
        f"CSV bytes stable, faults at lines {fault_lines}"
    )
