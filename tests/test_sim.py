import json
import math
from dataclasses import replace
from math import fsum

import numpy as np
import pytest

from grpoagg import sim
from grpoagg.aggregate import (
    RULES,
    ClipConfig,
    FlatBatch,
    objective,
)
from grpoagg.cli import main
from grpoagg.decompose import batch_metrics, decompose, length_stats
from grpoagg.groups import Response, RolloutGroup, normalize_advantages, normalize_columns
from grpoagg.rollout_io import group_to_dict, parse_rollout_line, write_metrics
from grpoagg.sim import (
    COUNT_SYMBOL,
    EOS_TOKEN,
    MAX_POLICY_CELLS,
    MAX_WORK_CELLS,
    PolicyTable,
    SimulationError,
    StepRollouts,
    TaskSpec,
    TrainConfig,
    evaluate_batch,
    logit_gradient_check,
    run_training,
    sample_group,
    sample_step,
    train_step,
    verify_reward,
)

from conftest import count_constructions, length_columns, reference_rule_sums, reference_rule_terms, sums_row


def flat_advantages(advs):
    """Each response's advantage, in order, as evaluate_batch takes them."""
    return np.concatenate(advs)


def step_groups(rollouts, eps_var):
    """The step's groups as records, read back from its JSONL text."""
    return [parse_rollout_line(line) for line in rollouts.jsonl(eps_var).splitlines()]


def rollouts_of(groups, old):
    """The StepRollouts of ``groups``, sampled from ``old``: each prompt id
    an integer indexing the policy's prompt axis, as sample_group makes
    them; the records' own log-probabilities are not read."""
    responses = [resp for group in groups for resp in group.responses]
    return StepRollouts(
        old.log_probs(),
        tuple(int(group.prompt_id) for group in groups),
        tuple(group.size for group in groups),
        np.array([t for resp in responses for t in resp.tokens], dtype=np.intp),
        tuple(resp.length for resp in responses),
        tuple(resp.reward for resp in responses),
        tuple(resp.truncated for resp in responses),
    )


def policy_ratio_arrays(group, lp_new, lp_old):
    """Reference: one response's ratios at a time, as exp(logp_new - logp_old)."""
    p = int(group.prompt_id)
    arrays = []
    for resp in group.responses:
        pos = np.arange(len(resp.tokens))
        toks = np.asarray(resp.tokens)
        arrays.append(np.exp(lp_new[p, pos, toks] - lp_old[p, pos, toks]))
    return arrays


def count_task(**kw):
    defaults = dict(kind="count", vocab_size=3, t_max=8, num_prompts=4)
    defaults.update(kw)
    return TaskSpec(**defaults)


def deterministic_policy(task, strings):
    """Policy that emits the given token string per prompt with certainty."""
    logits = np.zeros((task.num_prompts, task.t_max, task.vocab_size))
    for p, string in enumerate(strings):
        for t, tok in enumerate(string):
            logits[p, t, tok] = 50.0
    return PolicyTable(logits)


# --- task and reward ---

def test_verify_reward_count():
    task = count_task()  # prompt 2 wants 3 copies of the symbol
    a, e = COUNT_SYMBOL, EOS_TOKEN
    assert verify_reward(task, 2, (a, a, a, e)) == 1.0
    assert verify_reward(task, 2, (a, a, e)) == 0.0
    assert verify_reward(task, 2, (a, a, a, a, e)) == 0.0
    assert verify_reward(task, 2, (a, a, a)) == 0.0  # truncated, no EOS
    assert verify_reward(task, 2, (e,)) == 0.0


def test_verify_reward_free_length():
    task = TaskSpec("free-length", vocab_size=4, t_max=6, num_prompts=3)
    assert task.targets == (1, 2, 3)
    assert verify_reward(task, 1, (2, 1, 1, 1, EOS_TOKEN)) == 1.0
    assert verify_reward(task, 1, (2,)) == 1.0
    assert verify_reward(task, 1, (3, EOS_TOKEN)) == 0.0
    assert verify_reward(task, 2, (3, 2, 2)) == 1.0


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec("bogus")
    with pytest.raises(ValueError):
        TaskSpec("count", vocab_size=1)
    with pytest.raises(TypeError):
        TaskSpec("count", counts=(1,))  # the per-prompt answers are not settable
    task = count_task(t_max=8, num_prompts=4)
    assert task.counts == (1, 2, 3, 4)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(rule="bogus", steps=1)
    with pytest.raises(ValueError):
        TrainConfig(rule="token", steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(rule="token", steps=1, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(rule="token", steps=1, inner_epochs=0)


def test_size_caps_are_checked_before_allocating(capsys, tmp_path):
    huge = 10**11
    for kw in ({"t_max": huge}, {"vocab_size": huge}, {"num_prompts": huge}):
        with pytest.raises(ValueError, match="policy cells"):
            TaskSpec("count", **kw)
    # exactly at the cap is accepted
    assert TaskSpec("count", num_prompts=1, t_max=MAX_POLICY_CELLS // 2, vocab_size=2)
    task = count_task()
    with pytest.raises(ValueError, match="step cells"):
        run_training(task, TrainConfig(rule="token", steps=1, group_size=huge))
    policy = PolicyTable.uniform(4, 8, 3)
    with pytest.raises(ValueError, match="draws per group"):
        sample_group(policy, task, 0, huge, [0, 0])
    for flag in ("--t-max", "--group-size", "--prompts", "--vocab-size"):
        argv = ["simulate", flag, str(huge), "--steps", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "above the cap" in capsys.readouterr().err


def test_work_cap_is_checked_before_the_first_step(monkeypatch, capsys, tmp_path):
    # no step may run: a refused run would take hours, and an admitted one
    # stops at its first step
    def first_step(*args, **kwargs):
        raise AssertionError("the run reached its first step")

    monkeypatch.setattr(sim, "train_step", first_step)
    task = TaskSpec("count", vocab_size=2, t_max=8, num_prompts=4)
    step_cells = 4 * 16 * 8 * 2  # prompts * group_size * t_max * vocab_size
    at_cap = TrainConfig(rule="token", steps=MAX_WORK_CELLS // step_cells // 2, inner_epochs=2)
    with pytest.raises(AssertionError, match="first step"):
        run_training(task, at_cap)
    for over in (replace(at_cap, steps=at_cap.steps + 1), replace(at_cap, inner_epochs=3)):
        with pytest.raises(ValueError, match=r"work cells \(steps \* inner_epochs \* step cells\)"):
            run_training(task, over)
    for command in ("simulate", "compare"):
        argv = [command, "--steps", "3", "--prompts", "2", "--inner-epochs", str(2**40),
                "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: work cells (steps * inner_epochs * step cells) is {3 * 2**40 * 2 * 16 * 8 * 3}, "
            f"above the cap of {MAX_WORK_CELLS}\n"
        )
    # a long run at a large step size (G64/P16/T32/V8, about 40 s) is admitted
    argv = ["simulate", "--group-size", "64", "--prompts", "16", "--t-max", "32",
            "--vocab-size", "8", "--steps", "1025", "--out", str(tmp_path)]
    with pytest.raises(AssertionError, match="first step"):
        main(argv)


# --- sampling ---

def test_sample_group_ratios_exactly_one():
    task = count_task()
    policy = PolicyTable.uniform(4, 8, 3)
    group = sample_group(policy, task, 0, 8, [0, 0], 1e-6)
    assert group.size == 8
    for resp in group.responses:
        assert all(r == 1.0 for r in resp.ratios)
        assert 1 <= resp.length <= task.t_max


def test_sample_group_deterministic():
    task = count_task()
    policy = PolicyTable.uniform(4, 8, 3)
    a = sample_group(policy, task, 2, 16, [5, 3], 1e-6)
    b = sample_group(policy, task, 2, 16, [5, 3], 1e-6)
    assert a == b


def test_sample_group_forced_correct_string():
    task = count_task()
    correct = [(COUNT_SYMBOL,) * n + (EOS_TOKEN,) for n in task.counts]
    policy = deterministic_policy(task, correct)
    group = sample_group(policy, task, 2, 4, [0, 0])
    for resp in group.responses:
        assert resp.reward == 1.0
        assert resp.length == task.counts[2] + 1 == 4
        assert not resp.truncated


def test_sample_group_truncation_flag():
    task = count_task()
    # never emits EOS: every response runs to t_max and is flagged
    logits = np.zeros((4, 8, 3))
    logits[:, :, COUNT_SYMBOL] = 50.0
    policy = PolicyTable(logits)
    group = sample_group(policy, task, 0, 4, [1, 0])
    for resp in group.responses:
        assert resp.truncated
        assert resp.length == task.t_max
        assert resp.tokens[-1] != EOS_TOKEN
        assert resp.reward == 0.0


def reference_sample_group(policy, task, prompt_index, group_size, seed, eps_var, block=0):
    """One rng.random() call and one searchsorted per token, as a loop, on
    the stream of ``seed`` after ``block`` earlier groups' blocks of
    group_size * t_max draws: the step's group ``block``."""
    rng = np.random.default_rng(seed)
    rng.random(block * group_size * task.t_max)
    lp = policy.log_probs()[prompt_index]
    cum = np.cumsum(np.exp(lp), axis=1)
    responses = []
    for _ in range(group_size):
        tokens = []
        truncated = True
        for t in range(task.t_max):
            v = min(int(np.searchsorted(cum[t], rng.random(), side="right")), task.vocab_size - 1)
            tokens.append(v)
            if v == EOS_TOKEN:
                truncated = False
                break
        pos, toks = np.arange(len(tokens)), np.asarray(tokens)
        responses.append(Response(
            tuple(tokens), verify_reward(task, prompt_index, tokens),
            logp_new=tuple(lp[pos, toks]), logp_old=tuple(lp[pos, toks]), truncated=truncated,
        ))
    return RolloutGroup(str(prompt_index), tuple(responses), eps_var)


def test_sample_group_matches_per_token_reference():
    ends, repeats = set(), set()
    for kind, group_size, t_max, vocab in [("count", 16, 8, 3), ("free-length", 7, 3, 2),
                                           ("free-length", 5, 12, 6), ("count", 64, 32, 8)]:
        task = TaskSpec(kind, vocab_size=vocab, t_max=t_max, num_prompts=3)
        for seed in range(6):
            policy = PolicyTable(np.random.default_rng(seed).normal(size=(3, t_max, vocab)))
            for p in range(3):
                got = sample_group(policy, task, p, group_size, [seed, 1], 1e-6)
                assert got == reference_sample_group(policy, task, p, group_size, [seed, 1], 1e-6)
                ends |= {(r.length == t_max, r.truncated) for r in got.responses}
            # whole steps, as run_training batches them: fewer prompts per
            # batch than prompts (the order wraps) and more (prompts repeat);
            # group j reads the j-th block of the step's one stream
            config = TrainConfig(rule="token", steps=1, group_size=group_size, seed=seed)
            for batch in (2, 3, 5):
                step = seed + batch
                prompts = [(step * batch + j) % 3 for j in range(batch)]
                _, _, rollouts = train_step(policy, task, prompts, config, step)
                groups = step_groups(rollouts, config.eps_var)
                assert groups == [
                    reference_sample_group(policy, task, p, group_size, [seed, step], config.eps_var, j)
                    for j, p in enumerate(prompts)
                ]
                # a prompt that appears twice in a step samples from two blocks
                repeats |= {groups[i] == groups[i + 3] for i in range(batch - 3)}
    # EOS before t_max, EOS exactly at position t_max - 1, and truncation all occur
    assert ends == {(False, False), (True, False), (True, True)}
    assert False in repeats


def test_a_step_s_first_groups_do_not_depend_on_the_prompts_after_them():
    task = count_task()
    policy = PolicyTable(np.random.default_rng(8).normal(size=(4, 8, 3)))
    config = TrainConfig(rule="token", steps=1, seed=11)
    _, _, two = train_step(policy, task, [0, 1], config, 6)
    _, _, four = train_step(policy, task, [0, 1, 2, 3], config, 6)
    assert step_groups(four, config.eps_var)[:2] == step_groups(two, config.eps_var)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5])
def test_a_step_samples_from_the_stream_of_its_seed_and_step(seed):
    # seeds and steps of one, two and more 32-bit words, taken whole: step
    # 2**32 is not step 0, and step 2**32 - 1 is not step 2**32
    task = count_task()
    policy = PolicyTable(np.random.default_rng(4).normal(size=(4, 8, 3)))
    config = TrainConfig(rule="token", steps=1, group_size=8, seed=seed)
    prompts = [1, 3, 0]
    seen = []
    for step in (0, 2**32 - 1, 2**32):
        _, _, rollouts = train_step(policy, task, prompts, config, step)
        groups = step_groups(rollouts, config.eps_var)
        assert groups == [
            reference_sample_group(policy, task, p, 8, [seed, step], config.eps_var, j)
            for j, p in enumerate(prompts)
        ]
        assert groups not in seen
        seen.append(groups)


@pytest.mark.parametrize("eps_var", [0, 1e-6], ids=["int-0", "1e-6"])
def test_a_dumped_line_is_the_reference_encoding_of_its_group(tmp_path, eps_var):
    # the dump is written from the step's columns; each line must be the
    # bytes write_rollouts gives for the group it reads back as
    ends = set()
    for kind, group_size, t_max, vocab in [("count", 16, 8, 3), ("free-length", 7, 3, 2),
                                           ("free-length", 5, 12, 6), ("count", 64, 32, 8)]:
        task = TaskSpec(kind, vocab_size=vocab, t_max=t_max, num_prompts=3)
        config = TrainConfig(rule="token", steps=3, group_size=group_size, learning_rate=0.5, eps_var=eps_var)
        path = tmp_path / f"{kind}-{t_max}.jsonl"
        run_training(task, config, rollouts_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 * 3
        for i, line in enumerate(lines):
            group = parse_rollout_line(line)
            assert line == json.dumps(group_to_dict(group), separators=(",", ":"))
            assert group.group_id == f"s{i // 3}-p{i % 3}" and group.eps_var == eps_var
            ends |= {(r.length == t_max, r.truncated) for r in group.responses}
    # EOS before t_max, EOS exactly at position t_max - 1, and truncation all occur
    assert ends == {(False, False), (True, False), (True, True)}


def test_sample_step_checks_its_arguments():
    task = count_task()
    policy = PolicyTable.uniform(4, 8, 3)
    with pytest.raises(ValueError, match=r"policy shape \(4, 7, 3\) does not match the task's \(4, 8, 3\)"):
        sample_step(PolicyTable.uniform(4, 7, 3), task, [0, 1], 4, 0)
    with pytest.raises(ValueError, match="prompt index 4 out of range"):
        sample_step(policy, task, [0, 4], 4, 0)
    with pytest.raises(ValueError, match="group_size must be >= 2"):
        sample_step(policy, task, [0, 1], 1, 0)


def test_non_finite_sampled_log_prob_raises_the_record_error():
    # logits of +-1e308 give the last symbol a log-probability of -inf
    logits = np.zeros((2, 3, 3))
    logits[1, 1] = (1e308, 0.0, -1e308)
    with np.errstate(over="ignore"):
        table = PolicyTable(logits).log_probs()
    assert table[1, 1, 2] == -math.inf
    # prompt 1's second response samples that symbol at position 1
    lengths = (2, 1, 1, 3)
    tokens = np.array([1, EOS_TOKEN, EOS_TOKEN, EOS_TOKEN, 1, 2, EOS_TOKEN], dtype=np.intp)
    with pytest.raises(ValueError) as err:
        StepRollouts(table, (0, 1), (2, 2), tokens, lengths, (0.0,) * 4, (False,) * 4)
    logp = tuple(table[1, [0, 1, 2], [1, 2, EOS_TOKEN]].tolist())
    with pytest.raises(ValueError) as record:
        Response((1, 2, EOS_TOKEN), 0.0, logp_new=logp, logp_old=logp)
    assert str(err.value) == str(record.value) == "logp_new[1] must be a finite real number, got -inf"


def test_a_nan_sampled_log_prob_raises_the_record_error():
    table = np.zeros((1, 2, 3))
    table[0, 1, 2] = math.nan
    with pytest.raises(ValueError, match=r"^logp_new\[1\] must be a finite real number, got nan$"):
        StepRollouts(table, (0,), (2,), np.array([1, 1, 2]), (1, 2), (1.0, 0.0), (False, False))


# --- training step ---

@pytest.mark.parametrize("inner_epochs", [1, 2])
def test_train_step_computes_log_probs_once_to_sample_and_once_per_epoch(monkeypatch, inner_epochs):
    calls = []
    log_probs = PolicyTable.log_probs
    monkeypatch.setattr(PolicyTable, "log_probs", lambda self: calls.append(self) or log_probs(self))
    config = TrainConfig(rule="token", steps=1, learning_rate=0.5, inner_epochs=inner_epochs)
    policy = PolicyTable.uniform(4, 8, 3)
    train_step(policy, count_task(), range(4), config, 0)
    assert len(calls) == 1 + inner_epochs
    assert calls[:2] == [policy, policy]  # sampling, then the first epoch


def test_run_training_builds_no_record_with_or_without_a_dump(monkeypatch, tmp_path):
    built = count_constructions(monkeypatch, Response, RolloutGroup)
    config = TrainConfig(rule="balanced", steps=3, group_size=4, seed=1)
    run_training(count_task(), config)
    assert built == []
    run_training(count_task(), config, rollouts_path=tmp_path / "r.jsonl")
    assert built == []
    assert len((tmp_path / "r.jsonl").read_text(encoding="utf-8").splitlines()) == 3 * 4  # steps * prompts


def test_train_step_builds_no_per_group_record(monkeypatch):
    # two epochs, and a degenerate group at eps_var 0, all as columns
    built = count_constructions(monkeypatch, Response, RolloutGroup)
    config = TrainConfig(rule="balanced_gen", steps=1, group_size=8, eps_var=0.0, seed=1, inner_epochs=2)
    counts = []
    train_step(PolicyTable.uniform(4, 8, 3), count_task(), range(4), config, 0, counts.append)
    assert counts and built == []


def test_train_step_equals_evaluate_batch_over_its_materialised_groups():
    # the columnar step against the record path: groups built from the step,
    # normalised, evaluated epoch by epoch and pooled as before the columns
    task = count_task(num_prompts=5)
    config = TrainConfig(rule="balanced_gen", steps=1, group_size=8, learning_rate=2.0, seed=4,
                         inner_epochs=3)
    policy = PolicyTable(np.random.default_rng(4).normal(size=(5, 8, 3)))
    new_policy, records, rollouts = train_step(policy, task, [3, 4, 0], config, 1)
    groups = step_groups(rollouts, config.eps_var)
    rebuilt = rollouts_of(groups, policy)
    for name in ("prompts", "sizes", "lengths", "rewards", "truncated", "group_tokens"):
        assert getattr(rebuilt, name) == getattr(rollouts, name)
    assert rebuilt.tokens.tobytes() == rollouts.tokens.tobytes()
    assert rebuilt.logp.tobytes() == rollouts.logp.tobytes()
    advs = [normalize_advantages(g) for g in groups]
    current = policy
    values = {r: [] for r in RULES}
    clip_fracs = []
    for _ in range(config.inner_epochs):
        ev = evaluate_batch(current, rebuilt, flat_advantages(advs), config.rule, config.clip)
        for r in RULES:
            values[r].append(ev.rule_objectives[r])
        clip_fracs.append(ev.clip_fraction)
        current = PolicyTable(current.logits + config.learning_rate * ev.grad_logits)
    assert new_policy.logits.tobytes() == current.logits.tobytes()
    assert fsum(clip_fracs) > 0.0  # later epochs are off-policy
    assert records == batch_metrics(
        1,
        length_stats(*length_columns(groups, advs)),
        [r.reward for g in groups for r in g.responses],
        sum(int(np.count_nonzero(a > 0.0)) for a in advs),
        len(advs),
        {r: fsum(v) / len(v) for r, v in values.items()},
        fsum(clip_fracs) / len(clip_fracs),
    )


def test_train_step_zero_advantages_leaves_policy_unchanged():
    task = count_task()
    # deterministic wrong answer: all rewards 0, eps floor keeps advantages 0
    logits = np.zeros((4, 8, 3))
    logits[:, :, 2] = 50.0
    policy = PolicyTable(logits)
    config = TrainConfig(rule="balanced", steps=1, group_size=8, eps_var=1e-6, seed=0)
    new_policy, records, _ = train_step(policy, task, range(4), config, 0)
    assert np.array_equal(new_policy.logits, policy.logits)
    for rec in records:
        assert rec.objective == 0.0
        assert rec.mean_reward == 0.0


def reinforce_oracle_grad(logits, groups, rule, eps_var):
    """Independent REINFORCE-with-baseline gradient for ratio-1 rollouts."""
    exp = np.exp(logits - logits.max(-1, keepdims=True))
    probs = exp / exp.sum(-1, keepdims=True)
    grad = np.zeros_like(logits)
    for group in groups:
        p = int(group.prompt_id)
        rewards = [r.reward for r in group.responses]
        g = len(rewards)
        mu = sum(rewards) / g
        sigma = math.sqrt(sum((r - mu) ** 2 for r in rewards) / g + eps_var)
        advs = [(r - mu) / sigma for r in rewards]
        lengths = [r.length for r in group.responses]
        n = sum(lengths)
        pos = [i for i, a in enumerate(advs) if a > 0]
        neg = [i for i, a in enumerate(advs) if a < 0]
        n_pos = sum(lengths[i] for i in pos)
        n_neg = sum(lengths[i] for i in neg)
        for i, resp in enumerate(group.responses):
            a = advs[i]
            if rule == "token":
                w = 1.0 / n
            elif rule == "seq":
                w = 1.0 / (g * lengths[i])
            elif i in pos:
                w = (len(pos) / g) / n_pos
            elif i in neg:
                w = (len(neg) / g) / n_neg
            else:
                w = 0.0
            for t, tok in enumerate(resp.tokens):
                grad[p, t, tok] += w * a
                grad[p, t, :] -= w * a * probs[p, t, :]
    return grad / len(groups)


@pytest.mark.parametrize("rule", ["token", "seq", "balanced"])
def test_first_epoch_update_matches_reinforce_oracle(rule):
    task = count_task(num_prompts=2)
    rng = np.random.default_rng(17)
    policy = PolicyTable(rng.normal(scale=0.4, size=(2, 8, 3)))
    lr = 0.1
    config = TrainConfig(rule=rule, steps=1, group_size=4, learning_rate=lr, seed=9)
    new_policy, _, rollouts = train_step(policy, task, range(2), config, 0)
    groups = step_groups(rollouts, config.eps_var)
    update = (new_policy.logits - policy.logits) / lr
    oracle = reinforce_oracle_grad(policy.logits, groups, rule, config.eps_var)
    np.testing.assert_allclose(update, oracle, rtol=1e-10, atol=1e-14)


def test_token_vs_balanced_update_reweighting():
    # at ratio 1 the token and balanced gradients differ per response by the
    # factor the decomposition predicts: (G/N) * Tbar of that response's sign
    task = count_task()
    policy = PolicyTable.uniform(4, 8, 3)
    clip = ClipConfig()
    group = sample_group(policy, task, 0, 16, [3, 0])
    adv = normalize_advantages(group)
    if not (adv > 0.0).any() or (adv > 0.0).all():
        pytest.skip("needs a mixed group for this seed")
    report = decompose(group, adv, clip, "token")
    tok = objective("token", group, adv, clip)
    bal = objective("balanced", group, adv, clip)
    g, n = group.size, group.total_tokens
    for i in range(group.size):
        if adv[i] > 0.0:
            factor = (g / n) * report.tbar_pos
        elif adv[i] < 0.0:
            factor = (g / n) * report.tbar_neg
        else:
            continue
        np.testing.assert_allclose(
            tok.grad_ratios[i], bal.grad_ratios[i] * factor, rtol=1e-12
        )


def test_run_training_zero_steps(tmp_path):
    task = count_task()
    config = TrainConfig(rule="balanced", steps=0)
    csv = tmp_path / "m.csv"
    records, policy = run_training(task, config)
    write_metrics(records, csv)
    assert records == []
    assert np.array_equal(policy.logits, np.zeros((4, 8, 3)))
    assert len(csv.read_text(encoding="utf-8").splitlines()) == 1


def test_run_training_deterministic_stream(tmp_path):
    task = count_task()
    config = TrainConfig(rule="balanced", steps=20, group_size=8, learning_rate=0.5, seed=13)
    rec1, pol1 = run_training(task, config)
    rec2, pol2 = run_training(task, config)
    write_metrics(rec1, tmp_path / "a.csv")
    write_metrics(rec2, tmp_path / "b.csv")
    assert rec1 == rec2
    assert np.array_equal(pol1.logits, pol2.logits)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_training_equals_its_train_steps():
    # a seed of three 32-bit words
    task = count_task()
    config = TrainConfig(rule="balanced", steps=300, learning_rate=0.5, seed=2**64 + 3)
    records, policy = run_training(task, config)
    expected, reference = [], PolicyTable.uniform(4, 8, 3)
    for step in range(config.steps):
        reference, step_records, _ = train_step(reference, task, range(4), config, step)
        expected += step_records
    assert records == expected
    assert policy.logits.tobytes() == reference.logits.tobytes()


def test_run_training_improves_reward():
    task = count_task()
    config = TrainConfig(rule="balanced", steps=60, group_size=16, learning_rate=0.5, seed=3)
    records, _ = run_training(task, config)
    own = [r for r in records if r.rule == "balanced"]
    first = fsum(r.mean_reward for r in own[:5]) / 5
    last = fsum(r.mean_reward for r in own[-5:]) / 5
    assert last > first


def test_run_training_emits_all_rules_per_step():
    task = count_task()
    config = TrainConfig(rule="token", steps=3, group_size=4, seed=0)
    records, _ = run_training(task, config)
    assert len(records) == 3 * 4
    for step in range(3):
        rules = [r.rule for r in records if r.step == step]
        assert rules == ["token", "seq", "balanced", "balanced_gen"]


def test_run_training_rollout_dump(tmp_path):
    from grpoagg.rollout_io import read_rollouts

    task = count_task()
    config = TrainConfig(rule="balanced", steps=2, group_size=4, seed=1)
    run_training(task, config, rollouts_path=tmp_path / "r.jsonl")
    groups = list(read_rollouts(tmp_path / "r.jsonl"))
    assert len(groups) == 2 * 4
    assert groups[0].group_id == "s0-p0"
    assert all(g.has_ratios for g in groups)


def test_count_task_induces_positive_length_gap():
    # once the policy over-generates, wrong responses miss EOS and run long
    task = count_task()
    config = TrainConfig(rule="balanced", steps=60, group_size=16, learning_rate=0.5, seed=3)
    records, policy = run_training(task, config)
    own = [r for r in records if r.rule == "balanced"]
    tail_gaps = [r.len_gap for r in own[-10:] if r.len_gap is not None]
    assert tail_gaps, "expected sign-classified batches late in training"
    assert fsum(tail_gaps) / len(tail_gaps) > 0.0


def test_logit_gradient_check_all_rules():
    rng = np.random.default_rng(5)
    task = count_task(num_prompts=2, t_max=5)
    clip = ClipConfig()
    old = PolicyTable(rng.normal(scale=0.3, size=(2, 5, 3)))
    policy = PolicyTable(old.logits + rng.normal(scale=0.05, size=(2, 5, 3)))
    rollouts = sample_step(old, task, [0, 1], 8, [9, 0])
    advantages = normalize_columns(rollouts.rewards, rollouts.sizes, [1e-6] * 2, ["0", "1"]).advantages
    for rule in ("token", "seq", "balanced", "balanced_gen"):
        assert logit_gradient_check(policy, rollouts, advantages, rule, clip) < 1e-4


def test_inner_epochs_move_ratios_off_one():
    task = count_task()
    config = TrainConfig(
        rule="balanced", steps=1, group_size=16, learning_rate=0.5, seed=3, inner_epochs=3
    )
    policy = PolicyTable.uniform(4, 8, 3)
    new_policy, records, rollouts = train_step(policy, task, range(4), config, 0)
    assert not np.array_equal(new_policy.logits, policy.logits)
    # second and later epochs see off-policy ratios; the logged objective
    # averages over epochs, so it can move away from the on-policy value
    advs = [normalize_advantages(g) for g in step_groups(rollouts, config.eps_var)]
    ev = evaluate_batch(new_policy, rollouts, flat_advantages(advs), "balanced", config.clip)
    assert ev.objective != 0.0


def test_evaluate_batch_refuses_advantages_or_a_policy_that_do_not_fit():
    task = count_task(num_prompts=2)
    policy = PolicyTable(np.zeros((2, 8, 3)))
    rollouts = sample_step(policy, task, [0, 1], 4, [0, 0])
    with pytest.raises(ValueError, match="8 responses but 7 advantages"):
        evaluate_batch(policy, rollouts, np.zeros(7), "token", ClipConfig())
    with pytest.raises(ValueError, match="policy and sampling-table shapes differ"):
        evaluate_batch(PolicyTable(np.zeros((2, 8, 4))), rollouts, np.zeros(8), "token", ClipConfig())


def test_verify_reward_refuses_a_prompt_out_of_range():
    with pytest.raises(ValueError, match="prompt index 4 out of range"):
        verify_reward(TaskSpec("count"), 4, [1, 0])


def test_evaluate_batch_reports_non_finite_gradient():
    task = count_task(num_prompts=2)
    policy = PolicyTable.uniform(2, 8, 3)
    groups = step_groups(sample_step(policy, task, range(2), 8, [2, 0]), 1e-6)
    advs = [normalize_advantages(g) for g in groups]
    bad_old = np.zeros((2, 8, 3))
    bad_old[:, :, COUNT_SYMBOL] = -800.0  # ratio exp(~800) overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationError) as err:
        evaluate_batch(policy, rollouts_of(groups, PolicyTable(bad_old)), flat_advantages(advs), "token", ClipConfig())
    assert "prompt" in str(err.value)


def _one_group_rollouts(shift: float) -> tuple[PolicyTable, StepRollouts]:
    """A uniform policy and one prompt's step sampled from a table that
    gives symbol 2 a log-probability ``shift`` below the policy's: the
    positive response is [0], the negative one [2, 2], so each of its
    tokens has the ratio exp(shift)."""
    policy = PolicyTable.uniform(1, 4, 3)
    old = policy.log_probs().copy()
    old[:, :, 2] -= shift
    tokens = np.array([0, 2, 2], dtype=np.intp)
    return policy, StepRollouts(old, (0,), (2,), tokens, (1, 2), (1.0, 0.0), (False, False))


def test_evaluate_batch_refuses_rule_sums_that_overflow():
    # two finite phi of about -1.2e308 sum past the float range
    policy, rollouts = _one_group_rollouts(709.4)
    assert np.isfinite(rollouts.logp).all()
    with pytest.raises(SimulationError, match=r"^rule sums overflow a float for prompt 0$"):
        evaluate_batch(policy, rollouts, np.array([1.0, -1.0]), "token", ClipConfig())


@pytest.mark.parametrize("rule", RULES)
def test_evaluate_batch_refuses_a_non_finite_objective(rule):
    # an infinite ratio on the negative side gives phi = -inf, whose sums
    # do not overflow, and an objective of -inf
    policy, rollouts = _one_group_rollouts(800.0)
    with np.errstate(over="ignore"), pytest.raises(SimulationError) as err:
        evaluate_batch(policy, rollouts, np.array([1.0, -1.0]), rule, ClipConfig())
    assert str(err.value) == f"non-finite {rule} objective for prompt 0"


def test_policy_table_invariants():
    with pytest.raises(ValueError):
        PolicyTable(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PolicyTable(np.full((1, 2, 3), np.nan))
    policy = PolicyTable(np.random.default_rng(0).normal(size=(2, 4, 5)))
    assert np.allclose(np.exp(policy.log_probs()).sum(axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        policy.logits[0, 0, 0] = 1.0  # read-only


def test_evaluate_batch_one_pass_matches_per_rule_evaluation():
    task = count_task()
    config = TrainConfig(rule="token", steps=1, learning_rate=0.5, seed=5, inner_epochs=2)
    policy = PolicyTable.uniform(4, 8, 3)
    new_policy, _, rollouts = train_step(policy, task, range(4), config, 0)
    groups = step_groups(rollouts, config.eps_var)
    advs = [normalize_advantages(g) for g in groups]
    lp_new, lp_old = new_policy.log_probs(), policy.log_probs()
    arrays = [policy_ratio_arrays(g, lp_new, lp_old) for g in groups]
    for rule in RULES:
        ev = evaluate_batch(new_policy, rollouts, flat_advantages(advs), rule, config.clip)
        for r in RULES:
            values = []
            for a, arr in zip(advs, arrays):
                batch = FlatBatch(a, (a.size,), tuple(map(len, arr)), np.concatenate(arr))
                values.append(reference_rule_terms(r, sums_row(batch.rule_sums(config.clip)))[0])
            assert ev.rule_objectives[r] == fsum(values) / len(values)


def reference_evaluate_batch(policy, old, groups, advs, rule, clip):
    """The batch one group and one response at a time, as a loop."""
    lp_new, lp_old = policy.log_probs(), old.log_probs()
    probs = np.exp(lp_new)
    grad = np.zeros_like(lp_new)
    values = {r: [] for r in RULES}
    clipped = tokens = degenerate = 0
    for group, adv in zip(groups, advs):
        p = int(group.prompt_id)
        arrays = policy_ratio_arrays(group, lp_new, lp_old)
        sums = reference_rule_sums(adv, arrays, clip)
        for r in RULES:
            values[r].append(reference_rule_terms(r, sums)[0])
        _, degen, w_pos, w_neg = reference_rule_terms(rule, sums)
        clipped += sums.clipped
        tokens += sums.total_tokens
        degenerate += int(degen)
        for resp, arr, a in zip(group.responses, arrays, np.asarray(adv, dtype=float).tolist()):
            t = len(arr)
            if a > 0.0:
                dphi = a * (arr <= clip.upper).astype(float)
            elif a < 0.0:
                dphi = a * (arr >= clip.lower).astype(float)
            else:
                dphi = np.zeros(t)
            w = w_pos(t) if a > 0.0 else w_neg(t) if a < 0.0 else 0.0
            coeff = (w * dphi) * arr
            grad[p, :t, :] -= coeff[:, None] * probs[p, :t, :]
            np.add.at(grad[p], (np.arange(t), np.asarray(resp.tokens)), coeff)
    b = len(groups)
    grad /= b
    objectives = {r: fsum(v) / b for r, v in values.items()}
    return objectives, grad, clipped / tokens, degenerate


def test_evaluate_batch_matches_per_response_reference():
    task = count_task()
    config = TrainConfig(rule="token", steps=1, learning_rate=20.0, seed=8, inner_epochs=2)
    old = PolicyTable.uniform(4, 8, 3)
    policy, _, rollouts = train_step(old, task, range(4), config, 0)
    groups = step_groups(rollouts, config.eps_var)
    advs = [normalize_advantages(g) for g in groups]
    a = advs[0].tolist()
    # all rewards equal under the eps_var floor: all-zero advantages, a degenerate group
    flat = RolloutGroup("1", tuple(replace(r, reward=0.0) for r in groups[1].responses), 1e-6)
    extra = [
        (groups[0], [x if i % 3 else 0.0 for i, x in enumerate(a)]),
        (groups[0], [abs(x) + 0.1 for x in a]),  # positive only
        (groups[2], [-abs(x) - 0.1 for x in a]),  # negative only
        (flat, normalize_advantages(flat)),
    ]
    groups = groups + [g for g, _ in extra]  # prompts 0 and 2 repeat: order of additions matters
    advs = advs + [adv for _, adv in extra]
    assert not normalize_advantages(flat).any()
    for current in (old, policy):  # first epoch (ratios 1) and second (ratios off 1)
        for rule in RULES:
            ev = evaluate_batch(current, rollouts_of(groups, old), flat_advantages(advs), rule, config.clip)
            objectives, grad, clip_fraction, degenerate = reference_evaluate_batch(
                current, old, groups, advs, rule, config.clip
            )
            assert ev.rule_objectives == objectives and ev.objective == objectives[rule]
            assert ev.clip_fraction == clip_fraction
            assert ev.grad_logits.tobytes() == grad.tobytes()
    assert clip_fraction > 0.0 and degenerate >= 1
