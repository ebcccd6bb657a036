"""Desk-scale RL training loop with verifiable rewards.

The policy is a tabular softmax: one logit row per (prompt, position, vocab
symbol), so sampling, log-probabilities, and the full chain rule from the
aggregation objective down to the logits are all exact and testable to
machine precision. Symbol 0 is the end-of-sequence marker; generation stops
at EOS or truncates at ``t_max``.

Two built-in tasks span the regimes where length structure matters:

  count        reward 1 iff the response is exactly n copies of symbol 1
               followed by EOS. Wrong responses often miss EOS and run to
               t_max, so negatives are systematically longer than positives.
  free-length  reward 1 iff the first token matches the prompt's target
               symbol; length carries no signal.

Each outer step snapshots the old policy, samples G responses per prompt,
and performs gradient ascent on the batch-mean objective of the configured
aggregation rule. All four rules are evaluated on the same rollouts for
logging. Sampling is seeded per (seed, step, prompt), so runs are
deterministic and rule-comparison runs share rollout randomness per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from math import fsum
from typing import Sequence

import numpy as np

from .aggregate import RULES, ClipConfig, compute_rule_sums, ratio_gradients, rule_terms
from .decompose import batch_metrics
from .groups import AdvantageSet, Response, RolloutGroup, normalize_advantages
from .rollout_io import MetricRecord, write_metrics, write_rollouts

__all__ = [
    "EOS_TOKEN",
    "COUNT_SYMBOL",
    "TASK_KINDS",
    "TaskSpec",
    "TrainConfig",
    "PolicyTable",
    "SimulationError",
    "verify_reward",
    "sample_group",
    "evaluate_batch",
    "BatchEval",
    "train_step",
    "run_training",
    "logit_gradient_check",
]

EOS_TOKEN = 0
COUNT_SYMBOL = 1
TASK_KINDS = ("count", "free-length")


class SimulationError(RuntimeError):
    """Non-finite gradient or other unrecoverable training failure."""


@dataclass(frozen=True)
class TaskSpec:
    """A toy verifiable-reward task instance.

    ``counts`` (count task) and ``targets`` (free-length task) default to a
    deterministic per-prompt assignment; pass them explicitly to control
    difficulty.
    """

    kind: str
    vocab_size: int = 3
    t_max: int = 8
    num_prompts: int = 4
    counts: tuple[int, ...] | None = None
    targets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected {TASK_KINDS}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 (EOS plus one symbol)")
        if self.t_max < 2:
            raise ValueError("t_max must be >= 2")
        if self.num_prompts < 1:
            raise ValueError("num_prompts must be >= 1")
        if self.kind == "count":
            counts = self.counts
            if counts is None:
                counts = tuple(i % (self.t_max - 1) + 1 for i in range(self.num_prompts))
            counts = tuple(int(c) for c in counts)
            if len(counts) != self.num_prompts:
                raise ValueError("counts must have one entry per prompt")
            for c in counts:
                if not 1 <= c <= self.t_max - 1:
                    raise ValueError(
                        f"count {c} out of range [1, {self.t_max - 1}] "
                        "(the correct string must fit with its EOS)"
                    )
            object.__setattr__(self, "counts", counts)
        else:
            targets = self.targets
            if targets is None:
                targets = tuple(
                    1 + i % (self.vocab_size - 1) for i in range(self.num_prompts)
                )
            targets = tuple(int(t) for t in targets)
            if len(targets) != self.num_prompts:
                raise ValueError("targets must have one entry per prompt")
            for t in targets:
                if not 1 <= t <= self.vocab_size - 1:
                    raise ValueError(f"target symbol {t} out of vocab (non-EOS)")
            object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the simulator loop.

    Defaults follow the standard group-relative recipe (group size 16,
    asymmetric 0.2/0.28 clipping); the learning rate is scaled up for the
    tabular policy, where the LLM-scale 1e-6 would freeze training. A small
    ``eps_var`` keeps all-correct / all-wrong groups at zero advantage
    instead of erroring.
    """

    rule: str
    steps: int
    group_size: int = 16
    learning_rate: float = 1e-2
    clip: ClipConfig = field(default_factory=ClipConfig)
    eps_var: float = 1e-6
    seed: int = 0
    prompts_per_batch: int | None = None
    inner_epochs: int = 1

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be > 0")
        if not (math.isfinite(self.eps_var) and self.eps_var >= 0.0):
            raise ValueError("eps_var must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.prompts_per_batch is not None and self.prompts_per_batch < 1:
            raise ValueError("prompts_per_batch must be >= 1")
        if self.inner_epochs < 1:
            raise ValueError("inner_epochs must be >= 1")


@dataclass(frozen=True)
class PolicyTable:
    """Tabular softmax policy: logits indexed by (prompt, position, symbol).

    Instances are immutable (the logit array is copied and marked read-only),
    so an old-policy snapshot is just a retained reference.
    """

    logits: np.ndarray

    def __post_init__(self) -> None:
        logits = np.array(self.logits, dtype=float)
        if logits.ndim != 3:
            raise ValueError(f"logits must be (prompts, positions, vocab), got {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)

    @classmethod
    def uniform(cls, num_prompts: int, t_max: int, vocab_size: int) -> "PolicyTable":
        return cls(np.zeros((num_prompts, t_max, vocab_size)))

    @property
    def num_prompts(self) -> int:
        return self.logits.shape[0]

    @property
    def t_max(self) -> int:
        return self.logits.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[2]

    def log_probs(self) -> np.ndarray:
        m = self.logits.max(axis=-1, keepdims=True)
        lse = m + np.log(np.exp(self.logits - m).sum(axis=-1, keepdims=True))
        return self.logits - lse

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs())


def verify_reward(task: TaskSpec, prompt_index: int, tokens: Sequence[int]) -> float:
    """Deterministic 0/1 reward; malformed responses simply score 0."""
    tokens = tuple(int(t) for t in tokens)
    if not 0 <= prompt_index < task.num_prompts:
        raise ValueError(f"prompt index {prompt_index} out of range")
    if task.kind == "count":
        n = task.counts[prompt_index]  # type: ignore[index]
        return 1.0 if tokens == (COUNT_SYMBOL,) * n + (EOS_TOKEN,) else 0.0
    target = task.targets[prompt_index]  # type: ignore[index]
    return 1.0 if tokens and tokens[0] == target else 0.0


def rollout_seed(seed: int, step: int, prompt_index: int) -> np.random.SeedSequence:
    """Per-(step, prompt) sampling seed; independent of the aggregation rule."""
    return np.random.SeedSequence([seed, step, prompt_index])


def sample_group(
    policy: PolicyTable,
    old: PolicyTable,
    task: TaskSpec,
    prompt_index: int,
    group_size: int,
    seed,
    eps_var: float = 0.0,
) -> RolloutGroup:
    """Sample G responses for one prompt at temperature 1.

    ``old`` must be the snapshot taken at the start of the outer step; at
    sampling time policy == old, so stored ratios are exactly 1. Responses
    without EOS by t_max are truncated and flagged. Deterministic given
    ``seed``.
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    if policy.logits.shape != old.logits.shape:
        raise ValueError("policy and old-policy shapes differ")
    rng = np.random.default_rng(seed)
    lp_new = policy.log_probs()[prompt_index]
    lp_old = old.log_probs()[prompt_index]
    cum = np.cumsum(np.exp(lp_new), axis=1)
    vocab = policy.vocab_size
    responses = []
    for _ in range(group_size):
        tokens: list[int] = []
        truncated = True
        for t in range(task.t_max):
            u = rng.random()
            v = min(int(np.searchsorted(cum[t], u, side="right")), vocab - 1)
            tokens.append(v)
            if v == EOS_TOKEN:
                truncated = False
                break
        positions = np.arange(len(tokens))
        toks = np.asarray(tokens)
        responses.append(
            Response(
                tokens=tuple(tokens),
                reward=verify_reward(task, prompt_index, tokens),
                logp_new=tuple(lp_new[positions, toks]),
                logp_old=tuple(lp_old[positions, toks]),
                truncated=truncated,
            )
        )
    return RolloutGroup(str(prompt_index), tuple(responses), eps_var)


@dataclass(frozen=True)
class BatchEval:
    """Batch-mean objective of the applied rule plus all-rule diagnostics."""

    objective: float
    grad_logits: np.ndarray | None
    rule_objectives: dict[str, float]
    clip_fraction: float
    degenerate_groups: int


def _policy_ratio_arrays(
    group: RolloutGroup, lp_new: np.ndarray, lp_old: np.ndarray
) -> list[np.ndarray]:
    p = int(group.prompt_id)
    arrays = []
    for resp in group.responses:
        pos = np.arange(len(resp.tokens))  # type: ignore[arg-type]
        toks = np.asarray(resp.tokens)
        arrays.append(np.exp(lp_new[p, pos, toks] - lp_old[p, pos, toks]))
    return arrays


def evaluate_batch(
    policy: PolicyTable,
    old: PolicyTable,
    groups: Sequence[RolloutGroup],
    advs: Sequence[AdvantageSet],
    rule: str,
    clip: ClipConfig,
    need_grad: bool = True,
) -> BatchEval:
    """Evaluate the batch-mean objective as a function of the policy logits.

    Rollout tokens, rewards, and advantages are held fixed; per-token ratios
    are recomputed from ``policy`` against ``old``. The gradient chains
    dJ/d rho through rho = pi_new / pi_old into the softmax logits. Groups
    must carry integer-valued prompt ids indexing the policy's prompt axis,
    as produced by sample_group.
    """
    if len(groups) != len(advs):
        raise ValueError(f"{len(groups)} groups but {len(advs)} advantage sets")
    lp_new = policy.log_probs()
    lp_old = old.log_probs()
    probs_new = np.exp(lp_new)
    grad = np.zeros_like(lp_new) if need_grad else None
    rule_values: dict[str, list[float]] = {r: [] for r in RULES}
    clipped = 0
    total_tokens = 0
    degenerate = 0
    for group, adv in zip(groups, advs):
        p = int(group.prompt_id)
        arrays = _policy_ratio_arrays(group, lp_new, lp_old)
        sums = compute_rule_sums(adv, arrays, clip)
        terms = {r: rule_terms(r, sums) for r in RULES}
        for r in RULES:
            rule_values[r].append(terms[r][0])
        value, degen, w_pos, w_neg = terms[rule]
        clipped += sums.clipped
        total_tokens += sums.total_tokens
        degenerate += int(degen)
        if grad is None:
            continue
        if not math.isfinite(value):
            raise SimulationError(
                f"non-finite {rule} objective for prompt {group.prompt_id}"
            )
        grads = ratio_gradients(adv, arrays, clip, w_pos, w_neg)
        for resp, g_arr, ratio_arr in zip(group.responses, grads, arrays):
            coeff = g_arr * ratio_arr  # dJ/d rho * d rho/d logp_new
            if not np.all(np.isfinite(coeff)):
                raise SimulationError(
                    f"non-finite gradient for prompt {group.prompt_id}"
                )
            length = len(resp.tokens)  # type: ignore[arg-type]
            pos = np.arange(length)
            toks = np.asarray(resp.tokens)
            grad[p, :length, :] -= coeff[:, None] * probs_new[p, :length, :]
            np.add.at(grad[p], (pos, toks), coeff)
    b = len(groups)
    objectives = {r: fsum(v) / b for r, v in rule_values.items()}
    if grad is not None:
        grad /= b
    return BatchEval(
        objective=objectives[rule],
        grad_logits=grad,
        rule_objectives=objectives,
        clip_fraction=clipped / total_tokens if total_tokens else 0.0,
        degenerate_groups=degenerate,
    )


def train_step(
    policy: PolicyTable,
    old: PolicyTable,
    task: TaskSpec,
    prompt_indices: Sequence[int],
    config: TrainConfig,
    step: int,
) -> tuple[PolicyTable, list[MetricRecord], list[RolloutGroup]]:
    """One outer step: sample per-prompt groups, ascend the configured rule.

    Emits one MetricRecord per aggregation rule (all four are evaluated on
    the same rollouts; only ``config.rule`` drives the update). With more
    than one inner epoch the logged objectives average over epochs.
    """
    groups = [
        sample_group(
            policy,
            old,
            task,
            p,
            config.group_size,
            rollout_seed(config.seed, step, p),
            config.eps_var,
        )
        for p in prompt_indices
    ]
    advs = [normalize_advantages(g) for g in groups]
    current = policy
    values: dict[str, list[float]] = {r: [] for r in RULES}
    clip_fracs = []
    for _ in range(config.inner_epochs):
        ev = evaluate_batch(current, old, groups, advs, config.rule, config.clip)
        for r in RULES:
            values[r].append(ev.rule_objectives[r])
        clip_fracs.append(ev.clip_fraction)
        assert ev.grad_logits is not None
        current = PolicyTable(current.logits + config.learning_rate * ev.grad_logits)
    objectives = {r: fsum(v) / len(v) for r, v in values.items()}
    records, _ = batch_metrics(
        step, groups, advs, objectives, fsum(clip_fracs) / len(clip_fracs)
    )
    return current, records, groups


def run_training(
    task: TaskSpec,
    config: TrainConfig,
    metrics_path=None,
    rollouts_path=None,
) -> tuple[list[MetricRecord], PolicyTable]:
    """Run the full loop from a uniform policy; returns (records, final policy).

    Optionally writes the metric CSV and a JSONL dump of every sampled group.
    """
    policy = PolicyTable.uniform(task.num_prompts, task.t_max, task.vocab_size)
    batch = config.prompts_per_batch or task.num_prompts
    records: list[MetricRecord] = []
    dumped: list[RolloutGroup] = []
    for step in range(config.steps):
        prompt_indices = [(step * batch + j) % task.num_prompts for j in range(batch)]
        old = policy  # policies are immutable, so this reference is the snapshot
        policy, recs, groups = train_step(policy, old, task, prompt_indices, config, step)
        records.extend(recs)
        if rollouts_path is not None:
            dumped.extend(
                replace(g, group_id=f"s{step}-p{g.prompt_id}") for g in groups
            )
    if metrics_path is not None:
        write_metrics(records, metrics_path)
    if rollouts_path is not None:
        write_rollouts(dumped, rollouts_path)
    return records, policy


def logit_gradient_check(
    policy: PolicyTable,
    old: PolicyTable,
    groups: Sequence[RolloutGroup],
    rule: str,
    clip: ClipConfig,
    h: float = 1e-4,
) -> float:
    """Central-difference check of the end-to-end d objective / d logits.

    Rollouts are held fixed; every logit entry is perturbed by +-h. Returns
    the maximum relative error max |analytic - numeric| / max(1, |a|, |n|).
    """
    advs = [normalize_advantages(g) for g in groups]
    base = evaluate_batch(policy, old, groups, advs, rule, clip)
    assert base.grad_logits is not None
    max_rel = 0.0
    for idx in np.ndindex(policy.logits.shape):
        plus = policy.logits.copy()
        plus[idx] += h
        minus = policy.logits.copy()
        minus[idx] -= h
        j_plus = evaluate_batch(
            PolicyTable(plus), old, groups, advs, rule, clip, need_grad=False
        ).objective
        j_minus = evaluate_batch(
            PolicyTable(minus), old, groups, advs, rule, clip, need_grad=False
        ).objective
        numeric = (j_plus - j_minus) / (2.0 * h)
        analytic = float(base.grad_logits[idx])
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel
