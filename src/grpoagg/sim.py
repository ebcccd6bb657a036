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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from math import fsum
from typing import Sequence

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, rule_terms
from .decompose import batch_metrics, length_stats
from .groups import AdvantageSet, Response, RolloutGroup, normalize_advantages
from .rollout_io import MetricRecord, write_metrics, write_rollouts

__all__ = [
    "EOS_TOKEN",
    "COUNT_SYMBOL",
    "TASK_KINDS",
    "MAX_POLICY_CELLS",
    "MAX_STEP_CELLS",
    "MAX_WORK_CELLS",
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
# Size caps, so an oversized configuration is a ValueError before anything is
# allocated: the policy table holds prompts * t_max * vocab_size logits, and
# one training step samples up to batch * group_size * t_max tokens, whose
# logit-gradient entries number that times vocab_size (+1).
MAX_POLICY_CELLS = 2**22
MAX_STEP_CELLS = 2**22
# Work cap, so a run that cannot finish is a ValueError before its first
# step: a run evaluates steps * inner_epochs batches of step cells each. One
# step cell takes 0.14 us (G64/P16/T32/V8) to 1.5 us (the default count
# task's 1,536 cells) on a 2-core x86 host with Python 3.11, so a run at the
# cap would take 43 hours to 19 days.
MAX_WORK_CELLS = 2**40


class SimulationError(RuntimeError):
    """Non-finite gradient or other unrecoverable training failure."""


def _check_cells(what: str, cells: int, cap: int) -> None:
    if cells > cap:
        raise ValueError(f"{what} is {cells}, above the cap of {cap}")


@dataclass(frozen=True)
class TaskSpec:
    """A toy verifiable-reward task instance.

    ``counts`` (count task) and ``targets`` (free-length task) default to a
    deterministic per-prompt assignment; pass them explicitly to control
    difficulty. ``num_prompts * t_max * vocab_size`` is at most
    MAX_POLICY_CELLS.
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
        _check_cells(
            "policy cells (num_prompts * t_max * vocab_size)",
            self.num_prompts * self.t_max * self.vocab_size,
            MAX_POLICY_CELLS,
        )
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

    The group's uniforms are drawn as one block of G * t_max; each token
    takes the next draw in order, so the rollouts are those of one
    ``rng.random()`` call per token (the unused tail of the block is
    discarded with the private generator). The symbol for draw u at position
    t is the count of cum[t][:V-1] <= u, i.e. ``searchsorted(cum[t], u,
    side="right")`` clamped to V-1. Extra memory is O(G * t_max + t_max * V).
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    _check_cells("draws per group (group_size * t_max)", group_size * task.t_max, MAX_STEP_CELLS)
    if policy.logits.shape != old.logits.shape:
        raise ValueError("policy and old-policy shapes differ")
    rng = np.random.default_rng(seed)
    lp_new = policy.log_probs()[prompt_index]
    lp_old = old.log_probs()[prompt_index]
    cum = np.cumsum(np.exp(lp_new), axis=1)[: task.t_max, :-1].tolist()
    draws = rng.random(group_size * task.t_max).tolist()
    tokens: list[int] = []
    lengths = []
    for _ in range(group_size):
        start = len(tokens)
        for row in cum:
            v = bisect_right(row, draws[len(tokens)])
            tokens.append(v)
            if v == EOS_TOKEN:
                break
        lengths.append(len(tokens) - start)
    index = (np.array([t for n in lengths for t in range(n)]), np.array(tokens))
    new, prev = lp_new[index].tolist(), lp_old[index].tolist()
    responses = []
    start = 0
    for n in lengths:
        end = start + n
        toks = tokens[start:end]
        responses.append(
            Response(
                tokens=tuple(toks),
                reward=verify_reward(task, prompt_index, toks),
                logp_new=tuple(new[start:end]),
                logp_old=tuple(prev[start:end]),
                truncated=toks[-1] != EOS_TOKEN,
            )
        )
        start = end
    return RolloutGroup(str(prompt_index), tuple(responses), eps_var)


@dataclass(frozen=True)
class BatchEval:
    """Batch-mean objective of the applied rule plus all-rule diagnostics."""

    objective: float
    grad_logits: np.ndarray | None
    rule_objectives: dict[str, float]
    clip_fraction: float
    degenerate_groups: int


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

    The batch's tokens are laid out flat (group, response, position), so
    ratios, phi and the gradient chain are each one numpy pass. The logit
    gradient is one ``np.add.at`` whose entries come in token order, each
    token's V dense -coeff * pi terms before its +coeff point term: the same
    additions, in the same order per logit, as a loop over responses.
    """
    if len(groups) != len(advs):
        raise ValueError(f"{len(groups)} groups but {len(advs)} advantage sets")
    lp_new = policy.log_probs()
    lp_old = old.log_probs()
    responses = [resp for group in groups for resp in group.responses]
    lengths = [len(resp.tokens) for resp in responses]  # type: ignore[arg-type]
    tokens = np.fromiter(
        chain.from_iterable(resp.tokens for resp in responses), np.intp, sum(lengths)
    )
    group_tokens = [group.total_tokens for group in groups]
    prompts = np.repeat([int(group.prompt_id) for group in groups], group_tokens)
    positions = np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    index = (prompts, positions, tokens)
    batch = FlatBatch(tuple(advs), tuple(lengths), np.exp(lp_new[index] - lp_old[index]))
    all_sums = batch.rule_sums(clip)
    for group, sums in zip(groups, all_sums):
        if sums is None:
            raise SimulationError(f"rule sums overflow a float for prompt {group.prompt_id}")
    terms = [{r: rule_terms(r, sums) for r in RULES} for sums in all_sums]
    b = len(groups)
    objectives = {r: fsum(t[r][0] for t in terms) / b for r in RULES}
    total_tokens = sum(s.total_tokens for s in all_sums)
    clipped = sum(s.clipped for s in all_sums)
    grad = None
    if need_grad:
        applied = [t[rule] for t in terms]
        # dJ/d rho * d rho/d logp_new
        coeff = batch.ratio_gradients(clip, [(w_pos, w_neg) for _, _, w_pos, w_neg in applied])
        coeff *= batch.ratios
        group_starts = np.cumsum(group_tokens) - group_tokens
        finite = np.logical_and.reduceat(np.isfinite(coeff), group_starts).tolist()
        # groups in order, each one's objective before its gradient
        for group, (value, *_), ok in zip(groups, applied, finite):
            if not math.isfinite(value):
                raise SimulationError(f"non-finite {rule} objective for prompt {group.prompt_id}")
            if not ok:
                raise SimulationError(f"non-finite gradient for prompt {group.prompt_id}")
        vocab = policy.vocab_size
        rows = prompts * policy.t_max + positions
        entries = np.empty((tokens.size, vocab + 1), dtype=np.intp)
        entries[:, :vocab] = rows[:, None] * vocab + np.arange(vocab)
        entries[:, vocab] = rows * vocab + tokens
        values = np.empty((tokens.size, vocab + 1))
        values[:, :vocab] = -(coeff[:, None] * np.exp(lp_new.reshape(-1, vocab)[rows]))
        values[:, vocab] = coeff
        grad = np.zeros(lp_new.size)
        np.add.at(grad, entries.ravel(), values.ravel())
        grad = grad.reshape(lp_new.shape)
        grad /= b
    return BatchEval(
        objective=objectives[rule],
        grad_logits=grad,
        rule_objectives=objectives,
        clip_fraction=clipped / total_tokens if total_tokens else 0.0,
        degenerate_groups=sum(int(t[rule][1]) for t in terms),
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
    records = batch_metrics(
        step,
        length_stats(groups, advs),
        [r.reward for g in groups for r in g.responses],
        [a.k for a in advs],
        objectives,
        fsum(clip_fracs) / len(clip_fracs),
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
    Raises ValueError before any work when one step's prompts * group_size *
    t_max * vocab_size exceeds MAX_STEP_CELLS, or that times steps *
    inner_epochs exceeds MAX_WORK_CELLS.
    """
    batch = config.prompts_per_batch or task.num_prompts
    step_cells = batch * config.group_size * task.t_max * task.vocab_size
    _check_cells(
        "step cells (prompts per batch * group_size * t_max * vocab_size)",
        step_cells,
        MAX_STEP_CELLS,
    )
    _check_cells(
        "work cells (steps * inner_epochs * step cells)",
        config.steps * config.inner_epochs * step_cells,
        MAX_WORK_CELLS,
    )
    policy = PolicyTable.uniform(task.num_prompts, task.t_max, task.vocab_size)
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
