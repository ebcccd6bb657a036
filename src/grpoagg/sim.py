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

Each outer step samples G responses per prompt once, into flat columns
(``StepRollouts``) that keep the policy's log-probability table at sampling
as the old policy, and performs gradient ascent on the batch-mean objective
of the configured aggregation rule. All four rules are evaluated on the
same rollouts for logging. Sampling is seeded per (seed, step, prompt), so
runs are deterministic and rule-comparison runs share rollout randomness
per step. Response and RolloutGroup records are built only on request
(``StepRollouts.groups``), for a rollout dump.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice
from math import fsum
from typing import Callable, Sequence

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, rule_table
from .decompose import batch_metrics, pooled_length_stats
from .groups import Response, RolloutGroup, normalize_advantages, normalize_columns
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
    "StepRollouts",
    "sample_step",
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
    tabular policy, where the LLM-scale 1e-6 would freeze training. An
    all-correct / all-wrong group has zero advantage: with ``eps_var > 0``
    that is its normalised value, and with ``eps_var == 0`` the group is
    degenerate (sigma would be zero) and is taken as zero-advantage, as
    ``analyze`` takes it, and counted (``run_training``'s
    ``on_degenerate``).
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


def _reward(task: TaskSpec, prompt_index: int, tokens: tuple[int, ...]) -> float:
    """The reward rule, for a prompt index in range and a tuple of ints."""
    if task.kind == "count":
        n = task.counts[prompt_index]  # type: ignore[index]
        return 1.0 if tokens == (COUNT_SYMBOL,) * n + (EOS_TOKEN,) else 0.0
    target = task.targets[prompt_index]  # type: ignore[index]
    return 1.0 if tokens and tokens[0] == target else 0.0


def verify_reward(task: TaskSpec, prompt_index: int, tokens: Sequence[int]) -> float:
    """Deterministic 0/1 reward; malformed responses simply score 0."""
    tokens = tuple(int(t) for t in tokens)
    if not 0 <= prompt_index < task.num_prompts:
        raise ValueError(f"prompt index {prompt_index} out of range")
    return _reward(task, prompt_index, tokens)


def rollout_seed(seed: int, step: int, prompt_index: int) -> np.random.SeedSequence:
    """Per-(step, prompt) sampling seed; independent of the aggregation rule."""
    return np.random.SeedSequence([seed, step, prompt_index])


@dataclass(frozen=True)
class StepRollouts:
    """One step's sampled responses as flat columns, with no per-response record.

    ``log_probs`` is the (prompts, positions, vocab) log-probability table of
    the policy the responses were sampled from, the old policy of every inner
    epoch. ``prompts`` and ``sizes`` hold each group's prompt index and
    response count; ``tokens`` holds every token, ordered by group, then
    response, then position; ``lengths``, ``rewards`` and ``truncated`` hold
    each response's. Construction derives each group's token count, each
    token's (prompt, position, symbol) ``index`` into the table and its
    sampled log-probability ``logp``, and checks every ``logp`` finite in one
    pass; when one is not, the step is built as records, so the error is the
    record validator's.
    """

    log_probs: np.ndarray
    prompts: tuple[int, ...]
    sizes: tuple[int, ...]
    tokens: np.ndarray
    lengths: tuple[int, ...]
    rewards: tuple[float, ...]
    truncated: tuple[bool, ...]
    group_tokens: tuple[int, ...] = field(init=False)
    index: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False)
    logp: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        group_tokens = []
        i = 0
        for size in self.sizes:
            group_tokens.append(sum(self.lengths[i : i + size]))
            i += size
        lengths = np.asarray(self.lengths, dtype=np.intp)
        positions = np.arange(self.tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        index = (np.repeat(np.asarray(self.prompts, dtype=np.intp), group_tokens), positions, self.tokens)
        object.__setattr__(self, "group_tokens", tuple(group_tokens))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "logp", self.log_probs[index])
        if not np.isfinite(self.logp).all():
            self.groups()
            raise ValueError("a sampled log-probability is not finite")

    @classmethod
    def from_groups(cls, groups: Sequence[RolloutGroup], old: PolicyTable) -> "StepRollouts":
        """The columns of ``groups``, sampled from ``old``.

        Prompt ids must be integers indexing the policy's prompt axis, as
        sample_group makes them; the records' own log-probabilities are not
        read, ``old.log_probs()`` is the sampling table.
        """
        responses = [resp for group in groups for resp in group.responses]
        lengths = tuple(len(resp.tokens) for resp in responses)  # type: ignore[arg-type]
        return cls(
            old.log_probs(),
            tuple(int(group.prompt_id) for group in groups),
            tuple(group.size for group in groups),
            np.fromiter(chain.from_iterable(resp.tokens for resp in responses), np.intp, sum(lengths)),
            lengths,
            tuple(resp.reward for resp in responses),
            tuple(resp.truncated for resp in responses),
        )

    def groups(self, eps_var: float = 0.0) -> list[RolloutGroup]:
        """The step as records: one group per prompt, its id ``str(prompt)``,
        each response's logp_new and logp_old both its sampled log-probabilities."""
        tokens, logp = self.tokens.tolist(), self.logp.tolist()
        rows = iter(zip(self.lengths, self.rewards, self.truncated))
        out = []
        start = 0
        for prompt, size in zip(self.prompts, self.sizes):
            responses = []
            for length, reward, truncated in islice(rows, size):
                end = start + length
                lp = tuple(logp[start:end])
                responses.append(
                    Response(
                        tuple(tokens[start:end]), reward, logp_new=lp, logp_old=lp, truncated=truncated
                    )
                )
                start = end
            out.append(RolloutGroup(str(prompt), tuple(responses), eps_var))
        return out


def sample_step(
    policy: PolicyTable,
    task: TaskSpec,
    prompt_indices: Sequence[int],
    group_size: int,
    seeds: Sequence,
) -> StepRollouts:
    """Sample G responses for each prompt at temperature 1, as one step's columns.

    Responses without EOS by t_max are truncated and flagged. The policy's
    log-probabilities are computed once, and that table is the step's old
    policy too, so a record built from the step has ratios of exactly 1.

    Group j draws its uniforms from ``seeds[j]`` as one block of G * t_max;
    each token takes the next draw in order, so the rollouts are those of one
    ``rng.random()`` call per token (the unused tail of the block is
    discarded with the private generator). The symbol for draw u at position
    t is the count of cum[t][:V-1] <= u, i.e. ``searchsorted(cum[t], u,
    side="right")`` clamped to V-1. Extra memory is O(G * t_max) per group
    plus O(t_max * V) per prompt of the step.
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    _check_cells("draws per group (group_size * t_max)", group_size * task.t_max, MAX_STEP_CELLS)
    shape = (task.num_prompts, task.t_max, task.vocab_size)
    if policy.logits.shape != shape:
        raise ValueError(f"policy shape {policy.logits.shape} does not match the task's {shape}")
    prompts = [int(p) for p in prompt_indices]
    if len(seeds) != len(prompts):
        raise ValueError(f"{len(prompts)} prompts but {len(seeds)} seeds")
    for p in prompts:
        if not 0 <= p < task.num_prompts:
            raise ValueError(f"prompt index {p} out of range")
    lp = policy.log_probs()
    cums = np.cumsum(np.exp(lp[prompts]), axis=2)[:, :, :-1].tolist()
    tokens: list[int] = []
    lengths = []
    rewards = []
    truncated = []
    for p, seed, cum in zip(prompts, seeds, cums):
        draws = np.random.default_rng(seed).random(group_size * task.t_max).tolist()
        k = 0
        for _ in range(group_size):
            start = len(tokens)
            for row in cum:
                v = bisect_right(row, draws[k])
                k += 1
                tokens.append(v)
                if v == EOS_TOKEN:
                    break
            response = tuple(tokens[start:])
            lengths.append(len(response))
            rewards.append(_reward(task, p, response))
            truncated.append(v != EOS_TOKEN)
    return StepRollouts(
        lp,
        tuple(prompts),
        (group_size,) * len(prompts),
        np.array(tokens, dtype=np.intp),
        tuple(lengths),
        tuple(rewards),
        tuple(truncated),
    )


def sample_group(
    policy: PolicyTable,
    task: TaskSpec,
    prompt_index: int,
    group_size: int,
    seed,
    eps_var: float = 0.0,
) -> RolloutGroup:
    """sample_step for one prompt, as a record; deterministic given ``seed``."""
    return sample_step(policy, task, [prompt_index], group_size, [seed]).groups(eps_var)[0]


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
    rollouts: StepRollouts,
    advantages: np.ndarray,
    rule: str,
    clip: ClipConfig,
    need_grad: bool = True,
) -> BatchEval:
    """Evaluate the batch-mean objective as a function of the policy logits.

    Rollout tokens, rewards, and ``advantages`` (one per response, in the
    rollouts' order) are held fixed; per-token ratios are recomputed from
    ``policy`` against the rollouts' sampling table. The gradient chains
    dJ/d rho through rho = pi_new / pi_old into the softmax logits.

    The batch is one FlatBatch: ratios, phi and the gradient chain are each
    one numpy pass over the flat tokens, the rule table is one column per
    rule, and each response's weight is read from its group's entry. The
    logit gradient is one ``np.add.at`` whose entries come in token order,
    each token's V dense -coeff * pi terms before its +coeff point term:
    the same additions, in the same order per logit, as a loop over
    responses.
    """
    if len(advantages) != len(rollouts.lengths):
        raise ValueError(f"{len(rollouts.lengths)} responses but {len(advantages)} advantages")
    if policy.logits.shape != rollouts.log_probs.shape:
        raise ValueError("policy and sampling-table shapes differ")
    lp_new = policy.log_probs()
    index = rollouts.index
    batch = FlatBatch(advantages, rollouts.sizes, rollouts.lengths, np.exp(lp_new[index] - rollouts.logp))
    sums = batch.rule_sums(clip)
    if not sums.ok.all():
        prompt = rollouts.prompts[np.flatnonzero(~sums.ok)[0]]
        raise SimulationError(f"rule sums overflow a float for prompt {prompt}")
    terms = rule_table(sums)
    b = len(rollouts.prompts)
    objectives = {r: fsum(terms[r][0].tolist()) / b for r in RULES}
    total_tokens = int(np.add.reduce(sums.total_tokens))
    clipped = int(np.add.reduce(sums.clipped))
    grad = None
    if need_grad:
        values, _, w_pos, w_neg = terms[rule]
        # dJ/d rho * d rho/d logp_new
        coeff = batch.ratio_gradients(clip, w_pos, w_neg)
        coeff *= batch.ratios
        group_starts = np.add.accumulate(sums.total_tokens) - sums.total_tokens
        finite = np.logical_and.reduceat(np.isfinite(coeff), group_starts).tolist()
        # groups in order, each one's objective before its gradient
        for prompt, value, ok in zip(rollouts.prompts, values.tolist(), finite):
            if not math.isfinite(value):
                raise SimulationError(f"non-finite {rule} objective for prompt {prompt}")
            if not ok:
                raise SimulationError(f"non-finite gradient for prompt {prompt}")
        prompts, positions, tokens = index
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
        degenerate_groups=int(terms[rule][1].sum()),
    )


def train_step(
    policy: PolicyTable,
    task: TaskSpec,
    prompt_indices: Sequence[int],
    config: TrainConfig,
    step: int,
    on_degenerate: Callable[[int], None] | None = None,
) -> tuple[PolicyTable, list[MetricRecord], StepRollouts]:
    """One outer step: sample the prompts' groups once, ascend the configured rule.

    ``policy`` is the step's old policy: its log-probability table, taken at
    sampling, is the denominator of every inner epoch's ratios. Emits one
    MetricRecord per aggregation rule (all four are evaluated on the same
    rollouts; only ``config.rule`` drives the update). With more than one
    inner epoch the logged objectives average over epochs. Returns the
    updated policy, the records and the step's rollouts.

    The groups are normalised together, as columns. A degenerate group (all
    rewards equal at ``eps_var == 0``) is taken as zero-advantage, and
    ``on_degenerate`` is called with the step's count of them when it is
    not 0; a group whose variance overflows raises its ValueError.
    """
    rollouts = sample_step(
        policy,
        task,
        prompt_indices,
        config.group_size,
        [rollout_seed(config.seed, step, p) for p in prompt_indices],
    )
    rewards, lengths, sizes = rollouts.rewards, rollouts.lengths, rollouts.sizes
    normalized = normalize_columns(
        rewards, sizes, [config.eps_var] * len(sizes), list(map(str, rollouts.prompts))
    )
    for j, text in normalized.errors.items():
        if j not in normalized.degenerate:
            raise ValueError(text)
    if normalized.degenerate and on_degenerate is not None:
        on_degenerate(len(normalized.degenerate))
    advantages = normalized.advantages
    current = policy
    values: dict[str, list[float]] = {r: [] for r in RULES}
    clip_fracs = []
    for _ in range(config.inner_epochs):
        ev = evaluate_batch(current, rollouts, advantages, config.rule, config.clip)
        for r in RULES:
            values[r].append(ev.rule_objectives[r])
        clip_fracs.append(ev.clip_fraction)
        assert ev.grad_logits is not None
        current = PolicyTable(current.logits + config.learning_rate * ev.grad_logits)
    objectives = {r: fsum(v) / len(v) for r, v in values.items()}
    positive = advantages > 0.0
    stats = pooled_length_stats(
        lengths,
        list(compress(lengths, positive.tolist())),
        list(compress(lengths, (advantages < 0.0).tolist())),
    )
    ks = np.add.reduce(positive.reshape(len(sizes), config.group_size), axis=1, dtype=np.intp).tolist()
    records = batch_metrics(step, stats, rewards, ks, objectives, fsum(clip_fracs) / len(clip_fracs))
    return current, records, rollouts


def run_training(
    task: TaskSpec,
    config: TrainConfig,
    metrics_path=None,
    rollouts_path=None,
    on_degenerate: Callable[[int], None] | None = None,
) -> tuple[list[MetricRecord], PolicyTable]:
    """Run the full loop from a uniform policy; returns (records, final policy).

    Optionally writes the metric CSV and a JSONL dump of every sampled group
    (the only use of Response records in a run), each after the last step
    and creating its directory. Raises ValueError before any work when one step's
    prompts * group_size * t_max * vocab_size exceeds MAX_STEP_CELLS, or
    that times steps * inner_epochs exceeds MAX_WORK_CELLS. ``on_degenerate``
    is passed to every train_step.
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
        policy, recs, rollouts = train_step(policy, task, prompt_indices, config, step, on_degenerate)
        records.extend(recs)
        if rollouts_path is not None:
            dumped.extend(
                replace(g, group_id=f"s{step}-p{g.prompt_id}")
                for g in rollouts.groups(config.eps_var)
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
    rollouts = StepRollouts.from_groups(groups, old)
    advantages = np.concatenate([normalize_advantages(g).advantages for g in groups])
    base = evaluate_batch(policy, rollouts, advantages, rule, clip)
    assert base.grad_logits is not None
    max_rel = 0.0
    for idx in np.ndindex(policy.logits.shape):
        plus = policy.logits.copy()
        plus[idx] += h
        minus = policy.logits.copy()
        minus[idx] -= h
        j_plus = evaluate_batch(
            PolicyTable(plus), rollouts, advantages, rule, clip, need_grad=False
        ).objective
        j_minus = evaluate_batch(
            PolicyTable(minus), rollouts, advantages, rule, clip, need_grad=False
        ).objective
        numeric = (j_plus - j_minus) / (2.0 * h)
        analytic = float(base.grad_logits[idx])
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel
