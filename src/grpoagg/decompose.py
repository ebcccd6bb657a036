"""Sign-split diagnostics: prefactors, within-sign means, length statistics.

For binary rewards the normalized advantage is a constant on each sign
subset, so every aggregation objective factors into an inter-sign prefactor
times within-sign means of the effective token term delta = phi / A:

  token     J = sqrt(k(G-k))/N * (Tbar+ * dbar+ - Tbar- * dbar-)
  seq       J = sqrt(k(G-k))/G * (dbar+_seq - dbar-_seq)
  balanced  J = sqrt(k(G-k))/G * (dbar+ - dbar-)

The token form exposes the sign-length coupling (the sides are weighted by
the mean lengths Tbar+-); seq and balanced share the inter-sign prefactor
sqrt(k(G-k))/G and differ only in how they average within a sign. The
generalized rule decomposes as J = (M+/G) dbar+ - (M-/G) dbar- with
advantage masses in place of sequence counts.

Delta sums are recovered from phi sums and the closed-form advantages, never
by dividing individual tokens by their advantage.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from math import fsum
from typing import Collection, Iterable, Mapping, Sequence

from .aggregate import RULES, ClipConfig, SumColumns, compute_rule_sums, rule_table
from .groups import RolloutGroup, binary_closed_form
from .rollout_io import MetricRecord

__all__ = [
    "DecompositionReport",
    "LengthStats",
    "LengthTally",
    "NonBinaryRewardError",
    "decompose",
    "ba_weight_identity",
    "length_stats",
    "pooled_mean",
    "batch_metrics",
    "regime_report",
]

# Reconstruction / prefactor agreement tolerance for the exact identities.
IDENTITY_ATOL = 1e-12
# regime_report's cutoffs on the length CV and the absolute length gap.
REGIME_CV = 0.5
REGIME_GAP = 0.2


class NonBinaryRewardError(ValueError):
    """A binary-only decomposition was asked of non-binary rewards."""


@dataclass(frozen=True)
class DecompositionReport:
    """One rule's objective reassembled from its sign-split factors."""

    rule: str
    prefactor: float
    tbar_pos: float
    tbar_neg: float
    delta_pos: float
    delta_neg: float
    n_pos: int
    n_neg: int
    m_pos: float
    m_neg: float
    z_pos: float
    z_neg: float
    reconstructed_objective: float


@dataclass(frozen=True)
class LengthStats:
    """Pooled response-length statistics for a batch of groups.

    ``len_gap`` is the signed normalized gap (Tbar- - Tbar+) / mean_len,
    positive when negative responses are longer; it is None (as are the
    Tbar fields) whenever a sign subset is empty.
    """

    mean_len: float
    len_cv: float
    tbar_pos: float | None
    tbar_neg: float | None
    len_gap: float | None


def _require_binary(group: RolloutGroup, rule: str) -> None:
    if group.eps_var != 0.0:
        raise NonBinaryRewardError(
            f"{rule} decomposition needs eps_var=0 (closed-form advantages), "
            f"got eps_var={group.eps_var}"
        )
    for i, r in enumerate(group.rewards):
        if r not in (0.0, 1.0):
            raise NonBinaryRewardError(
                f"{rule} decomposition needs binary rewards, "
                f"response {i} has reward {r!r}"
            )


def decompose(
    group: RolloutGroup, advantages: Sequence[float], clip: ClipConfig, rule: str
) -> DecompositionReport:
    """Compute the sign-split factors of ``rule`` and reassemble its objective.

    Rules token/seq/balanced require binary rewards with eps_var=0 (their
    rearranged forms use the closed-form advantages); balanced_gen accepts
    arbitrary rewards.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    sums = compute_rule_sums(group, advantages, clip)
    if rule != "balanced_gen":
        _require_binary(group, rule)
    return _report(_rows(sums)[0], rule)


def _rows(sums: SumColumns) -> list[SumColumns]:
    """Each group's row of ``sums``, its fields Python numbers."""
    return list(map(SumColumns._make, zip(*(column.tolist() for column in sums))))


def _report(sums: SumColumns, rule: str) -> DecompositionReport:
    """``decompose`` of a group whose sign sums are the row ``sums``; the
    caller checks that the group is binary for every rule but balanced_gen."""
    g, k, nk = sums.size, sums.k, sums.neg_count

    tbar_pos = sums.n_pos / k if k else 0.0
    tbar_neg = sums.n_neg / nk if nk else 0.0

    if rule == "balanced_gen":
        delta_pos = sums.pos_phi / sums.z_pos if k else 0.0
        delta_neg = -(sums.neg_phi / sums.z_neg) if nk else 0.0
        prefactor = sums.m_pos / g
        reconstructed = (sums.m_pos / g) * delta_pos - (sums.m_neg / g) * delta_neg
    else:
        a_pos, a_neg = binary_closed_form(g, k)
        if rule == "seq":
            delta_pos = (sums.pos_seq / a_pos) / k
            delta_neg = (sums.neg_seq / a_neg) / nk
        else:  # token and balanced share the within-sign token mean of delta
            delta_pos = (sums.pos_phi / a_pos) / sums.n_pos
            delta_neg = (sums.neg_phi / a_neg) / sums.n_neg
        if rule == "token":
            prefactor = math.sqrt(k * nk) / sums.total_tokens
            reconstructed = prefactor * (tbar_pos * delta_pos - tbar_neg * delta_neg)
        else:
            prefactor = math.sqrt(k * nk) / g
            reconstructed = prefactor * (delta_pos - delta_neg)

    return DecompositionReport(
        rule=rule,
        prefactor=prefactor,
        tbar_pos=tbar_pos,
        tbar_neg=tbar_neg,
        delta_pos=delta_pos,
        delta_neg=delta_neg,
        n_pos=sums.n_pos,
        n_neg=sums.n_neg,
        m_pos=sums.m_pos,
        m_neg=sums.m_neg,
        z_pos=sums.z_pos,
        z_neg=sums.z_neg,
        reconstructed_objective=reconstructed,
    )


def ba_weight_identity(
    group: RolloutGroup, advantages: Sequence[float], clip: ClipConfig
) -> tuple[float, float, bool]:
    """Check that balanced aggregation induces the seq inter-sign prefactor.

    For a binary group, (k/G) * A+ and ((G-k)/G) * |A-| must both equal
    sqrt(k(G-k))/G, and the balanced objective must equal that prefactor
    times (dbar+ - dbar-). Returns (ba_prefactor, seq_prefactor, match)
    with agreement asserted to 1e-12.
    """
    _require_binary(group, "balanced")
    sums = compute_rule_sums(group, advantages, clip)
    return _ba_weights(_rows(sums)[0], rule_table(sums, ("balanced",))["balanced"][0].item())


def _ba_weights(sums: SumColumns, objective: float) -> tuple[float, float, bool]:
    """``ba_weight_identity`` of a binary group whose sign sums are the row
    ``sums`` and whose balanced objective is ``objective``."""
    g, k = sums.size, sums.k
    if k == 0 or sums.neg_count == 0:
        raise ValueError(f"degenerate subset: k={k} of {g} responses positive")
    a_pos, a_neg = binary_closed_form(g, k)
    ba_pos = (k / g) * a_pos
    ba_neg = ((g - k) / g) * (-a_neg)
    seq_prefactor = math.sqrt(k * (g - k)) / g
    match = (
        abs(ba_pos - seq_prefactor) <= IDENTITY_ATOL
        and abs(ba_neg - seq_prefactor) <= IDENTITY_ATOL
        and abs(objective - _report(sums, "balanced").reconstructed_objective) <= IDENTITY_ATOL
    )
    return ba_pos, seq_prefactor, match


class LengthTally:
    """Counts of response lengths, pooled and per advantage sign.

    ``stats`` gives exactly what length_stats gives over every length
    added: the statistics are ``fsum``s, whose value does not depend on the
    order of their terms. A tally takes memory of the order of the number of
    distinct lengths, however many lengths it has seen.
    """

    def __init__(self) -> None:
        self.all: Counter[int] = Counter()
        self.pos: Counter[int] = Counter()
        self.neg: Counter[int] = Counter()

    def add(self, lengths: Iterable[int], pos_lengths: Iterable[int], neg_lengths: Iterable[int]) -> None:
        """Count a batch's lengths, as passed to length_stats."""
        self.all.update(lengths)
        self.pos.update(pos_lengths)
        self.neg.update(neg_lengths)

    def stats(self) -> LengthStats:
        return length_stats(_Counted(self.all), _Counted(self.pos), _Counted(self.neg))


class _Counted:
    """A multiset of lengths held as counts: sized, and iterable any number of times."""

    def __init__(self, counts: Counter[int]) -> None:
        self.counts = counts

    def __len__(self) -> int:
        return self.counts.total()

    def __iter__(self):
        return self.counts.elements()


def length_stats(
    lengths: Collection[int], pos_lengths: Collection[int], neg_lengths: Collection[int]
) -> LengthStats:
    """Pooled length statistics (CV from the population variance) of every
    response length and of the positive / negative responses' lengths; each
    is iterated more than once."""
    n = len(lengths)
    if not n:
        raise ValueError("length_stats needs a non-empty batch")
    mean_len = fsum(lengths) / n
    len_cv = math.sqrt(fsum((t - mean_len) ** 2 for t in lengths) / n) / mean_len
    tbar_pos = fsum(pos_lengths) / len(pos_lengths) if pos_lengths else None
    tbar_neg = fsum(neg_lengths) / len(neg_lengths) if neg_lengths else None
    len_gap = (
        (tbar_neg - tbar_pos) / mean_len
        if tbar_pos is not None and tbar_neg is not None
        else None
    )
    return LengthStats(mean_len, len_cv, tbar_pos, tbar_neg, len_gap)


def pooled_mean(values: Sequence[float]) -> float:
    """``fsum(values) / n``; where that sum overflows, the sum of ``v / n``."""
    try:
        return fsum(values) / len(values)
    except OverflowError:
        return fsum(v / len(values) for v in values)


def batch_metrics(
    step: int,
    stats: LengthStats,
    rewards: Sequence[float],
    ks: Sequence[int],
    objectives: Mapping[str, float | None],
    clip_fraction: float | None,
) -> list[MetricRecord]:
    """One MetricRecord per rule in ``objectives`` for a batch of groups.

    ``stats`` are the batch's length statistics, ``rewards`` every response's
    reward and ``ks`` each group's count of positive responses. Only the
    objective and its pg_loss differ between the records; lengths, mean
    reward, mean k and ``clip_fraction`` do not depend on the rule.
    """
    mean_reward = pooled_mean(rewards)
    k_mean = fsum(ks) / len(ks)
    return [
        MetricRecord(
            step=step,
            rule=rule,
            objective=objective,
            pg_loss=None if objective is None else -objective,
            len_cv=stats.len_cv,
            len_gap=stats.len_gap,
            tbar_pos=stats.tbar_pos,
            tbar_neg=stats.tbar_neg,
            mean_reward=mean_reward,
            k_mean=k_mean,
            clip_fraction=clip_fraction,
        )
        for rule, objective in objectives.items()
    ]


def regime_report(stats: LengthStats) -> str:
    """Advisory label for which aggregation rule the batch favors.

    High length CV (above REGIME_CV) with a mild gap favors token
    aggregation; low CV with a large gap (above REGIME_GAP in magnitude)
    favors sequence aggregation; anything else (including an undefined gap)
    is "mixed".
    """
    if stats.len_gap is None:
        return "mixed"
    high_cv = stats.len_cv > REGIME_CV
    high_gap = abs(stats.len_gap) > REGIME_GAP
    if high_cv and not high_gap:
        return "favors-token"
    if high_gap and not high_cv:
        return "favors-seq"
    return "mixed"
