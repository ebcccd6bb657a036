"""The clipped token term and the four loss-aggregation rules, as one table.

Each token contributes phi = min(rho * A, clamp(rho, 1-eps_low, 1+eps_high) * A),
the clipped surrogate term with the sequence-level advantage A shared by all
tokens of a response. Every rule combines these terms into one group
objective J = sum_i w_i sum_t phi_{i,t} (a maximization objective; the
policy-gradient loss reported in diagnostics is -J). The rules differ only in
the weight w_i, which depends on the sign of A_i and, for seq, on T_i:

  token         1/N                        token mean over the group
  seq           1/(G T_i)                  mean of per-response token means
  balanced      (k/G)/N+ | ((G-k)/G)/N-    within-sign token means, weighted
                                           by the sequence counts k, G-k
  balanced_gen  (M+/G)/Z+ | (M-/G)/Z-      the same with advantage masses
                                           M+- = sum |A_i| and Z+- = sum |A_i| T_i,
                                           so non-binary rewards are handled

with N+- the token counts of the positive / negative subsets. All rows read
the same sign-split sums (``RuleSums``), so a caller computes them once per
group with ``compute_rule_sums`` (or for a run of groups with one
``FlatBatch``, whose tokens are laid out flat) and evaluates each row with
``rule_terms``; ``objective`` does both for one group and one rule.
The weight is also dJ/d phi, so dJ/d rho = w_i d phi/d rho, taking the
unclipped branch at clip ties so the gradient is defined everywhere. An empty
sign subset simply drops out (its weight already encodes the zero count);
when both are empty the balanced objectives return 0 flagged degenerate.

Summations use exactly-rounded ``math.fsum``, which makes all four objectives
bit-for-bit invariant under permutation of responses and of tokens within a
response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import fsum
from typing import Callable, Sequence

import numpy as np

from .groups import AdvantageSet, RolloutGroup

__all__ = [
    "RULES",
    "ClipConfig",
    "AggregationResult",
    "RuleSums",
    "FlatBatch",
    "MissingRatiosError",
    "BoundaryProximityError",
    "phi",
    "objective",
    "gradient_check",
    "compute_rule_sums",
    "rule_terms",
]

RULES = ("token", "seq", "balanced", "balanced_gen")


class MissingRatiosError(ValueError):
    """Objective evaluation was asked of a length-only group."""


class BoundaryProximityError(ValueError):
    """A ratio sits too close to a clip boundary for finite differencing."""

    def __init__(self, message: str, offenders: tuple[tuple[int, int, float], ...]):
        super().__init__(message)
        self.offenders = offenders


@dataclass(frozen=True)
class ClipConfig:
    """Asymmetric clip band [1 - clip_low, 1 + clip_high] for policy ratios."""

    clip_low: float = 0.2
    clip_high: float = 0.28

    def __post_init__(self) -> None:
        low = float(self.clip_low)
        high = float(self.clip_high)
        if not (math.isfinite(low) and 0.0 < low < 1.0):
            raise ValueError(f"clip_low must lie in (0, 1), got {self.clip_low!r}")
        if not (math.isfinite(high) and high > 0.0):
            raise ValueError(f"clip_high must be > 0, got {self.clip_high!r}")
        object.__setattr__(self, "clip_low", low)
        object.__setattr__(self, "clip_high", high)

    @property
    def lower(self) -> float:
        return 1.0 - self.clip_low

    @property
    def upper(self) -> float:
        return 1.0 + self.clip_high


@dataclass(frozen=True)
class AggregationResult:
    """One rule's objective value and per-token ratio gradient."""

    objective: float
    rule: str
    grad_ratios: tuple[np.ndarray, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class RuleSums:
    """Sign-partitioned sums shared by the objectives and their decompositions.

    ``pos_phi`` / ``neg_phi`` are the raw phi sums over the positive /
    negative subsets; ``pos_seq`` / ``neg_seq`` sum the per-response token
    means instead. ``m_pos``/``m_neg`` are the advantage masses and
    ``z_pos``/``z_neg`` the advantage-weighted token masses.
    """

    size: int
    k: int
    neg_count: int
    total_tokens: int
    n_pos: int
    n_neg: int
    pos_phi: float
    neg_phi: float
    pos_seq: float
    neg_seq: float
    m_pos: float
    m_neg: float
    z_pos: float
    z_neg: float
    clipped: int


def phi(ratio: float, advantage: float, clip: ClipConfig) -> float:
    """Clipped token contribution min(rho*A, clamp(rho)*A) for one token."""
    ratio = float(ratio)
    if ratio <= 0.0:
        raise ValueError(f"ratio must be > 0, got {ratio!r}")
    clamped = min(max(ratio, clip.lower), clip.upper)
    return min(ratio * advantage, clamped * advantage)


Weight = Callable[[int], float]


@dataclass(frozen=True)
class FlatBatch:
    """The per-token ratios of a run of groups, laid out flat.

    Tokens are ordered by group, then response, then position; ``lengths``
    holds each response's token count in that order and ``advantages`` each
    token's sequence-level advantage. Every per-token term is one numpy
    expression over the whole run, and a response is a slice of it.
    """

    advs: tuple[AdvantageSet, ...]
    lengths: tuple[int, ...]
    ratios: np.ndarray
    advantages: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        size = sum(adv.size for adv in self.advs)
        if len(self.lengths) != size:
            raise ValueError(f"{len(self.lengths)} ratio arrays for {size} advantages")
        advantages = np.repeat([a for adv in self.advs for a in adv.advantages], self.lengths)
        if self.ratios.shape != advantages.shape:
            raise ValueError(f"{self.ratios.size} ratios for {advantages.size} tokens")
        object.__setattr__(self, "advantages", advantages)

    def _groups(self):
        """Each group's advantage set, response lengths and first token."""
        i = start = 0
        for adv in self.advs:
            lengths = self.lengths[i : i + adv.size]
            yield adv, lengths, start
            i += adv.size
            start += sum(lengths)

    def rule_sums(self, clip: ClipConfig) -> list[RuleSums | None]:
        """Each group's sign sums: one phi pass, then an exact fsum per response.

        A group whose sums overflow a float is None in the list.
        """
        r, a = self.ratios, self.advantages
        token_phi = np.minimum(r * a, np.clip(r, clip.lower, clip.upper) * a).tolist()
        # a token counts as clipped when the clamped branch is the strict minimum
        clipped = ((a > 0.0) & (r > clip.upper)) | ((a < 0.0) & (r < clip.lower))
        out: list[RuleSums | None] = []
        for adv, lengths, first in self._groups():
            phi_sums = []
            start = first
            try:
                for a_i, t in zip(adv.advantages, lengths):
                    # zero-advantage responses contribute exactly zero everywhere
                    phi_sums.append(fsum(token_phi[start : start + t]) if a_i != 0.0 else 0.0)
                    start += t
                count = int(np.count_nonzero(clipped[first:start]))
                out.append(_assemble_sums(adv, lengths, phi_sums, count))
            except OverflowError:
                out.append(None)
        return out

    def ratio_gradients(
        self, clip: ClipConfig, weights: Sequence[tuple[Weight, Weight]]
    ) -> np.ndarray:
        """Flat dJ/d rho = w_i d phi/d rho, given each group's (w_pos, w_neg)."""
        w = [
            w_pos(t) if a > 0.0 else w_neg(t) if a < 0.0 else 0.0
            for (adv, lengths, _), (w_pos, w_neg) in zip(self._groups(), weights)
            for a, t in zip(adv.advantages, lengths)
        ]
        r, a = self.ratios, self.advantages
        # unclipped branch at ties, hence the inclusive comparisons
        active = ((a > 0.0) & (r <= clip.upper)) | ((a < 0.0) & (r >= clip.lower))
        return np.repeat(w, self.lengths) * (a * active)


def _assemble_sums(
    adv: AdvantageSet, lengths: Sequence[int], phi_sums: Sequence[float], clipped: int
) -> RuleSums:
    a = adv.advantages
    pos, neg = adv.pos_indices, adv.neg_indices
    return RuleSums(
        size=adv.size,
        k=adv.k,
        neg_count=len(neg),
        total_tokens=sum(lengths),
        n_pos=sum(lengths[i] for i in pos),
        n_neg=sum(lengths[i] for i in neg),
        pos_phi=fsum(phi_sums[i] for i in pos),
        neg_phi=fsum(phi_sums[i] for i in neg),
        pos_seq=fsum(phi_sums[i] / lengths[i] for i in pos),
        neg_seq=fsum(phi_sums[i] / lengths[i] for i in neg),
        m_pos=fsum(a[i] for i in pos),
        m_neg=fsum(-a[i] for i in neg),
        z_pos=fsum(a[i] * lengths[i] for i in pos),
        z_neg=fsum(-a[i] * lengths[i] for i in neg),
        clipped=clipped,
    )


def rule_terms(rule: str, sums: RuleSums) -> tuple[float, bool, Weight, Weight]:
    """One row of the rule table: (objective, degenerate, w_pos, w_neg).

    ``w_pos(T)`` / ``w_neg(T)`` is dJ/d phi for a token of a length-T
    response with positive / negative advantage; only seq depends on T.
    """
    g = sums.size
    if rule == "token":
        w = 1.0 / sums.total_tokens
        objective = (sums.pos_phi + sums.neg_phi) / sums.total_tokens
        return objective, False, lambda t: w, lambda t: w
    if rule == "seq":
        objective = (sums.pos_seq + sums.neg_seq) / g
        return objective, False, lambda t: 1.0 / (g * t), lambda t: 1.0 / (g * t)
    if rule == "balanced":
        c_pos, c_neg, d_pos, d_neg = sums.k, sums.neg_count, sums.n_pos, sums.n_neg
    elif rule == "balanced_gen":
        c_pos, c_neg, d_pos, d_neg = sums.m_pos, sums.m_neg, sums.z_pos, sums.z_neg
    else:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    term_pos = w_pos = term_neg = w_neg = 0.0
    if sums.k:
        term_pos = (c_pos / g) * (sums.pos_phi / d_pos)
        w_pos = (c_pos / g) / d_pos
    if sums.neg_count:
        term_neg = (c_neg / g) * (sums.neg_phi / d_neg)
        w_neg = (c_neg / g) / d_neg
    degenerate = sums.k == 0 and sums.neg_count == 0
    return term_pos + term_neg, degenerate, lambda t: w_pos, lambda t: w_neg


def _group_batch(group: RolloutGroup, adv: AdvantageSet) -> FlatBatch:
    """The one-group FlatBatch of ``group`` under ``adv``, on a fresh ratio copy."""
    if adv.size != group.size:
        raise ValueError(
            f"advantage set of size {adv.size} does not match group of size {group.size}"
        )
    for i, resp in enumerate(group.responses):
        if resp.ratios is None:
            raise MissingRatiosError(
                f"group {group.prompt_id!r}: response {i} is length-only, "
                "objectives need per-token ratios"
            )
    ratios = np.array([r for resp in group.responses for r in resp.ratios], dtype=float)
    return FlatBatch((adv,), group.lengths, ratios)


def _sums(batch: FlatBatch, clip: ClipConfig) -> RuleSums:
    sums = batch.rule_sums(clip)[0]
    if sums is None:
        raise OverflowError("the rule sums overflow a float")
    return sums


def compute_rule_sums(group: RolloutGroup, adv: AdvantageSet, clip: ClipConfig) -> RuleSums:
    """Accumulate the sign-partitioned phi sums every rule is built from.

    Raises ValueError when ``adv`` does not match the group, MissingRatiosError
    for a length-only group and OverflowError when a sum overflows a float.
    """
    return _sums(_group_batch(group, adv), clip)


def objective(
    rule: str, group: RolloutGroup, adv: AdvantageSet, clip: ClipConfig
) -> AggregationResult:
    """One group's objective under ``rule`` (a row of the table) and its dJ/d rho.

    Raises as compute_rule_sums does, then ValueError for an unknown rule or
    a non-finite objective. The gradient arrays are read-only.
    """
    batch = _group_batch(group, adv)
    value, degenerate, w_pos, w_neg = rule_terms(rule, _sums(batch, clip))
    if not math.isfinite(value):
        raise ValueError(f"non-finite {rule} objective for group {group.prompt_id!r}")
    flat = batch.ratio_gradients(clip, [(w_pos, w_neg)])
    flat.setflags(write=False)
    grads = tuple(np.split(flat, np.cumsum(batch.lengths[:-1])))
    return AggregationResult(value, rule, grads, degenerate=degenerate)


def gradient_check(
    result: AggregationResult,
    group: RolloutGroup,
    adv: AdvantageSet,
    clip: ClipConfig,
    h: float = 1e-5,
) -> float:
    """Central-difference check of dJ/d rho against ``result.grad_ratios``.

    Every ratio must sit farther than 10*h from both clip boundaries (where
    phi has kinks); offenders raise BoundaryProximityError. Returns the
    maximum relative error max |analytic - numeric| / max(1, |a|, |n|).
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    batch = _group_batch(group, adv)
    if len(result.grad_ratios) != len(batch.lengths) or any(
        gr.shape != (t,) for gr, t in zip(result.grad_ratios, batch.lengths)
    ):
        raise ValueError("result gradient layout does not match group")
    where = [(i, t) for i, n in enumerate(batch.lengths) for t in range(n)]
    ratios = batch.ratios
    offenders = [
        (i, t, float(r))
        for (i, t), r in zip(where, ratios)
        if min(abs(r - clip.lower), abs(r - clip.upper)) <= 10.0 * h or r <= h
    ]
    if offenders:
        raise BoundaryProximityError(
            f"{len(offenders)} ratio(s) within 10*h={10 * h:g} of a clip "
            f"boundary or of zero: {offenders[:5]}",
            tuple(offenders),
        )
    max_rel = 0.0
    for j, (i, t) in enumerate(where):
        orig = ratios[j]
        ratios[j] = orig + h
        j_plus = rule_terms(result.rule, _sums(batch, clip))[0]
        ratios[j] = orig - h
        j_minus = rule_terms(result.rule, _sums(batch, clip))[0]
        ratios[j] = orig
        numeric = (j_plus - j_minus) / (2.0 * h)
        analytic = float(result.grad_ratios[i][t])
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel
