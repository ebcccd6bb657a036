"""Rollout groups and group-relative advantage normalization.

A rollout group holds the G responses sampled for a single prompt. Rewards
are normalized within the group: with mu the group mean and sigma the square
root of the population variance plus a variance floor ``eps_var``, every
response gets the sequence-level advantage (r_i - mu) / sigma, shared by all
of its tokens. Responses are then partitioned by the strict sign of their
advantage; zero-advantage responses (possible when ``eps_var > 0`` or a
reward ties the mean) belong to neither subset and contribute nothing to any
downstream objective.

For binary rewards with ``eps_var = 0`` the advantages have a closed form
that depends only on the group size and the number of positive responses:
sqrt((G-k)/k) on the positive side and -sqrt(k/(G-k)) on the negative side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

__all__ = [
    "Response",
    "RolloutGroup",
    "AdvantageSet",
    "DegenerateGroupError",
    "normalize_advantages",
    "binary_closed_form",
    "RATIO_LOGP_RTOL",
]

# Tolerance for checking stored ratios against exp(logp_new - logp_old).
RATIO_LOGP_RTOL = 1e-9


class DegenerateGroupError(ValueError):
    """All rewards in a group are identical while eps_var is zero."""


def _float_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{name} contains non-finite value {v!r}")
    return out


@dataclass(frozen=True)
class Response:
    """One sampled response: tokens, scalar reward, per-token policy ratios.

    Either ``tokens`` or ``token_count`` must be given. Records that carry
    only ``token_count`` ("length-only" rollout logs) support length and
    advantage diagnostics but not objective evaluation. Ratios may be given
    directly or derived from ``logp_new`` / ``logp_old``; when both are
    present they must agree to within RATIO_LOGP_RTOL.
    """

    tokens: tuple[int, ...] | None
    reward: float
    ratios: tuple[float, ...] | None = None
    logp_new: tuple[float, ...] | None = None
    logp_old: tuple[float, ...] | None = None
    token_count: int | None = None
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        reward = float(self.reward)
        if not math.isfinite(reward):
            raise ValueError(f"non-finite reward {self.reward!r}")
        object.__setattr__(self, "reward", reward)

        if self.tokens is not None:
            length = len(self.tokens)
            if self.token_count is not None and int(self.token_count) != length:
                raise ValueError(
                    f"token_count {self.token_count} does not match {length} tokens"
                )
        elif self.token_count is not None:
            length = int(self.token_count)
        else:
            raise ValueError("response needs tokens or token_count")
        if length < 1:
            raise ValueError("response must contain at least one token")
        object.__setattr__(self, "token_count", length)

        if (self.logp_new is None) != (self.logp_old is None):
            raise ValueError("logp_new and logp_old must be supplied together")
        if self.logp_new is not None:
            logp_new = _float_tuple(self.logp_new, "logp_new")
            logp_old = _float_tuple(self.logp_old, "logp_old")
            if len(logp_new) != length or len(logp_old) != length:
                raise ValueError(
                    f"logp arrays of length {len(logp_new)}/{len(logp_old)} "
                    f"do not match token count {length}"
                )
            object.__setattr__(self, "logp_new", logp_new)
            object.__setattr__(self, "logp_old", logp_old)
            try:
                derived = tuple(math.exp(n - o) for n, o in zip(logp_new, logp_old))
            except OverflowError:
                raise ValueError("exp(logp_new - logp_old) overflows a float") from None
            if self.ratios is None:
                object.__setattr__(self, "ratios", derived)

        if self.ratios is not None:
            ratios = _float_tuple(self.ratios, "ratios")
            if len(ratios) != length:
                raise ValueError(
                    f"ratios length {len(ratios)} does not match token count {length}"
                )
            for r in ratios:
                if r <= 0.0:
                    raise ValueError(f"non-positive ratio {r!r}")
            object.__setattr__(self, "ratios", ratios)
            if self.logp_new is not None:
                for t, (r, expect) in enumerate(zip(ratios, derived)):
                    if abs(r - expect) > RATIO_LOGP_RTOL * expect:
                        raise ValueError(
                            f"ratio {r!r} at token {t} inconsistent with "
                            f"exp(logp_new - logp_old) = {expect!r}"
                        )

    @property
    def length(self) -> int:
        return self.token_count  # type: ignore[return-value]


@dataclass(frozen=True)
class RolloutGroup:
    """The G responses sampled for one prompt, plus the variance floor."""

    prompt_id: str
    responses: tuple[Response, ...]
    eps_var: float = 0.0
    group_id: str | None = None
    source_line: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))
        if len(self.responses) < 2:
            raise ValueError(f"group needs at least 2 responses, got {len(self.responses)}")
        eps = float(self.eps_var)
        if not math.isfinite(eps) or eps < 0.0:
            raise ValueError(f"eps_var must be finite and >= 0, got {self.eps_var!r}")
        object.__setattr__(self, "eps_var", eps)

    @property
    def size(self) -> int:
        return len(self.responses)

    @property
    def total_tokens(self) -> int:
        return sum(r.length for r in self.responses)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(r.length for r in self.responses)

    @property
    def rewards(self) -> tuple[float, ...]:
        return tuple(r.reward for r in self.responses)

    @property
    def has_ratios(self) -> bool:
        """False for length-only groups, which cannot evaluate objectives."""
        return all(r.ratios is not None for r in self.responses)


@dataclass(frozen=True)
class AdvantageSet:
    """Normalized advantages plus the sign partition of a group.

    ``pos_indices`` / ``neg_indices`` list the responses with strictly
    positive / negative advantage; any remaining indices have advantage
    exactly zero.
    """

    advantages: tuple[float, ...]
    mu: float
    sigma: float
    pos_indices: tuple[int, ...]
    neg_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        advantages = _float_tuple(self.advantages, "advantages")
        object.__setattr__(self, "advantages", advantages)
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        pos = tuple(i for i, a in enumerate(advantages) if a > 0.0)
        neg = tuple(i for i, a in enumerate(advantages) if a < 0.0)
        if tuple(self.pos_indices) != pos or tuple(self.neg_indices) != neg:
            raise ValueError("pos/neg indices inconsistent with advantage signs")
        object.__setattr__(self, "pos_indices", pos)
        object.__setattr__(self, "neg_indices", neg)

    @classmethod
    def from_advantages(cls, values) -> "AdvantageSet":
        """Build a set directly from advantage values (mu=0, sigma=1)."""
        advantages = tuple(float(v) for v in values)
        pos = tuple(i for i, a in enumerate(advantages) if a > 0.0)
        neg = tuple(i for i, a in enumerate(advantages) if a < 0.0)
        return cls(advantages, 0.0, 1.0, pos, neg)

    @property
    def size(self) -> int:
        return len(self.advantages)

    @property
    def k(self) -> int:
        """Number of positive-advantage responses."""
        return len(self.pos_indices)

    @property
    def zero_indices(self) -> tuple[int, ...]:
        excluded = set(self.pos_indices) | set(self.neg_indices)
        return tuple(i for i in range(self.size) if i not in excluded)


def normalize_advantages(group: RolloutGroup) -> AdvantageSet:
    """Normalize group rewards into advantages and partition by sign.

    Raises DegenerateGroupError when ``eps_var == 0`` and every reward is
    identical (sigma would be zero). With ``eps_var > 0`` such groups yield
    all-zero advantages instead.
    """
    rewards = group.rewards
    g = group.size
    mu = fsum(rewards) / g
    if group.eps_var == 0.0 and all(r == rewards[0] for r in rewards):
        raise DegenerateGroupError(
            f"group {group.prompt_id!r}: all rewards equal ({rewards[0]}) with eps_var=0"
        )
    var = fsum((r - mu) ** 2 for r in rewards) / g
    sigma = math.sqrt(var + group.eps_var)
    advantages = tuple((r - mu) / sigma for r in rewards)
    pos = tuple(i for i, a in enumerate(advantages) if a > 0.0)
    neg = tuple(i for i, a in enumerate(advantages) if a < 0.0)
    return AdvantageSet(advantages, mu, sigma, pos, neg)


def binary_closed_form(group_size: int, k: int) -> tuple[float, float]:
    """Closed-form advantages for a binary-reward group with k positives.

    Returns (positive advantage, negative advantage) =
    (sqrt((G-k)/k), -sqrt(k/(G-k))). Requires 1 <= k <= G-1.
    """
    if group_size < 2:
        raise ValueError(f"group size must be >= 2, got {group_size}")
    if not 1 <= k <= group_size - 1:
        raise ValueError(f"k={k} out of range for group size {group_size}")
    return math.sqrt((group_size - k) / k), -math.sqrt(k / (group_size - k))
