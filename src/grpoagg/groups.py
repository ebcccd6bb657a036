"""Rollout groups and group-relative advantage normalization.

A rollout group holds the G responses sampled for a single prompt. Rewards
are normalized within the group: with mu the group mean and sigma the square
root of the population variance plus a variance floor ``eps_var``, every
response gets the sequence-level advantage (r_i - mu) / sigma, shared by all
of its tokens. Responses are then partitioned by the strict sign of their
advantage; zero-advantage responses (possible when ``eps_var > 0`` or a
reward ties the mean) belong to neither subset and contribute nothing to any
downstream objective.

Response and RolloutGroup own every record rule: token ids and ``token_count``
(at most 2**53) are Python or NumPy ints or integral floats, never bools;
rewards, ratios, log-probabilities and ``eps_var`` are finite Python floats or
ints or ``np.float64``. A violation is a ValueError naming the field.
``group_columns`` applies the same rules in bulk, to groups given as plain
fields, and builds no record. ``normalize_columns`` normalises a run of
groups given as a flat reward column, as ``normalize_rewards`` normalises
one, and builds no AdvantageSet.

For binary rewards with ``eps_var = 0`` the advantages have a closed form
that depends only on the group size and the number of positive responses:
sqrt((G-k)/k) on the positive side and -sqrt(k/(G-k)) on the negative side.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from math import fsum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Response",
    "RolloutGroup",
    "group_columns",
    "AdvantageSet",
    "DegenerateGroupError",
    "normalize_advantages",
    "normalize_rewards",
    "normalize_columns",
    "NormalizedColumns",
    "binary_closed_form",
    "RATIO_LOGP_RTOL",
    "MAX_TOKEN_COUNT",
]

# Tolerance for checking stored ratios against exp(logp_new - logp_old).
RATIO_LOGP_RTOL = 1e-9


class DegenerateGroupError(ValueError):
    """All rewards in a group are identical while eps_var is zero."""


# Element types taken as real numbers / integers without a per-element check.
_REAL_TYPES = frozenset((float, int, np.float64))
_INT_TYPE = frozenset((int,))
# Largest length that is still an exact float, as the length statistics need.
MAX_TOKEN_COUNT = 2**53


def _as_tuple(values, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {type(values).__name__}") from None


def _real(value, name: str) -> float:
    """A finite real number; any failure is a ValueError naming ``name``."""
    if type(value) in _REAL_TYPES:
        try:
            if math.isfinite(out := float(value)):
                return out
        except OverflowError:
            raise ValueError(f"{name} is out of float range") from None
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _reals(values, name: str) -> tuple[float, ...]:
    """``_real`` over a sequence, in C-level passes unless an element fails."""
    values = _as_tuple(values, name)
    try:
        if _REAL_TYPES.issuperset(map(type, values)):
            if all(map(math.isfinite, out := tuple(map(float, values)))):
                return out
    except OverflowError:
        pass
    return tuple(_real(v, f"{name}[{i}]") for i, v in enumerate(values))


def _int(value, name: str) -> int:
    """A Python or NumPy int, or an integral float; never a bool."""
    if isinstance(value, float) and value.is_integer() or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        object.__setattr__(self, "reward", _real(self.reward, "reward"))
        if self.tokens is not None:
            tokens = _as_tuple(self.tokens, "tokens")
            if not _INT_TYPE.issuperset(map(type, tokens)):
                tokens = tuple(_int(t, f"tokens[{i}]") for i, t in enumerate(tokens))
            object.__setattr__(self, "tokens", tokens)
            length = len(tokens)
            if self.token_count is not None and _int(self.token_count, "token_count") != length:
                raise ValueError(f"token_count {self.token_count} does not match {length} tokens")
        elif self.token_count is not None:
            length = _int(self.token_count, "token_count")
        else:
            raise ValueError("response needs tokens or token_count")
        if length < 1:
            raise ValueError("response must contain at least one token")
        if length > MAX_TOKEN_COUNT:
            raise ValueError(f"token_count {self.token_count!r} exceeds 2**53")
        object.__setattr__(self, "token_count", length)
        if type(self.truncated) is not bool:
            raise ValueError(f"truncated must be a bool, got {self.truncated!r}")

        if (self.logp_new is None) != (self.logp_old is None):
            raise ValueError("logp_new and logp_old must be supplied together")
        ratios = derived = None
        if self.logp_new is not None:
            logp_new = _reals(self.logp_new, "logp_new")
            logp_old = _reals(self.logp_old, "logp_old")
            if len(logp_new) != length or len(logp_old) != length:
                raise ValueError(
                    f"logp arrays of length {len(logp_new)}/{len(logp_old)} "
                    f"do not match token count {length}"
                )
            object.__setattr__(self, "logp_new", logp_new)
            object.__setattr__(self, "logp_old", logp_old)
            try:
                ratios = derived = tuple(map(math.exp, map(operator.sub, logp_new, logp_old)))
                if math.inf in derived:
                    raise OverflowError
            except OverflowError:
                raise ValueError("exp(logp_new - logp_old) overflows a float") from None
        if self.ratios is not None:
            ratios = _reals(self.ratios, "ratios")
            if len(ratios) != length:
                raise ValueError(f"ratios length {len(ratios)} does not match token count {length}")
        if ratios is None:
            return
        if min(ratios) <= 0.0:
            raise ValueError(f"non-positive ratio {next(r for r in ratios if r <= 0.0)!r}")
        object.__setattr__(self, "ratios", ratios)
        if derived is not None and ratios is not derived:
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
        if not isinstance(self.prompt_id, str):
            raise ValueError(f"prompt_id must be a string, got {self.prompt_id!r}")
        if self.group_id is not None and not isinstance(self.group_id, str):
            raise ValueError(f"group_id must be a string, got {self.group_id!r}")
        object.__setattr__(self, "responses", tuple(self.responses))
        if len(self.responses) < 2:
            raise ValueError(f"group needs at least 2 responses, got {len(self.responses)}")
        eps = _real(self.eps_var, "eps_var")
        if eps < 0.0:
            raise ValueError(f"eps_var must be >= 0, got {eps!r}")
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


def group_columns(groups: Sequence[tuple]) -> list[tuple | None]:
    """The columns of many groups given as plain fields, checked in bulk.

    Each group is ``(prompt_id, responses, eps_var, group_id)``, with
    ``responses`` a list holding each response's fields as a dict keyed by
    Response field name (other keys are ignored, an absent field is None, an
    absent ``truncated`` False). A group's entry in the returned list is
    ``(eps_var, rewards, lengths, ratios)`` as RolloutGroup and its
    Responses would hold them, with ``ratios`` a float64 array ordered by
    response and position, or None for a length-only group. The entry is
    None when the checks did not accept every value of the group; build its
    records then, for the group or its error.

    The checks are C-level passes over a group's values and accept only
    values every record rule accepts. Every ratio of every group is
    converted to float64 once, into one array of which each group's
    ``ratios`` is a view, and checked in one numpy pass: ``0 < r < 2**63``.
    Rewards, ``eps_var`` and log-probabilities must also be below 2**63 in
    magnitude, so that no value is one orjson read from an integer beyond
    64 bits. Integral-float token ids, a ``token_count`` next to ``tokens``
    and ratios next to a logp pair (which need the RATIO_LOGP_RTOL check)
    always give None. A rule added to Response or RolloutGroup must be
    added here.
    """
    fields = [_group_fields(*group) for group in groups]
    with_ratios = [f for f in fields if f is not None and f[3] is not None]
    values = np.fromiter(
        chain.from_iterable(chain.from_iterable(f[3] for f in with_ratios)),
        float,
        sum(sum(f[2]) for f in with_ratios),  # a response with ratios has one per token
    )
    ok = None
    if values.size and not (values.min() > 0.0 and values.max() < _BOUND):
        ok = (values > 0.0) & (values < _BOUND)  # NaN fails both
    out: list[tuple | None] = []
    start = 0
    for f in fields:
        if f is not None and f[3] is not None:
            stop = start + sum(f[2])
            f = (*f[:3], values[start:stop]) if ok is None or ok[start:stop].all() else None
            start = stop
        out.append(f)
    return out


# Bound on the magnitude of every real value group_columns accepts. orjson
# 3.8 reads an integer literal beyond 64 bits as a float, and such a float
# is at least 2**63 in magnitude; every other field it keeps is checked to
# be an int, a bool or a str.
_BOUND = 2.0**63
_FLOAT_TYPE = frozenset((float,))


def _floats(values: list) -> list | None:
    """``values`` as floats, or None unless each is a real number a float holds."""
    if _FLOAT_TYPE.issuperset(map(type, values)):
        return values
    if _REAL_TYPES.issuperset(map(type, values)):
        try:
            return list(map(float, values))  # json.loads keeps integers of any size
        except OverflowError:
            pass
    return None


def _group_fields(prompt_id, responses, eps_var, group_id) -> tuple | None:
    """One group's ``(eps_var, rewards, lengths, ratio lists)`` with every
    check of group_columns but the ratios' range, or None; the ratio lists
    are None for a length-only group."""
    if not (
        type(prompt_id) is str
        and (group_id is None or type(group_id) is str)
        and len(responses) >= 2
    ):
        return None
    rewards: list = []
    lengths: list[int] = []
    token_lists: list[list] = []
    reals: list[list] = []  # per response with ratios: its ratios, or logp_new and logp_old
    from_logp: list[bool] = []  # per response with ratios: whether from a logp pair
    length_only = False
    for raw in responses:
        if type(raw) is not dict or type(raw.get("truncated", False)) is not bool:
            return None
        tokens = raw.get("tokens")
        count = raw.get("token_count")
        if tokens is not None:
            if type(tokens) is not list or count is not None or not tokens:
                return None
            token_lists.append(tokens)
            count = len(tokens)
        elif type(count) is not int or not 1 <= count <= MAX_TOKEN_COUNT:
            return None
        rewards.append(raw.get("reward"))
        lengths.append(count)
        ratios = raw.get("ratios")
        logp_new = raw.get("logp_new")
        logp_old = raw.get("logp_old")
        if logp_new is not None or logp_old is not None:
            if not (
                ratios is None
                and type(logp_new) is list
                and type(logp_old) is list
                and len(logp_new) == count == len(logp_old)
            ):
                return None
            reals += (logp_new, logp_old)
            from_logp.append(True)
        elif ratios is not None:
            if type(ratios) is not list or len(ratios) != count:
                return None
            reals.append(ratios)
            from_logp.append(False)
        else:
            length_only = True
    head = _floats([eps_var, *rewards])
    if not (
        head is not None
        and head[0] >= 0.0
        and all(map(_BOUND.__gt__, map(abs, head)))
        and _INT_TYPE.issuperset(map(type, chain.from_iterable(token_lists)))
    ):
        return None
    if not _FLOAT_TYPE.issuperset(map(type, chain.from_iterable(reals))):
        reals = list(map(_floats, reals))
        if None in reals:
            return None
    ratio_lists = []
    given = iter(reals)
    for derived in from_logp:
        ratios = next(given)
        if derived:
            logp_old = next(given)
            # a NaN can hide from min and max, but gives a NaN ratio
            if not -_BOUND < min(min(ratios), min(logp_old)) <= max(max(ratios), max(logp_old)) < _BOUND:
                return None
            try:  # exp(logp_new - logp_old) exactly as Response derives it
                ratios = list(map(math.exp, map(operator.sub, ratios, logp_old)))
            except OverflowError:
                return None
        ratio_lists.append(ratios)
    return head[0], head[1:], lengths, None if length_only else ratio_lists


@dataclass(frozen=True)
class AdvantageSet:
    """Normalized advantages plus the sign partition of a group.

    ``pos_indices`` / ``neg_indices`` are derived from the advantages: they
    list the responses with strictly positive / negative advantage; any
    remaining indices have advantage exactly zero.
    """

    advantages: tuple[float, ...]
    mu: float
    sigma: float
    pos_indices: tuple[int, ...] = field(init=False)
    neg_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        advantages = _reals(self.advantages, "advantages")
        object.__setattr__(self, "advantages", advantages)
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        pos = tuple(i for i, a in enumerate(advantages) if a > 0.0)
        neg = tuple(i for i, a in enumerate(advantages) if a < 0.0)
        object.__setattr__(self, "pos_indices", pos)
        object.__setattr__(self, "neg_indices", neg)

    @classmethod
    def from_advantages(cls, values) -> "AdvantageSet":
        """Build a set directly from advantage values (mu=0, sigma=1)."""
        return cls(values, 0.0, 1.0)

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
    all-zero advantages instead. Raises ValueError naming the group when the
    reward sum or variance overflows a float, or the variance underflows to 0.
    """
    return normalize_rewards(group.rewards, group.eps_var, group.prompt_id)


def normalize_rewards(rewards: Sequence[float], eps_var: float, prompt_id: str) -> AdvantageSet:
    """``normalize_advantages`` of a group given as its reward column: the
    one-group case of ``normalize_columns``.

    ``rewards`` are finite floats and ``eps_var`` a finite float >= 0, as a
    RolloutGroup holds them; ``prompt_id`` names the group in errors.
    """
    out = normalize_columns(rewards, [len(rewards)], [eps_var], [prompt_id])
    if out.errors:
        raise (DegenerateGroupError if out.degenerate else ValueError)(out.errors[0])
    return AdvantageSet(tuple(out.advantages.tolist()), out.mu.item(), out.sigma.item())


class NormalizedColumns(NamedTuple):
    """The advantages of a run of groups, as ``normalize_columns`` gives them."""

    advantages: np.ndarray  # per response; 0.0 throughout a group in ``errors``
    mu: np.ndarray  # per group
    sigma: np.ndarray  # per group
    errors: dict[int, str]  # group index: the text normalize_rewards raises for it
    degenerate: list[int]  # the groups in ``errors`` whose error is DegenerateGroupError


def normalize_columns(
    rewards: Sequence[float], sizes: Sequence[int], eps_vars: Sequence[float], prompt_ids: Sequence[str]
) -> NormalizedColumns:
    """``normalize_rewards`` of a run of groups at once.

    ``rewards`` holds every group's rewards in order; ``sizes``,
    ``eps_vars`` and ``prompt_ids`` hold each group's response count (at
    least 1), variance floor and id. Each advantage has the bits of the
    Python float expressions ``mu = fsum(group) / g``, ``sigma =
    sqrt(fsum((r - mu) ** 2) / g + eps_var)`` and ``(r - mu) / sigma``:
    the group sums are one ``fsum`` per group and the squares Python's
    ``** 2`` (which is libm's ``pow`` and differs from ``x * x`` in the last
    bit for about one double in a thousand); every other step is one numpy
    expression over the run, with the same IEEE operations. A group that
    normalize_rewards refuses is in ``errors`` with that error's text; its
    advantages are 0.0, which is how a degenerate group is taken where it
    is not an error.
    """
    ends = list(accumulate(sizes))
    starts = [0, *ends[:-1]]
    groups = list(map(slice, starts, ends))
    size = np.array(sizes, dtype=np.intp)
    r = np.array(rewards, dtype=float)
    with np.errstate(all="ignore"):
        # an overflow or a zero variance gives a sigma that fails the check below
        mu = np.array(run_fsums(rewards, groups)) / size
        dev = r - np.repeat(mu, size)
        deviations = dev.tolist()
        try:
            squares = list(map(pow, deviations, repeat(2)))
        except OverflowError:
            squares = [_square(d) for d in deviations]
        sigma = np.sqrt(np.array(run_fsums(squares, groups)) / size + eps_vars)
        advantages = dev / np.repeat(sigma, size)
    errors: dict[int, str] = {}
    degenerate: list[int] = []
    bad = None
    if not (np.minimum.reduce(sigma, initial=math.inf) > 0.0
            and np.maximum.reduce(sigma, initial=0.0) < math.inf):  # a NaN fails too
        bad = ~((sigma > 0.0) & (sigma < math.inf))
    if 0.0 in eps_vars:
        flat = np.equal(eps_vars, 0.0) & (np.maximum.reduceat(r, starts) == np.minimum.reduceat(r, starts))
        if flat.any():
            bad = flat if bad is None else bad | flat
            degenerate = flat.nonzero()[0].tolist()
    if bad is not None:
        for j in bad.nonzero()[0].tolist():
            advantages[starts[j] : ends[j]] = 0.0
            if j in degenerate:
                errors[j] = f"group {prompt_ids[j]!r}: all rewards equal ({rewards[starts[j]]}) with eps_var=0"
            else:
                errors[j] = f"group {prompt_ids[j]!r}: reward variance is out of float range"
    return NormalizedColumns(advantages, mu, sigma, errors, degenerate)


def _square(x: float) -> float:
    """``x ** 2``, or inf where that overflows a float."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def run_fsums(values: Sequence[float], runs: Sequence[slice]) -> list[float]:
    """``fsum(values[run])`` for each run, one ``map`` over the runs; NaN
    where a sum overflows a float (an ``fsum`` of finite floats is never
    NaN otherwise)."""
    try:
        return list(map(fsum, map(values.__getitem__, runs)))
    except OverflowError:
        return [_fsum_or_nan(values[run]) for run in runs]


def _fsum_or_nan(values: Sequence[float]) -> float:
    try:
        return fsum(values)
    except OverflowError:
        return math.nan


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
