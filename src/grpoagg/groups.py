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
``group_columns`` applies the same rules to one group given as plain fields,
as a log line is read, builds no record and turns the group's ratios into
one float64 array of its own. ``normalize_columns`` normalises a run of
groups given as a flat reward column and decides which of them are refused;
``normalize_advantages`` is its one-group case. Either way a group's
advantages are a float64 column, one entry per response.

For binary rewards with ``eps_var = 0`` the advantages have a closed form
that depends only on the group size and the number of positive responses:
sqrt((G-k)/k) on the positive side and -sqrt(k/(G-k)) on the negative side.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from math import fsum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Response",
    "RolloutGroup",
    "group_columns",
    "DegenerateGroupError",
    "normalize_advantages",
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
_FLOAT_TYPE = frozenset((float,))
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


def _floats(values: Sequence) -> Sequence[float] | None:
    """``values`` as floats, or None unless each is a real number a float holds."""
    if _FLOAT_TYPE.issuperset(map(type, values)):
        return values
    if _REAL_TYPES.issuperset(map(type, values)):
        try:
            return list(map(float, values))  # json.loads keeps integers of any size
        except OverflowError:
            pass
    return None


def _reals(values, name: str) -> tuple[float, ...]:
    """``_real`` over a sequence, in C-level passes unless an element fails."""
    values = _as_tuple(values, name)
    if (out := _floats(values)) is not None and all(map(math.isfinite, out)):
        return tuple(out)
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


# Bound on the magnitude of every real value group_columns accepts. orjson
# 3.8 reads an integer literal beyond 64 bits as a float, and such a float
# is at least 2**63 in magnitude; every other field it keeps is checked to
# be an int, a bool or a str.
_BOUND = 2.0**63


def group_columns(prompt_id, responses, eps_var, group_id) -> tuple | None:
    """The columns of one group given as plain fields, or None.

    ``responses`` is a list holding each response's fields as a dict keyed
    by Response field name (other keys are ignored, an absent field is None,
    an absent ``truncated`` False). The columns are ``(eps_var, rewards,
    lengths, ratios)`` as RolloutGroup and its Responses would hold them,
    with ``ratios`` one float64 array of the group's own, ordered by
    response and position, or None for a length-only group. None means the
    checks did not accept every value of the group; build its records then,
    for the group or its error.

    The checks are C-level passes over the group's values and accept only
    values every record rule accepts. The ratios are converted to float64
    once and checked in one min/max pass: ``0 < r < 2**63``. Rewards,
    ``eps_var`` and log-probabilities must also be below 2**63 in magnitude,
    so that no value is one orjson read from an integer beyond 64 bits.
    Integral-float token ids, a ``token_count`` next to ``tokens`` and
    ratios next to a logp pair (which need the RATIO_LOGP_RTOL check) always
    give None. A rule added to Response or RolloutGroup must be added here;
    test_group_columns_match_the_record_path and
    test_parse_returns_a_group_or_a_rollout_log_error keep the two in step.
    """
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
    ratios = np.fromiter(chain.from_iterable(ratio_lists), float, sum(map(len, ratio_lists)))
    if ratios.size and not (ratios.min() > 0.0 and ratios.max() < _BOUND):  # NaN fails both
        return None
    return head[0], head[1:], lengths, None if length_only else ratios


def normalize_advantages(group: RolloutGroup) -> np.ndarray:
    """The group's advantages: one float64 entry per response, in order.

    Raises DegenerateGroupError when ``eps_var == 0`` and every reward is
    identical (sigma would be zero). With ``eps_var > 0`` such groups yield
    all-zero advantages instead. Raises ValueError naming the group when the
    reward sum or variance overflows a float, or the variance underflows to 0.
    The one-group case of ``normalize_columns``.
    """
    rewards = group.rewards
    out = normalize_columns(rewards, [len(rewards)], [group.eps_var], [group.prompt_id])
    if out.degenerate:
        raise DegenerateGroupError(f"group {group.prompt_id!r}: all rewards equal ({rewards[0]}) with eps_var=0")
    if out.errors:
        raise ValueError(out.errors[0])
    return out.advantages


class NormalizedColumns(NamedTuple):
    """The advantages of a run of groups, as ``normalize_columns`` gives them."""

    advantages: np.ndarray  # per response; 0.0 throughout a group in ``errors`` or ``degenerate``
    errors: dict[int, str]  # the groups a caller refuses (index: text), whose variance is out of float range
    degenerate: list[int]  # the groups, none in ``errors``, whose rewards are all equal at eps_var 0


def normalize_columns(
    rewards: Sequence[float], sizes: Sequence[int], eps_vars: Sequence[float], prompt_ids: Sequence[str]
) -> NormalizedColumns:
    """``normalize_advantages`` of a run of groups at once.

    ``rewards`` holds every group's rewards in order; ``sizes``,
    ``eps_vars`` and ``prompt_ids`` hold each group's response count (at
    least 1), variance floor and id. Each advantage has the bits of the
    Python float expressions ``mu = fsum(group) / g``, ``sigma =
    sqrt(fsum((r - mu) ** 2) / g + eps_var)`` and ``(r - mu) / sigma``:
    the group sums are one ``fsum`` per group and the squares Python's
    ``** 2`` (which is libm's ``pow`` and differs from ``x * x`` in the last
    bit for about one double in a thousand); every other step is one numpy
    expression over the run, with the same IEEE operations.

    This decides which groups are refused. A group whose rewards are all
    equal at ``eps_var`` 0 is ``degenerate`` (normalize_advantages raises
    DegenerateGroupError for it; a run of groups takes it as
    zero-advantage); any other group whose sigma is not a positive float is
    in ``errors`` with the text normalize_advantages raises for it, and is
    refused. Both get advantages 0.0.
    """
    ends = list(accumulate(sizes))
    starts = [0, *ends[:-1]]
    size = np.array(sizes, dtype=np.intp)
    r = np.array(rewards, dtype=float)
    with np.errstate(all="ignore"):
        # an overflow or a zero variance gives a sigma that fails the check below
        mu = np.array(run_fsums(rewards, sizes)) / size
        dev = r - np.repeat(mu, size)
        deviations = dev.tolist()
        try:
            squares = list(map(pow, deviations, repeat(2)))
        except OverflowError:
            squares = [_square(d) for d in deviations]
        sigma = np.sqrt(np.array(run_fsums(squares, sizes)) / size + eps_vars)
        advantages = dev / np.repeat(sigma, size)
    errors: dict[int, str] = {}
    degenerate: list[int] = []
    if 0.0 in eps_vars:
        flat = np.equal(eps_vars, 0.0) & (np.maximum.reduceat(r, starts) == np.minimum.reduceat(r, starts))
        degenerate = flat.nonzero()[0].tolist()
    if not (np.minimum.reduce(sigma, initial=math.inf) > 0.0
            and np.maximum.reduce(sigma, initial=0.0) < math.inf):  # a NaN fails too
        for j in (~((sigma > 0.0) & (sigma < math.inf))).nonzero()[0].tolist():
            if j not in degenerate:
                errors[j] = f"group {prompt_ids[j]!r}: reward variance is out of float range"
    for j in chain(errors, degenerate):
        advantages[starts[j] : ends[j]] = 0.0
    return NormalizedColumns(advantages, errors, degenerate)


def _square(x: float) -> float:
    """``x ** 2``, or inf where that overflows a float."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def run_fsums(values: Sequence[float], lengths: Sequence[int]) -> list[float]:
    """The ``fsum`` of each run of ``values``, the runs ``lengths`` long and
    in order, from one iterator: no run is sliced or copied, and an empty
    run sums to 0.0. NaN where a sum overflows a float (an ``fsum`` of
    finite floats is never NaN otherwise); ``values`` must be re-iterable,
    as that case walks it again, reading each run whole before its sum."""
    try:
        return list(map(fsum, map(islice, repeat(iter(values)), lengths)))
    except OverflowError:
        return list(map(_fsum_or_nan, map(list, map(islice, repeat(iter(values)), lengths))))


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
