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
the same sign-split sums, so a run of groups is one ``FlatBatch`` of
columns: its ``rule_sums`` gives every group's sums at once
(``SumColumns``), and ``rule_table`` evaluates every row of the table for
all of them as numpy expressions (``rule_terms`` one row).
``compute_rule_sums`` and ``objective`` are the one-group case, read back as
Python numbers (``RuleSums``).
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
from dataclasses import astuple, dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .groups import AdvantageSet, RolloutGroup, run_fsums

__all__ = [
    "RULES",
    "ClipConfig",
    "AggregationResult",
    "RuleSums",
    "SumColumns",
    "FlatBatch",
    "MissingRatiosError",
    "BoundaryProximityError",
    "phi",
    "objective",
    "gradient_check",
    "compute_rule_sums",
    "rule_table",
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


class SumColumns(NamedTuple):
    """The RuleSums of a run of groups: each field a numpy column holding
    one entry per group, in RuleSums' order, then ``ok``, False for a group
    whose sums overflow a float (its other entries mean nothing)."""

    size: np.ndarray
    k: np.ndarray
    neg_count: np.ndarray
    total_tokens: np.ndarray
    n_pos: np.ndarray
    n_neg: np.ndarray
    pos_phi: np.ndarray
    neg_phi: np.ndarray
    pos_seq: np.ndarray
    neg_seq: np.ndarray
    m_pos: np.ndarray
    m_neg: np.ndarray
    z_pos: np.ndarray
    z_neg: np.ndarray
    clipped: np.ndarray
    ok: np.ndarray

    @classmethod
    def of(cls, records: Sequence[RuleSums]) -> "SumColumns":
        """The columns of one-group records."""
        return cls(*map(np.array, zip(*map(astuple, records))), np.ones(len(records), dtype=bool))

    def record(self, i: int) -> RuleSums | None:
        """Group ``i``'s sums as Python ints and floats, or None if they overflow."""
        return RuleSums(*(column[i].item() for column in self[:-1])) if self.ok[i] else None


@dataclass(frozen=True)
class FlatBatch:
    """A run of groups as columns, its tokens laid out flat.

    ``advantages`` holds each response's sequence-level advantage and
    ``lengths`` its token count, ordered by group, then response; ``sizes``
    holds each group's response count (at least 1); ``ratios`` holds every
    token's ratio, ordered by group, response, position. Every per-token
    term is one numpy expression over the run, each sum an exact ``fsum``
    over a run of it, and every count an integer column operation; no
    per-group object is built.
    """

    advantages: np.ndarray
    sizes: Sequence[int]
    lengths: Sequence[int]
    ratios: np.ndarray
    token_advantages: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        advantages = np.asarray(self.advantages, dtype=float)
        sizes = np.asarray(self.sizes, dtype=np.intp)
        lengths = np.asarray(self.lengths, dtype=np.intp)
        responses = np.add.reduce(sizes)
        if not advantages.shape == lengths.shape == (responses,):
            raise ValueError(
                f"{lengths.size} ratio arrays and {advantages.size} advantages for {responses} responses"
            )
        token_advantages = np.repeat(advantages, lengths)
        if self.ratios.shape != token_advantages.shape:
            raise ValueError(f"{self.ratios.size} ratios for {token_advantages.size} tokens")
        object.__setattr__(self, "advantages", advantages)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "token_advantages", token_advantages)

    def rule_sums(self, clip: ClipConfig) -> SumColumns:
        """Every group's sign sums, from one phi pass over the tokens.

        The signed responses are taken positive ones first, then negative
        ones, each in group order, so that each (group, sign) subset is a
        run. One ``map(fsum, ...)`` takes each signed response's phi sum,
        and one per quantity (phi, phi / T, |A| and |A| T) its sums over
        every run, which are the eight sign-subset sums of every group;
        ``fsum`` is exact, so the order inside a run does not matter.
        Counts are integer column operations. A group whose sums overflow
        a float is not ``ok``.
        """
        r, a = self.ratios, self.token_advantages
        adv, sizes, lengths = self.advantages, self.sizes, self.lengths
        n = sizes.size
        first = np.add.accumulate(sizes) - sizes  # each group's first response
        ends = np.add.accumulate(lengths)  # each response's token end
        pos, neg = adv > 0.0, adv < 0.0
        # per group: positive and negative responses, all tokens, and the
        # tokens of the positive and of the negative responses
        columns = np.array([pos, neg, lengths, lengths * pos, lengths * neg])
        counts = np.add.reduceat(columns, first, axis=1)
        with np.errstate(over="ignore"):  # a product that overflows is an inf, as in Python
            token_phi = np.minimum(r * a, r.clip(clip.lower, clip.upper) * a).tolist()
            signed = np.concatenate((pos.nonzero()[0], neg.nonzero()[0]))
            t = lengths[signed]
            stops = ends[signed]
            phi = run_fsums(token_phi, list(map(slice, (stops - t).tolist(), stops.tolist())))
            magnitude = np.abs(adv[signed])  # -A exactly, on the negative side
            quantities = (phi, (np.array(phi) / t).tolist(), magnitude.tolist(), (magnitude * t).tolist())
        run_lengths = counts[:2].ravel()  # each group's positive run, then each negative one
        run_ends = np.add.accumulate(run_lengths)
        runs = list(map(slice, (run_ends - run_lengths).tolist(), run_ends.tolist()))
        sums = np.array(list(chain.from_iterable(run_fsums(q, runs) for q in quantities)), dtype=float)
        sums = sums.reshape(8, n)
        # a token counts as clipped when the clamped branch is the strict minimum
        clipped = np.where(a > 0.0, r > clip.upper, (a < 0.0) & (r < clip.lower))
        return SumColumns(
            sizes,
            *counts,
            *sums,
            np.add.reduceat(clipped, (ends - lengths)[first], dtype=np.intp),
            ~np.logical_or.reduce(np.isnan(sums)),
        )

    def ratio_gradients(
        self, clip: ClipConfig, w_pos: np.ndarray | None, w_neg: np.ndarray | None
    ) -> np.ndarray:
        """Flat dJ/d rho = w_i d phi/d rho, given each group's sign weights
        (w_pos, w_neg) as rule_terms gives them; None, from seq, gives
        w_i = 1/(G T_i)."""
        adv, sizes = self.advantages, self.sizes
        if w_pos is None:
            w = 1.0 / (np.repeat(sizes, sizes) * self.lengths)
        else:
            w = np.where(adv > 0.0, np.repeat(w_pos, sizes), np.repeat(w_neg, sizes))
        r, a = self.ratios, self.token_advantages
        # the unclipped branch at ties, hence the inclusive comparisons. The
        # weights of a group whose sums are ok are finite and at most 1, so
        # w * A does not overflow, a zero advantage gives a zero of its
        # sign, and (w * A) * active has the bits of w * (A * active).
        active = np.where(a > 0.0, r <= clip.upper, r >= clip.lower)
        return np.repeat(w * adv, self.lengths) * active


def rule_table(sums: SumColumns, rules: Sequence[str] = RULES) -> dict[str, tuple]:
    """The rows of ``rules`` in the rule table for a run of groups:
    ``rule_terms`` of each rule."""
    g = sums.size
    no_pos, no_neg = sums.k == 0, sums.neg_count == 0
    table = {}
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a NaN
        for rule in rules:
            if rule == "token":
                w = 1.0 / sums.total_tokens
                objective = (sums.pos_phi + sums.neg_phi) / sums.total_tokens
                table[rule] = (objective, np.zeros(g.size, dtype=bool), w, w)
                continue
            if rule == "seq":
                table[rule] = ((sums.pos_seq + sums.neg_seq) / g, np.zeros(g.size, dtype=bool), None, None)
                continue
            if rule == "balanced":
                c_pos, c_neg, d_pos, d_neg = sums.k, sums.neg_count, sums.n_pos, sums.n_neg
            elif rule == "balanced_gen":
                c_pos, c_neg, d_pos, d_neg = sums.m_pos, sums.m_neg, sums.z_pos, sums.z_neg
            else:
                raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
            # an empty subset has c = 0 and phi sum 0.0; dividing by 1 in
            # place of its denominator 0 gives its term and weight exactly 0.0
            d_pos, d_neg = d_pos + no_pos, d_neg + no_neg
            c_pos, c_neg = c_pos / g, c_neg / g
            objective = c_pos * (sums.pos_phi / d_pos) + c_neg * (sums.neg_phi / d_neg)
            table[rule] = (objective, no_pos & no_neg, c_pos / d_pos, c_neg / d_neg)
    return table


def rule_terms(
    rule: str, sums: SumColumns
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One row of the rule table for a run of groups: (objective, degenerate,
    w_pos, w_neg), each a column with one entry per group.

    ``w_pos`` / ``w_neg`` is dJ/d phi for a token of a response with
    positive / negative advantage. For seq it is 1/(G T_i), which depends on
    the response's length T_i, and both are None. Each entry is the float
    expression of the one-group formula, so an objective that overflows is
    non-finite, as it is in Python floats; callers check it.
    """
    return rule_table(sums, (rule,))[rule]


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
    return FlatBatch(np.array(adv.advantages), (adv.size,), group.lengths, ratios)


def _sums(batch: FlatBatch, clip: ClipConfig) -> SumColumns:
    """The sums of a one-group batch; OverflowError where they overflow a float."""
    sums = batch.rule_sums(clip)
    if not sums.ok[0]:
        raise OverflowError("the rule sums overflow a float")
    return sums


def compute_rule_sums(group: RolloutGroup, adv: AdvantageSet, clip: ClipConfig) -> RuleSums:
    """Accumulate the sign-partitioned phi sums every rule is built from.

    Raises ValueError when ``adv`` does not match the group, MissingRatiosError
    for a length-only group and OverflowError when a sum overflows a float.
    """
    return _sums(_group_batch(group, adv), clip).record(0)


def objective(
    rule: str, group: RolloutGroup, adv: AdvantageSet, clip: ClipConfig
) -> AggregationResult:
    """One group's objective under ``rule`` (a row of the table) and its dJ/d rho.

    Raises as compute_rule_sums does, then ValueError for an unknown rule or
    a non-finite objective. The gradient arrays are read-only.
    """
    batch = _group_batch(group, adv)
    value, degenerate, w_pos, w_neg = rule_terms(rule, _sums(batch, clip))
    if not math.isfinite(value[0]):
        raise ValueError(f"non-finite {rule} objective for group {group.prompt_id!r}")
    flat = batch.ratio_gradients(clip, w_pos, w_neg)
    flat.setflags(write=False)
    grads = tuple(np.split(flat, np.cumsum(batch.lengths[:-1])))
    return AggregationResult(value.item(), rule, grads, degenerate=degenerate.item())


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
        j_plus = rule_terms(result.rule, _sums(batch, clip))[0].item()
        ratios[j] = orig - h
        j_minus = rule_terms(result.rule, _sums(batch, clip))[0].item()
        ratios[j] = orig
        numeric = (j_plus - j_minus) / (2.0 * h)
        analytic = float(result.grad_ratios[i][t])
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel
