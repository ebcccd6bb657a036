"""Seeded identity suite behind ``grpoagg verify``.

Each check draws random instances from its own seeded generator, evaluates
one of the algebraic identities the advantage normaliser, the aggregation
rules and their decompositions must satisfy, and reports the maximum observed
error against a fixed tolerance. A check draws all of its groups first, then
evaluates them as one batch: one ``normalize_columns`` and one ``FlatBatch``.
The one-group API (``decompose``, ``ba_weight_identity``, ``gradient_check``)
is still called per group, by the checks of those functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import Callable, Sequence, TextIO

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, SumColumns, gradient_check, objective, phi, rule_table
from .decompose import LengthStats, ba_weight_identity, decompose, length_stats, regime_report
from .groups import Response, RolloutGroup, binary_closed_form, normalize_advantages, normalize_columns

__all__ = [
    "IdentityCheck",
    "SUITE",
    "run_suite",
    "random_binary_group",
    "random_real_group",
    "random_smooth_group",
]


def _response(rng: np.random.Generator, reward: float, length: int, lo: float, hi: float) -> Response:
    return Response(
        tokens=tuple(int(t) for t in rng.integers(1, 5, size=length)),
        reward=float(reward),
        ratios=tuple(float(r) for r in rng.uniform(lo, hi, size=length)),
    )


# random_smooth_group draws every ratio this far inside the clip band
SMOOTH_MARGIN = 0.05


def random_binary_group(
    rng: np.random.Generator,
    max_group: int = 16,
    max_len: int = 10,
    ratio_low: float = 0.6,
    ratio_high: float = 1.6,
) -> RolloutGroup:
    """Random 0/1-reward group with 1 <= k <= G-1 and random lengths/ratios,
    at eps_var 0."""
    g = int(rng.integers(2, max_group + 1))
    k = int(rng.integers(1, g))
    rewards = np.zeros(g)
    rewards[rng.permutation(g)[:k]] = 1.0
    responses = tuple(
        _response(rng, r, int(rng.integers(1, max_len + 1)), ratio_low, ratio_high)
        for r in rewards
    )
    return RolloutGroup("p0", responses, 0.0)


def random_real_group(rng: np.random.Generator) -> RolloutGroup:
    """Random group of 2-16 responses of 1-10 tokens with standard normal
    rewards and ratios in [0.6, 1.6), at eps_var 0 (no sign-subset
    guarantees)."""
    g = int(rng.integers(2, 17))
    rewards = rng.normal(size=g)
    responses = tuple(_response(rng, r, int(rng.integers(1, 11)), 0.6, 1.6) for r in rewards)
    return RolloutGroup("p0", responses, 0.0)


def random_smooth_group(rng: np.random.Generator, clip: ClipConfig) -> RolloutGroup:
    """Binary group of 2-8 responses of 1-6 tokens with all ratios
    SMOOTH_MARGIN inside the clip band."""
    return random_binary_group(rng, 8, 6, clip.lower + SMOOTH_MARGIN, clip.upper - SMOOTH_MARGIN)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    tolerance: float
    run: Callable[[np.random.Generator, ClipConfig], float]


def _advantages(rewards: list[Sequence[float]]) -> list[np.ndarray]:
    """Each drawn group's advantages at eps_var 0, given its rewards, all
    from one normalize_columns. Raises ValueError if a group is refused or
    degenerate."""
    sizes = list(map(len, rewards))
    out = normalize_columns(list(chain.from_iterable(rewards)), sizes, [0.0] * len(sizes), ["p0"] * len(sizes))
    if out.errors or out.degenerate:
        raise ValueError(f"drawn groups {sorted([*out.errors, *out.degenerate])} do not normalise")
    return np.split(out.advantages, list(accumulate(sizes[:-1])))


def _table(groups: list[RolloutGroup], advantages: list[np.ndarray], clip: ClipConfig) -> tuple[SumColumns, dict]:
    """The sign sums and rule table of ``groups`` under their advantages (an
    array per group), evaluated as one FlatBatch."""
    lengths = [t for group in groups for t in group.lengths]
    ratios = np.array([r for group in groups for resp in group.responses for r in resp.ratios])
    sums = FlatBatch(np.concatenate(advantages), [g.size for g in groups], lengths, ratios).rule_sums(clip)
    return sums, rule_table(sums)


def _max_error(got, want) -> float:
    """The largest |got - want| over aligned entries, 0.0 for none."""
    return float(np.max(np.abs(np.subtract(got, want)), initial=0.0))


def _check_closed_form(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_binary_group(rng, max_group=32) for _ in range(300)]
    advs = _advantages([g.rewards for g in groups])
    want = []
    for group, adv in zip(groups, advs):
        pos, neg = binary_closed_form(group.size, int(np.count_nonzero(adv > 0.0)))
        want += [pos if r == 1.0 else neg for r in group.rewards]
    return _max_error(np.concatenate(advs), want)


def _check_shift_scale(rng: np.random.Generator, clip: ClipConfig) -> float:
    rewards, shifted, scaled = [], [], []
    for _ in range(200):
        rewards.append(random_real_group(rng).rewards)
        c, lam = float(rng.normal()) * 3.0, float(rng.uniform(0.1, 5.0))
        shifted.append([r + c for r in rewards[-1]])
        scaled.append([r * lam for r in rewards[-1]])
    advs = _advantages(rewards + shifted + scaled)
    return _max_error(np.concatenate(advs[:200] * 2), np.concatenate(advs[200:]))


def _check_phi_values(rng: np.random.Generator, clip: ClipConfig) -> float:
    # Hand values for the default 0.2/0.28 band, plus random concavity in rho.
    spot = ClipConfig(0.2, 0.28)
    err = max(
        abs(phi(1.0, 2.0, spot) - 2.0),
        abs(phi(1.5, 1.0, spot) - 1.28),
        abs(phi(0.5, -1.0, spot) - (-0.8)),
    )
    for _ in range(500):
        a = float(rng.normal())
        x, y = np.sort(rng.uniform(0.05, 2.5, size=2))
        mid = 0.5 * (x + y)
        chord = 0.5 * (phi(float(x), a, clip) + phi(float(y), a, clip))
        err = max(err, chord - phi(float(mid), a, clip))
    return err


def _reconstruction(rule: str):
    def run(rng: np.random.Generator, clip: ClipConfig) -> float:
        groups = [random_binary_group(rng) for _ in range(300)]
        advs = _advantages([g.rewards for g in groups])
        reconstructed = [decompose(g, adv, clip, rule).reconstructed_objective for g, adv in zip(groups, advs)]
        return _max_error(_table(groups, advs, clip)[1][rule][0], reconstructed)

    return run


def _check_ba_weights(rng: np.random.Generator, clip: ClipConfig) -> float:
    err = 0.0
    for _ in range(300):
        group = random_binary_group(rng)
        adv = normalize_advantages(group)
        ba, seq, match = ba_weight_identity(group, adv, clip)
        if not match:
            return math.inf
        err = max(err, abs(ba - seq))
    return err


def _check_gen_reduction(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_binary_group(rng) for _ in range(300)]
    table = _table(groups, _advantages([g.rewards for g in groups]), clip)[1]
    return _max_error(table["balanced_gen"][0], table["balanced"][0])


def _check_mass_symmetry(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_real_group(rng) for _ in range(300)]
    advs = _advantages([g.rewards for g in groups])
    sums = _table(groups, advs, clip)[0]
    half = [0.5 * sum(map(abs, adv.tolist())) for adv in advs]
    return max(_max_error(sums.m_pos, sums.m_neg), _max_error(sums.m_pos, half))


def _check_gradients(rng: np.random.Generator, clip: ClipConfig) -> float:
    err = 0.0
    for i in range(40):
        group = random_smooth_group(rng, clip)
        adv = normalize_advantages(group)
        result = objective(RULES[i % 4], group, adv, clip)
        err = max(err, gradient_check(result, group, adv, clip, h=1e-5))
    return err


def _check_permutation(rng: np.random.Generator, clip: ClipConfig) -> float:
    # fsum-based accumulation makes these bit-exact, hence tolerance 0.
    groups, perms = [], []
    for _ in range(100):
        groups.append(random_binary_group(rng))
        perms.append(rng.permutation(groups[-1].size))
    advs = _advantages([g.rewards for g in groups])
    # the permuted copies follow the groups and carry their advantages permuted, not renormalised
    copies = [RolloutGroup("p0", tuple(g.responses[i] for i in perm), 0.0) for g, perm in zip(groups, perms)]
    table = _table(groups + copies, advs + [adv[perm] for adv, perm in zip(advs, perms)], clip)[1]
    return max(_max_error(table[rule][0][:100], table[rule][0][100:]) for rule in RULES)


def _check_length_diagnostics(rng: np.random.Generator, clip: ClipConfig) -> float:
    lengths = (2, 4, 1, 1)
    group = RolloutGroup(
        "p0",
        tuple(
            Response((1,) * t, r, (1.0,) * t)
            for t, r in zip(lengths, (1.0, 1.0, 0.0, 0.0))
        ),
        0.0,
    )
    adv = normalize_advantages(group)
    stats = length_stats(
        lengths, list(compress(lengths, (adv > 0.0).tolist())), list(compress(lengths, (adv < 0.0).tolist()))
    )
    err = max(
        abs(stats.mean_len - 2.0),
        abs(stats.len_cv - math.sqrt(1.5) / 2.0),
        abs((stats.len_gap or 0.0) - (-1.0)),
    )
    labels_ok = (
        regime_report(LengthStats(1.0, 0.9, 1.0, 1.0, 0.05)) == "favors-token"
        and regime_report(LengthStats(1.0, 0.1, 1.0, 1.0, 0.6)) == "favors-seq"
        and regime_report(LengthStats(1.0, 0.0, 1.0, 1.0, 0.0)) == "mixed"
        and regime_report(LengthStats(1.0, 0.9, 1.0, 1.0, 0.6)) == "mixed"
    )
    return err if labels_ok else math.inf


SUITE: tuple[IdentityCheck, ...] = (
    IdentityCheck("closed_form_advantages", 1e-10, _check_closed_form),
    IdentityCheck("reward_shift_scale_invariance", 1e-10, _check_shift_scale),
    IdentityCheck("clipped_term_concavity", 1e-12, _check_phi_values),
    IdentityCheck("token_decomposition", 1e-12, _reconstruction("token")),
    IdentityCheck("seq_decomposition", 1e-12, _reconstruction("seq")),
    IdentityCheck("balanced_decomposition", 1e-12, _reconstruction("balanced")),
    IdentityCheck("generalized_decomposition", 1e-12, _reconstruction("balanced_gen")),
    IdentityCheck("ba_weight_identity", 1e-12, _check_ba_weights),
    IdentityCheck("generalized_binary_reduction", 1e-12, _check_gen_reduction),
    IdentityCheck("mass_symmetry", 1e-10, _check_mass_symmetry),
    IdentityCheck("ratio_gradient_check", 1e-5, _check_gradients),
    IdentityCheck("permutation_invariance", 0.0, _check_permutation),
    IdentityCheck("length_diagnostics", 1e-12, _check_length_diagnostics),
)


# The gradient check's finite-difference error grows about linearly with its
# ratios, up to 1 + clip_high: 6.7e-08 at worst over seeds 0-9 at 1e4, over
# 100x under its 1e-5 tolerance; at 1e17 it fails spuriously.
MAX_CLIP_HIGH = 1e4


def run_suite(seed: int, clip: ClipConfig, stream: TextIO) -> bool:
    """Run every identity check, each from its own generator seeded by
    ``seed`` and its index; write one line per check to ``stream``; True
    iff all pass.

    Raises ValueError, before writing anything, for a clip band too narrow
    for random_smooth_group or a ``clip_high`` above MAX_CLIP_HIGH.
    """
    if not clip.lower + SMOOTH_MARGIN < clip.upper - SMOOTH_MARGIN:
        raise ValueError(
            f"clip band ({clip.clip_low:g},{clip.clip_high:g}) is too narrow: the gradient check draws "
            f"ratios {SMOOTH_MARGIN:g} inside it, so clip_low + clip_high must exceed {2 * SMOOTH_MARGIN:g}"
        )
    if clip.clip_high > MAX_CLIP_HIGH:
        raise ValueError(
            f"clip band ({clip.clip_low:g},{clip.clip_high:g}) is too wide: the gradient check's finite "
            f"differences lose precision at large ratios, so clip_high must be at most {MAX_CLIP_HIGH:g}"
        )
    hint = f"grpoagg verify --seed {seed} --clip-low {clip.clip_low!r} --clip-high {clip.clip_high!r}"
    stream.write(f"identity suite: seed={seed} clip=({clip.clip_low:g},{clip.clip_high:g})\n")
    all_ok = True
    for index, check in enumerate(SUITE):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        err = check.run(rng, clip)
        ok = err <= check.tolerance
        all_ok &= ok
        stream.write(f"{'PASS' if ok else 'FAIL'} {check.name:<32} max_err={err:.3e} tol={check.tolerance:g}\n")
        if not ok:
            stream.write(f"  reproduce with: {hint}\n")
    stream.write(f"{len(SUITE)} identities checked: " + ("all passed\n" if all_ok else "FAILURES PRESENT\n"))
    return all_ok
