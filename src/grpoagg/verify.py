"""Seeded identity suite behind ``grpoagg verify``.

Each check draws random instances from its own seeded generator, evaluates
one of the algebraic identities the advantage normaliser, the aggregation
rules and their decompositions must satisfy, and reports the maximum observed
error against a fixed tolerance, a NaN error failing it. The drawers return a
group's columns; a check draws all of its groups, then evaluates them as one
``normalize_columns`` and one ``FlatBatch`` (the gradient check runs
``gradient_check``'s core on each group's own batch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import Callable, Sequence, TextIO

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, SumColumns, _ratio_gradient_error, phi, rule_table
from .decompose import LengthStats, _ba_weights, _report, _rows, length_stats, regime_report
from .groups import binary_closed_form, normalize_columns

__all__ = [
    "IdentityCheck",
    "SUITE",
    "run_suite",
    "random_binary_group",
    "random_real_group",
    "random_smooth_group",
]


def _columns(rng: np.random.Generator, rewards: np.ndarray, max_len: int, lo: float, hi: float) -> tuple:
    """The columns ``(rewards, lengths, ratios)`` of a group with ``rewards``:
    lengths in [1, max_len] and one array of every token's ratio in [lo, hi)."""
    lengths, ratios = [], []
    for _ in rewards:
        lengths.append(int(rng.integers(1, max_len + 1)))
        rng.integers(1, 5, size=lengths[-1])  # the token ids, drawn only to keep the random stream
        ratios.append(rng.uniform(lo, hi, size=lengths[-1]))
    return rewards.tolist(), lengths, np.concatenate(ratios)


# random_smooth_group draws every ratio this far inside the clip band
SMOOTH_MARGIN = 0.05


def random_binary_group(
    rng: np.random.Generator,
    max_group: int = 16,
    max_len: int = 10,
    ratio_low: float = 0.6,
    ratio_high: float = 1.6,
) -> tuple:
    """The columns of a random 0/1-reward group with 1 <= k <= G-1."""
    g = int(rng.integers(2, max_group + 1))
    k = int(rng.integers(1, g))
    rewards = np.zeros(g)
    rewards[rng.permutation(g)[:k]] = 1.0
    return _columns(rng, rewards, max_len, ratio_low, ratio_high)


def random_real_group(rng: np.random.Generator) -> tuple:
    """The columns of a random group of 2-16 responses of 1-10 tokens with
    standard normal rewards and ratios in [0.6, 1.6)."""
    g = int(rng.integers(2, 17))
    return _columns(rng, rng.normal(size=g), 10, 0.6, 1.6)


def random_smooth_group(rng: np.random.Generator, clip: ClipConfig) -> tuple:
    """The columns of a binary group of 2-8 responses of 1-6 tokens with all
    ratios SMOOTH_MARGIN inside the clip band."""
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


def _batch(groups: list[tuple], advantages: list[np.ndarray]) -> FlatBatch:
    """The FlatBatch of drawn ``groups`` under their advantages (an array per group)."""
    _, lengths, ratios = zip(*groups)
    return FlatBatch(
        np.concatenate(advantages), list(map(len, lengths)), list(chain.from_iterable(lengths)), np.concatenate(ratios)
    )


def _table(groups: list[tuple], advantages: list[np.ndarray], clip: ClipConfig) -> tuple[SumColumns, dict]:
    """The sign sums and rule table of drawn ``groups`` as one FlatBatch."""
    sums = _batch(groups, advantages).rule_sums(clip)
    return sums, rule_table(sums)


def _max_error(got, want) -> float:
    """The largest |got - want| over aligned entries, 0.0 for none, NaN if any is NaN."""
    return float(np.max(np.abs(np.subtract(got, want)), initial=0.0))


def _check_closed_form(rng: np.random.Generator, clip: ClipConfig) -> float:
    rewards = [random_binary_group(rng, max_group=32)[0] for _ in range(300)]
    advs = _advantages(rewards)
    want = []
    for group, adv in zip(rewards, advs):
        pos, neg = binary_closed_form(len(group), int(np.count_nonzero(adv > 0.0)))
        want += [pos if r == 1.0 else neg for r in group]
    return _max_error(np.concatenate(advs), want)


def _check_shift_scale(rng: np.random.Generator, clip: ClipConfig) -> float:
    rewards, shifted, scaled = [], [], []
    for _ in range(200):
        rewards.append(random_real_group(rng)[0])
        c, lam = float(rng.normal()) * 3.0, float(rng.uniform(0.1, 5.0))
        shifted.append([r + c for r in rewards[-1]])
        scaled.append([r * lam for r in rewards[-1]])
    advs = _advantages(rewards + shifted + scaled)
    return _max_error(np.concatenate(advs[:200] * 2), np.concatenate(advs[200:]))


def _check_phi_values(rng: np.random.Generator, clip: ClipConfig) -> float:
    # Hand values for the default 0.2/0.28 band, plus random concavity in rho.
    spot = ClipConfig(0.2, 0.28)
    got = [phi(1.0, 2.0, spot), phi(1.5, 1.0, spot), phi(0.5, -1.0, spot)]
    for _ in range(500):
        a = float(rng.normal())
        x, y = np.sort(rng.uniform(0.05, 2.5, size=2))
        chord = 0.5 * (phi(float(x), a, clip) + phi(float(y), a, clip))
        got.append(np.maximum(chord - phi(float(0.5 * (x + y)), a, clip), 0.0))  # a concavity violation
    return _max_error(got, [2.0, 1.28, -0.8] + [0.0] * 500)


def _reconstruction(rule: str):
    def run(rng: np.random.Generator, clip: ClipConfig) -> float:
        groups = [random_binary_group(rng) for _ in range(300)]
        sums, table = _table(groups, _advantages([g[0] for g in groups]), clip)
        return _max_error(table[rule][0], [_report(row, rule).reconstructed_objective for row in _rows(sums)])

    return run


def _check_ba_weights(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_binary_group(rng) for _ in range(300)]
    sums, table = _table(groups, _advantages([g[0] for g in groups]), clip)
    ba, seq, match = zip(*map(_ba_weights, _rows(sums), table["balanced"][0].tolist()))
    return _max_error(ba, seq) if all(match) else math.inf


def _check_gen_reduction(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_binary_group(rng) for _ in range(300)]
    table = _table(groups, _advantages([g[0] for g in groups]), clip)[1]
    return _max_error(table["balanced_gen"][0], table["balanced"][0])


def _check_mass_symmetry(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_real_group(rng) for _ in range(300)]
    advs = _advantages([g[0] for g in groups])
    sums = _table(groups, advs, clip)[0]
    half = [0.5 * sum(map(abs, adv.tolist())) for adv in advs]
    return _max_error([sums.m_pos, sums.m_pos], [sums.m_neg, half])


def _check_gradients(rng: np.random.Generator, clip: ClipConfig) -> float:
    groups = [random_smooth_group(rng, clip) for _ in range(40)]
    drawn = zip(groups, _advantages([g[0] for g in groups]))
    errors = [_ratio_gradient_error(_batch([g], [a]), RULES[i % 4], clip, 1e-5, i) for i, (g, a) in enumerate(drawn)]
    return _max_error(errors, 0.0)


def _check_permutation(rng: np.random.Generator, clip: ClipConfig) -> float:
    # fsum-based accumulation makes these bit-exact, hence tolerance 0.
    groups, perms = [], []
    for _ in range(100):
        groups.append(random_binary_group(rng))
        perms.append(rng.permutation(len(groups[-1][0])))
    advs = _advantages([g[0] for g in groups])
    # the permuted copies follow the groups and carry their advantages permuted, not renormalised
    copies = []
    for (_, lengths, ratios), perm in zip(groups, perms):
        responses = np.split(ratios, list(accumulate(lengths[:-1])))
        copies.append((None, [lengths[i] for i in perm], np.concatenate([responses[i] for i in perm])))
    table = _table(groups + copies, advs + [adv[perm] for adv, perm in zip(advs, perms)], clip)[1]
    return _max_error([table[rule][0][:100] for rule in RULES], [table[rule][0][100:] for rule in RULES])


def _check_length_diagnostics(rng: np.random.Generator, clip: ClipConfig) -> float:
    lengths = (2, 4, 1, 1)
    adv = _advantages([(1.0, 1.0, 0.0, 0.0)])[0]
    stats = length_stats(
        lengths, list(compress(lengths, (adv > 0.0).tolist())), list(compress(lengths, (adv < 0.0).tolist()))
    )
    err = _max_error([stats.mean_len, stats.len_cv, stats.len_gap or 0.0], [2.0, math.sqrt(1.5) / 2.0, -1.0])
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

    Raises ValueError, before writing anything, for a negative seed, a clip
    band too narrow for random_smooth_group or a ``clip_high`` above
    MAX_CLIP_HIGH.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
