"""Seeded workload inputs and an independent reference for checking outputs.

Nothing here imports ``grpoagg``. The reference recomputes the four
aggregation rules, the sign split and the pooled length statistics with
``math.fsum`` straight from the generated records, so a rewrite of the
program's evaluators is still checked against something it does not share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import fsum
from pathlib import Path

import numpy as np

RULES = ("token", "seq", "balanced", "balanced_gen")
CSV_HEADER = (
    "step,rule,objective,pg_loss,len_cv,len_gap,tbar_pos,tbar_neg,"
    "mean_reward,k_mean,clip_fraction"
)
CLIP_LOWER = 1.0 - 0.2  # the CLI's default --clip-low
CLIP_UPPER = 1.0 + 0.28  # the CLI's default --clip-high
WINDOW = 16

# Shares of the analyze log; the counts are exact (rounded), not sampled.
LOGP_SHARE = 0.25
NONBINARY_SHARE = 0.25
DEGENERATE_SHARE = 0.03
LENGTH_ONLY_SHARE = 0.02
GROUPS_PER_MALFORMED = 100

# The CSV prints 10 significant digits; allow half a unit in the last place
# plus a few ulps of summation-order difference.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass
class GroupRef:
    """What the reference needs of one valid group."""

    lengths: list[int]
    objectives: dict[str, float] | None  # None for length-only groups


@dataclass
class AnalyzeInput:
    path: Path
    groups: list[GroupRef]
    props: dict


def advantages(rewards: list[float]) -> list[float]:
    """Group-normalized advantages at eps_var 0; all zero for equal rewards."""
    g = len(rewards)
    mu = fsum(rewards) / g
    if all(r == rewards[0] for r in rewards):
        return [0.0] * g
    sigma = math.sqrt(fsum((r - mu) ** 2 for r in rewards) / g)
    return [(r - mu) / sigma for r in rewards]


def rule_objectives(ratios: list[list[float]], advs: list[float]) -> dict[str, float]:
    """The four rule objectives of one group, from per-token ratios."""
    g = len(advs)
    n_total = sum(len(r) for r in ratios)
    pos_phi, neg_phi, pos_seq, neg_seq = [], [], [], []
    n_pos = n_neg = 0
    m_pos, m_neg, z_pos, z_neg = [], [], [], []
    for rs, a in zip(ratios, advs):
        if a == 0.0:
            continue
        s = fsum(min(r * a, min(max(r, CLIP_LOWER), CLIP_UPPER) * a) for r in rs)
        t = len(rs)
        if a > 0.0:
            pos_phi.append(s)
            pos_seq.append(s / t)
            n_pos += t
            m_pos.append(a)
            z_pos.append(a * t)
        else:
            neg_phi.append(s)
            neg_seq.append(s / t)
            n_neg += t
            m_neg.append(-a)
            z_neg.append(-a * t)
    k, nk = len(pos_phi), len(neg_phi)
    p, q = fsum(pos_phi), fsum(neg_phi)
    balanced = balanced_gen = 0.0
    if k:
        balanced += (k / g) * (p / n_pos)
        balanced_gen += (fsum(m_pos) / g) * (p / fsum(z_pos))
    if nk:
        balanced += (nk / g) * (q / n_neg)
        balanced_gen += (fsum(m_neg) / g) * (q / fsum(z_neg))
    return {
        "token": (p + q) / n_total,
        "seq": (fsum(pos_seq) + fsum(neg_seq)) / g,
        "balanced": balanced,
        "balanced_gen": balanced_gen,
    }


def length_cv(lengths: list[int]) -> float:
    n = len(lengths)
    mean = fsum(lengths) / n
    return math.sqrt(fsum((t - mean) ** 2 for t in lengths) / n) / mean


def make_analyze_input(
    path: Path, seed: int, groups: int, group_size: int, len_lo: int, len_hi: int
) -> AnalyzeInput:
    """Write a seeded JSONL rollout log and return its reference values.

    Group kinds are assigned by exact counts: binary rewards, non-binary
    rewards, degenerate (all rewards equal) and length-only (``token_count``
    without ratios). Binary groups always have both signs, so the degenerate
    count is exactly the injected one. A quarter of the responses with
    ratios carry a ``logp_new``/``logp_old`` pair instead of ``ratios``.
    One line in every 100 groups is malformed in one of three ways.
    """
    rng = np.random.default_rng(seed)
    n_degen = round(DEGENERATE_SHARE * groups)
    n_length_only = round(LENGTH_ONLY_SHARE * groups)
    n_nonbinary = round(NONBINARY_SHARE * groups)
    kinds = ["degenerate"] * n_degen + ["length-only"] * n_length_only
    kinds += ["nonbinary"] * n_nonbinary
    kinds += ["binary"] * (groups - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(groups)]
    n_malformed = groups // GROUPS_PER_MALFORMED
    malformed_at = set(rng.choice(groups + n_malformed, n_malformed, replace=False).tolist())

    refs: list[GroupRef] = []
    tokens_total = logp_responses = ratio_responses = 0
    n_lines = groups + n_malformed
    with open(path, "w", encoding="utf-8") as fh:
        gi = mi = 0
        for line_no in range(n_lines):
            if line_no in malformed_at:
                fh.write(_malformed_line(rng, mi, group_size) + "\n")
                mi += 1
                continue
            kind = kinds[gi]
            lengths = rng.integers(len_lo, len_hi, group_size).tolist()
            rewards = _rewards(rng, kind, group_size)
            record, ratios, n_logp = _group_record(rng, gi, kind, lengths, rewards)
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            objectives = None
            if ratios is not None:
                objectives = rule_objectives(ratios, advantages(rewards))
                logp_responses += n_logp
                ratio_responses += group_size
            refs.append(GroupRef(lengths, objectives))
            tokens_total += sum(lengths)
            gi += 1
    props = {
        "groups": groups,
        "group_size": group_size,
        "tokens": tokens_total,
        "length_range": [len_lo, len_hi],
        "logp_pair_share": round(logp_responses / ratio_responses, 4),
        "nonbinary": n_nonbinary,
        "degenerate": n_degen,
        "length_only": n_length_only,
        "malformed": n_malformed,
        "bytes": path.stat().st_size,
    }
    return AnalyzeInput(path, refs, props)


def _rewards(rng, kind: str, g: int) -> list[float]:
    if kind == "degenerate":
        return [float(rng.integers(0, 2))] * g
    if kind == "nonbinary":
        while True:
            rewards = np.round(rng.random(g), 3).tolist()
            if len(set(rewards)) > 1:
                return rewards
    k = int(rng.integers(1, g))
    rewards = [1.0] * k + [0.0] * (g - k)
    return [rewards[i] for i in rng.permutation(g)]


def _group_record(rng, gi: int, kind: str, lengths: list[int], rewards: list[float]):
    responses = []
    ratios_all: list[list[float]] | None = None if kind == "length-only" else []
    n_logp = 0
    for t, reward in zip(lengths, rewards):
        if kind == "length-only":
            responses.append({"token_count": t, "reward": reward})
            continue
        resp = {"tokens": rng.integers(0, 100, t).tolist(), "reward": reward}
        if rng.random() < LOGP_SHARE:
            old = (-rng.exponential(2.0, t)).tolist()
            new = (np.asarray(old) + rng.normal(0.0, 0.15, t)).tolist()
            resp["logp_new"] = new
            resp["logp_old"] = old
            ratios = [math.exp(n - o) for n, o in zip(new, old)]
            n_logp += 1
        else:
            ratios = np.exp(rng.normal(0.0, 0.15, t)).tolist()
            resp["ratios"] = ratios
        ratios_all.append(ratios)
        responses.append(resp)
    record = {"v": 1, "group_id": f"g{gi}", "prompt_id": f"p{gi % 50}", "responses": responses}
    return record, ratios_all, n_logp


def _malformed_line(rng, mi: int, g: int) -> str:
    """A line the parser must reject: broken JSON, a bad ratio, or no prompt."""
    responses = [
        {"tokens": [1, 2, 0], "reward": float(i % 2), "ratios": [1.0, 0.9, 1.1]}
        for i in range(g)
    ]
    record = {"v": 1, "group_id": f"bad{mi}", "prompt_id": "p0", "responses": responses}
    kind = mi % 3
    if kind == 1:
        responses[int(rng.integers(0, g))]["ratios"][1] = -0.5
    elif kind == 2:
        del record["prompt_id"]
    text = json.dumps(record, separators=(",", ":"))
    return text[: len(text) // 2] if kind == 0 else text


def check_analyze(inp: AnalyzeInput, csv_text: str, regime_text: str,
                  stdout: str, stderr: str) -> list[str]:
    """Compare one analyze run's outputs with the reference; return problems."""
    problems: list[str] = []
    windows = [inp.groups[i : i + WINDOW] for i in range(0, len(inp.groups), WINDOW)]
    rows = _csv_rows(csv_text)
    if rows is None:
        return ["analysis.csv: unexpected header"]
    if len(rows) != len(RULES) * len(windows):
        problems.append(f"analysis.csv: {len(rows)} rows for {len(windows)} windows")
        return problems
    for w, window in enumerate(windows):
        evaluable = [g.objectives for g in window if g.objectives is not None]
        cv = length_cv([t for g in window for t in g.lengths])
        for j, rule in enumerate(RULES):
            fields = rows[len(RULES) * w + j]
            where = f"window {w} rule {rule}"
            if fields[0] != str(w) or fields[1] != rule:
                problems.append(f"{where}: row is {fields[:2]}")
                continue
            if evaluable:
                ref = fsum(o[rule] for o in evaluable) / len(evaluable)
                _compare(problems, f"{where} objective", fields[2], ref)
                _compare(problems, f"{where} pg_loss", fields[3], -ref)
            elif fields[2] or fields[3]:
                problems.append(f"{where}: objective given for a length-only window")
            _compare(problems, f"{where} len_cv", fields[4], cv)
    regime = regime_text.splitlines()
    if len(regime) != len(windows) + 1 or not regime[-1].startswith("overall:"):
        problems.append(f"regime.txt: {len(regime)} lines for {len(windows)} windows")
    errors = sum(1 for line in stderr.splitlines() if line.startswith("error:"))
    if errors != inp.props["malformed"]:
        problems.append(f"{errors} error lines for {inp.props['malformed']} malformed lines")
    for count, what in ((inp.props["degenerate"], "degenerate"),
                        (inp.props["length_only"], "length-only")):
        if count and f"notice: {count} {what} group(s)" not in stdout:
            problems.append(f"no notice of {count} {what} groups")
    return problems


def _csv_rows(csv_text: str) -> list[list[str]] | None:
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    return [line.split(",") for line in lines[1:]]


def _compare(problems: list[str], where: str, text: str, ref: float) -> None:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{where}: {text!r} is not a number")
        return
    if not abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL:
        problems.append(f"{where}: {text} but reference {ref!r}")


def count_task_reward(prompt: int, tokens: list[int]) -> float:
    """The count task at the CLI defaults (t_max 8): n copies of symbol 1, then EOS (0)."""
    n = prompt % 7 + 1
    return 1.0 if tokens == [1] * n + [0] else 0.0


def check_train(csv_text: str, rollouts_text: str, steps: int,
                responses_per_step: int) -> tuple[list[str], int]:
    """Check a simulate run against its dumped rollouts.

    Returns the problems found and the number of tokens sampled over the run.
    The per-step mean reward and pooled length CV are recomputed from the
    rollouts; each reward is recomputed from the count task's definition.
    """
    problems: list[str] = []
    by_step: dict[int, list[tuple[int, float]]] = {}
    tokens = 0
    for line in rollouts_text.splitlines():
        group = json.loads(line)
        step, prompt = (int(x[1:]) for x in group["group_id"].split("-"))
        for resp in group["responses"]:
            toks = resp["tokens"]
            tokens += len(toks)
            if resp["reward"] != count_task_reward(prompt, toks):
                problems.append(f"step {step}: reward {resp['reward']} for tokens {toks}")
            by_step.setdefault(step, []).append((len(toks), resp["reward"]))
    if sorted(by_step) != list(range(steps)):
        problems.append(f"rollouts cover {len(by_step)} steps, expected {steps}")
        return problems, tokens
    rows = _csv_rows(csv_text)
    if rows is None:
        problems.append("metrics CSV: unexpected header")
        return problems, tokens
    if len(rows) != len(RULES) * steps:
        problems.append(f"metrics CSV: {len(rows)} rows for {steps} steps")
        return problems, tokens
    rewards_per_step = []
    for step in range(steps):
        pairs = by_step[step]
        if len(pairs) != responses_per_step:
            problems.append(f"step {step}: {len(pairs)} responses, expected {responses_per_step}")
        mean_reward = fsum(r for _, r in pairs) / len(pairs)
        rewards_per_step.append(mean_reward)
        cv = length_cv([t for t, _ in pairs])
        for j, rule in enumerate(RULES):
            f = rows[len(RULES) * step + j]
            where = f"step {step} rule {rule}"
            if f[0] != str(step) or f[1] != rule:
                problems.append(f"{where}: row is {f[:2]}")
                continue
            if float(f[3]) != -float(f[2]):
                problems.append(f"{where}: pg_loss {f[3]} is not -objective {f[2]}")
            _compare(problems, f"{where} len_cv", f[4], cv)
            _compare(problems, f"{where} mean_reward", f[8], mean_reward)
    tail = min(50, steps // 2)
    first, last = fsum(rewards_per_step[:tail]) / tail, fsum(rewards_per_step[-tail:]) / tail
    if not last > first:
        problems.append(f"mean reward did not rise: first {tail} steps {first}, last {last}")
    return problems, tokens
