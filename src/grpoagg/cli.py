"""Command-line interface: verify, analyze, simulate, compare.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error.
An output that cannot be written (``--out`` names a file, say) is reported as
``error: cannot write <path>: <reason>`` with exit code 1.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
from itertools import chain, compress, islice
from math import fsum
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, rule_table
from .decompose import (
    LengthStats,
    LengthTally,
    batch_metrics,
    pooled_length_stats,
    pooled_mean,
    regime_report,
)
from .groups import normalize_columns
from .rollout_io import METRIC_HEADER, MetricRecord, format_metrics, read_group_columns, write_metrics
from .sim import TASK_KINDS, TaskSpec, TrainConfig, run_training
from .verify import SUITE, run_suite

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpoagg",
        description=(
            "Aggregation rules for group-relative RL objectives: identity "
            "verification, rollout-log analysis, and a toy training simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, eps_default: float) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--eps-var",
            type=float,
            default=eps_default,
            help="variance floor inside the advantage normalizer",
        )
        p.add_argument("--clip-low", type=float, default=0.2, help="lower clip width")
        p.add_argument("--clip-high", type=float, default=0.28, help="upper clip width")

    p_verify = sub.add_parser("verify", help="run the identity suite")
    add_common(p_verify, 0.0)
    p_verify.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)

    p_analyze = sub.add_parser("analyze", help="analyze a JSONL rollout log")
    add_common(p_analyze, 0.0)
    p_analyze.add_argument("--input", type=Path, required=True, help="JSONL rollout log")
    p_analyze.add_argument(
        "--window", type=int, default=16, help="groups per pooled metrics window"
    )

    def add_sim_flags(p: argparse.ArgumentParser) -> None:
        add_common(p, 1e-6)
        p.add_argument("--task", choices=TASK_KINDS, default="count")
        p.add_argument("--steps", type=int, default=200)
        p.add_argument("--group-size", type=int, default=16)
        p.add_argument("--lr", type=float, default=1e-2, help="learning rate")
        p.add_argument("--prompts", type=int, default=4, help="number of prompts")
        p.add_argument("--vocab-size", type=int, default=3)
        p.add_argument("--t-max", type=int, default=8, help="maximum response length")
        p.add_argument("--inner-epochs", type=int, default=1)
        p.add_argument(
            "--dump-rollouts", action="store_true", help="also write rollout JSONL"
        )

    p_sim = sub.add_parser("simulate", help="train the toy policy under one rule")
    add_sim_flags(p_sim)
    p_sim.add_argument("--rule", choices=RULES, default="balanced")

    p_cmp = sub.add_parser("compare", help="train all four rules on shared seeds")
    add_sim_flags(p_cmp)
    p_cmp.add_argument(
        "--locked-rollouts",
        action="store_true",
        help="evaluate all rules on the token-rule rollouts (single lineage)",
    )
    return parser


def _clip_from_args(args) -> ClipConfig:
    return ClipConfig(args.clip_low, args.clip_high)


def cmd_verify(args) -> int:
    try:
        clip = _clip_from_args(args)
        if args.inject_fault is not None and args.inject_fault not in {
            c.name for c in SUITE
        }:
            print(f"error: unknown identity {args.inject_fault!r}", file=sys.stderr)
            return 2
        ok = run_suite(
            seed=args.seed, clip=clip, inject_fault=args.inject_fault, stream=sys.stdout
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


class _Window:
    """The groups of an analyze window that evaluate, as columns: every
    response's length and reward, the lengths of the positive and of the
    negative responses, each group's count of positive responses, each
    rule's objective of every group with ratios, and their clipped and
    total tokens."""

    def __init__(self) -> None:
        self.groups = self.degenerate = self.length_only = 0
        self.lengths: list[int] = []
        self.pos_lengths: list[int] = []
        self.neg_lengths: list[int] = []
        self.rewards: list[float] = []
        self.ks: list[int] = []
        self.objectives: list[list[float]] = [[] for _ in RULES]
        self.clipped = self.tokens = 0


def _evaluate(read: list[tuple], clip: ClipConfig, report, window: _Window) -> None:
    """Add groups as read_group_columns yields them to ``window``, all of
    them normalised together and all of them with ratios evaluated by one
    FlatBatch. A group whose normalisation fails or whose objective
    overflows is passed to ``report`` as (line number, text) and left out; a
    degenerate group is taken as zero-advantage."""
    if not read:
        return
    line_nos, prompt_ids, eps_vars, rewards, lengths, ratios = zip(*read)
    sizes = list(map(len, rewards))
    normalized = normalize_columns(list(chain.from_iterable(rewards)), sizes, eps_vars, prompt_ids)
    keep = [True] * len(read)
    for j, text in normalized.errors.items():
        if j not in normalized.degenerate:
            report(line_nos[j], f"line {line_nos[j]}: {text}")
            keep[j] = False
    evaluable = [k and r is not None for k, r in zip(keep, ratios)]
    if any(evaluable):
        batch = FlatBatch(
            normalized.advantages[np.repeat(evaluable, sizes)],
            list(compress(sizes, evaluable)),
            list(chain.from_iterable(compress(lengths, evaluable))),
            np.concatenate(list(compress(ratios, evaluable))),
        )
        sums = batch.rule_sums(clip)
        table = rule_table(sums)
        objectives = np.array([table[rule][0] for rule in RULES])
        finite = sums.ok & np.isfinite(objectives).all(axis=0)
        if not finite.all():
            for j, ok in zip(compress(range(len(read)), evaluable), finite.tolist()):
                if not ok:
                    text = f"line {line_nos[j]}: group {prompt_ids[j]!r}: an objective overflows a float"
                    report(line_nos[j], text)
                    keep[j] = False
            objectives = objectives[:, finite]
        for column, values in zip(window.objectives, objectives.tolist()):
            column += values
        window.clipped += int(sums.clipped[finite].sum())
        window.tokens += int(sums.total_tokens[finite].sum())
    if not any(keep):
        return
    advantages = normalized.advantages
    if not all(keep):
        advantages = advantages[np.repeat(keep, sizes)]
        sizes = list(compress(sizes, keep))
    flat_lengths = list(chain.from_iterable(compress(lengths, keep)))
    positive = advantages > 0.0
    window.groups += len(sizes)
    window.degenerate += len(normalized.degenerate)  # zero advantages never overflow
    window.length_only += sum(k and r is None for k, r in zip(keep, ratios))
    window.lengths += flat_lengths
    window.pos_lengths += compress(flat_lengths, positive.tolist())
    window.neg_lengths += compress(flat_lengths, (advantages < 0.0).tolist())
    window.rewards += chain.from_iterable(compress(rewards, keep))
    window.ks += np.add.reduceat(positive, np.cumsum(sizes) - sizes, dtype=np.intp).tolist()


def _window_rows(step: int, window: _Window, tally: LengthTally) -> tuple[list[MetricRecord], LengthStats]:
    """The metric rows and length statistics of a window.

    The window's lengths, pooled and per sign, are also added to ``tally``.
    """
    tally.add(window.lengths, window.pos_lengths, window.neg_lengths)
    objectives = {rule: pooled_mean(col) if col else None for rule, col in zip(RULES, window.objectives)}
    clip_fraction = window.clipped / window.tokens if window.tokens else None
    stats = pooled_length_stats(window.lengths, window.pos_lengths, window.neg_lengths)
    records = batch_metrics(step, stats, window.rewards, window.ks, objectives, clip_fraction)
    return records, stats


def _next_window(log: Iterator[tuple], size: int, clip: ClipConfig, report) -> _Window:
    """The next ``size`` groups of the log that evaluate; fewer only at its end."""
    window = _Window()
    while window.groups < size:
        want = size - window.groups
        read = list(islice(log, want))
        _evaluate(read, clip, report, window)
        if len(read) < want:
            break
    return window


def cmd_analyze(args) -> int:
    """Analyze a rollout log one window of ``--window`` groups at a time.

    read_group_columns reads the log as columns, checking each line in bulk
    and re-checking only exceptional lines with the record validator. Each
    window's groups are normalised and evaluated together, by one FlatBatch;
    a group whose normalisation fails or whose objective overflows is
    reported and dropped, and the window is refilled from the following
    lines, so it holds the first ``--window`` groups that evaluate. A full
    window's rows go to ``analysis.csv`` and its groups are dropped, so
    memory is set by ``--window`` and not by the length of the log: across
    windows only the regime lines and the counts of each response length
    (for the ``overall:`` line) are kept. A line yields at most one error;
    a window's ``error: line N:`` lines go to stderr in line order before its
    rows are written. Notices and regime lines go to stdout after the read.
    Nothing is written, and ``--out`` is not created, when no group parses;
    a read error after the first window leaves the rows written so far.
    """
    clip = _clip_from_args(args)
    if args.window < 1:
        print("error: --window must be >= 1", file=sys.stderr)
        return 2
    if not (math.isfinite(args.eps_var) and args.eps_var >= 0.0):
        print(f"error: --eps-var must be finite and >= 0, got {args.eps_var!r}", file=sys.stderr)
        return 2
    errors: list[tuple[int, str]] = []

    def report(line_no: int, text: str) -> None:
        errors.append((line_no, text))

    def flush_errors() -> None:
        for _, text in sorted(errors, key=itemgetter(0)):
            print(f"error: {text}", file=sys.stderr)
        errors.clear()

    log = read_group_columns(args.input, args.eps_var, lambda exc: report(exc.line_no, str(exc)))
    csv_path = args.out / "analysis.csv"
    regime_path = args.out / "regime.txt"
    tally = LengthTally()
    degenerate = length_only = groups_read = 0
    regime_lines: list[str] = []
    csv = None
    try:
        while True:
            try:
                window = _next_window(log, args.window, clip, report)
            except OSError as exc:
                flush_errors()
                print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
                return 1
            flush_errors()
            if not window.groups:
                break
            records, stats = _window_rows(len(regime_lines), window, tally)
            if csv is None:
                args.out.mkdir(parents=True, exist_ok=True)
                csv = open(csv_path, "w", encoding="utf-8")
                csv.write(METRIC_HEADER)
            csv.write(format_metrics(records))
            degenerate += window.degenerate
            length_only += window.length_only
            groups_read += window.groups
            gap = "n/a" if stats.len_gap is None else f"{stats.len_gap:.4f}"
            regime_lines.append(
                f"window {len(regime_lines)}: groups={window.groups} len_cv={stats.len_cv:.4f} "
                f"len_gap={gap} regime={regime_report(stats)}"
            )
            if window.groups < args.window:
                break  # the end of the log
    finally:
        log.close()
        if csv is not None:
            csv.close()
    if csv is None:
        print("error: no groups parsed", file=sys.stderr)
        return 1

    _notice_degenerate(degenerate)
    if length_only:
        print(f"notice: {length_only} length-only group(s); objectives skipped for them")
    regime_lines.append(f"overall: groups={groups_read} regime={regime_report(tally.stats())}")
    regime_path.write_text("\n".join(regime_lines) + "\n", encoding="utf-8")
    for line in regime_lines:
        print(line)
    print(f"wrote {csv_path} and {regime_path}")
    return 0


def _task_from_args(args) -> TaskSpec:
    return TaskSpec(
        kind=args.task,
        vocab_size=args.vocab_size,
        t_max=args.t_max,
        num_prompts=args.prompts,
    )


def _config_from_args(args, rule: str) -> TrainConfig:
    return TrainConfig(
        rule=rule,
        steps=args.steps,
        group_size=args.group_size,
        learning_rate=args.lr,
        clip=_clip_from_args(args),
        eps_var=args.eps_var,
        seed=args.seed,
        inner_epochs=args.inner_epochs,
    )


def _notice_degenerate(count: int) -> None:
    if count:
        print(f"notice: {count} degenerate group(s) treated as zero-advantage")


def _run_one(args, rule: str, tag: str, degenerate: list[int]) -> list[MetricRecord]:
    """Train under ``rule``, writing the policy (and the rollouts) under
    ``tag``; each step's count of degenerate groups is added to ``degenerate``."""
    task = _task_from_args(args)
    config = _config_from_args(args, rule)
    # refused before the run, not after it: stat raises NotADirectoryError
    # when a parent of --out is a file
    try:
        is_dir = stat.S_ISDIR(args.out.stat().st_mode)
    except FileNotFoundError:
        is_dir = True  # created once the run has something to write
    if not is_dir:
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(args.out))
    rollouts_path = args.out / f"rollouts_{tag}.jsonl" if args.dump_rollouts else None
    records, policy = run_training(
        task, config, rollouts_path=rollouts_path, on_degenerate=degenerate.append
    )
    args.out.mkdir(parents=True, exist_ok=True)  # only once the run has something to write
    np.savez(args.out / f"policy_{tag}.npz", logits=np.asarray(policy.logits))
    return records

def _write_comparison(per_rule: dict[str, list[MetricRecord]], path: Path) -> None:
    header = ["step"]
    for rule in RULES:
        header += [f"{rule}_objective", f"{rule}_pg_loss", f"{rule}_mean_reward"]
    steps = sorted({rec.step for recs in per_rule.values() for rec in recs})
    by_step = {
        rule: {rec.step: rec for rec in recs} for rule, recs in per_rule.items()
    }
    lines = [",".join(header)]
    for step in steps:
        row = [str(step)]
        for rule in RULES:
            rec = by_step[rule].get(step)
            if rec is None:
                row += ["", "", ""]
            else:
                row += [
                    f"{rec.objective:.10g}",
                    f"{rec.pg_loss:.10g}",
                    f"{rec.mean_reward:.10g}",
                ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    degenerate: list[int] = []
    try:
        records = _run_one(args, args.rule, args.rule, degenerate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _notice_degenerate(sum(degenerate))
    csv_path = args.out / f"metrics_{args.rule}.csv"
    write_metrics(records, csv_path)
    own = [r for r in records if r.rule == args.rule]
    if own:
        print(
            f"{args.rule}: {len(own)} steps, final mean_reward="
            f"{own[-1].mean_reward:.4f} final pg_loss={own[-1].pg_loss:.6g}"
        )
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(args) -> int:
    per_rule: dict[str, list[MetricRecord]] = {}
    degenerate: list[int] = []
    try:
        if args.locked_rollouts:
            # one token-rule lineage; every rule evaluated on its rollouts
            records = _run_one(args, "token", "locked", degenerate)
            for rule in RULES:
                per_rule[rule] = [r for r in records if r.rule == rule]
        else:
            for rule in RULES:
                records = _run_one(args, rule, rule, degenerate)
                per_rule[rule] = [r for r in records if r.rule == rule]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _notice_degenerate(sum(degenerate))
    for rule in RULES:
        write_metrics(per_rule[rule], args.out / f"metrics_{rule}.csv")
    cmp_path = args.out / "comparison.csv"
    _write_comparison(per_rule, cmp_path)
    for rule in RULES:
        recs = per_rule[rule]
        tail = recs[-min(100, len(recs)) :]
        mean_loss = fsum(r.pg_loss for r in tail) / len(tail) if tail else 0.0
        final_reward = recs[-1].mean_reward if recs else float("nan")
        print(
            f"{rule:>12}: final mean_reward={final_reward:.4f} "
            f"tail mean pg_loss={mean_loss:.6g}"
        )
    print(f"wrote {cmp_path} and per-rule metrics_<rule>.csv")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_compare(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read error is reported where it happens
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
