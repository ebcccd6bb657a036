"""Command-line interface: verify, analyze, simulate, compare.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error.
An output that cannot be written (``--out`` names a file, say) is reported as
``error: cannot write <path>: <reason>`` with exit code 1; for stdout, also
when it fails only at its final flush, the path is ``<stdout>``. analyze,
simulate and compare write all their files before their first stdout line.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
from collections import Counter
from functools import partial
from itertools import accumulate, chain, compress, islice
from math import fsum
from pathlib import Path

import numpy as np

from .aggregate import RULES, ClipConfig, FlatBatch, rule_table
from .decompose import (
    LengthStats,
    LengthTally,
    batch_metrics,
    length_stats,
    pooled_mean,
    regime_report,
)
from .groups import MAX_TOKEN_COUNT, normalize_columns
from .rollout_io import METRIC_HEADER, MetricRecord, RolloutLogError, format_metrics, read_group_columns, write_metrics
from .sim import TASK_KINDS, TaskSpec, TrainConfig, run_training
from .verify import run_suite

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

    def add_clip(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clip-low", type=float, default=0.2, help="lower clip width")
        p.add_argument("--clip-high", type=float, default=0.28, help="upper clip width")

    seed = dict(type=int, default=0, help="RNG seed")
    out = dict(type=Path, default=Path("."), help="output directory")
    eps_var = dict(type=float, help="variance floor inside the advantage normalizer")

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--seed", **seed)
    add_clip(p_verify)

    p_analyze = sub.add_parser("analyze", help="analyze a JSONL rollout log")
    p_analyze.set_defaults(run=cmd_analyze)
    p_analyze.add_argument("--out", **out)
    p_analyze.add_argument("--eps-var", default=0.0, **eps_var)
    add_clip(p_analyze)
    p_analyze.add_argument("--input", type=Path, required=True, help="JSONL rollout log")
    p_analyze.add_argument(
        "--window", type=int, default=16, help="groups per pooled metrics window"
    )

    def add_sim_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", **seed)
        p.add_argument("--out", **out)
        p.add_argument("--eps-var", default=1e-6, **eps_var)
        add_clip(p)
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
    p_sim.set_defaults(run=cmd_simulate)
    add_sim_flags(p_sim)
    p_sim.add_argument("--rule", choices=RULES, default="balanced")

    p_cmp = sub.add_parser("compare", help="train all four rules on shared seeds")
    p_cmp.set_defaults(run=cmd_compare)
    add_sim_flags(p_cmp)
    p_cmp.add_argument(
        "--locked-rollouts",
        action="store_true",
        help="evaluate all rules on the token-rule rollouts (single lineage)",
    )
    return parser


def cmd_verify(args) -> int:
    # run_suite raises its ValueErrors (exit 2) before it prints anything
    ok = run_suite(args.seed, ClipConfig(args.clip_low, args.clip_high), sys.stdout)
    sys.stdout.flush()  # a failed write is main's <stdout> error, not one at exit
    return 0 if ok else 1


def _group_rows(clip: ClipConfig, read: list[tuple]) -> list[tuple | RolloutLogError]:
    """The row of each group of ``read`` (as read_group_columns yields them)
    from one normalize_columns and one FlatBatch; no value of a row depends
    on the other groups. A group whose normalisation fails or whose objective
    overflows gives a RolloutLogError (``line N: group 'p': ...``), which the
    reader reports as it does a line's; any other gives ``(objectives,
    clipped, tokens, degenerate, lengths, rewards, k, n_pos, neg_count,
    n_neg)``: the four objectives in RULES order (None if length-only), its
    clipped and evaluated token counts, whether it is taken as
    zero-advantage, each response's length and reward, and its counts of
    positive and negative responses and of their tokens."""
    line_nos, prompt_ids, eps_vars, rewards, lengths, ratios = zip(*read)
    sizes = list(map(len, rewards))
    normalized = normalize_columns(list(chain.from_iterable(rewards)), sizes, eps_vars, prompt_ids)
    refusals = dict(normalized.errors)
    evaluable = [r is not None and j not in refusals for j, r in enumerate(ratios)]
    evaluated = {}
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
        finite = np.isfinite(objectives).all(axis=0) & sums.ok
        for j, ok, *values in zip(compress(range(len(read)), evaluable), finite.tolist(), objectives.T.tolist(),
                                  sums.clipped.tolist(), sums.total_tokens.tolist()):
            if ok:
                evaluated[j] = values
            else:
                refusals[j] = f"group {prompt_ids[j]!r}: an objective overflows a float"
    degenerate = set(normalized.degenerate)
    # int64 per-sign totals, unless a group's lengths could sum to 2**63 or more
    flat = np.array(list(chain.from_iterable(lengths)), np.int64 if max(sizes) * MAX_TOKEN_COUNT < 2**63 else object)
    signs = np.array([normalized.advantages > 0.0, normalized.advantages < 0.0], dtype=np.int64)
    columns = np.stack([signs, signs * flat], axis=1).reshape(4, -1)  # k, n_pos, neg_count, n_neg
    signed = np.add.reduceat(columns, [0, *accumulate(sizes[:-1])], axis=1).T.tolist()
    rows = []
    for j, line_no in enumerate(line_nos):
        if j in refusals:
            rows.append(RolloutLogError(f"line {line_no}: {refusals[j]}", line_no))
        else:
            objective, clipped, tokens = evaluated.get(j, (None, 0, 0))
            rows.append((objective, clipped, tokens, j in degenerate, lengths[j], rewards[j], *signed[j]))
    return rows


def _window(rows: list[tuple], step: int, tally: LengthTally,
            counts: Counter) -> tuple[list[MetricRecord], LengthStats]:
    """The metric rows, numbered ``step``, and the length statistics of a
    window of the rows of groups that evaluate (as _group_rows gives them);
    its lengths and per-sign totals are added to ``tally``, and its counts
    of groups, degenerate groups and length-only groups to ``counts``."""
    objectives, clipped, tokens, degenerate, lengths, rewards, *signed = zip(*rows)
    counts.update(groups=len(rows), degenerate=sum(degenerate), length_only=objectives.count(None))
    lengths, rewards = list(chain.from_iterable(lengths)), list(chain.from_iterable(rewards))
    k, n_pos, neg_count, n_neg = map(sum, signed)
    tally.add(lengths, k, n_pos, neg_count, n_neg)
    evaluated = [objective for objective in objectives if objective is not None]
    pooled = dict(zip(RULES, map(pooled_mean, zip(*evaluated)))) if evaluated else dict.fromkeys(RULES)
    window_tokens = sum(tokens)
    clip_fraction = sum(clipped) / window_tokens if window_tokens else None
    stats = length_stats(lengths, k, n_pos, neg_count, n_neg)
    return batch_metrics(step, stats, rewards, k, len(rows), pooled, clip_fraction), stats


def cmd_analyze(args) -> int:
    """Analyze a rollout log in windows of ``--window`` groups.

    read_group_columns checks each line (a large log's in worker processes)
    and evaluates the groups of a run of lines at once by _group_rows, in
    the worker that read them or here. Its rows come in line order and are
    streamed. Every line that does not parse and every group whose
    normalisation fails or whose objective overflows reaches its
    ``on_error``, in line order, and goes to stderr at once as one
    ``error: line N: ...``; so a window, an ``islice`` cut of the reader's
    rows, holds the next ``--window`` groups that evaluate (the last, what
    is left). Each window's rows go to ``analysis.csv`` once it is cut, so
    memory is set by the window and the reader, not by the length of the
    log: across windows only the regime lines, the counts of each response
    length and four per-sign totals (for the ``overall:`` line) are kept.
    Notices and regime lines go to stdout once ``regime.txt`` is written.
    Nothing is written, and ``--out`` is not created, when no group parses;
    a read error ends the run after the rows of every window that the lines
    read before it complete, and drops only the partial window it cuts short.
    """
    clip = ClipConfig(args.clip_low, args.clip_high)
    if args.window < 1:
        raise ValueError("--window must be >= 1")
    if not (math.isfinite(args.eps_var) and args.eps_var >= 0.0):
        raise ValueError(f"--eps-var must be finite and >= 0, got {args.eps_var!r}")

    def report(text: object) -> None:
        print(f"error: {text}", file=sys.stderr)

    rows = read_group_columns(args.input, args.eps_var, report, partial(_group_rows, clip))
    csv_path = args.out / "analysis.csv"
    regime_path = args.out / "regime.txt"
    tally = LengthTally()
    counts: Counter = Counter()
    regime_lines: list[str] = []
    csv = None
    # islice refuses a stop above sys.maxsize; no window can hold more rows
    windows = iter(lambda: list(islice(rows, min(args.window, sys.maxsize))), [])
    try:
        while True:
            try:
                window = next(windows, None)
            except OSError as exc:
                report(f"cannot read {args.input}: {exc}")
                return 1
            if window is None:
                break
            records, stats = _window(window, len(regime_lines), tally, counts)
            if csv is None:
                args.out.mkdir(parents=True, exist_ok=True)
                csv = open(csv_path, "w", encoding="utf-8")
                csv.write(METRIC_HEADER)
            csv.write(format_metrics(records))
            gap = "n/a" if stats.len_gap is None else f"{stats.len_gap:.4f}"
            regime_lines.append(
                f"window {len(regime_lines)}: groups={len(window)} len_cv={stats.len_cv:.4f} "
                f"len_gap={gap} regime={regime_report(stats)}"
            )
    finally:
        rows.close()
        if csv is not None:
            csv.close()
    if csv is None:
        print("error: no groups parsed", file=sys.stderr)
        return 1

    regime_lines.append(f"overall: groups={counts['groups']} regime={regime_report(tally.stats())}")
    regime_path.write_text("\n".join(regime_lines) + "\n", encoding="utf-8")
    notices = _degenerate_notice(counts["degenerate"])
    if counts["length_only"]:
        notices.append(f"notice: {counts['length_only']} length-only group(s); objectives skipped for them")
    _print_stdout([*notices, *regime_lines, f"wrote {csv_path} and {regime_path}"])
    return 0


def _degenerate_notice(count: int) -> list[str]:
    return [f"notice: {count} degenerate group(s) treated as zero-advantage"] if count else []


def _print_stdout(lines: list[str]) -> None:
    """Print ``lines`` to stdout; a failed write is an OSError naming ``<stdout>``."""
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), "<stdout>") from exc


def _drop_stdout() -> None:
    """Point a failed stdout's file descriptor, if it has one, at os.devnull,
    so that its flush at interpreter exit does not fail too."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run_one(args, rule: str, tag: str, degenerate: list[int]) -> list[MetricRecord]:
    """Train under ``rule``, writing the policy (and the rollouts) under
    ``tag``; each step's count of degenerate groups is added to ``degenerate``."""
    task = TaskSpec(
        kind=args.task,
        vocab_size=args.vocab_size,
        t_max=args.t_max,
        num_prompts=args.prompts,
    )
    config = TrainConfig(
        rule=rule,
        steps=args.steps,
        group_size=args.group_size,
        learning_rate=args.lr,
        clip=ClipConfig(args.clip_low, args.clip_high),
        eps_var=args.eps_var,
        seed=args.seed,
        inner_epochs=args.inner_epochs,
    )
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
    """One row per step; every rule has a record of each step, in step order."""
    header = (f"{rule}_{column}" for rule in RULES for column in ("objective", "pg_loss", "mean_reward"))
    lines = [",".join(["step", *header])]
    for recs in zip(*(per_rule[rule] for rule in RULES)):
        row = [str(recs[0].step)]
        for rec in recs:
            row += [f"{rec.objective:.10g}", f"{rec.pg_loss:.10g}", f"{rec.mean_reward:.10g}"]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    degenerate: list[int] = []
    records = _run_one(args, args.rule, args.rule, degenerate)
    csv_path = args.out / f"metrics_{args.rule}.csv"
    write_metrics(records, csv_path)
    lines = _degenerate_notice(sum(degenerate))
    own = [r for r in records if r.rule == args.rule]
    if own:
        lines.append(
            f"{args.rule}: {len(own)} steps, final mean_reward="
            f"{own[-1].mean_reward:.4f} final pg_loss={own[-1].pg_loss:.6g}"
        )
    _print_stdout([*lines, f"wrote {csv_path}"])
    return 0


def cmd_compare(args) -> int:
    per_rule: dict[str, list[MetricRecord]] = {}
    degenerate: list[int] = []
    # with --locked-rollouts, one token-rule lineage and every rule evaluated on its rollouts
    locked = _run_one(args, "token", "locked", degenerate) if args.locked_rollouts else None
    for rule in RULES:
        records = _run_one(args, rule, rule, degenerate) if locked is None else locked
        per_rule[rule] = [r for r in records if r.rule == rule]
    for rule in RULES:
        write_metrics(per_rule[rule], args.out / f"metrics_{rule}.csv")
    cmp_path = args.out / "comparison.csv"
    _write_comparison(per_rule, cmp_path)
    lines = _degenerate_notice(sum(degenerate))
    for rule, recs in per_rule.items():
        if recs:  # as in simulate, a rule with no step prints no line
            tail = recs[-100:]
            lines.append(
                f"{rule:>12}: final mean_reward={recs[-1].mean_reward:.4f} "
                f"tail mean pg_loss={fsum(r.pg_loss for r in tail) / len(tail):.6g}"
            )
    _print_stdout([*lines, f"wrote {cmp_path} and per-rule metrics_<rule>.csv"])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read error is reported where it happens
        target = exc.filename or getattr(args, "out", "<stdout>")  # verify writes only to stdout
        if target == "<stdout>":
            _drop_stdout()
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
