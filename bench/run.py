#!/usr/bin/env python3
"""Benchmark of the grpoagg command line: ``analyze`` and ``simulate``.

    python3 bench/run.py --workload analyze-long --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --seconds 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each workload's input is generated from ``--seed`` before any
timing. Every measured invocation is a fresh, single-threaded child process
(``child.py``), one at a time, that calls ``grpoagg.cli.main`` exactly as
the ``grpoagg`` console script does.

A run first makes one untimed check invocation, whose outputs are compared
with an independent ``math.fsum`` reference (``inputs.py``), then repeats
the timed invocation until ``--seconds`` have passed (at least three times).
Every invocation's outputs must be byte-identical to the check
invocation's. ``--trace 0`` reports the end-to-end metrics as medians over
the timed invocations; ``--trace 1`` alternates untraced and traced
invocations and reports per-layer call counts and self times
(``tracing.py``). Times are scaled to a reference host speed measured by
a calibration task in each child (see REFERENCE_CALIBRATION_S).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Why each workload exists is recorded in BENCHMARK.json; NOTES.md lists
# which layer metric should move which end-to-end metric on which workload.
WORKLOADS = {
    "analyze-long": {"kind": "analyze", "groups": 500, "group_size": 16, "len_lo": 20, "len_hi": 400},
    "analyze-short": {"kind": "analyze", "groups": 4000, "group_size": 8, "len_lo": 1, "len_hi": 16},
    "train-count": {"kind": "train", "steps": 300, "prompts": 4, "lr": 0.5},
}
SMOKE = {
    "analyze-long": {"groups": 40},
    "analyze-short": {"groups": 200},
    "train-count": {"steps": 120},
}
MIN_TIMED = 3
# Every reported time is multiplied by (REFERENCE_CALIBRATION_S / median
# time of child.py's calibration task in the same child)
# ** CALIBRATION_EXPONENT: the shared host's speed changes by up to 1.9x
# over seconds, and this keeps run-to-run spread within the bounds. On the host of the baseline the task
# takes about 0.030 s when no neighbour competes for the core, and the
# program slows by the 0.75th power of the task's slowdown (log-log fit over
# 30 runs of the three workloads; see NOTES.md).
REFERENCE_CALIBRATION_S = 0.030
CALIBRATION_EXPONENT = 0.75
INVOCATION_TIMEOUT_S = 120
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MACHINE_NOTE = (
    "no machine setting was changed: the file cache is not dropped (the first "
    "read of an input is warm or cold as the OS leaves it), no CPU is pinned, "
    "and nothing else on the machine is stopped; reported times are scaled by "
    "a calibration task timed in each child"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "step_ms": "ms",
    "peak_rss_mb": "MB",
}


class Workload:
    """A workload's generated input, command line and output checks."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.name = name
        self.params = dict(WORKLOADS[name], **(SMOKE[name] if smoke else {}))
        self.seed = seed
        self.out = work / "out"
        p = self.params
        if p["kind"] == "analyze":
            self.input = inputs.make_analyze_input(
                work / "rollouts.jsonl", seed, p["groups"], p["group_size"], p["len_lo"], p["len_hi"]
            )
            self.props = self.input.props
            self.args = ["analyze", "--input", str(self.input.path), "--out", str(self.out),
                         "--window", str(inputs.WINDOW)]
            self.tokens = self.props["tokens"]
            self.evaluable_groups = sum(g.objectives is not None for g in self.input.groups)
            self.csv_steps = -(-len(self.input.groups) // inputs.WINDOW)
        else:
            self.props = {"steps": p["steps"], "prompts": p["prompts"], "group_size": 16}
            self.args = ["simulate", "--task", "count", "--lr", str(p["lr"]),
                         "--steps", str(p["steps"]), "--seed", str(seed), "--out", str(self.out)]
            self.tokens = None  # counted from the check invocation's rollouts
            self.evaluable_groups = p["steps"] * p["prompts"]
            self.csv_steps = p["steps"]

    @property
    def check_args(self) -> list[str]:
        if self.params["kind"] == "train":
            return self.args + ["--dump-rollouts"]
        return self.args

    def outputs(self, stdout: str, stderr: str) -> dict[str, bytes]:
        """The outputs that must be identical across invocations."""
        if self.params["kind"] == "analyze":
            files = {"analysis.csv": (self.out / "analysis.csv").read_bytes(),
                     "regime.txt": (self.out / "regime.txt").read_bytes()}
        else:
            with np.load(self.out / "policy_balanced.npz") as npz:
                logits = npz["logits"]
            # np.savez stamps the archive with the time, so compare the array
            files = {"metrics_balanced.csv": (self.out / "metrics_balanced.csv").read_bytes(),
                     "policy logits": logits.tobytes()}
        files["stdout"] = stdout.encode()
        files["stderr"] = stderr.encode()
        return files

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        """Compare the check invocation's outputs with the reference."""
        if self.params["kind"] == "analyze":
            return inputs.check_analyze(
                self.input, outputs["analysis.csv"].decode(), outputs["regime.txt"].decode(),
                outputs["stdout"].decode(), outputs["stderr"].decode(),
            )
        rollouts = (self.out / "rollouts_balanced.jsonl").read_text(encoding="utf-8")
        problems, self.tokens = inputs.check_train(
            outputs["metrics_balanced.csv"].decode(), rollouts,
            self.params["steps"], self.params["prompts"] * self.props["group_size"],
        )
        logits = np.frombuffer(outputs["policy logits"])
        if not np.all(np.isfinite(logits)):
            problems.append("final policy has non-finite logits")
        if outputs["stderr"]:
            problems.append(f"stderr not empty: {outputs['stderr'][:200]!r}")
        self.props["tokens"] = self.tokens
        return problems


def invoke(wl: Workload, args: list[str], trace: bool, work: Path):
    """Run one child; return (result dict, outputs) or raise RuntimeError."""
    shutil.rmtree(wl.out, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(result_path),
           "1" if trace else "0", "--", *args]
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"no exit within {INVOCATION_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["scale"] = (
        REFERENCE_CALIBRATION_S / statistics.median(result["calibration_s"])
    ) ** CALIBRATION_EXPONENT
    if result["rc"] != 0:
        raise RuntimeError(f"grpoagg exited {result['rc']}: {proc.stderr[-2000:]}")
    try:
        outputs = wl.outputs(proc.stdout, proc.stderr)
    except OSError as exc:
        raise RuntimeError(f"missing output: {exc}") from None
    return result, outputs


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + hashlib.sha256(outputs[name]).digest())
    return h.hexdigest()


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "grpoagg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": MACHINE_NOTE,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    attempted = failed = 0
    problems: list[str] = []
    try:
        wl = Workload(name, seed, smoke, work)
        attempted += 1
        try:
            _, outputs = invoke(wl, wl.check_args, False, work)
            problems += wl.check(outputs)
        except RuntimeError as exc:
            problems.append(f"check invocation: {exc}")
        if problems:
            failed += 1
            return _report(wl, attempted, failed, problems, {})
        expected = digest(outputs)

        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or len(untraced) < MIN_TIMED
               or (trace and len(traced) < MIN_TIMED)):
            for tr in (False, True) if trace else (False,):
                attempted += 1
                try:
                    result, outputs = invoke(wl, wl.args, tr, work)
                except RuntimeError as exc:
                    failed += 1
                    problems.append(f"invocation {attempted}: {exc}")
                    continue
                if digest(outputs) != expected:
                    failed += 1
                    problems.append(f"invocation {attempted}: outputs differ from the check run")
                    continue
                (traced if tr else untraced).append(result)
            if failed:
                break
        if failed:
            return _report(wl, attempted, failed, problems, {})
        if trace:
            metrics = layer_metrics(wl, untraced, traced, problems)
        else:
            metrics = end_to_end_metrics(wl, untraced)
        return _report(wl, attempted, failed, problems, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(wl: Workload, runs: list[dict]) -> dict:
    wall = statistics.median(r["wall_s"] * r["scale"] for r in runs)
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in runs),
        "tokens_per_s": wl.tokens / wall,
        "step_ms": 1000.0 * wall / wl.csv_steps,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    for what, key in (("scaled wall s", None), ("unscaled wall s", "wall_s"), ("scale", "scale")):
        samples = sorted(r[key] if key else r["wall_s"] * r["scale"] for r in runs)
        print(f"{wl.name}: {what} of {len(runs)} timed invocations, sorted: "
              + " ".join(f"{v:.4f}" for v in samples))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(wl: Workload, untraced: list[dict], traced: list[dict], problems: list[str]) -> dict:
    per_run = []
    for r in traced:
        calls, self_s, root = tracing.self_times(r["spans"])
        if abs(sum(self_s) - root) > 1e-6 * root:
            problems.append(f"self times sum to {sum(self_s)} s, root spans to {root} s")
        per_run.append((calls, [s * r["scale"] for s in self_s], r["wall_s"] * r["scale"]))
    calls = per_run[0][0]
    if any(c != calls for c, _, _ in per_run):
        problems.append("span call counts differ between traced invocations")
    absent = traced[0]["absent"]
    for name in absent:
        print(f"{wl.name}: span {name} is absent from the program", file=sys.stderr)
    untraced_wall = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
    traced_wall = statistics.median(w for _, _, w in per_run)
    metrics = {}
    for i, name in enumerate(tracing.SPANS):
        metrics[f"{name}.calls"] = (calls[i], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[i] for _, s, _ in per_run), "s")
        metrics[f"{name}.self_share"] = (
            statistics.median(s[i] / w for _, s, w in per_run), "ratio")
    index = tracing.SPANS.index
    metrics["aggregate.compute_rule_sums.per_group"] = (
        calls[index("aggregate.compute_rule_sums")] / wl.evaluable_groups, "calls/group")
    metrics["decompose.length_stats.per_window"] = (
        calls[index("decompose.length_stats")] / wl.csv_steps, "calls/window")
    metrics["sim.PolicyTable.log_probs.per_step"] = (
        calls[index("sim.PolicyTable.log_probs")] / wl.csv_steps, "calls/step")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.absent_spans"] = (len(absent), "count")
    self_total = statistics.median(sum(s) for _, s, _ in per_run)
    print(f"{wl.name}: {len(traced)} traced and {len(untraced)} untraced invocations; "
          f"self times sum to {self_total:.4f} s, traced wall median {traced_wall:.4f} s, "
          f"untraced {untraced_wall:.4f} s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _report(wl: Workload, attempted: int, failed: int, problems: list[str], metrics: dict) -> dict:
    for p in problems[:20]:
        print(f"{wl.name}: CHECK FAILED: {p}", file=sys.stderr)
    print(f"{wl.name}: seed {wl.seed} input {json.dumps(wl.props)}")
    print(f"{wl.name}: command grpoagg {' '.join(wl.args)}")
    for k, m in metrics.items():
        print(f"{wl.name}: {k} = {m['value']:.6g} {m['unit']}")
    print(f"{wl.name}: failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} invocations)")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "grpoagg" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'grpoagg'} is missing", file=sys.stderr)
        return 2

    print(f"provenance: {json.dumps(provenance())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
