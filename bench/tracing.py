"""Spans around the program's layers, installed from outside the program.

``install`` wraps each public name in ``SPANS``. A function is replaced in
every ``grpoagg.*`` module that holds the same object, so callers that
imported it by name are covered. A class is traced through its
``__init__`` (construction is record validation or a policy update), and a
method through the class attribute, so every caller sees the wrapper. A
name that no longer exists is reported absent rather than failing.

Spans are kept in memory as (span index, start, end, parent record) and
written once, after the traced call returns. ``self_times`` turns them into
per-span call counts and self time: a span's duration minus the time its
direct child spans cover. The program is single-threaded, so children of
one span never overlap and there is no waiting time to record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPANS = (
    "cli.main",
    "rollout_io.parse_rollout_line",
    "groups.Response",
    "groups.RolloutGroup",
    "groups.normalize_advantages",
    "aggregate.evaluate_arrays",
    "aggregate.compute_rule_sums",
    "decompose.length_stats",
    "rollout_io.write_metrics",
    "sim.train_step",
    "sim.sample_group",
    "sim.evaluate_batch",
    "sim.PolicyTable",
    "sim.PolicyTable.log_probs",
)


class Tracer:
    def __init__(self) -> None:
        self.records: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, index: int, fn):
        records, stack, clock = self.records, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(records)
            records.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[me] = (index, start, end, parent)

        return traced


def install(package: str = "grpoagg") -> Tracer:
    """Wrap every name in SPANS inside the already imported ``package``."""
    tracer = Tracer()
    for index, name in enumerate(SPANS):
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{package}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        if isinstance(original, type):
            original.__init__ = tracer.wrap(index, original.__init__)
        elif isinstance(owner, type):
            setattr(owner, path[-1], tracer.wrap(index, original))
        else:
            traced = tracer.wrap(index, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
    return tracer


def self_times(records: list) -> tuple[list[int], list[float], float]:
    """Per-span call counts and self seconds, plus the root spans' total time."""
    calls = [0] * len(SPANS)
    self_s = [0.0] * len(SPANS)
    child = [0.0] * len(records)
    root = 0.0
    for index, start, end, parent in records:
        if parent >= 0:
            child[parent] += end - start
        else:
            root += end - start
    for (index, start, end, _), covered in zip(records, child):
        calls[index] += 1
        self_s[index] += (end - start) - covered
    return calls, self_s, root
