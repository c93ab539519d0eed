"""Span tracing of hero's layers, installed from outside the package.

Each layer function listed in ``LAYER_FUNCTIONS`` is wrapped, and the
wrapper is bound both in the defining module and under every other hero
module name that refers to the same function object (``trainer`` imports
``encode_document`` by name, ``cli`` imports ``load_table``, ...), so calls
through either name are seen. A listed function that no longer exists is
reported as absent instead of failing the run.

A span is ``[name, start, end, parent index, request id]``; the request id
is ``[phase, index]``, one timed operation (``["train", 3]``). Spans, and
counts per phase, stay in memory and are aggregated when the run ends. A
span's self time is its duration minus the durations of its direct children
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_FUNCTIONS = {
    "ling_tree": ("parse_sexpr",),
    "embed": ("load_table", "embed_leaves"),
    "nn": ("gru_forward", "gru_backward", "adam_step"),
    "model": (
        "init_model", "encode_document", "backward", "predict", "params_to_vec",
        "vec_to_params", "copy_model", "save_model", "load_model",
    ),
    "trainer": ("read_dataset", "train", "evaluate", "compute_metrics"),
    "stats": ("compute_tree_stats", "compare_groups", "corpus_report"),
    "cli": ("run",),
}


def _gru_flops(gru, steps: int) -> int:
    # Per step: three (hd x d) and three (hd x hd) matrix-vector products.
    d, hd = gru.input_dim, gru.hidden_dim
    return steps * 6 * hd * (d + hd)


def _count_gru_forward(counts, args, result):
    counts["nn.gru_forward.steps"] += len(result)
    counts["nn.gru.flops"] += _gru_flops(args[0], len(result))


def _count_gru_backward(counts, args, result):
    steps = len(args[1])
    counts["nn.gru_backward.steps"] += steps
    counts["nn.gru.flops"] += 2 * _gru_flops(args[0], steps)


def _count_adam(counts, args, result):
    n = np.size(args[1])
    counts["nn.adam_step.params"] += n
    counts["nn.adam_step.nonzero_grads"] += int(np.count_nonzero(args[2]))
    # Minimum traffic of one dense step: read params, grads and both
    # moments, write both moments and the new params, float64 each.
    counts["nn.adam_step.bytes"] += 7 * 8 * n


def _count_leaves(counts, args, result):
    counts["embed.leaves"] += len(result.vectors)
    counts["embed.oov_leaves"] += result.oov


def _count_table(counts, args, result):
    counts["embed.load_table.lines"] += len(result) + result.duplicates


def _count_save(counts, args, result):
    counts["model.save_model.bytes"] += os.path.getsize(args[1])


COUNTERS = {
    "nn.gru_forward": _count_gru_forward,
    "nn.gru_backward": _count_gru_backward,
    "nn.adam_step": _count_adam,
    "embed.embed_leaves": _count_leaves,
    "embed.load_table": _count_table,
    "model.save_model": _count_save,
}


class Tracer:
    """Records spans while ``active``; the benchmark switches it off around
    its own correctness checks so they do not count as program work."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self.active = False
        self.request: tuple[str, int] = ("", 0)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                counter(self.counts[self.request[0]], args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function under each hero name bound to it."""
        for short in LAYER_FUNCTIONS:
            try:
                importlib.import_module(f"hero.{short}")
            except ModuleNotFoundError:
                pass
        modules = [m for n, m in sys.modules.items() if n == "hero" or n.startswith("hero.")]
        for short, names in LAYER_FUNCTIONS.items():
            mod = sys.modules.get(f"hero.{short}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    self.absent.append(f"{short}.{fname}")
                    continue
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}

    def merge(self, exported: dict, request: tuple[str, int]) -> None:
        """Add the spans and counts another process recorded, as ``request``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, request])
        for counts in exported["counts"].values():
            self.counts[request[0]].update(counts)

    # The aggregates below are keyed by (phase, name).

    def calls(self) -> Counter:
        return Counter((span[4][0], span[0]) for span in self.spans)

    def self_times(self) -> dict[tuple[str, str], float]:
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, _, request) in enumerate(self.spans):
            out[request[0], name] += end - start - child_time[i]
        return dict(out)

    def root_times(self) -> dict[str, float]:
        """Wall time covered by top-level spans, per phase."""
        out: dict[str, float] = defaultdict(float)
        for _, start, end, parent, request in self.spans:
            if parent < 0:
                out[request[0]] += end - start
        return dict(out)
