"""Outside-in spans around dpfedsim's public functions.

A ``Tracer`` replaces each traced function with a wrapper at every dpfedsim
module attribute that holds it.  Modules bind many functions by name at
import (``from .dp import clip_gradient``), and a caller looks the name up in
its own module, so wrapping only the defining module would miss those calls.
Each wrapper records a span ``(name, start_ns, end_ns, parent)`` in memory;
``write_spans`` saves them once the run is over.

A traced name whose module or function no longer exists is reported as
absent with zero calls, so a later change that renames or removes a function
does not break the traced run.

Three wrappers also observe results, in a span of their own named
``bench.observe`` so that the check is not charged to the program:
``dp.clip_gradient`` checks the clip bound of every output,
``dp.poisson_sample`` sums realised batch sizes, and
``correction.correct_round`` reads cosine tests and projections from the
report it returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import time

import numpy as np

from stats import self_by_layer_under, self_times

PACKAGE = "dpfedsim"

# "<module>.<function>": the function is looked up as an attribute of
# dpfedsim.<module>, and its spans carry this name.  correction.cosine is
# linalg.cosine, named for the layer that calls it.
TRACED = (
    "federation.run_round",
    "federation.client_local_phase",
    "federation.aggregate",
    "federation.server_step",
    "model.loss_and_gradient",
    "model.forward_batch",
    "dp.clip_gradient",
    "dp.noisy_batch_gradient",
    "dp.poisson_sample",
    "dp.epsilon_spent",
    "linalg.dot",
    "correction.correct_round",
    "correction.cosine",
    "data.synthetic_blobs",
    "data.partition_iid",
    "data.features_matrix",
    "metrics.accumulate",
    "cli.build_state",
    "cli.write_metrics_csv",
)
# Traced names that run before or after the rounds, not inside them.
SETUP = (
    "data.synthetic_blobs",
    "data.partition_iid",
    "cli.build_state",
    "cli.write_metrics_csv",
)
OBSERVE = "bench.observe"
ROUND = "federation.run_round"
# Layers whose self time can fall inside a round; their self times sum to
# the rounds' inclusive time.
ROUND_LAYERS = (
    "federation", "model", "dp", "linalg", "correction", "data", "metrics", "bench"
)

# Slack on the clip bound for rounding in the norm computed here.
CLIP_TOLERANCE = 1e-12


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Context manager that wraps TRACED while it is entered."""

    def __init__(self):
        self.names = (*TRACED, OBSERVE)
        self.spans: list[tuple[int, int, int, int]] = []
        self.absent: list[str] = []
        self.samples = 0
        self.cosine_tests = 0
        self.projections = 0
        self.clip_violations = 0
        self.clip_max_ratio = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        package = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        observers = {
            "dp.clip_gradient": self._observe_clip,
            "dp.poisson_sample": self._observe_sample,
            "correction.correct_round": self._observe_correction,
        }
        observe_index = self.names.index(OBSERVE)
        for index, name in enumerate(TRACED):
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                target = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            observe = observers.get(name)
            if observe is not None:
                observe = self._wrap(observe_index, observe, None)
            wrapper = self._wrap(index, target, observe)
            sites = [
                (module, key)
                for module in modules
                for key, value in vars(module).items()
                if value is target
            ]
            for module, key in sites:
                setattr(module, key, wrapper)
                self._patched.append((module, key, target))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, index, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((index, 0, 0, parent))  # reserve: children refer to `me`
            stack.append(me)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _observe_clip(self, args, kwargs, out) -> None:
        threshold = kwargs["clip_threshold"] if "clip_threshold" in kwargs else args[1]
        # einsum, not BLAS dot: no BLAS threads are woken for the check
        ratio = math.sqrt(float(np.einsum("i,i->", out, out))) / threshold
        self.clip_max_ratio = max(self.clip_max_ratio, ratio)
        if not ratio <= 1.0 + CLIP_TOLERANCE:
            self.clip_violations += 1

    def _observe_sample(self, args, kwargs, out) -> None:
        self.samples += int(np.size(out))

    def _observe_correction(self, args, kwargs, out) -> None:
        summary = out[1].summary()
        self.cosine_tests += summary["cosine_evaluations"]
        self.projections += summary["projections_applied"]

    def named_spans(self) -> list[tuple[str, int, int, int]]:
        names = self.names
        return [(names[i], start, end, parent) for i, start, end, parent in self.spans]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and inclusive seconds, per-layer self time in
        rounds, and the observed counts; each as (value, unit)."""
        spans = self.named_spans()
        own = self_times(spans)
        calls = dict.fromkeys(TRACED, 0)
        busy = dict.fromkeys(TRACED, 0)
        round_self = 0
        for (name, start, end, _), self_ns in zip(spans, own):
            if name in calls:
                calls[name] += 1
                busy[name] += end - start
            if name == ROUND:
                round_self += self_ns
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}_calls"] = calls[name], "count"
            out[f"{name}_s"] = busy[name] / 1e9, "s"
        out[f"{ROUND}_self_s"] = round_self / 1e9, "s"
        by_layer = self_by_layer_under(spans, ROUND, layer_of)
        unexpected = set(by_layer) - set(ROUND_LAYERS)
        if unexpected:
            raise ValueError(f"round time fell in unlisted layers {sorted(unexpected)}")
        if sum(by_layer.values()) != busy[ROUND]:
            raise ValueError("layer self times do not sum to the rounds' time")
        for layer in ROUND_LAYERS:
            ns = by_layer.get(layer, 0)
            out[f"layer.{layer}.self_s"] = ns / 1e9, "s"
            share = ns / busy[ROUND] if busy[ROUND] else 0.0
            out[f"layer.{layer}.share"] = share, "ratio"
        out["dp.samples"] = self.samples, "count"
        out["dp.clip_max_norm_ratio"] = self.clip_max_ratio, "ratio"
        out["correction.cosine_tests"] = self.cosine_tests, "count"
        out["correction.projections"] = self.projections, "count"
        out["correction.projection_rate"] = (
            self.projections / self.cosine_tests if self.cosine_tests else 0.0
        ), "ratio"
        out["trace.absent_functions"] = len(self.absent), "count"
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.named_spans():
                span = {"name": name, "start_ns": start, "end_ns": end}
                f.write(json.dumps({**span, "parent": parent}) + "\n")
