"""Call spans around redense's modules, recorded from outside the package.

``Tracer.install`` replaces every public function of the package's modules
(cli, data, persist, nn, layer, linalg) with a timing wrapper, under every
name a caller looks it up by: ``redense.layer.pinv`` as well as
``redense.linalg.pinv``, because ``layer.py`` imports it by name. It also
wraps ``numpy.linalg.svd`` so that SVDs are counted however ``build`` reaches
them. No file of the package changes.

A span is (name, start, end, parent, attrs). Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus the
time its child spans cover; calls are single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "data", "persist", "nn", "layer", "linalg")

# An iterate counts as on the ball's surface within this relative band;
# the projection rescales onto epsilon only up to rounding.
BOUNDARY_RTOL = 1e-9


def _file_bytes(*paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _train_attrs(args, result):
    layer, curve = args[0], result[2]
    best, best_at, improving, on_ball = np.inf, 0, 0, 0
    for t, stats in enumerate(curve):
        if stats.train_loss < best:
            best, best_at = stats.train_loss, t
            improving += t > 0
        on_ball += t > 0 and stats.o_norm >= layer.epsilon * (1.0 - BOUNDARY_RTOL)
    return {"iterations": len(curve) - 1, "best_iter": best_at,
            "improving": improving, "on_ball": on_ball}


# Facts read from a call's arguments or result after its span has ended.
ATTRS = {
    "data.load_idx": lambda args, result: _file_bytes(args[0], args[1]),
    "data.load_feature_bundle": lambda args, result: _file_bytes(args[0]),
    "data.save_feature_bundle": lambda args, result: _file_bytes(args[0]),
    "layer.lfp_lift": lambda args, result: {"bytes": result.nbytes},
    "layer.train": _train_attrs,
    "nn.train_base": lambda args, result: {"epochs": len(result[1]) - 1},
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, attrs or None]
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock, attrs = self.spans, self._stack, time.perf_counter, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"redense.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("redense.")):
                    continue
                if obj not in wrappers:
                    defined_in = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{defined_in}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        self._patch(np.linalg, "svd", self._wrap("numpy.linalg.svd", np.linalg.svd))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "attrs": attrs}) + "\n")


# Every per-layer metric with its unit, in report order. "bytes" are file
# sizes on disk; "bytes_computed" come from array shapes, not from counters.
PER_LAYER = {
    "nn.train_base.s": "s",
    "nn.train_base.epoch_s": "s",
    "nn.train_base.stats_s": "s",
    "nn.forward.s": "s",
    "data.load_idx.s": "s",
    "data.load_idx.bytes": "bytes",
    "data.load_feature_bundle.s": "s",
    "data.load_feature_bundle.bytes": "bytes",
    "data.save_feature_bundle.s": "s",
    "data.save_feature_bundle.bytes": "bytes",
    "persist.save_model.s": "s",
    "persist.load_model.s": "s",
    "persist.write_curve.s": "s",
    "layer.train.s": "s",
    "layer.train.self_s": "s",
    "layer.train.iterations": "count",
    "layer.train.iter_s": "s",
    "layer.train.loss_value.calls": "count",
    "layer.train.loss_value.s": "s",
    "layer.train.loss_grad.calls": "count",
    "layer.train.loss_grad.s": "s",
    "layer.train.accuracy.s": "s",
    "layer.train.frobenius_norm.s": "s",
    "layer.lfp_lift.s": "s",
    "layer.lfp_lift.calls_per_train": "count/train",
    "layer.lfp_lift.bytes": "bytes_computed",
    "layer.train.bytes_per_iter": "bytes_computed",
    "layer.build.s": "s",
    "layer.build.resamples": "count",
    "layer.build.svd_calls": "count/build",
    "linalg.sample_gaussian.s": "s",
    "linalg.condition_number.s": "s",
    "linalg.pinv.s": "s",
    "layer.train.best_iter": "iteration",
    "layer.train.improving_share": "ratio",
    "layer.train.ball_active_share": "ratio",
    "cli.train.self_s": "s",
    "cli.features.self_s": "s",
    "cli.redense.self_s": "s",
    "cli.sweep_m.self_s": "s",
    "cli.eval.self_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}

# Calls under the per-epoch statistics of nn.train_base
_EPOCH_STATS = ("nn.forward", "nn.loss_value", "nn.evaluate")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced body run, from its spans.

    Returns every PER_LAYER metric except proc.cpu_util and trace.overhead_s,
    which come from comparing runs.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    self_time = list(dur)
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= dur[i]
            children[parent].append(i)
    named = defaultdict(list)
    for i, span in enumerate(spans):
        named[span[0]].append(i)

    def total(name):
        return sum(dur[i] for i in named[name])

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in named[name])

    def descendants(i):
        stack = list(children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(children[j])

    out = {}

    base = named["nn.train_base"]
    stats_s = sum(dur[j] for i in base for j in children[i] if spans[j][0] in _EPOCH_STATS)
    out["nn.train_base.s"] = total("nn.train_base")
    out["nn.train_base.epoch_s"] = _ratio(out["nn.train_base.s"] - stats_s,
                                          attr_sum("nn.train_base", "epochs"))
    out["nn.train_base.stats_s"] = stats_s
    out["nn.forward.s"] = total("nn.forward")

    for name in ("data.load_idx", "data.load_feature_bundle", "data.save_feature_bundle"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.bytes"] = attr_sum(name, "bytes")
    for name in ("persist.save_model", "persist.load_model", "persist.write_curve"):
        out[f"{name}.s"] = total(name)

    trains = named["layer.train"]
    iterations = attr_sum("layer.train", "iterations")
    lifts_in = {i: [j for j in descendants(i) if spans[j][0] == "layer.lfp_lift"] for i in trains}
    lift_s_in_train = sum(dur[j] for i in trains for j in lifts_in[i])
    out["layer.train.s"] = total("layer.train")
    out["layer.train.self_s"] = sum(self_time[i] for i in trains)
    out["layer.train.iterations"] = iterations
    out["layer.train.iter_s"] = _ratio(out["layer.train.s"] - lift_s_in_train, iterations)
    for callee in ("nn.loss_value", "nn.loss_grad", "nn.accuracy", "linalg.frobenius_norm"):
        calls = [j for i in trains for j in children[i] if spans[j][0] == callee]
        key = f"layer.train.{callee.split('.')[1]}"
        if f"{key}.calls" in PER_LAYER:
            out[f"{key}.calls"] = len(calls)
        out[f"{key}.s"] = sum(dur[j] for j in calls)

    out["layer.lfp_lift.s"] = total("layer.lfp_lift")
    out["layer.lfp_lift.calls_per_train"] = _ratio(sum(len(v) for v in lifts_in.values()),
                                                   len(trains))
    out["layer.lfp_lift.bytes"] = attr_sum("layer.lfp_lift", "bytes")
    # the training lift is read twice per iteration (logits and gradient);
    # any further lift in the same call (eval data) is read once
    per_train = [2 * spans[v[0]][4]["bytes"] + sum(spans[j][4]["bytes"] for j in v[1:])
                 for v in lifts_in.values() if v]
    out["layer.train.bytes_per_iter"] = _ratio(sum(per_train), len(per_train))

    builds = named["layer.build"]
    under_build = {i: [spans[j][0] for j in descendants(i)] for i in builds}
    out["layer.build.s"] = total("layer.build")
    out["layer.build.resamples"] = sum(max(0, names.count("linalg.condition_number") - 1)
                                       for names in under_build.values())
    out["layer.build.svd_calls"] = _ratio(
        sum(names.count("numpy.linalg.svd") for names in under_build.values()), len(builds))
    for name in ("linalg.sample_gaussian", "linalg.condition_number", "linalg.pinv"):
        out[f"{name}.s"] = total(name)

    out["layer.train.best_iter"] = _ratio(attr_sum("layer.train", "best_iter"), len(trains))
    out["layer.train.improving_share"] = _ratio(attr_sum("layer.train", "improving"), iterations)
    out["layer.train.ball_active_share"] = _ratio(attr_sum("layer.train", "on_ball"), iterations)

    for sub in ("train", "features", "redense", "sweep_m", "eval"):
        out[f"cli.{sub}.self_s"] = 0.0
    for i in named["cli.main"]:
        subtree = [i, *descendants(i)]
        commands = [spans[j][0] for j in children[i] if spans[j][0].startswith("cli.cmd_")]
        if commands:
            key = f"cli.{commands[0][len('cli.cmd_'):]}.self_s"
            out[key] += sum(self_time[j] for j in subtree if spans[j][0].startswith("cli."))
    return out
