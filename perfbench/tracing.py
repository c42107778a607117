"""Span tracing for the traced benchmark run.

The tracer records one span per call of each function in ``TARGETS``: its
name, start, end, parent span and run id.  Spans stay in memory and are
written out when the run ends.  The package imports names with
``from ... import``, so a function is wrapped at the module global of each
caller, not only where it is defined: ``run_batch`` is wrapped as
``gossipwatch.datagen.run_batch`` and ``train`` as both
``gossipwatch.cli.train`` and ``gossipwatch.experiments.train``.  The
program itself is not modified.

Work counters are taken at the same boundaries, from the arguments and the
result of each traced call.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    ok: bool = False


def _count_run_batch(counts, args, result):
    counts["protocol.pair_updates"] += len(args["rngs"]) * args["config"].T


def _count_build_dataset(counts, args, result):
    for key, pair in result.items():
        for ds in (pair.train, pair.test):
            counts["datagen.rows"] += ds.n_rows
            if key.endswith("_temporal"):
                counts["datagen.samples"] += len(set(ds.sample_ids.tolist()))


def _count_write_csv(counts, args, result):
    counts["datagen.write_dataset_csv.bytes"] += os.path.getsize(args["path"])


def _count_read_csv(counts, args, result):
    counts["datagen.read_dataset_csv.bytes"] += os.path.getsize(args["path"])


def _count_train(counts, args, result):
    rows, config = args["X"].shape[0], args["config"]
    counts["neural.row_epochs"] += rows * config.epochs
    counts["neural.sgd_steps"] += config.epochs * math.ceil(rows / config.batch_size)


def _count_save_model(counts, args, result):
    path = str(args["path"])
    counts["neural.save_model.bytes"] += os.path.getsize(path) + os.path.getsize(path + ".bin")


def _count_gossip(counts, args, result):
    learners = args["learners"]
    mode = args.get("mode", "sync")
    messages = args["rounds"] * (len(learners) if mode == "sync" else 1)
    counts["gossip_train.messages"] += messages
    counts["gossip_train.bytes_exchanged"] += messages * learners[0].model.n_params() * 8
    if result:
        counts["gossip_train.final_mean_loss"] = result[-1].mean_loss


def _count_evaluate(counts, args, result):
    counts["evaluation.rows_scored"] += args["dataset"].n_rows


def _count_roc_csv(counts, args, result):
    counts["evaluation.roc_to_csv.bytes"] += os.path.getsize(args["path"])


# span name, defining module, function, wrap calls inside the defining module
# too, counter hook.  Every other gossipwatch module that binds the function
# as a global gets the wrapper.
TARGETS = [
    ("protocol.run_batch", "protocol", "run_batch", False, _count_run_batch),
    ("protocol.generate_problem", "protocol", "generate_problem", False, None),
    ("topology.draw_pair_sequence", "topology", "draw_pair_sequence", False, None),
    ("topology.subset_connected", "topology", "subset_connected", False, None),
    ("datagen.build_dataset", "datagen", "build_dataset", False, _count_build_dataset),
    ("datagen.place_attackers", "datagen", "place_attackers", True, None),
    ("features.temporal_from_endpoints", "features", "temporal_from_endpoints", False, None),
    ("features.spatial_from_sums", "features", "spatial_from_sums", False, None),
    ("features.tailor_inputs", "features", "tailor_inputs", False, None),
    ("datagen.write_dataset_csv", "datagen", "write_dataset_csv", False, _count_write_csv),
    ("datagen.read_dataset_csv", "datagen", "read_dataset_csv", False, _count_read_csv),
    ("datagen.shard_for_gossip", "datagen", "shard_for_gossip", False, None),
    ("neural.train", "neural", "train", False, _count_train),
    ("neural.forward", "neural", "forward", False, None),
    ("neural.save_model", "neural", "save_model", False, _count_save_model),
    ("neural.load_model", "neural", "load_model", False, None),
    ("gossip_train.run_gossip_training", "gossip_train", "run_gossip_training", False,
     _count_gossip),
    ("gossip_train.sgd_step", "neural", "sgd_step", False, None),
    ("evaluation.evaluate_detector", "evaluation", "evaluate_detector", False, _count_evaluate),
    ("evaluation.roc_curve", "evaluation", "roc_curve", True, None),
    ("evaluation.roc_to_csv", "evaluation", "roc_to_csv", False, _count_roc_csv),
    ("score_detectors.td_row_detection", "score_detectors", "td_row_detection", False, None),
    ("score_detectors.td_row_localization", "score_detectors", "td_row_localization", False,
     None),
    ("score_detectors.sd_row_detection", "score_detectors", "sd_row_detection", False, None),
    ("score_detectors.sd_row_localization", "score_detectors", "sd_row_localization", False,
     None),
    ("experiments.run_family", "experiments", "run_family", True, None),
]

ROW_SCORERS = tuple(t[0] for t in TARGETS if t[0].startswith("score_detectors."))

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("protocol.run_batch.calls", "count"),
    ("protocol.run_batch.self_s", "s"),
    ("protocol.pair_updates", "count"),
    ("protocol.pair_updates_per_s", "1/s"),
    ("protocol.generate_problem.calls", "count"),
    ("protocol.generate_problem.self_s", "s"),
    ("topology.draw_pair_sequence.calls", "count"),
    ("topology.draw_pair_sequence.self_s", "s"),
    ("topology.subset_connected.calls", "count"),
    ("topology.subset_connected.self_s", "s"),
    ("datagen.build_dataset.calls", "count"),
    ("datagen.build_dataset.self_s", "s"),
    ("datagen.samples", "count"),
    ("datagen.rows", "count"),
    ("datagen.place_attackers.accept_ratio", "ratio"),
    ("features.temporal_from_endpoints.calls", "count"),
    ("features.temporal_from_endpoints.self_s", "s"),
    ("features.spatial_from_sums.calls", "count"),
    ("features.spatial_from_sums.self_s", "s"),
    ("features.tailor_inputs.calls", "count"),
    ("features.tailor_inputs.self_s", "s"),
    ("datagen.write_dataset_csv.self_s", "s"),
    ("datagen.write_dataset_csv.bytes", "B"),
    ("datagen.write_dataset_csv.mb_per_s", "MB/s"),
    ("datagen.read_dataset_csv.self_s", "s"),
    ("datagen.read_dataset_csv.bytes", "B"),
    ("datagen.read_dataset_csv.mb_per_s", "MB/s"),
    ("datagen.shard_for_gossip.self_s", "s"),
    ("neural.train.calls", "count"),
    ("neural.train.self_s", "s"),
    ("neural.row_epochs", "count"),
    ("neural.row_epochs_per_s", "1/s"),
    ("neural.sgd_steps", "count"),
    ("neural.forward.calls", "count"),
    ("neural.forward.self_s", "s"),
    ("neural.save_model.self_s", "s"),
    ("neural.save_model.bytes", "B"),
    ("neural.load_model.self_s", "s"),
    ("gossip_train.run_gossip_training.self_s", "s"),
    ("gossip_train.sgd_step.calls", "count"),
    ("gossip_train.sgd_step.self_s", "s"),
    ("gossip_train.messages", "count"),
    ("gossip_train.bytes_exchanged", "B_computed"),
    ("gossip_train.final_mean_loss", "nats"),
    ("evaluation.evaluate_detector.calls", "count"),
    ("evaluation.evaluate_detector.self_s", "s"),
    ("evaluation.rows_scored", "count"),
    ("evaluation.roc_curve.self_s", "s"),
    ("evaluation.roc_to_csv.self_s", "s"),
    ("evaluation.roc_to_csv.bytes", "B"),
    ("score_detectors.row_calls", "count"),
    ("score_detectors.self_s", "s"),
    ("experiments.run_family.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans and work counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.unbound: list[str] = []

    def call(self, name, fn, hook, args, kwargs):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                    0.0, 0.0, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.ok = True
        if hook is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self.counts, bound.arguments, result)
        return result

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, hook, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at the module global of each of its callers."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("gossipwatch.") and m is not None]
        self.unbound = []
        for name, home, attr, inside_home, hook in TARGETS:
            home_mod = sys.modules.get(f"gossipwatch.{home}")
            fn = getattr(home_mod, attr, None)
            if fn is None:
                self.unbound.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            found = False
            for mod in modules:
                if mod is home_mod and not inside_home:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
                        found = True
            if not found:
                self.unbound.append(name)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches = []


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, hi = 0.0, s.start
        for c_lo, c_hi in sorted(children.get(s.id, ())):
            lo, c_hi = max(c_lo, hi), min(c_hi, s.end)
            if c_hi > lo:
                covered += c_hi - lo
                hi = c_hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], counts: dict, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of one traced run."""
    calls, ok, own, total = (defaultdict(int), defaultdict(int),
                             defaultdict(float), defaultdict(float))
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] += 1
        ok[s.name] += s.ok
        own[s.name] += self_s
        total[s.name] += s.end - s.start

    def rate(work, name, scale=1.0):
        # work per second of the layer's span time, child spans included
        return work / scale / total[name] if total[name] > 0 else 0.0

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s") and metric[: -len(".self_s")] in calls:
            out[metric] = own[metric[: -len(".self_s")]]
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0.0
    checks = calls["topology.subset_connected"]
    got = lambda key: counts.get(key, 0)  # noqa: E731
    out.update({
        "protocol.pair_updates_per_s": rate(got("protocol.pair_updates"), "protocol.run_batch"),
        "datagen.place_attackers.accept_ratio":
            ok["datagen.place_attackers"] / checks if checks else 0.0,
        "datagen.write_dataset_csv.mb_per_s": rate(
            got("datagen.write_dataset_csv.bytes"), "datagen.write_dataset_csv", 1e6),
        "datagen.read_dataset_csv.mb_per_s": rate(
            got("datagen.read_dataset_csv.bytes"), "datagen.read_dataset_csv", 1e6),
        "neural.row_epochs_per_s": rate(got("neural.row_epochs"), "neural.train"),
        "score_detectors.row_calls": sum(calls[n] for n in ROW_SCORERS),
        "score_detectors.self_s": sum(own[n] for n in ROW_SCORERS),
        "trace.overhead_s": overhead_s,
    })
    return out
