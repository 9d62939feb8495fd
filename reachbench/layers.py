"""The layer map: which public functions the traced run wraps, and the
per-layer metrics computed from their spans.

Layers are the package's modules. Times and counts are divided by the
number of train steps taken, so runs of different length compare. Model
stages and autodiff ops count only inside ``trainer.fit``; set-up functions
(``init_params``, ``load_checkpoint``, ``cli.main``) are reported per call.
"""

from __future__ import annotations

import os
from pathlib import Path
from statistics import median

from reachcast import annotate, autodiff, cli, datagen, geometry, losses, model, trainer

from session import RATES, rates
from stats import rate
from tracing import LabelStats, Target, inside, summarize

# Every autodiff function that records itself on the tape; composites such as
# tanh (pointwise) or mean (reduce_sum + scale) are counted through these.
AD_PRIMITIVES = ("add", "sub", "mul", "scale", "add_bias", "matmul", "affine", "reshape",
                 "transpose", "split_heads", "merge_heads", "concat", "slice_axis",
                 "reduce_sum", "softmax_lastdim", "layer_norm", "pointwise", "huber",
                 "conv2d", "embed_border")
AD_REPORTED = ("affine", "matmul", "concat", "conv2d", "layer_norm", "softmax_lastdim",
               "split_heads", "merge_heads", "pointwise", "embed_border")
MODEL_STAGES = ("transition", "emit", "encode_frames", "embed_points", "velocity_head")


def _nbytes(args, kwargs, out):
    return out.data.nbytes


def _written(args, kwargs, out):
    return os.path.getsize(out[0])


def _read(args, kwargs, out):
    path = Path(args[0])
    return os.path.getsize(path / "data.jsonl" if path.is_dir() else path)


def _branch(args, kwargs):
    return f"model.temporal_encode.{kwargs.get('branch', args[4] if len(args) > 4 else '')}"


def _command(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.main.{argv[0]}"


def targets():
    """Each public function, patched where its callers look it up."""
    t = [Target(autodiff, op, f"autodiff.{op}", _nbytes if op == "concat" else None)
         for op in AD_PRIMITIVES]
    t.append(Target(autodiff.Graph, "backward", "autodiff.Graph.backward",
                    lambda args, kwargs, out: len(args[0])))
    t += [Target(model, f, f"model.{f}") for f in MODEL_STAGES
          + ("forecast", "forward_batch", "init_params", "load_checkpoint")]
    t.append(Target(model, "temporal_encode", _branch))
    t += [Target(losses, f, f"losses.{f}") for f in ("total_batch", "drau_batch",
                                                      "velocity_batch")]
    t += [Target(trainer, f, f"trainer.{f}") for f in ("fit", "evaluate", "evaluate_baseline",
                                                       "assemble_batch")]
    t.append(Target(trainer.Adam, "step", "trainer.Adam.step"))
    # `from .geometry import project` binds the name in each importing module
    t += [Target(owner, "project", "geometry.project") for owner in (geometry, trainer, datagen)]
    t += [Target(geometry.PoseChain, f, f"geometry.PoseChain.{f}")
          for f in ("local_to_global", "global_to_local")]
    t.append(Target(datagen, "gen_dataset", "datagen.gen_dataset"))
    t.append(Target(datagen, "write_dataset", "datagen.write_dataset", _written))
    t.append(Target(datagen, "read_dataset", "datagen.read_dataset", _read))
    t += [Target(annotate, f, f"annotate.{f}") for f in ("repair_sample_depths",
                                                         "fit_depth_model")]
    t.append(Target(cli, "main", _command))
    return t


def per_layer(spans, steps, untraced, traced):
    """Per-layer metrics of the traced rounds: {name: (value, unit)}.

    untraced, traced: the recorded samples of the untraced and traced parts
    of the run. Each overhead is the cost of tracing, positive when tracing
    made the metric worse.
    """
    st = summarize(spans)
    in_fit = summarize(spans, inside(spans, "trainer.fit"))

    def g(label, stats=st):
        return stats.get(label, LabelStats())

    def per_call(label):
        s = g(label)
        return s.total_s / s.calls if s.calls else 0.0

    m = {}
    stages = [f"model.{s}" for s in MODEL_STAGES]
    stages += [f"model.temporal_encode.{branch}" for branch in ("enc_v", "enc_t")]
    for label in stages:
        m[f"{label}.self_s"] = (g(label, in_fit).self_s / steps, "s")
        m[f"{label}.s"] = (g(label, in_fit).total_s / steps, "s")
    m["model.emit.calls"] = (g("model.emit", in_fit).calls / steps, "count")
    m["model.init_params.s"] = (per_call("model.init_params"), "s")
    m["model.load_checkpoint.s"] = (per_call("model.load_checkpoint"), "s")

    backward = g("autodiff.Graph.backward")
    m["autodiff.tape_records"] = (backward.qty / backward.calls if backward.calls else 0.0,
                                  "count")
    m["autodiff.Graph.backward.s"] = (backward.total_s / steps, "s")
    for op in AD_REPORTED:
        m[f"autodiff.{op}.calls"] = (g(f"autodiff.{op}", in_fit).calls / steps, "count")
        m[f"autodiff.{op}.self_s"] = (g(f"autodiff.{op}", in_fit).self_s / steps, "s")
    m["autodiff.concat.bytes"] = (g("autodiff.concat", in_fit).qty / steps, "B")
    in_forecast = summarize(spans, inside(spans, "model.forecast"))
    ops = sum(g(f"autodiff.{op}", in_forecast).calls for op in AD_PRIMITIVES)
    forecasts = g("model.forecast").calls
    m["autodiff.ops_per_forecast"] = (ops / forecasts if forecasts else 0.0, "count")

    for f in ("total_batch", "drau_batch", "velocity_batch"):
        m[f"losses.{f}.self_s"] = (g(f"losses.{f}").self_s / steps, "s")

    m["trainer.fit.s"] = (g("trainer.fit").total_s / steps, "s")
    m["trainer.Adam.step.s"] = (g("trainer.Adam.step").total_s / steps, "s")
    m["trainer.assemble_batch.s"] = (g("trainer.assemble_batch").total_s / steps, "s")
    m["trainer.evaluate.self_s"] = (g("trainer.evaluate").self_s / steps, "s")
    m["trainer.evaluate_baseline.s"] = (g("trainer.evaluate_baseline").total_s / steps, "s")

    for label in ("geometry.project", "geometry.PoseChain.global_to_local",
                  "geometry.PoseChain.local_to_global"):
        m[f"{label}.calls"] = (g(label).calls / steps, "count")
        m[f"{label}.self_s"] = (g(label).self_s / steps, "s")

    m["datagen.read_dataset.self_s"] = (g("datagen.read_dataset").self_s / steps, "s")
    m["datagen.read_dataset.bytes"] = (g("datagen.read_dataset").qty / steps, "B")
    m["datagen.read_dataset.invalid_depth_points"] = (
        sum(untraced["invalid_depth_points"]), "count")
    m["datagen.gen_dataset.self_s"] = (g("datagen.gen_dataset").self_s / steps, "s")
    m["datagen.write_dataset.s"] = (g("datagen.write_dataset").total_s / steps, "s")
    m["datagen.write_dataset.bytes"] = (g("datagen.write_dataset").qty / steps, "B")

    m["annotate.repair_sample_depths.self_s"] = (
        g("annotate.repair_sample_depths").self_s / steps, "s")
    m["annotate.fit_depth_model.self_s"] = (g("annotate.fit_depth_model").self_s / steps, "s")
    m["annotate.fit_depth_model.calls"] = (g("annotate.fit_depth_model").calls / steps, "count")
    m["annotate.skipped_tracks"] = (g("annotate.repair_sample_depths").raised, "count")

    m["cli.main.gen.s"] = (per_call("cli.main.gen"), "s")
    m["cli.main.repair.s"] = (per_call("cli.main.repair"), "s")
    m["cli.import_s"] = (median(t.seconds for t in untraced["import_s"]), "s")

    off, on = rates(untraced), rates(traced)
    for name in RATES:
        m[f"trace.overhead.{name}"] = (rate(off[name]) - rate(on[name]), "1/s")
    m["trace.overhead.forecast_p50_ms"] = (
        1000.0 * (median(t.seconds for t in traced["forecast_ms"])
                  - median(t.seconds for t in untraced["forecast_ms"])), "ms")
    return m
