"""Span recording for the traced run, and the per-layer metrics built from it.

The program is not edited. `instrument` rebinds every module attribute that
refers to a listed public function (the name its callers look up, e.g.
`spkraug.dataset.psola_modify` as well as `spkraug.psola.psola_modify`) to a
wrapper that records a span. A span holds its name, start, end and parent;
the open spans live on a thread-local stack. Spans stay in memory until the
pass ends, when they are written out once.
"""

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end=None, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects finished spans; nesting follows a per-thread stack."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, observe=None):
        stack = self._stack()
        span = Span(name, 0.0, parent=stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if observe is not None:
            span.info = observe(args, kwargs, result)
        return result

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Public functions wrapped in the traced run, with what each span records
# beyond its timing. Observers run after the span has closed.
TARGETS = {
    "dataset.execute_plan": None,
    "dataset.select_best_augmented": None,
    "dataset.generate_eer_pairs": None,
    "dataset.load_manifest": None,
    "dataset.save_manifest": None,
    "psola.estimate_f0": None,
    "psola.place_pitch_marks": None,
    "psola.psola_modify": lambda a, k, r: {"samples": len(r)},
    "audio_io.read_wav": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "audio_io.write_wav": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "audio_io.speed_change": None,
    "spectral.magnitude_spectrogram": lambda a, k, r: {"frames": r.magnitudes.shape[0]},
    "spectral.griffin_lim": lambda a, k, r: {
        "iterations": _arg(a, k, 1, "iterations"),
        "final_error": r[1][-1] if isinstance(r, tuple) else None},
    "embedding.extract_standin_embedding": None,
    "embedding.save_embeddings": None,
    "embedding.load_embeddings": lambda a, k, r: {"rows": len(r)},
    "embedding.select_k_nearest": None,
    "embedding.cosine_similarity": None,
    "embedding.euclidean_distance": None,
    "metrics.load_pairs": None,
    "metrics.save_pairs": None,
    "metrics.score_pairs": lambda a, k, r: {"trials": len(r)},
    "metrics.equal_error_rate": lambda a, k, r: {
        "thresholds": len({p.score for p in _arg(a, k, 0, "pairs")}) + 1},
    "metrics.batch_cs_loss": None,
    "metrics.word_error_rate": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "reference")) * len(_arg(a, k, 1, "hypothesis"))},
    "tsne.conditional_probabilities": None,
    "tsne.kl_gradient": None,
    "tsne.run_tsne": None,
}


def instrument(recorder: Recorder) -> None:
    """Rebind every reference to each TARGETS function inside spkraug.

    Raises LookupError when a listed function no longer exists, so a renamed
    layer fails the traced run instead of reading as zero.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "spkraug" or name.startswith("spkraug."))]
    for qualified, observe in TARGETS.items():
        module_name, func_name = qualified.split(".")
        original = getattr(sys.modules.get(f"spkraug.{module_name}"), func_name, None)
        if original is None:
            raise LookupError(f"traced function spkraug.{qualified} not found")
        wrapper = recorder.wrap(qualified, original, observe)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def write_spans(spans, path) -> None:
    """JSON lines, one span each in closing order; `parent` is a line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": index.get(id(s.parent)), "info": s.info}) + "\n")


def self_times(spans) -> dict:
    """id(span) -> its duration minus the time its direct children cover.

    Children of one span run on the span's own thread, one after another, so
    the time they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(s): s.duration - covered[id(s)] for s in spans}


def _inside(span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


CLI_COMMANDS = ("subset", "augment", "embed", "select-best", "pairs", "eval-eer",
                "eval-cs", "eval-wer", "tsne", "vocode")

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("dataset.execute_plan.busy_s", "s"),
    ("dataset.execute_plan.self_s", "s"),
    ("dataset.jobs.attempted", "count"),
    ("dataset.jobs.written", "count"),
    ("dataset.jobs.skipped", "count"),
    ("dataset.jobs.failed", "count"),
    ("dataset.wav_reads_per_job", "1"),
    ("dataset.execute_plan.parallel_efficiency", "1"),
    ("dataset.select_best_augmented.busy_s", "s"),
    ("dataset.generate_eer_pairs.busy_s", "s"),
    ("dataset.load_manifest.busy_s", "s"),
    ("dataset.save_manifest.busy_s", "s"),
    ("psola.estimate_f0.calls", "count"),
    ("psola.estimate_f0.busy_s", "s"),
    ("psola.place_pitch_marks.calls", "count"),
    ("psola.place_pitch_marks.busy_s", "s"),
    ("psola.psola_modify.calls", "count"),
    ("psola.psola_modify.self_s", "s"),
    ("psola.analyses_per_parent", "1"),
    ("psola.output_samples_per_s", "1/s"),
    ("audio_io.read_wav.calls", "count"),
    ("audio_io.read_wav.busy_s", "s"),
    ("audio_io.read_wav.bytes", "B"),
    ("audio_io.write_wav.calls", "count"),
    ("audio_io.write_wav.busy_s", "s"),
    ("audio_io.write_wav.bytes", "B"),
    ("audio_io.speed_change.calls", "count"),
    ("audio_io.speed_change.busy_s", "s"),
    ("spectral.magnitude_spectrogram.calls", "count"),
    ("spectral.magnitude_spectrogram.busy_s", "s"),
    ("spectral.magnitude_spectrogram.frames", "count"),
    ("spectral.griffin_lim.busy_s", "s"),
    ("spectral.griffin_lim.per_iteration_s", "s"),
    ("spectral.griffin_lim.final_error", "1"),
    ("embedding.extract_standin_embedding.calls", "count"),
    ("embedding.extract_standin_embedding.self_s", "s"),
    ("embedding.save_embeddings.busy_s", "s"),
    ("embedding.load_embeddings.busy_s", "s"),
    ("embedding.load_embeddings.rows", "count"),
    ("embedding.select_k_nearest.calls", "count"),
    ("embedding.select_k_nearest.busy_s", "s"),
    ("embedding.cosine_similarity.calls", "count"),
    ("embedding.euclidean_distance.calls", "count"),
    ("metrics.load_pairs.busy_s", "s"),
    ("metrics.save_pairs.busy_s", "s"),
    ("metrics.score_pairs.busy_s", "s"),
    ("metrics.score_pairs.trials", "count"),
    ("metrics.equal_error_rate.busy_s", "s"),
    ("metrics.equal_error_rate.thresholds", "count"),
    ("metrics.batch_cs_loss.busy_s", "s"),
    ("metrics.word_error_rate.busy_s", "s"),
    ("metrics.word_error_rate.cells", "count"),
    ("metrics.word_error_rate.cells_per_s", "1/s"),
    ("tsne.conditional_probabilities.busy_s", "s"),
    ("tsne.kl_gradient.calls", "count"),
    ("tsne.kl_gradient.busy_s", "s"),
    ("tsne.run_tsne.self_s", "s"),
    ("tsne.run_tsne.final_kl", "1"),
    *[(f"cli.main.{c}.{stat}", "s") for c in CLI_COMMANDS for stat in ("busy_s", "self_s")],
    ("stage.augment_s", "s"),
    ("stage.augment_xrt", "s/s"),
    ("stage.resume_s", "s"),
    ("stage.embed_s", "s"),
    ("stage.select_s", "s"),
    ("stage.score_s", "s"),
    ("stage.tsne_s", "s"),
    ("stage.vocode_s", "s"),
    ("stage.wer_s", "s"),
    ("trace.overhead", "1"),
]

# Metrics that count work: they must repeat exactly between traced passes.
COUNT_METRICS = {name for name, unit in PER_LAYER if unit in ("count", "B")} | {
    "dataset.wav_reads_per_job", "psola.analyses_per_parent"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_metrics(spans, jobs_attempted: int, jobs_failed: int, parents: int) -> dict:
    """Per-layer metrics of one traced pass (all but stage.*, trace.* and
    parallel_efficiency, which come from untraced passes, and final_kl,
    which is computed from the t-SNE output)."""
    own = self_times(spans)
    calls, busy, selfs = defaultdict(int), defaultdict(float), defaultdict(float)
    info = defaultdict(lambda: defaultdict(float))
    reads_in_plan = writes_in_plan = 0
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.duration
        selfs[span.name] += own[id(span)]
        for key, value in (span.info or {}).items():
            if value is not None:
                info[span.name][key] += value
        if span.name in ("audio_io.read_wav", "audio_io.write_wav") and \
                _inside(span, "dataset.execute_plan"):
            if span.name == "audio_io.read_wav":
                reads_in_plan += 1
            else:
                writes_in_plan += 1

    m = {}
    for name, unit in PER_LAYER:
        key, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[key]
        elif stat == "busy_s":
            m[name] = busy[key]
        elif stat == "self_s":
            m[name] = selfs[key]
        elif key in info and stat in info[key]:
            m[name] = info[key][stat]
    gl_calls = calls["spectral.griffin_lim"]
    m.update({
        "dataset.jobs.attempted": jobs_attempted,
        "dataset.jobs.written": writes_in_plan,
        "dataset.jobs.skipped": jobs_attempted - writes_in_plan - jobs_failed,
        "dataset.jobs.failed": jobs_failed,
        "dataset.wav_reads_per_job": _ratio(reads_in_plan, jobs_attempted),
        "psola.analyses_per_parent": _ratio(calls["psola.estimate_f0"], parents),
        "psola.output_samples_per_s": _ratio(info["psola.psola_modify"]["samples"],
                                             busy["psola.psola_modify"]),
        "spectral.griffin_lim.per_iteration_s": _ratio(
            busy["spectral.griffin_lim"], info["spectral.griffin_lim"]["iterations"]),
        "spectral.griffin_lim.final_error": _ratio(
            info["spectral.griffin_lim"]["final_error"], gl_calls),
        "metrics.word_error_rate.cells_per_s": _ratio(
            info["metrics.word_error_rate"]["cells"], busy["metrics.word_error_rate"]),
    })
    for name, _ in PER_LAYER:
        m.setdefault(name, 0)
    return m
