"""Span recorder that times gradus layers from outside the program.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper that records one span: name, start, end, parent span and the id
of the phrase or request being processed. The wrapper is installed where
the caller looks the name up (for example ``gradus.sampler.qbar`` as well
as ``gradus.schedule.qbar``), so calls between modules are seen. Spans
stay in memory and are written out when the run ends; the per-layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

# Span fields, in the order a span list holds them.
NAME, START, END, PARENT, ITEM, EXTRA = range(6)

# Functions reported with calls, us_per_call and self_share.
TIMED = (
    "denoiser.forward",
    "denoiser.backward",
    "denoiser.Adam.step",
    "schedule.forward_sample",
    "schedule.qbar",
    "schedule.q_step",
    "schedule.transition_matrix",
    "kernels.reverse_mixture",
    "kernels.categorical_sample",
    "sampler.reverse_step",
    "sampler.scg_reverse_step",
    "sampler.generate_phrase",
    "rules.RuleContext.score",
    "kernels.count_violations",
    "rules.reject",
    "rules.all_violations",
    "rules.analyze_harmony",
    "rules.feasible_boundary_roots",
    "library.PhraseLibrary.build",
    "fusion.fuse",
    "rules.rule_loss",
    "fusion.realize_pitches",
    "midi.write_midi",
    "phrase.sample_rhythm",
    "graph.build_graph",
)

# (name, unit, better) of the metrics computed beside the TIMED triples.
DERIVED = (
    ("denoiser.forward.nodes_per_call", "count", "higher"),
    ("denoiser.forward.mflop_per_call", "MFLOP", "higher"),
    ("denoiser.forward_step.calls", "count", "lower"),
    ("denoiser.forward_score.calls", "count", "lower"),
    ("kernels.reverse_mixture.bytes_per_call", "bytes", "higher"),
    ("sampler.guidance.steps", "count", "lower"),
    ("sampler.guidance.candidates", "count", "lower"),
    ("sampler.guidance.improved_step_ratio", "ratio", "higher"),
    ("sampler.guidance.zero_loss_ratio", "ratio", "higher"),
    ("rules.reject.accept_ratio", "ratio", "higher"),
    ("rules.reject.hard_rule_ratio", "ratio", "lower"),
    ("rules.reject.no_reading_ratio", "ratio", "lower"),
    ("fusion.requests", "count", "higher"),
    ("fusion.pivot_select.calls", "1/request", "lower"),
    ("fusion.concatenate_degrees.calls", "1/request", "lower"),
    ("fusion.fuse.verify_pass_ratio", "ratio", "higher"),
    ("midi.write_midi.bytes_per_call", "bytes", "lower"),
    ("graph.ScoreGraph.with_x.calls", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for fn in TIMED:
        per = "us_per_phrase" if fn == "library.PhraseLibrary.build" else "us_per_call"
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.{per}", "us", "lower"))
        out.append((f"{fn}.self_share", "ratio", "lower"))
    out.extend(DERIVED)
    return out


class Tracer:
    """Span store plus the wrapper factory; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: Optional[int] = None

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[EXTRA] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute, span name, observe) target and
        restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, observe in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(name, raw.__func__, observe))
                else:
                    patched = self.wrap(name, raw, observe)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:EXTRA]) + "\n")


def gradus_targets(g, score_sink: Callable[[object, object, int], None]):
    """Wrap points for the gradus modules in namespace ``g``.

    ``score_sink(ctx, degrees, loss)`` receives every RuleContext.score
    call so that the caller can sample candidates for the oracle check.
    """

    def nodes(args, result):
        return args[1].n

    def rows(args, result):
        return args[0].shape[0]

    def score(args, result):
        score_sink(args[0], args[1], result)
        return result

    def verdict(args, result):
        if result.accepted:
            return "accepted"
        return "no_reading" if result.reasons == ("no harmonic reading",) else "hard_rule"

    def phrases(args, result):
        kept, dropped = result
        return len(kept) + len(dropped)

    def value(args, result):
        return result

    return [
        (g.denoiser.Denoiser, "forward", "denoiser.forward", nodes),
        (g.denoiser.Denoiser, "backward", "denoiser.backward", None),
        (g.denoiser.Adam, "step", "denoiser.Adam.step", None),
        (g.denoiser, "forward_sample", "schedule.forward_sample", None),
        (g.schedule, "qbar", "schedule.qbar", None),
        (g.sampler, "qbar", "schedule.qbar", None),
        (g.schedule, "q_step", "schedule.q_step", None),
        (g.sampler, "q_step", "schedule.q_step", None),
        (g.schedule, "transition_matrix", "schedule.transition_matrix", None),
        (g.kernels, "reverse_mixture", "kernels.reverse_mixture", rows),
        (g.kernels, "categorical_sample", "kernels.categorical_sample", None),
        (g.sampler, "reverse_step", "sampler.reverse_step", None),
        (g.sampler, "scg_reverse_step", "sampler.scg_reverse_step", None),
        (g.sampler, "generate_phrase", "sampler.generate_phrase", None),
        (g.rules.RuleContext, "score", "rules.RuleContext.score", score),
        (g.kernels, "count_violations", "kernels.count_violations", None),
        (g.library, "reject", "rules.reject", verdict),
        (g.rules, "all_violations", "rules.all_violations", None),
        (g.rules, "analyze_harmony", "rules.analyze_harmony", None),
        (g.rules, "feasible_boundary_roots", "rules.feasible_boundary_roots", None),
        (g.library.PhraseLibrary, "build", "library.PhraseLibrary.build", phrases),
        (g.fusion, "fuse", "fusion.fuse", None),
        (g.fusion, "pivot_select", "fusion.pivot_select", None),
        (g.fusion, "concatenate_degrees", "fusion.concatenate_degrees", None),
        (g.fusion, "rule_loss", "rules.rule_loss", value),
        (g.fusion, "realize_pitches", "fusion.realize_pitches", None),
        (g.midi, "write_midi", "midi.write_midi", None),
        (g.phrase, "sample_rhythm", "phrase.sample_rhythm", None),
        (g.sampler, "build_graph", "graph.build_graph", None),
        (g.graph.ScoreGraph, "with_x", "graph.ScoreGraph.with_x", None),
    ]


@dataclass(frozen=True)
class ForwardShape:
    """Denoiser size, for the computed FLOP count of one forward pass."""

    layers: int
    hidden: int
    mlp_ratio: int
    in_dim: int
    classes: int

    def flops(self, n: int) -> int:
        h = self.hidden
        per_layer = 2 * n * h * h * 4 + 2 * 2 * n * n * h + 2 * 2 * n * h * self.mlp_ratio * h
        return 2 * n * self.in_dim * h + self.layers * per_layer + 2 * n * h * self.classes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: list[list],
    wall_s: float,
    overhead: float,
    shape: ForwardShape,
    midi_bytes: list[int],
    classes: int,
) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics;
    ``overhead`` is traced over untraced time of the same items."""
    wall_ns = wall_s * 1e9
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        own[name] = own.get(name, 0) + dur - child_ns[i]

    out: dict[str, float] = {}
    for fn in TIMED:
        n = calls.get(fn, 0)
        if fn == "library.PhraseLibrary.build":
            cataloged = sum(s[EXTRA] for s in spans if s[NAME] == fn)
            out[f"{fn}.calls"] = n
            out[f"{fn}.us_per_phrase"] = _ratio(total.get(fn, 0) / 1e3, cataloged)
        else:
            out[f"{fn}.calls"] = n
            out[f"{fn}.us_per_call"] = _ratio(total.get(fn, 0) / 1e3, n)
        out[f"{fn}.self_share"] = _ratio(own.get(fn, 0), wall_ns)

    forward = [s for s in spans if s[NAME] == "denoiser.forward"]
    parent_name = [spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None for s in forward]
    nodes = [s[EXTRA] for s in forward]
    out["denoiser.forward.nodes_per_call"] = _ratio(sum(nodes), len(nodes))
    out["denoiser.forward.mflop_per_call"] = _ratio(sum(shape.flops(n) for n in nodes) / 1e6, len(nodes))
    out["denoiser.forward_step.calls"] = parent_name.count("sampler.generate_phrase")
    out["denoiser.forward_score.calls"] = parent_name.count("sampler.scg_reverse_step")

    mix_rows = [s[EXTRA] for s in spans if s[NAME] == "kernels.reverse_mixture"]
    # p_hat, x^t indices, three k x k transition matrices and the output.
    mix_bytes = [8 * (r * classes + r + 3 * classes * classes + r * classes) for r in mix_rows]
    out["kernels.reverse_mixture.bytes_per_call"] = _ratio(sum(mix_bytes), len(mix_bytes))

    scores_by_step: dict[int, list] = {}
    for s in spans:
        if s[NAME] == "rules.RuleContext.score" and s[PARENT] >= 0:
            if spans[s[PARENT]][NAME] == "sampler.scg_reverse_step":
                scores_by_step.setdefault(s[PARENT], []).append(s[EXTRA])
    candidates = [v for vals in scores_by_step.values() for v in vals]
    improved = sum(1 for vals in scores_by_step.values() if min(vals) < vals[0])
    out["sampler.guidance.steps"] = len(scores_by_step)
    out["sampler.guidance.candidates"] = len(candidates)
    out["sampler.guidance.improved_step_ratio"] = _ratio(improved, len(scores_by_step))
    out["sampler.guidance.zero_loss_ratio"] = _ratio(candidates.count(0), len(candidates))

    verdicts = [s[EXTRA] for s in spans if s[NAME] == "rules.reject"]
    for kind in ("accepted", "hard_rule", "no_reading"):
        key = "accept_ratio" if kind == "accepted" else f"{kind}_ratio"
        out[f"rules.reject.{key}"] = _ratio(verdicts.count(kind), len(verdicts))

    requests = calls.get("fusion.fuse", 0)
    verifies = [
        s[EXTRA] for s in spans
        if s[NAME] == "rules.rule_loss" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "fusion.fuse"
    ]
    out["fusion.requests"] = requests
    out["fusion.pivot_select.calls"] = _ratio(calls.get("fusion.pivot_select", 0), requests)
    out["fusion.concatenate_degrees.calls"] = _ratio(calls.get("fusion.concatenate_degrees", 0), requests)
    out["fusion.fuse.verify_pass_ratio"] = _ratio(verifies.count(0), len(verifies))
    out["midi.write_midi.bytes_per_call"] = _ratio(sum(midi_bytes), len(midi_bytes))
    out["graph.ScoreGraph.with_x.calls"] = calls.get("graph.ScoreGraph.with_x", 0)
    out["trace.overhead"] = overhead
    return out
