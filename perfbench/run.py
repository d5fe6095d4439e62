#!/usr/bin/env python3
"""gradus pipeline benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload generate_guided --seed 1 --seconds 30 --trace 0

Run it from the root of a gradus checkout; it imports ``src/gradus`` and
reads ``corpus/``. Workloads (see perfbench/README.md for why each one):

* ``generate_guided``: rule-guided generation (T=100, K=8) of phrases from
  drawn skeletons, each rejected and cataloged once.
* ``train``: whole training runs of the toy denoiser with validation.
* ``catalog_fuse``: catalog a library of clean phrases, then answer a
  stream of fusion requests, each written to MIDI.

With ``--trace 0`` the run measures for ``--seconds`` seconds and prints
every end-to-end metric. With ``--trace 1`` it runs each item twice, back
to back, untraced and with every layer wrapped, and prints the per-layer
metrics. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of
the run goes to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = HERE / "out"
TEMPLATES = HERE / "templates.json"  # the templates catalog_fuse draws from

# (name, unit, better) of the metrics bounded in BENCHMARK.json. Every
# workload reports all of them; what one "operation" is depends on the
# workload (see Workload.op_name).
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

TRAIN_SEED = 1  # the example checkpoint's seed (config.example.json)
HELD_OUT_SEED = 7919  # kept back for checking later claims; never tuned on
ORACLE_EVERY = 61  # sample every 61st RuleContext.score call in a traced pass


@dataclass(frozen=True)
class Size:
    T: int  # diffusion steps
    K: int  # guidance candidates per step
    epochs: int
    copies: int  # keys each corpus phrase appears in, in the fusion library
    setup_repeats: int
    import_repeats: int  # fresh interpreters whose import time is timed
    min_items: dict  # per workload: fixed prefix that the digest covers


FULL = Size(T=100, K=8, epochs=30, copies=5, setup_repeats=3, import_repeats=5,
            min_items={"generate_guided": 8, "train": 2, "catalog_fuse": 50})
TINY = Size(T=4, K=2, epochs=2, copies=1, setup_repeats=1, import_repeats=1,
            min_items={"generate_guided": 2, "train": 1, "catalog_fuse": 5})


def load_gradus() -> SimpleNamespace:
    import numpy
    import scipy

    import gradus
    from gradus import (
        denoiser, errors, fusion, graph, kernels, library, midi, phrase, pitch, rules,
        sampler, schedule,
    )

    if not Path(gradus.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gradus imported from {gradus.__file__}, not from {SRC}")
    return SimpleNamespace(
        np=numpy, scipy=scipy, gradus=gradus, denoiser=denoiser, errors=errors,
        fusion=fusion, graph=graph, kernels=kernels, library=library, midi=midi,
        phrase=phrase, pitch=pitch, rules=rules, sampler=sampler, schedule=schedule,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """One set of inputs made from the seed, plus how to run and check it.

    A pass runs ``run_item`` on items drawn in order from ``items()``;
    item i depends only on the seed and i, so a prefix of a pass is the
    same whatever the pass length.
    """

    name = ""
    op_name = ""

    def __init__(self, g, size: Size, seed: int, run_dir: Path):
        self.g, self.size, self.seed, self.run_dir = g, size, seed, run_dir
        self.min_items = size.min_items[self.name]
        self.rules = g.rules.RuleConfig()
        self.flags = g.graph.FeatureFlags()

    def setup(self):
        """Program set-up; timed. Returns a fingerprint that must repeat."""
        raise NotImplementedError

    def load(self, hp) -> None:
        """Corpus, noise schedule, marginal and training graphs."""
        g = self.g
        self.corpus = g.phrase.load_corpus(CORPUS)
        self.schedule = g.schedule.NoiseSchedule(T=hp.T, s=0.008)
        self.marginal = g.schedule.marginals(self.corpus)
        self.graphs = [g.graph.build_graph(p, self.flags) for p in self.corpus]

    def begin_pass(self, pass_dir: Path) -> None:
        """Work done at the start of every pass, inside its wall time."""
        self.pass_dir = pass_dir
        self.totals: dict = {}

    def setup_failures(self) -> list[str]:
        return []

    def check(self, rec) -> list[str]:
        raise NotImplementedError

    def settle(self, rec):
        """Check an item and fix its digest line."""
        rec.failures = self.check(rec)
        rec.digest = self.digest(rec)
        return rec

    def tally(self, rec) -> None:
        """Add a settled item to ``self.totals``, the only per-item state
        an untraced pass keeps, so memory does not grow with its length."""

    def digest_header(self) -> str:
        return ""

    def work(self, n: int) -> float:
        """Work units behind the throughput metric, for n items."""
        return n

    def attempted(self, n: int) -> int:
        return n


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


class GenerateGuided(Workload):
    name = "generate_guided"
    op_name = "phrase: skeleton draw, guided generation, rejection and catalog"

    def __init__(self, *a):
        super().__init__(*a)
        g = self.g
        self.hp = replace(g.denoiser.DenoiserHyperparams.toy(), T=self.size.T, epochs=self.size.epochs)
        self.guidance = g.sampler.GuidanceConfig(K=self.size.K, seed=self.seed)

    def setup(self):
        g = self.g
        self.load(self.hp)
        self.denoiser = g.denoiser.Denoiser(self.hp)
        result = g.denoiser.train(
            self.denoiser, self.graphs, self.schedule, self.marginal,
            g.np.random.default_rng(TRAIN_SEED),
        )
        self.params, self.history = result.params, result.history
        return hashlib.sha256(b"".join(self.params[k].tobytes() for k in sorted(self.params))).hexdigest()

    def digest_header(self) -> str:
        return repr(self.history)

    def items(self):
        """(corpus phrase, random stream) per phrase. The skeleton sources
        run through the corpus in seed-shuffled rounds, so runs of any
        length see nearly the same mix of skeleton sizes, which sets the
        cost of a phrase."""
        np = self.g.np
        root = np.random.SeedSequence(self.seed)
        order = np.random.default_rng([self.seed, 1])
        while True:
            for source in order.permutation(len(self.corpus)):
                yield int(source), root.spawn(1)[0]

    def run_item(self, i, item):
        g = self.g
        source, stream = item
        rng = g.np.random.default_rng(stream)
        skeleton = g.phrase.sample_rhythm([self.corpus[source]], "whole-phrase", rng, measures=2)
        out = g.sampler.generate_phrase(
            skeleton, self.denoiser, self.params, self.schedule, self.marginal, self.guidance,
            rule_config=self.rules, flags=self.flags, rng=rng,
        )
        kept, dropped = g.library.PhraseLibrary.build([out], config=self.rules)
        return SimpleNamespace(
            skeleton=skeleton, phrase=out,
            entry=kept[0][1] if len(kept) else None,
            reasons=dropped[0][1].reasons if dropped else (),
        )

    def check(self, rec) -> list[str]:
        g, p, sk = self.g, rec.phrase, rec.skeleton
        fails = []
        rhythm = [(e.voice, e.onset, e.duration, e.tie) for e in p.events]
        if rhythm != [(e.voice, e.onset, e.duration, e.tie) for e in sk.events]:
            fails.append("generated phrase changed its skeleton's rhythm")
        if (p.voices, p.meter) != (sk.voices, sk.meter):
            fails.append("generated phrase changed its skeleton's voices or meter")
        if any(e.degree is None for e in p.events):
            fails.append("generated phrase kept a placeholder event")
            return fails
        clean = g.rules.rule_loss(p, self.rules) == 0
        readable = bool(g.rules.analyze_harmony(p, config=self.rules))
        if rec.entry is not None and not (clean and readable):
            fails.append(f"accepted phrase has rule_loss>0 or no reading ({clean=}, {readable=})")
        if rec.entry is None and clean and readable:
            fails.append("rejected a clean phrase that has a harmonic reading")
        return fails

    def digest(self, rec) -> str:
        return json.dumps([[str(e.degree) for e in rec.phrase.events], _entry(rec.entry), rec.reasons])

    def tally(self, rec) -> None:
        self.totals["accepted"] = self.totals.get("accepted", 0) + (rec.entry is not None)

    def summary(self, n, wall, latencies, setup_s) -> list:
        accepted = self.totals.get("accepted", 0)
        return [
            ("phrases_per_s", n / wall, "1/s", f"{n} phrases in {wall:.3f} s"),
            ("accepted_phrases_per_s", accepted / wall, "1/s", f"{accepted} accepted"),
            ("accept_ratio", accepted / n, "ratio", f"base {n} phrases"),
            *_latency_rows("phrase_latency", latencies),
        ]


class Train(Workload):
    name = "train"
    op_name = "training run: every epoch of noise, forward, backward and Adam, with validation"

    def __init__(self, *a):
        super().__init__(*a)
        self.hp = replace(
            self.g.denoiser.DenoiserHyperparams.toy(), T=self.size.T, epochs=self.size.epochs
        )

    def setup(self):
        self.load(self.hp)
        n = len(self.graphs)
        n_train = n - min(int(round(self.hp.val_split * n)), n - 1)
        self.steps_per_run = self.hp.epochs * math.ceil(n_train / self.hp.batch_size)
        return sum(gr.n for gr in self.graphs)

    def items(self):
        root = self.g.np.random.SeedSequence(self.seed)
        while True:
            yield root.spawn(1)[0]

    def run_item(self, i, stream):
        g = self.g
        result = g.denoiser.train(
            g.denoiser.Denoiser(self.hp), self.graphs, self.schedule, self.marginal,
            g.np.random.default_rng(stream),
        )
        return SimpleNamespace(history=result.history, params=result.params)

    def check(self, rec) -> list[str]:
        h = rec.history
        fails = []
        if [e for e, _, _ in h] != list(range(1, self.hp.epochs + 1)):
            fails.append("loss history does not cover every epoch")
        if not all(math.isfinite(x) for _, tl, vl in h for x in (tl, vl)):
            fails.append("non-finite loss")
        elif h[-1][1] >= h[0][1]:
            fails.append(f"train loss did not fall: {h[0][1]:.4f} -> {h[-1][1]:.4f}")
        if not all(self.g.np.isfinite(w).all() for w in rec.params.values()):
            fails.append("non-finite parameters")
        return fails

    def digest(self, rec) -> str:
        return repr(rec.history)

    def tally(self, rec) -> None:
        self.totals.setdefault("val_loss", []).append(rec.history[-1][2])

    def work(self, n: int) -> float:
        return self.steps_per_run * n

    def summary(self, n, wall, latencies, setup_s) -> list:
        steps = self.work(n)
        val = statistics.median(self.totals["val_loss"])
        return [
            ("train_steps_per_s", steps / wall, "1/s", f"{steps} steps in {n} runs, {wall:.3f} s"),
            ("train_val_loss", val, "nats/node", f"median final validation loss of {n} runs"),
            *_latency_rows("train_run_latency", latencies),
        ]


class CatalogFuse(Workload):
    name = "catalog_fuse"
    op_name = "fusion request: template draw, search, pitch realization and MIDI file"

    # Transpositions (letter shift, semitones) that enlarge the library.
    SHIFTS = ((0, 0), (4, 7), (3, 5), (1, 2), (5, 9))
    # A traced run catalogs again as its traced runs begin, so that rejection is traced.
    rebuild_in_pass = False

    def __init__(self, *a):
        super().__init__(*a)
        g = self.g
        np = g.np
        corpus = g.phrase.load_corpus(CORPUS)
        encoded = [
            replace(p, events=tuple(replace(e, degree=e.degree_in(p.key), pitch=None) for e in p.events))
            for p in corpus
        ]
        shifts = [g.pitch.Interval(*s) for s in self.SHIFTS[: self.size.copies]]
        phrases = [(c, i, g.phrase.transpose_phrase(p, iv)) for c, iv in enumerate(shifts)
                   for i, p in enumerate(encoded)]
        order = np.random.default_rng([self.seed, 1]).permutation(len(phrases))
        self.origin = [phrases[j][:2] for j in order]
        self.inputs = [phrases[j][2] for j in order]
        self.templates = g.fusion.templates_from_json(json.loads(TEMPLATES.read_text()))
        self.home = g.pitch.KeyContext("C", 0, "major")
        self.profiles = g.fusion.default_profiles(corpus[0].voices)
        self.grammar = g.rules.ProgressionGrammar()
        # (template, hash of fused score) -> re-check result; equal scores recur.
        self.clean: dict = {}

    def setup(self):
        """Catalog the library: the set-up of a fusion service."""
        self.library, self.dropped = self.g.library.PhraseLibrary.build(self.inputs, config=self.rules)
        return (tuple(_entry(e) for _, e in self.library), len(self.dropped))

    def begin_pass(self, pass_dir):
        super().begin_pass(pass_dir)
        if self.rebuild_in_pass:
            self.setup()

    def setup_failures(self) -> list[str]:
        fails = [f"clean library phrase rejected: {r.reasons}" for _, r in self.dropped]
        if fails:
            return fails
        first = {}
        for (copy, src), (_, entry) in zip(self.origin, self.library):
            if first.setdefault(src, entry) != entry:
                fails.append(f"corpus phrase {src}: copy {copy} cataloged differently")
        return fails

    def digest_header(self) -> str:
        return json.dumps([_entry(e) for _, e in self.library])

    def items(self):
        """Request seeds. As in ``gradus fuse``, one stream per request
        draws the template (uniformly, ``sample_structure``) and then
        drives the search."""
        rng = self.g.np.random.default_rng([self.seed, 2])
        while True:
            yield int(rng.integers(2**63))

    def run_item(self, i, request_seed):
        g = self.g
        rng = g.np.random.default_rng(request_seed)
        template = g.fusion.sample_structure(self.templates, rng)
        path = self.pass_dir / f"request-{i:05d}.mid"
        rec = SimpleNamespace(template=template, path=path, score=None, plan=None, error=None)
        try:
            rec.score, rec.plan = g.fusion.fuse(
                template, self.library, self.profiles, grammar=self.grammar,
                rng=rng, home=self.home, rule_config=self.rules,
            )
            g.midi.write_midi(rec.score, path)
            rec.outcome = "fused"
        except g.errors.FusionInfeasibleError as exc:
            rec.outcome = f"infeasible@{exc.slot_index}"
            rec.slot = exc.slot_index
        except Exception:  # any other exception is a failed request, not a crash
            rec.outcome = "error"
            rec.error = traceback.format_exc(limit=3)
        return rec

    def check(self, rec) -> list[str]:
        g = self.g
        if rec.outcome == "error":
            return [f"request raised: {rec.error.strip().splitlines()[-1]}"]
        if rec.outcome != "fused":
            if not 1 <= rec.slot <= len(rec.template.slots):
                return [f"infeasible at slot {rec.slot} of {len(rec.template.slots)}"]
            return []
        fails = []
        slots = rec.template.slots
        if len(rec.score.phrases) != len(slots) or rec.plan.template != rec.template:
            fails.append("fused score does not fill its template")
        if not all(p.is_realized() for p in rec.score.phrases):
            fails.append("fused score is not realized")
            return fails
        key = (rec.template.name, hash(rec.score))
        if key not in self.clean:
            full = g.fusion.concatenate_degrees(rec.score.phrases, self.home, [s.local_key for s in slots])
            self.clean[key] = g.rules.rule_loss(full, self.rules) == 0
        if not self.clean[key]:
            fails.append("fused score breaks a hard rule as concatenated degrees")
        expected = {}
        for voice, start, dur, pitch in g.midi.score_note_events(rec.score):
            expected.setdefault(voice, []).append((pitch, start, dur))
        tracks = g.midi.read_midi_notes(rec.path)
        if [sorted(expected.get(v, [])) for v in range(len(tracks))] != tracks:
            fails.append("MIDI file does not round-trip to the score's note events")
        return fails

    def digest(self, rec) -> str:
        parts = [rec.template.name, rec.outcome]
        if rec.outcome == "fused":
            parts += [rec.plan.to_dict(), hashlib.sha256(rec.path.read_bytes()).hexdigest()]
        return json.dumps(parts)

    def settle(self, rec):
        rec = super().settle(rec)
        if rec.outcome == "fused":
            rec.midi_bytes = rec.path.stat().st_size
            rec.path.unlink()
        rec.score = rec.plan = None
        return rec

    def tally(self, rec) -> None:
        per = self.totals.setdefault(rec.template.name, {})
        per[rec.outcome] = per.get(rec.outcome, 0) + 1

    def attempted(self, n: int) -> int:
        return len(self.inputs) + n

    def summary(self, n, wall, latencies, setup_s) -> list:
        n_lib = len(self.inputs)
        return [
            ("catalog_phrases_per_s", n_lib / statistics.median(setup_s), "1/s",
             f"{n_lib} phrases, median of {len(setup_s)} catalogs"),
            ("fuse_requests_per_s", n / wall, "1/s", f"{n} requests in {wall:.3f} s"),
            *_latency_rows("fuse_latency", latencies),
            ("fuse_outcomes", self.totals, "count", "per template"),
        ]


WORKLOADS = {w.name: w for w in (GenerateGuided, Train, CatalogFuse)}


def _entry(entry):
    if entry is None:
        return None
    return [sorted(entry.start_roots), sorted(entry.end_roots), entry.final_root,
            str(entry.final_treble), entry.mode, entry.cadence]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def tail(values):
    """(percentile, value) at the highest whole percentile that leaves at
    least ten samples above it, by nearest rank; None below 20 samples."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def _latency_rows(prefix, latencies):
    n = len(latencies)
    rows = [(f"{prefix}_p50_s", statistics.median(latencies), "s", f"n={n}")]
    t = tail(latencies)
    if t is None:
        rows.append((f"{prefix}_tail_s", None, "s", f"n={n}: fewer than 20 samples, no tail"))
    else:
        rows.append((f"{prefix}_tail_s", t[1], "s", f"p{t[0]}, n={n}"))
    return rows


class Clock:
    """Machine-speed reference for calibrated timings.

    A shared machine's speed drifts by tens of percent over seconds (a
    fixed pure-Python loop measured 20 to 30 ms per second-long window on
    the recording machine), which swamps the run-to-run differences the
    benchmark must resolve. The reference kernel is fixed benchmark code
    with the program's mix of small numpy calls and Python-level loops.
    It is timed three times at operation boundaries, and the wall time
    of the work between two boundaries is rescaled by NOMINAL_S over the
    median of the six timings, so a uniform slow-down cancels while a
    change in the program does not.
    """

    NOMINAL_S = 0.005  # about the reference time on a quiet core; fixes the unit only
    EVERY_S = 0.5  # reference sample at the first operation boundary after this

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np, self.a, self.w = np, rng.random((16, 32)), rng.random((32, 32))
        self.samples: list[float] = []
        self._kernel()

    def _kernel(self) -> float:
        np, acc = self.np, 0.0
        for i in range(150):
            x = self.a @ self.w
            x = np.exp(x - x.max(axis=1, keepdims=True))
            acc += float((x / x.sum(axis=1, keepdims=True))[0, 0])
            acc += float(Fraction(i, 7) + Fraction(1, 3))
            for j in range(60):
                acc += j * 0.5
        return acc

    def reference(self) -> list[float]:
        """Three timings of the reference kernel, in seconds."""
        times = [_timed(self._kernel)[0] for _ in range(3)]
        self.samples += times
        return times

    def scale(self, before: list[float], after: list[float]) -> float:
        """Factor for wall time spent between two reference samples."""
        return self.NOMINAL_S / statistics.median(before + after)


class Ledger:
    """Settles the items of a pass in item order: checks them, tallies
    them and hashes their digest lines."""

    def __init__(self, w: Workload):
        self.w = w
        self.failures: list = []  # (item, message) of every failed check
        self.prefix = hashlib.sha256(w.digest_header().encode())  # first min_items items
        self.whole = self.prefix.copy()  # every item

    def add(self, i: int, rec) -> None:
        w = self.w
        w.settle(rec)
        w.tally(rec)
        self.failures.extend((i, msg) for msg in rec.failures)
        line = b"\n" + rec.digest.encode()
        self.whole.update(line)
        if i < w.min_items:
            self.prefix.update(line)


@dataclass
class Pass:
    """What a pass leaves behind."""

    n: int  # items run
    failures: list  # (item, message) of every failed check
    digest: str  # over the digest header and the first min_items items
    raw: list  # wall time of each item
    calibrated: list  # calibrated time of each item


def run_pass(w: Workload, pass_dir: Path, seconds: float, clock: Clock) -> Pass:
    """Run items until their measured time reaches ``seconds`` and at
    least the digest prefix is done. Each item is settled as it finishes,
    outside the measured time, and then dropped."""
    pass_dir.mkdir(parents=True)
    raw, calibrated, pending = [], [], []
    items = w.items()
    ref, last_ref = clock.reference(), time.perf_counter()
    w.begin_pass(pass_dir)
    ledger = Ledger(w)
    n, measured = 0, 0.0
    while n < w.min_items or measured < seconds:
        item = next(items)
        t = time.perf_counter()
        rec = w.run_item(n, item)
        raw.append(time.perf_counter() - t)
        measured += raw[-1]
        ledger.add(n, rec)
        n += 1
        pending.append(raw[-1])
        if time.perf_counter() - last_ref >= clock.EVERY_S:
            new = clock.reference()
            calibrated += [dt * clock.scale(ref, new) for dt in pending]
            pending, ref, last_ref = [], new, time.perf_counter()
    if pending:
        new = clock.reference()
        calibrated += [dt * clock.scale(ref, new) for dt in pending]
    return Pass(n, ledger.failures, ledger.prefix.hexdigest(), raw, calibrated)


def traced_pass(w: Workload, pass_dir: Path, seconds: float, tracer, targets):
    """Run each item twice, untraced and with ``targets`` wrapped, until
    the untraced runs' time reaches ``seconds`` and at least the digest
    prefix is done.

    The two runs of an item are adjacent, in alternating order, so they
    see nearly the same machine speed and the ratio of their times is the
    tracing overhead. Untraced runs are settled as they finish; traced
    runs are kept for the oracle and settled once the wrappers are gone.
    ``begin_pass`` runs traced. Returns the traced pass, the wall time
    of its traced work, the untraced and traced ledgers, the untraced
    item times and the traced records."""
    dirs = {False: pass_dir / "untraced", True: pass_dir / "traced"}
    for d in dirs.values():
        d.mkdir(parents=True)
    with tracer.installed(targets):
        t = time.perf_counter()
        w.begin_pass(dirs[True])
        wall = time.perf_counter() - t
    items = w.items()
    plain, traced_raw, plain_raw, kept = Ledger(w), [], [], []
    n = 0
    while n < w.min_items or sum(plain_raw) < seconds:
        item = next(items)
        for traced in (n % 2 == 1, n % 2 == 0):
            tracer.item = n
            w.pass_dir = dirs[traced]  # the runs' files must not collide
            with tracer.installed(targets) if traced else contextlib.nullcontext():
                t = time.perf_counter()
                rec = w.run_item(n, item)
                dt = time.perf_counter() - t
            if traced:
                traced_raw.append(dt)
                kept.append(rec)
            else:
                plain_raw.append(dt)
                plain.add(n, rec)
        n += 1
    ledger = Ledger(w)
    for i, rec in enumerate(kept):
        ledger.add(i, rec)
    p = Pass(n, ledger.failures + plain.failures, ledger.prefix.hexdigest(), traced_raw, [])
    return p, wall + sum(traced_raw), plain, ledger, plain_raw, kept


def machine(g) -> dict:
    import ctypes
    import importlib.util

    blas = {}
    try:
        blas = g.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                threads = int(getattr(dll, sym)())
                break
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": g.np.__version__,
        "scipy": g.scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "gradus_kernels_USE_NUMBA": bool(g.kernels.USE_NUMBA),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "gradus" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"error: {SRC / 'gradus'} or {CORPUS} is missing; run from a gradus checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(SRC))
    try:
        g = load_gradus()
    except ImportError as exc:
        print(f"error: cannot import gradus: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    size = FULL if args.size == "full" else TINY
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(g, WORKLOADS[args.workload](g, size, args.seed, run_dir), args, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["machine"] = machine(g)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"  operation: {WORKLOADS[args.workload].op_name}")
    print(f"  operations: attempted {result['attempted']}, succeeded "
          f"{result['attempted'] - result['failed']}, failed {result['failed']}")
    for msg in result["failures"][:10]:
        print(f"  FAILED: {msg}")
    print(f"  digest: {result['digest']}")
    print(f"  machine: {json.dumps(result['machine'])}")
    for name, value, unit, note in result["report"]:
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        print(f"  {name:32s} {shown} {unit}  ({note})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


# Times, in a fresh interpreter, the imports a run makes before its set-up
# (run.py's own, then numpy, scipy and gradus). Arguments: path entries.
IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import run
run.load_gradus()
print(time.perf_counter() - t)
"""


def import_times(repeats: int) -> list[float]:
    """Import times of ``repeats`` fresh interpreters, one at a time; a
    run imports only once, so its own import time is a single sample.

    They are not calibrated: on the recording machine import time ranged
    from 0.32 to 0.62 s independently of the reference kernel's speed, and
    scaling it by the reference widened its spread over runs."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def measure(g, w: Workload, args, import_s: float) -> dict:
    clock = Clock(g.np)
    ref = clock.reference()
    setup_s, setup_raw, prints = [], [], []
    for _ in range(1 if args.trace else w.size.setup_repeats):
        dt, fingerprint = _timed(w.setup)
        new = clock.reference()
        setup_raw.append(dt)
        setup_s.append(dt * clock.scale(ref, new))
        prints.append(fingerprint)
        ref = new
    run_failures = list(w.setup_failures())
    if any(p != prints[0] for p in prints):
        run_failures.append("set-up is not deterministic across repeats")

    extra = {}
    if not args.trace:
        imports = import_times(w.size.import_repeats)
        p = run_pass(w, w.run_dir / "pass", seconds=args.seconds, clock=clock)
        cal = p.calibrated
        report = w.summary(p.n, sum(cal), cal, setup_s)
        metrics = {
            "throughput_per_s": w.work(p.n) / sum(cal),
            "latency_p50_ms": 1e3 * statistics.median(cal),
            "setup_s": statistics.median(imports) + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report += [(name, metrics[name], unit, "bounded") for name, unit, _ in END_TO_END]
        refs = clock.samples
        report += [
            ("wall_throughput_per_s", w.work(p.n) / sum(p.raw), "1/s", "uncalibrated"),
            ("wall_latency_p50_ms", 1e3 * statistics.median(p.raw), "ms", "uncalibrated"),
            ("wall_setup_s", statistics.median(imports) + statistics.median(setup_raw), "s",
             "uncalibrated"),
            ("reference_ms", 1e3 * statistics.median(refs), "ms",
             f"{len(refs)} samples, {1e3 * min(refs):.3f} to {1e3 * max(refs):.3f} ms"),
        ]
        extra = {"latencies_s": p.raw, "calibrated_latencies_s": cal, "reference_s": refs,
                 "import_probe_s": imports}
    else:
        p, metrics, report, extra = traced(g, w, args, run_failures)

    item_failures = {}
    for i, msg in p.failures + extra.pop("item_failures", []):
        item_failures.setdefault(i, []).append(msg)
    failures = [f"item {i}: {m}" for i, ms in sorted(item_failures.items()) for m in ms]
    failures += run_failures
    attempted = w.attempted(p.n)
    failed = min(attempted, len(item_failures) + len(run_failures))
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": p.digest,
        "digest_items": w.min_items,
        "items": p.n,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "report": report,
        "import_s": import_s,
        "setup_runs_s": setup_raw,
        "held_out_seed": HELD_OUT_SEED,
        **extra,
    }


def _unit(name):
    for n, unit, _ in (*END_TO_END, *tr.per_layer_spec()):
        if n == name:
            return unit
    raise KeyError(name)


def traced(g, w: Workload, args, run_failures):
    """Interleaved untraced and traced runs of the same items, for half
    the run; per-layer metrics come from the traced runs only."""
    np = g.np
    if isinstance(w, CatalogFuse):
        w.rebuild_in_pass = True
    tracer = tr.Tracer()
    samples, seen = [], [0]

    def score_sink(ctx, degrees, loss):
        seen[0] += 1
        if seen[0] % ORACLE_EVERY == 0:
            samples.append((tracer.item, np.array(degrees, dtype=np.int64), loss))

    p, wall, plain, ledger, plain_raw, records = traced_pass(
        w, w.run_dir / "traced", args.seconds / 2, tracer, tr.gradus_targets(g, score_sink))
    if ledger.whole.hexdigest() != plain.whole.hexdigest():
        run_failures.append("traced runs gave other outputs than the untraced runs")

    item_failures = []
    for item, degrees, loss in samples:
        phrase = g.graph.rebuild_phrase(records[item].skeleton, [g.pitch.DEGREES[d] for d in degrees])
        expected = g.rules.rule_loss(phrase, w.rules)
        if expected != loss:
            item_failures.append((item, f"RuleContext.score gave {loss}, rule_loss gives {expected}"))

    midi_bytes = [r.midi_bytes for r in records if getattr(r, "outcome", None) == "fused"]
    hp = getattr(w, "hp", g.denoiser.DenoiserHyperparams.toy())
    classes = g.pitch.NUM_DEGREE_CLASSES
    shape = tr.ForwardShape(hp.layers, hp.hidden_dim, hp.mlp_ratio,
                            classes + len(w.flags.names), classes)
    overhead = sum(p.raw) / sum(plain_raw)
    metrics = tr.per_layer_metrics(tracer.spans, wall, overhead, shape, midi_bytes, classes)
    tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
    report = [
        ("traced_wall_s", wall, "s", f"{p.n} items"),
        ("untraced_wall_s", sum(plain_raw), "s", "same items, each run next to its traced run"),
        ("spans", len(tracer.spans), "count", "kept in memory, written at the end"),
        ("oracle_samples", len(samples), "count", f"every {ORACLE_EVERY}th RuleContext.score call"),
    ]
    report += [(name, metrics[name], unit, "per layer") for name, unit, _ in tr.per_layer_spec()]
    extra = {"item_failures": item_failures, "untraced_digest_all": plain.whole.hexdigest(),
             "oracle_samples": len(samples)}
    return p, metrics, report, extra


if __name__ == "__main__":
    sys.exit(main())
