"""Counterpoint and harmony engine.

Both rule families read one time grid per phrase. The tied notes are
merged once and laid on integer ticks as ``NodeTicks``, and ``_grid``
lays those nodes once on a grid with a row at every attack onset and
every integer beat; ``build_rule_context`` does both for a phrase, and
``tick_loss`` runs ``_grid`` on nodes already on ticks, as fusion
concatenates its phrases' nodes. The hard rules' one evaluator,
``kernels.violation_masks``, reads the attack and strong-beat rows:
guidance counts a candidate's violations with ``RuleContext.score``,
``all_violations`` locates them for rejection reports and ``tick_loss``
counts them for fusion's plan check. ``_segment_readings`` reads the
integer-beat rows of a context: per beat, the legal chords that can
read it, from a per-mode table of chord tone classes. The best readings
(a beam search) and the exact boundary roots (reachability over root
sets) both come from that one pass, in ``reject`` and in the analysis
calls ``analyze_harmony`` and ``feasible_boundary_roots`` alike.

Interval classes are computed from scale degrees modulo octave, so the
checks apply equally to degree-encoded and realized phrases.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import PhraseValidationError
from .graph import GraphNode, merge_tied
from .phrase import Phrase, metric_strength
from .pitch import DEGREE_INDEX, DEGREE_LETTER, DEGREE_SEMIS, REST_INDEX, Degree, parse_degree


@dataclass(frozen=True)
class Violation:
    rule: str  # "parallel-fifths" | "parallel-octaves" | "strong-beat-second" | ...
    onset: Fraction
    voices: tuple[int, ...]
    description: str

    def __str__(self) -> str:
        return f"{self.rule} at beat {self.onset} (voices {','.join(map(str, self.voices))})"


@dataclass(frozen=True)
class RuleConfig:
    parallels: bool = True
    dissonance: bool = True
    repetition: bool = True
    repetition_threshold: int = 4
    strong_beat_cutoff: float = 0.5

    def __post_init__(self):
        if self.repetition_threshold < 2:
            raise PhraseValidationError("repetition threshold must be at least 2")
        # Strong positions are enumerated on the integer beat grid, which
        # is only exhaustive while off-beat subdivisions stay below cutoff.
        if not 0.125 < self.strong_beat_cutoff <= 1.0:
            raise PhraseValidationError("strong beat cutoff must lie in (0.125, 1]")


class NodeTicks(NamedTuple):
    """Merged nodes on integer ticks, ``tick`` to the beat, in a phrase
    whose span reaches n_beats integer beats: the one layout the grid is
    built from, for a phrase's own nodes and for fusion's concatenated
    plans alike."""

    tick: int
    voice: np.ndarray  # per node
    start: np.ndarray  # per node, in ticks
    end: np.ndarray  # per node, in ticks
    n_beats: int


def _node_ticks(nodes: Sequence[GraphNode], span: Fraction) -> NodeTicks:
    """A phrase's merged nodes, of this span, on integer ticks: ``tick`` is
    the lcm of the node onset and duration denominators."""
    tick = math.lcm(*(q.denominator for nd in nodes for q in (nd.onset, nd.duration)))
    n_beats = math.ceil(span)
    _check_ticks(tick, n_beats)
    voice = np.array([nd.voice for nd in nodes])
    start = np.array([nd.onset.numerator * (tick // nd.onset.denominator) for nd in nodes])
    end = start + [nd.duration.numerator * (tick // nd.duration.denominator) for nd in nodes]
    return NodeTicks(tick, voice, start, end, n_beats)


def _check_ticks(tick: int, n_beats: int) -> None:
    """Refuse a grid of n_beats beats whose ticks would not fit int64."""
    if tick * n_beats > np.iinfo(np.int64).max:  # int64 tick arithmetic would wrap
        raise PhraseValidationError(f"onsets and durations too fine for the rule grid (1/{tick} beat)")


def _grid(
    ticks: NodeTicks, meter: tuple[int, int], n_voices: int, cutoff: float
) -> tuple[np.ndarray, kernels.SkeletonArrays]:
    """The nodes laid once on a grid with a row at every attack onset and
    every integer beat, a beat being strong where its metric strength
    reaches cutoff. Returns the times, in ticks, of the hard rules' rows
    (attacks and strong beats) and the evaluators' arrays: those rows for
    the hard rules, the integer-beat rows for the harmony pass."""
    tick, voice, start, end, n_beats = ticks
    # Metric strength repeats every bar.
    bar = np.array([metric_strength(k, meter) >= cutoff for k in range(meter[0])])
    strong = bar[np.arange(n_beats) % meter[0]]
    times = np.union1d(start, np.arange(n_beats) * tick)
    # A node covers the run of rows from its onset up to its end.
    lo, hi = np.searchsorted(times, start), np.searchsorted(times, end)
    runs = hi - lo
    rows = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs - lo, runs)
    sounding = np.full((len(times), n_voices), len(voice))
    sounding[rows, np.repeat(voice, runs)] = np.repeat(np.arange(len(voice)), runs)
    attacked = np.zeros(sounding.shape, dtype=bool)
    attacked[lo, voice] = True
    on_beat = times % tick == 0
    strong_row = on_beat & strong[times // tick]
    beat_sounding = sounding[on_beat]
    hard = attacked.any(axis=1) | strong_row
    sounding, attacked, strong_row = sounding[hard], attacked[hard], strong_row[hard]
    upper, lower = kernels.voice_pairs(n_voices)
    chains = np.argsort(voice, kind="stable")
    chain_voices = voice[chains]
    return times[hard], kernels.SkeletonArrays(
        sounding=sounding,
        attacked=attacked,
        pair_upper=sounding[:, upper],
        pair_lower=sounding[:, lower],
        pair_attacked=attacked[1:, upper] & attacked[1:, lower],
        strong_upper=np.where(strong_row[:, None], sounding[:, :-1], len(voice)),
        strong_bass=sounding[:, -1:],
        chains=chains,
        voice_starts=np.flatnonzero(chain_voices[1:] != chain_voices[:-1]) + 1,
        beat_sounding=beat_sounding,
        beat_strong=strong,
    )


# ----------------------------------------------------------------------
# Array context for kernels.violation_masks and the harmony pass
# ----------------------------------------------------------------------

# What each pair of degree classes means to the rules, built once.
_PAIR_TABLES = kernels.pair_tables(DEGREE_LETTER, DEGREE_SEMIS)


@dataclass(frozen=True)
class RuleContext:
    """Both rule families' view of one skeleton, built once per skeleton by
    ``build_rule_context``: the grid arrays, the hard-rule rows' times in
    ticks and the graph nodes that locate their hits, and the key's mode.

    score() counts the violations of a per-node degree assignment. Guided
    sampling calls it once per scored candidate, up to K times a step,
    and many candidates' estimates repeat an assignment already scored on
    the skeleton, so each distinct assignment is evaluated once and its
    count kept."""

    arrays: kernels.SkeletonArrays
    config: RuleConfig
    grid: tuple[int, ...]
    tick: int
    nodes: tuple[GraphNode, ...]
    mode: str
    _scores: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def score(self, degree_indices: np.ndarray) -> int:
        deg = np.asarray(degree_indices, dtype=np.int64)
        key = deg.tobytes()
        loss = self._scores.get(key)
        if loss is None:
            loss = kernels.count_violations(deg, self.arrays, _PAIR_TABLES, self.config)
            self._scores[key] = loss
        return loss


def build_rule_context(skeleton: Phrase, config: RuleConfig = RuleConfig()) -> RuleContext:
    nodes = merge_tied(skeleton)
    ticks = _node_ticks(nodes, skeleton.span)
    times, arrays = _grid(ticks, skeleton.meter, len(skeleton.voices), config.strong_beat_cutoff)
    return RuleContext(
        arrays=arrays,
        config=config,
        grid=tuple(times.tolist()),
        tick=ticks.tick,
        nodes=tuple(nodes),
        mode=skeleton.key.mode,
    )


def tick_loss(
    classes: np.ndarray, ticks: NodeTicks, meter: tuple[int, int], n_voices: int,
    config: RuleConfig = RuleConfig(),
) -> int:
    """``rule_loss`` of merged nodes laid on integer ticks, with their
    degree classes, in a phrase of the meter with n_voices voices. It
    reads the grid of ``build_rule_context`` and needs no phrase, and
    refuses a grid too fine for int64 with the error ``rule_loss`` raises."""
    _check_ticks(ticks.tick, ticks.n_beats)
    _, arrays = _grid(ticks, meter, n_voices, config.strong_beat_cutoff)
    return kernels.count_violations(classes, arrays, _PAIR_TABLES, config)


def all_violations(
    phrase: Phrase, config: RuleConfig = RuleConfig(), *, ctx: Optional[RuleContext] = None
) -> list[Violation]:
    """Located hard-rule violations: parallels by voice pair, then time;
    strong-beat dissonances by time, then upper voice; repetitions by voice,
    then run. Placeholder degrees count as rests. ``ctx``, when given, is
    ``build_rule_context(phrase, config)`` already built by the caller."""
    if ctx is None:
        ctx = build_rule_context(phrase, config)
    nodes, voices = ctx.nodes, phrase.voices
    deg = np.array(
        [REST_INDEX if nd.degree is None else DEGREE_INDEX[nd.degree] for nd in nodes], dtype=np.int64
    )
    masks = kernels.violation_masks(deg, ctx.arrays, _PAIR_TABLES, config)

    def degree_at(ti, voice) -> Degree:
        return nodes[ctx.arrays.sounding[ti, voice]].degree

    out: list[Violation] = []
    upper, lower = kernels.voice_pairs(len(voices))
    for pair, step in zip(*np.nonzero(masks.fifths | masks.octaves)):
        a, b, ti = int(upper[pair]), int(lower[pair]), int(step) + 1
        out.append(
            Violation(
                rule="parallel-fifths" if masks.fifths[pair, step] else "parallel-octaves",
                onset=Fraction(ctx.grid[ti], ctx.tick),
                voices=(a, b),
                description=(
                    f"{voices[a]}/{voices[b]} move {degree_at(ti - 1, a)}-{degree_at(ti, a)} "
                    f"over {degree_at(ti - 1, b)}-{degree_at(ti, b)}"
                ),
            )
        )
    bass = len(voices) - 1
    for ti, up in zip(*np.nonzero(masks.seconds | masks.fourths)):
        tau = Fraction(ctx.grid[ti], ctx.tick)
        out.append(
            Violation(
                rule="strong-beat-second" if masks.seconds[ti, up] else "strong-beat-fourth",
                onset=tau,
                voices=(int(up), bass),
                description=f"{degree_at(ti, up)} over bass {degree_at(ti, bass)} on strength "
                f"{metric_strength(tau, phrase.meter):.3g}",
            )
        )
    for k in np.flatnonzero(masks.repetition):
        head = nodes[ctx.arrays.chains[k]]
        out.append(
            Violation(
                rule="repetition",
                onset=head.onset,
                voices=(head.voice,),
                description=f"{masks.repetition[k]}x repeated {head.degree} "
                f"in {voices[head.voice]}",
            )
        )
    return out


def rule_loss(phrase: Phrase, config: RuleConfig = RuleConfig()) -> int:
    """Hard violation count; zero iff the phrase is clean."""
    return len(all_violations(phrase, config))


# ----------------------------------------------------------------------
# Roman numeral analysis over a progression grammar
# ----------------------------------------------------------------------

_ROMAN = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V", 6: "VI", 7: "VII"}

_TRIADS = {
    "major": {
        1: ("1", "3", "5", "major"),
        2: ("2", "4", "6", "minor"),
        3: ("3", "5", "7", "minor"),
        4: ("4", "6", "1", "major"),
        5: ("5", "7", "2", "major"),
        6: ("6", "1", "3", "minor"),
        7: ("7", "2", "4", "diminished"),
    },
    "minor": {
        1: ("1", "b3", "5", "minor"),
        2: ("2", "4", "b6", "diminished"),
        3: ("b3", "5", "b7", "major"),
        4: ("4", "b6", "1", "minor"),
        5: ("5", "7", "2", "major"),
        6: ("b6", "1", "b3", "major"),
        7: ("7", "2", "4", "diminished"),
    },
}


@dataclass(frozen=True)
class RomanNumeral:
    root: int  # 1..7
    quality: str  # "major" | "minor" | "diminished"
    inversion: str = "root"  # "root" | "6" | "64"
    seventh: bool = False

    def __str__(self) -> str:
        name = _ROMAN[self.root]
        if self.quality != "major":
            name = name.lower()
        if self.quality == "diminished":
            name += "o"
        if self.seventh:
            name += "7"
        elif self.inversion == "6":
            name += "6"
        elif self.inversion == "64":
            name += "64"
        return name


def chord_tones(root: int, mode: str, seventh: bool = False) -> tuple[Degree, ...]:
    entry = _TRIADS[mode][root]
    tones = [parse_degree(t) for t in entry[:3]]
    if seventh:
        if root != 5:
            raise PhraseValidationError("sevenths only supported on the dominant")
        tones.append(parse_degree("4"))
    return tuple(tones)


def chord_quality(root: int, mode: str) -> str:
    return _TRIADS[mode][root][3]


_FUNCTION = {1: "T", 2: "PD", 3: "T", 4: "PD", 5: "D", 6: "T", 7: "D"}
_FUNCTION_NEXT = {"T": {"T", "PD", "D"}, "PD": {"PD", "D"}, "D": {"D", "T"}}


@dataclass(frozen=True)
class ProgressionGrammar:
    """Functional transition table over numeral roots.

    Tonic function moves anywhere, predominant to predominant/dominant,
    dominant back to dominant/tonic; the retrogression V->IV is barred
    explicitly and listed so the exclusion survives any table edits.
    """

    excluded: frozenset[tuple[int, int]] = frozenset({(5, 4)})
    start_roots: frozenset[int] = frozenset({1})
    max_readings: int = 16

    def allows(self, a: int, b: int) -> bool:
        if (a, b) in self.excluded:
            return False
        return _FUNCTION[b] in _FUNCTION_NEXT[_FUNCTION[a]]

    def successors(self, root: int) -> frozenset[int]:
        return frozenset(b for b in range(1, 8) if self.allows(root, b))


def legal_chords(mode: str) -> tuple[RomanNumeral, ...]:
    """The analyzer's chord template set: diatonic triads in root position,
    first-inversion tonic and dominant, cadential six-four, dominant seventh."""
    out = [RomanNumeral(r, chord_quality(r, mode)) for r in range(1, 8)]
    out.append(RomanNumeral(1, chord_quality(1, mode), inversion="6"))
    out.append(RomanNumeral(5, chord_quality(5, mode), inversion="6"))
    out.append(RomanNumeral(5, chord_quality(5, mode), inversion="64"))
    out.append(RomanNumeral(5, chord_quality(5, mode), seventh=True))
    return tuple(out)


def _chord_table(mode: str) -> tuple[tuple[RomanNumeral, frozenset[int], int], ...]:
    """Each legal chord of a mode as (numeral, tone classes, bass class)."""
    rows = []
    for numeral in legal_chords(mode):
        tones = [DEGREE_INDEX[d] for d in chord_tones(numeral.root, mode, numeral.seventh)]
        bass = tones[("root", "6", "64").index(numeral.inversion)]
        rows.append((numeral, frozenset(tones), bass))
    return tuple(rows)


# Chord tones are constant per mode, so they are parsed once, here.
_CHORDS = {mode: _chord_table(mode) for mode in _TRIADS}


@dataclass(frozen=True)
class HarmonicReading:
    numerals: tuple[RomanNumeral, ...]
    non_chord_tones: int

    @property
    def last(self) -> RomanNumeral:
        return self.numerals[-1]


# Per integer beat, the (numeral, non-chord-tone count) pairs that read it.
_BeatReadings = list[list[tuple[RomanNumeral, int]]]


def _segment_readings(ctx: RuleContext) -> _BeatReadings:
    """Per integer beat, the legal chords that can read it, in table order,
    with their non-chord-tone counts, read from the context's beat rows:
    the node sounding per voice (``n_nodes`` if silent) and the strength
    of each beat.
    A beat is judged by what sounds at its attack point; notes struck
    mid-beat are ornamental and invisible to chord selection. Strong beats
    allow no non-chord tone and weak beats one. A bass tone of the chord
    must be the chord's bass; a non-chord bass, a rest or a silent bass
    defaults to a root-position reading."""
    classes = [None if nd.degree is None else DEGREE_INDEX[nd.degree] for nd in ctx.nodes]
    classes.append(REST_INDEX)  # index n_nodes: a silent voice
    chords = _CHORDS[ctx.mode]
    out = []
    for beat_nodes, strong in zip(ctx.arrays.beat_sounding.tolist(), ctx.arrays.beat_strong.tolist()):
        here = [classes[i] for i in beat_nodes]
        if None in here:
            raise PhraseValidationError("analysis needs degree content")
        sounding, bass = set(here) - {REST_INDEX}, here[-1]
        row = []
        for numeral, tones, chord_bass in chords:
            fits = chord_bass == bass if bass in tones else numeral.inversion == "root"
            nct = len(sounding - tones)
            if fits and nct <= (0 if strong else 1):
                row.append((numeral, nct))
        out.append(row)
    return out


def _best_readings(beats: _BeatReadings, grammar: ProgressionGrammar) -> list[HarmonicReading]:
    """Beam search over per-beat readings: the grammar.max_readings paths
    with the fewest non-chord tones, ties in beam order."""
    if any(not row for row in beats):
        return []
    k = grammar.max_readings
    # beams[cand index] = best-k list of (cost, path indices)
    beams: list[list[tuple[int, tuple[int, ...]]]] = [
        [(nct, (i,))] for i, (_, nct) in enumerate(beats[0])
    ]
    for prev_row, row in zip(beats, beats[1:]):
        nxt: list[list[tuple[int, tuple[int, ...]]]] = []
        for j, (numeral, nct) in enumerate(row):
            merged = [
                (cost + nct, path + (j,))
                for (prev, _), beam in zip(prev_row, beams)
                if grammar.allows(prev.root, numeral.root)
                for cost, path in beam
            ]
            nxt.append(heapq.nsmallest(k, merged, key=lambda cp: cp[0]))
        beams = nxt

    finals = heapq.nsmallest(k, (p for beam in beams for p in beam), key=lambda cp: cp[0])
    return [
        HarmonicReading(tuple(beats[i][j][0] for i, j in enumerate(path)), cost)
        for cost, path in finals
    ]


def _boundary_roots(
    beats: _BeatReadings, grammar: ProgressionGrammar
) -> tuple[frozenset[int], frozenset[int]]:
    """First/last roots of all grammar paths, by forward then backward
    reachability. Legality depends on roots alone, so root sets suffice."""
    reach = [{numeral.root for numeral, _ in beats[0]}]
    for row in beats[1:]:
        reach.append({n.root for n, _ in row if any(grammar.allows(r, n.root) for r in reach[-1])})
    live = reach[-1]
    for roots in reversed(reach[:-1]):
        live = {r for r in roots if any(grammar.allows(r, s) for s in live)}
    return frozenset(live), frozenset(reach[-1])


def analyze_harmony(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> list[HarmonicReading]:
    """All grammar-consistent beat-level progressions, best readings first
    (fewest non-chord tones). Empty list means the phrase has no reading."""
    return _best_readings(_segment_readings(build_rule_context(phrase, config)), grammar)


def feasible_boundary_roots(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> tuple[frozenset[int], frozenset[int]]:
    """Exact sets of first/last numeral roots over all valid readings
    (not limited to max_readings); both empty if there is none."""
    return _boundary_roots(_segment_readings(build_rule_context(phrase, config)), grammar)


# ----------------------------------------------------------------------
# Rejection sampling and cataloging
# ----------------------------------------------------------------------

def final_treble_degree(phrase: Phrase) -> Optional[Degree]:
    treble = [e for e in phrase.events if e.voice == 0]
    for e in reversed(treble):
        d = e.degree_in(phrase.key)
        if d is not None and not d.is_rest:
            return d
    return None


# Every cadence class classify_cadence can return.
CADENCES = ("perfect_authentic", "authentic", "other")


def classify_cadence(reading: HarmonicReading, final_treble: Optional[Degree]) -> str:
    numerals = reading.numerals
    last = numerals[-1]
    pen = None
    for numeral in reversed(numerals[:-1]):
        if numeral.root != last.root:
            pen = numeral
            break
    if (
        pen is not None
        and pen.root == 5
        and last.root == 1
        and pen.inversion == "root"
        and last.inversion == "root"
    ):
        if final_treble == Degree(1):
            return "perfect_authentic"
        return "authentic"
    return "other"


def cadence_satisfies(actual: str, required: str) -> bool:
    if required == "authentic":
        return actual in ("authentic", "perfect_authentic")
    return actual == required


@dataclass(frozen=True)
class CatalogEntry:
    start_roots: frozenset[int]
    end_roots: frozenset[int]
    final_root: int
    final_treble: Optional[Degree]
    mode: str
    cadence: str


# The rejection reasons that are not hard-rule violations.
NO_READING = "no harmonic reading"
PLACEHOLDER = "placeholder event"  # an event with neither degree nor pitch


@dataclass(frozen=True)
class RejectionResult:
    accepted: bool
    entry: Optional[CatalogEntry]
    reasons: tuple[str, ...]
    violations: tuple[Violation, ...] = ()  # the hard-rule breaks behind ``reasons``

    def __bool__(self) -> bool:
        return self.accepted


def reject(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> RejectionResult:
    """Hard-rule rejection plus harmonic readability; accepted phrases get
    a catalog entry recording their fusion-relevant boundary features, and
    a phrase rejected on hard rules carries its located violations. Both
    rule families read one rule context, so the tied notes are merged and
    laid on the time grid once. A phrase with a placeholder event is
    rejected first, as ``PLACEHOLDER``: the analysis needs every event's
    degree."""
    if any(e.degree is None and e.pitch is None for e in phrase.events):
        return RejectionResult(False, None, (PLACEHOLDER,))
    ctx = build_rule_context(phrase, config)
    violations = tuple(all_violations(phrase, config, ctx=ctx))
    if violations:
        return RejectionResult(False, None, tuple(map(str, violations)), violations)
    beats = _segment_readings(ctx)
    readings = _best_readings(beats, grammar)
    if not readings:
        return RejectionResult(False, None, (NO_READING,))
    starts, ends = _boundary_roots(beats, grammar)
    best = readings[0]
    treble = final_treble_degree(phrase)
    entry = CatalogEntry(
        start_roots=starts,
        end_roots=ends,
        final_root=best.last.root,
        final_treble=treble,
        mode=phrase.key.mode,
        cadence=classify_cadence(best, treble),
    )
    return RejectionResult(True, entry, ())
