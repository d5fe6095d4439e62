"""Counterpoint and harmony engine.

The hard rules have one evaluator, ``kernels.violation_masks``, run over a
flat array context built once per rhythm skeleton. Guided sampling counts
a candidate's violations with ``RuleContext.score``, thousands of times per
skeleton; ``all_violations`` turns the same masks into located Violation
records for rejection reports.

Interval classes are computed from scale degrees modulo octave, so the
checks apply equally to degree-encoded and realized phrases.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

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


def _time_grid(phrase: Phrase, cutoff: float):
    """All attack onsets plus every strong beat inside the span, with the
    sounding node and attack flag per voice at each grid time."""
    nodes = merge_tied(phrase)
    times = {nd.onset for nd in nodes}
    span = phrase.span
    beat = Fraction(0)
    while beat < span:
        if metric_strength(beat, phrase.meter) >= cutoff:
            times.add(beat)
        beat += 1
    grid = sorted(times)
    n_voices = len(phrase.voices)
    sounding = [[-1] * n_voices for _ in grid]
    attacked = [[False] * n_voices for _ in grid]
    for ni, nd in enumerate(nodes):
        # The grid is sorted, so a node covers one run of rows.
        ti = bisect_left(grid, nd.onset)
        while ti < len(grid) and grid[ti] < nd.end:
            sounding[ti][nd.voice] = ni
            attacked[ti][nd.voice] = grid[ti] == nd.onset
            ti += 1
    return grid, nodes, sounding, attacked


# ----------------------------------------------------------------------
# Array context for the hard-rule evaluator (kernels.violation_masks)
# ----------------------------------------------------------------------

# What each pair of degree classes means to the rules, built once.
_PAIR_TABLES = kernels.pair_tables(DEGREE_LETTER, DEGREE_SEMIS)


@dataclass(frozen=True)
class RuleContext:
    """The hard rules' view of one rhythm skeleton, built once per skeleton
    by ``build_rule_context``: the grid arrays ``kernels.violation_masks``
    reads, plus the voice chain bounds, grid times and graph nodes that
    locate its hits.

    score() counts the violations of a per-node degree assignment. Guided
    sampling calls it once per candidate, K times a step, and most
    candidates repeat an assignment already scored on the skeleton, so
    each distinct assignment is evaluated once and its count kept."""

    arrays: kernels.SkeletonArrays
    chain_offsets: np.ndarray
    config: RuleConfig
    grid: tuple[Fraction, ...]
    nodes: tuple[GraphNode, ...]
    _scores: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def _kernel_args(self, degree_indices: np.ndarray) -> tuple:
        c = self.config
        return (
            np.asarray(degree_indices, dtype=np.int64),
            self.arrays,
            _PAIR_TABLES,
            c.repetition_threshold,
            int(c.parallels),
            int(c.dissonance),
            int(c.repetition),
        )

    def score(self, degree_indices: np.ndarray) -> int:
        deg = np.asarray(degree_indices, dtype=np.int64)
        key = deg.tobytes()
        loss = self._scores.get(key)
        if loss is None:
            loss = self._scores[key] = kernels.count_violations(*self._kernel_args(deg))
        return loss


def build_rule_context(skeleton: Phrase, config: RuleConfig = RuleConfig()) -> RuleContext:
    grid, nodes, sounding, attacked = _time_grid(skeleton, config.strong_beat_cutoff)
    strong = [metric_strength(t, skeleton.meter) >= config.strong_beat_cutoff for t in grid]
    chains: list[int] = []
    offsets = [0]
    for v in range(len(skeleton.voices)):
        chains.extend(i for i, nd in enumerate(nodes) if nd.voice == v)
        offsets.append(len(chains))
    return RuleContext(
        arrays=kernels.skeleton_arrays(sounding, attacked, strong, chains, offsets),
        chain_offsets=np.array(offsets, dtype=np.int64),
        config=config,
        grid=tuple(grid),
        nodes=tuple(nodes),
    )


def degree_indices(phrase: Phrase) -> np.ndarray:
    """Node-ordered degree class indices of a degree-encoded phrase."""
    idx = []
    for nd in merge_tied(phrase):
        if nd.degree is None:
            raise PhraseValidationError("phrase has placeholder events")
        idx.append(DEGREE_INDEX[nd.degree])
    return np.array(idx, dtype=np.int64)


def all_violations(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    """Located hard-rule violations: parallels by voice pair, then time;
    strong-beat dissonances by time, then upper voice; repetitions by voice,
    then run. Placeholder degrees count as rests."""
    ctx = build_rule_context(phrase, config)
    nodes, voices = ctx.nodes, phrase.voices
    deg = [REST_INDEX if nd.degree is None else DEGREE_INDEX[nd.degree] for nd in nodes]
    masks = kernels.violation_masks(*ctx._kernel_args(deg))

    def degree_at(ti, voice) -> Degree:
        return nodes[ctx.arrays.sounding[ti, voice]].degree

    out: list[Violation] = []
    upper, lower = kernels.voice_pairs(len(voices))
    for pair, step in zip(*np.nonzero(masks.fifths | masks.octaves)):
        a, b, ti = int(upper[pair]), int(lower[pair]), int(step) + 1
        out.append(
            Violation(
                rule="parallel-fifths" if masks.fifths[pair, step] else "parallel-octaves",
                onset=ctx.grid[ti],
                voices=(a, b),
                description=(
                    f"{voices[a]}/{voices[b]} move {degree_at(ti - 1, a)}-{degree_at(ti, a)} "
                    f"over {degree_at(ti - 1, b)}-{degree_at(ti, b)}"
                ),
            )
        )
    bass = len(voices) - 1
    for ti, up in zip(*np.nonzero(masks.seconds | masks.fourths)):
        tau = ctx.grid[ti]
        out.append(
            Violation(
                rule="strong-beat-second" if masks.seconds[ti, up] else "strong-beat-fourth",
                onset=tau,
                voices=(int(up), bass),
                description=f"{degree_at(ti, up)} over bass {degree_at(ti, bass)} on strength "
                f"{metric_strength(tau, phrase.meter):.3g}",
            )
        )
    chains = ctx.arrays.chains
    for k in np.flatnonzero(masks.repetition):
        head = nodes[chains[k]]
        end = ctx.chain_offsets[head.voice + 1]
        run = 1
        while k + run < end and deg[chains[k + run]] == deg[chains[k]]:
            run += 1
        out.append(
            Violation(
                rule="repetition",
                onset=head.onset,
                voices=(head.voice,),
                description=f"{run}x repeated {head.degree} in {voices[head.voice]}",
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

    @property
    def transitions(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a in range(1, 8) for b in range(1, 8) if self.allows(a, b)
        )


def legal_chords(mode: str) -> tuple[RomanNumeral, ...]:
    """The analyzer's chord template set: diatonic triads in root position,
    first-inversion tonic and dominant, cadential six-four, dominant seventh."""
    out = [RomanNumeral(r, chord_quality(r, mode)) for r in range(1, 8)]
    out.append(RomanNumeral(1, chord_quality(1, mode), inversion="6"))
    out.append(RomanNumeral(5, chord_quality(5, mode), inversion="6"))
    out.append(RomanNumeral(5, chord_quality(5, mode), inversion="64"))
    out.append(RomanNumeral(5, chord_quality(5, mode), seventh=True))
    return tuple(out)


def _bass_tone(numeral: RomanNumeral, mode: str) -> Degree:
    tones = chord_tones(numeral.root, mode, numeral.seventh)
    if numeral.inversion == "root":
        return tones[0]
    if numeral.inversion == "6":
        return tones[1]
    return tones[2]


@dataclass(frozen=True)
class SegmentReading:
    numeral: RomanNumeral
    non_chord_tones: int


@dataclass(frozen=True)
class HarmonicReading:
    numerals: tuple[RomanNumeral, ...]
    non_chord_tones: int

    @property
    def first(self) -> RomanNumeral:
        return self.numerals[0]

    @property
    def last(self) -> RomanNumeral:
        return self.numerals[-1]


def _segment_candidates(
    sounding: set[Degree],
    bass: Optional[Degree],
    tolerance: int,
    mode: str,
) -> list[SegmentReading]:
    out = []
    for numeral in legal_chords(mode):
        tones = set(chord_tones(numeral.root, mode, numeral.seventh))
        nct = len(sounding - tones)
        if bass is not None:
            if bass in tones:
                if _bass_tone(numeral, mode) != bass:
                    continue
            elif numeral.inversion != "root":
                continue  # a non-chord bass defaults to a root-position reading
        elif numeral.inversion != "root":
            continue
        if nct <= tolerance:
            out.append(SegmentReading(numeral, nct))
    return out


def _segments(phrase: Phrase, cutoff: float):
    """Per-beat sounding sets judged at the beat attack point; notes struck
    mid-segment are ornamental and invisible to chord selection."""
    nodes = merge_tied(phrase)
    n_beats = int(phrase.span) if phrase.span == int(phrase.span) else int(phrase.span) + 1
    segs = []
    bass_voice = len(phrase.voices) - 1
    for k in range(n_beats):
        tau = Fraction(k)
        sounding: set[Degree] = set()
        bass: Optional[Degree] = None
        for nd in nodes:
            if nd.onset <= tau < nd.end:
                d = nd.degree
                if d is None:
                    raise PhraseValidationError("analysis needs degree content")
                if d.is_rest:
                    continue
                sounding.add(d)
                if nd.voice == bass_voice:
                    bass = d
        tolerance = 0 if metric_strength(tau, phrase.meter) >= cutoff else 1
        segs.append((sounding, bass, tolerance))
    return segs


def analyze_harmony(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> list[HarmonicReading]:
    """All grammar-consistent beat-level progressions, best readings first
    (fewest non-chord tones). Empty list means the phrase has no reading."""
    mode = phrase.key.mode
    segs = _segments(phrase, config.strong_beat_cutoff)
    per_seg = [_segment_candidates(s, b, tol, mode) for s, b, tol in segs]
    if any(not c for c in per_seg):
        return []

    k = grammar.max_readings
    # beams[cand index] = best-k list of (cost, path indices)
    beams: list[list[tuple[int, tuple[int, ...]]]] = [
        [(c.non_chord_tones, (i,))] for i, c in enumerate(per_seg[0])
    ]
    for seg_i in range(1, len(per_seg)):
        nxt: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in per_seg[seg_i]]
        for j, cand in enumerate(per_seg[seg_i]):
            merged: list[tuple[int, tuple[int, ...]]] = []
            for i, prev in enumerate(per_seg[seg_i - 1]):
                if not grammar.allows(prev.numeral.root, cand.numeral.root):
                    continue
                for cost, path in beams[i]:
                    merged.append((cost + cand.non_chord_tones, path + (j,)))
            nxt[j] = heapq.nsmallest(k, merged, key=lambda cp: cp[0])
        beams = nxt

    finals = heapq.nsmallest(k, (p for beam in beams for p in beam), key=lambda cp: cp[0])
    readings = []
    for cost, path in finals:
        numerals = tuple(per_seg[i][j].numeral for i, j in enumerate(path))
        readings.append(HarmonicReading(numerals=numerals, non_chord_tones=cost))
    return readings


def feasible_boundary_roots(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> tuple[frozenset[int], frozenset[int]]:
    """Exact sets of first/last numeral roots over all valid readings,
    via forward and backward reachability (not limited to max_readings)."""
    mode = phrase.key.mode
    segs = _segments(phrase, config.strong_beat_cutoff)
    per_seg = [_segment_candidates(s, b, tol, mode) for s, b, tol in segs]
    if any(not c for c in per_seg):
        return frozenset(), frozenset()
    fwd = [set(range(len(per_seg[0])))]
    for i in range(1, len(per_seg)):
        prev_roots = {per_seg[i - 1][j].numeral.root for j in fwd[-1]}
        fwd.append(
            {
                j
                for j, c in enumerate(per_seg[i])
                if any(grammar.allows(r, c.numeral.root) for r in prev_roots)
            }
        )
    bwd = [set(range(len(per_seg[-1]))) & fwd[-1]]
    for i in range(len(per_seg) - 2, -1, -1):
        next_roots = {per_seg[i + 1][j].numeral.root for j in bwd[0]}
        bwd.insert(
            0,
            {
                j
                for j in fwd[i]
                if any(grammar.allows(per_seg[i][j].numeral.root, r) for r in next_roots)
            },
        )
    if any(not s for s in bwd):
        return frozenset(), frozenset()
    starts = frozenset(per_seg[0][j].numeral.root for j in bwd[0])
    ends = frozenset(per_seg[-1][j].numeral.root for j in bwd[-1])
    return starts, ends


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


# The one rejection reason that is not a hard-rule violation.
NO_READING = "no harmonic reading"


@dataclass(frozen=True)
class RejectionResult:
    accepted: bool
    entry: Optional[CatalogEntry]
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.accepted


def reject(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> RejectionResult:
    """Hard-rule rejection plus harmonic readability; accepted phrases get
    a catalog entry recording their fusion-relevant boundary features."""
    violations = all_violations(phrase, config)
    reasons = tuple(str(v) for v in violations)
    if reasons:
        return RejectionResult(False, None, reasons)
    readings = analyze_harmony(phrase, grammar, config)
    if not readings:
        return RejectionResult(False, None, (NO_READING,))
    starts, ends = feasible_boundary_roots(phrase, grammar, config)
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
