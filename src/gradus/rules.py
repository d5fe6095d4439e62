"""Counterpoint and harmony engine.

Two layers share one set of semantics: readable reference checkers that
emit located Violation records (used for rejection reports), and a flat
array context scored by the kernels module (used inside guided sampling,
where the same skeleton is scored thousands of times).

Interval classes are computed from scale degrees modulo octave, so the
checks apply equally to degree-encoded and realized phrases.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import PhraseValidationError
from .graph import GraphNode, merge_tied
from .phrase import Phrase, metric_strength
from .pitch import DEGREE_INDEX, DEGREE_LETTER, DEGREE_SEMIS, Degree, parse_degree

PERFECT_FIFTH = (4, 7)  # (letter class, semitone class) above the lower voice
PERFECT_OCTAVE = (0, 0)


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


def _interval_class(upper: Degree, lower: Degree) -> tuple[int, int]:
    return (
        (upper.letter_offset - lower.letter_offset) % 7,
        (upper.semis - lower.semis) % 12,
    )


def _time_grid(phrase: Phrase, cutoff: float):
    """All attack onsets plus every strong beat inside the span, with the
    sounding node and attack flag per voice at each grid time."""
    nodes = merge_tied(phrase)
    times = {nd.onset for nd in nodes}
    beat = Fraction(0)
    while beat < phrase.span:
        if metric_strength(beat, phrase.meter) >= cutoff:
            times.add(beat)
        beat += 1
    grid = sorted(times)
    n_voices = len(phrase.voices)
    sounding = [[-1] * n_voices for _ in grid]
    attacked = [[False] * n_voices for _ in grid]
    for ni, nd in enumerate(nodes):
        for ti, tau in enumerate(grid):
            if nd.onset <= tau < nd.end:
                sounding[ti][nd.voice] = ni
                attacked[ti][nd.voice] = nd.onset == tau
    return grid, nodes, sounding, attacked


def _node_degree(nodes: Sequence[GraphNode], idx: int) -> Optional[Degree]:
    if idx < 0:
        return None
    d = nodes[idx].degree
    if d is None or d.is_rest:
        return None
    return d


def find_parallels(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    """Parallel perfect fifths/octaves between any voice pair.

    Flagged when both voices attack a changed degree and the interval
    class is perfect at both of two consecutive grid moments. Oblique
    motion and re-struck unisons are exempt.
    """
    grid, nodes, sounding, attacked = _time_grid(phrase, config.strong_beat_cutoff)
    out: list[Violation] = []
    n_voices = len(phrase.voices)
    for a in range(n_voices - 1):
        for b in range(a + 1, n_voices):
            for ti in range(1, len(grid)):
                quad = (
                    _node_degree(nodes, sounding[ti - 1][a]),
                    _node_degree(nodes, sounding[ti][a]),
                    _node_degree(nodes, sounding[ti - 1][b]),
                    _node_degree(nodes, sounding[ti][b]),
                )
                if any(d is None for d in quad):
                    continue
                da1, da2, db1, db2 = quad
                if not (attacked[ti][a] and da2 != da1):
                    continue
                if not (attacked[ti][b] and db2 != db1):
                    continue
                ic1 = _interval_class(da1, db1)
                ic2 = _interval_class(da2, db2)
                for ic, rule in ((PERFECT_FIFTH, "parallel-fifths"), (PERFECT_OCTAVE, "parallel-octaves")):
                    if ic1 == ic and ic2 == ic:
                        out.append(
                            Violation(
                                rule=rule,
                                onset=grid[ti],
                                voices=(a, b),
                                description=(
                                    f"{phrase.voices[a]}/{phrase.voices[b]} move "
                                    f"{da1}-{da2} over {db1}-{db2}"
                                ),
                            )
                        )
    return out


def dissonance_check(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    """Seconds or fourths against the bass on strong beats.

    Fourths between upper voices are consonant here; the bass is the
    lowest (last) voice.
    """
    grid, nodes, sounding, attacked = _time_grid(phrase, config.strong_beat_cutoff)
    out: list[Violation] = []
    bass = len(phrase.voices) - 1
    if bass == 0:
        return out
    for ti, tau in enumerate(grid):
        if metric_strength(tau, phrase.meter) < config.strong_beat_cutoff:
            continue
        db = _node_degree(nodes, sounding[ti][bass])
        if db is None:
            continue
        for up in range(bass):
            du = _node_degree(nodes, sounding[ti][up])
            if du is None:
                continue
            ell, ess = _interval_class(du, db)
            if ell == 1 and ess in (1, 2):
                rule = "strong-beat-second"
            elif ell == 3 and ess in (5, 6):
                rule = "strong-beat-fourth"
            else:
                continue
            out.append(
                Violation(
                    rule=rule,
                    onset=tau,
                    voices=(up, bass),
                    description=f"{du} over bass {db} on strength "
                    f"{metric_strength(tau, phrase.meter):.3g}",
                )
            )
    return out


def repetition_flags(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    """Maximal runs of one repeated degree reaching the threshold."""
    out: list[Violation] = []
    nodes = merge_tied(phrase)
    for v in range(len(phrase.voices)):
        chain = [nd for nd in nodes if nd.voice == v]
        i = 0
        while i < len(chain):
            j = i
            while j + 1 < len(chain) and chain[j + 1].degree == chain[i].degree:
                j += 1
            run = j - i + 1
            d = chain[i].degree
            if run >= config.repetition_threshold and d is not None and not d.is_rest:
                out.append(
                    Violation(
                        rule="repetition",
                        onset=chain[i].onset,
                        voices=(v,),
                        description=f"{run}x repeated {d} in {phrase.voices[v]}",
                    )
                )
            i = j + 1
    return out


def all_violations(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    out: list[Violation] = []
    if config.parallels:
        out.extend(find_parallels(phrase, config))
    if config.dissonance:
        out.extend(dissonance_check(phrase, config))
    if config.repetition:
        out.extend(repetition_flags(phrase, config))
    return out


def rule_loss(phrase: Phrase, config: RuleConfig = RuleConfig()) -> int:
    """Hard violation count; zero iff the phrase is clean."""
    return len(all_violations(phrase, config))


# ----------------------------------------------------------------------
# Array context mirroring the reference checkers for kernel scoring
# ----------------------------------------------------------------------

_LETTER_TABLE = np.array(DEGREE_LETTER, dtype=np.int64)
_SEMIS_TABLE = np.array(DEGREE_SEMIS, dtype=np.int64)


@dataclass(frozen=True)
class RuleContext:
    """Skeleton-derived arrays; score() evaluates a per-node degree
    assignment with the exact semantics of all_violations()."""

    sounding: np.ndarray
    attacked: np.ndarray
    strong: np.ndarray
    chains: np.ndarray
    chain_offsets: np.ndarray
    config: RuleConfig
    n_nodes: int

    def score(self, degree_indices: np.ndarray) -> int:
        return kernels.count_violations(
            np.asarray(degree_indices, dtype=np.int64),
            self.sounding,
            self.attacked,
            self.strong,
            _LETTER_TABLE,
            _SEMIS_TABLE,
            self.chains,
            self.chain_offsets,
            self.config.repetition_threshold,
            1 if self.config.parallels else 0,
            1 if self.config.dissonance else 0,
            1 if self.config.repetition else 0,
        )


def build_rule_context(skeleton: Phrase, config: RuleConfig = RuleConfig()) -> RuleContext:
    grid, nodes, sounding, attacked = _time_grid(skeleton, config.strong_beat_cutoff)
    strong = np.array(
        [1 if metric_strength(t, skeleton.meter) >= config.strong_beat_cutoff else 0 for t in grid],
        dtype=np.int64,
    )
    chains: list[int] = []
    offsets = [0]
    for v in range(len(skeleton.voices)):
        chains.extend(i for i, nd in enumerate(nodes) if nd.voice == v)
        offsets.append(len(chains))
    return RuleContext(
        sounding=np.array(sounding, dtype=np.int64),
        attacked=np.array(attacked, dtype=np.int64),
        strong=strong,
        chains=np.array(chains, dtype=np.int64),
        chain_offsets=np.array(offsets, dtype=np.int64),
        config=config,
        n_nodes=len(nodes),
    )


def degree_indices(phrase: Phrase) -> np.ndarray:
    """Node-ordered degree class indices of a degree-encoded phrase."""
    idx = []
    for nd in merge_tied(phrase):
        if nd.degree is None:
            raise PhraseValidationError("phrase has placeholder events")
        idx.append(DEGREE_INDEX[nd.degree])
    return np.array(idx, dtype=np.int64)


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
    applied_of: Optional[int] = None  # reserved; always None in v1

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
