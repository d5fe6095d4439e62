"""Brute-force rule checker and harmonic analyzer: the reference the
evaluator in gradus.kernels / gradus.rules is tested against.

One hard rule per function, written over Degree objects and graph nodes
with plain loops, so that each rule reads as its musical statement. The
harmonic analysis tests every node against every beat and every legal
chord against every beat, re-deriving chord tones each time, and finds
boundary roots by reachability over candidate indices.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Optional, Sequence

from gradus.errors import PhraseValidationError
from gradus.graph import GraphNode, merge_tied
from gradus.phrase import Phrase, metric_strength
from gradus.pitch import Degree
from gradus.rules import (
    NO_READING,
    PLACEHOLDER,
    CatalogEntry,
    HarmonicReading,
    ProgressionGrammar,
    RejectionResult,
    RomanNumeral,
    RuleConfig,
    Violation,
    chord_tones,
    classify_cadence,
    final_treble_degree,
    legal_chords,
)

PERFECT_FIFTH = (4, 7)  # (letter class, semitone class) above the lower voice
PERFECT_OCTAVE = (0, 0)


def time_grid(phrase: Phrase, cutoff: float):
    """All attack onsets plus every strong beat inside the span, with the
    sounding node and attack flag per voice at each grid time; every node
    is tested against every grid time."""
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


def _interval_class(upper: Degree, lower: Degree) -> tuple[int, int]:
    return (
        (upper.letter_offset - lower.letter_offset) % 7,
        (upper.semis - lower.semis) % 12,
    )


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
    grid, nodes, sounding, attacked = time_grid(phrase, config.strong_beat_cutoff)
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
    grid, nodes, sounding, attacked = time_grid(phrase, config.strong_beat_cutoff)
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


def oracle(phrase: Phrase, config: RuleConfig = RuleConfig()) -> list[Violation]:
    """Every enabled rule's violations, in the order all_violations gives."""
    out: list[Violation] = []
    if config.parallels:
        out.extend(find_parallels(phrase, config))
    if config.dissonance:
        out.extend(dissonance_check(phrase, config))
    if config.repetition:
        out.extend(repetition_flags(phrase, config))
    return out


# ----------------------------------------------------------------------
# Harmonic analysis
# ----------------------------------------------------------------------

def bass_tone(numeral: RomanNumeral, mode: str) -> Degree:
    tones = chord_tones(numeral.root, mode, numeral.seventh)
    if numeral.inversion == "root":
        return tones[0]
    if numeral.inversion == "6":
        return tones[1]
    return tones[2]


def segment_candidates(
    sounding: set[Degree], bass: Optional[Degree], tolerance: int, mode: str
) -> list[tuple[RomanNumeral, int]]:
    """Legal chords that can read one beat, with their non-chord-tone counts."""
    out = []
    for numeral in legal_chords(mode):
        tones = set(chord_tones(numeral.root, mode, numeral.seventh))
        nct = len(sounding - tones)
        if bass is not None:
            if bass in tones:
                if bass_tone(numeral, mode) != bass:
                    continue
            elif numeral.inversion != "root":
                continue  # a non-chord bass defaults to a root-position reading
        elif numeral.inversion != "root":
            continue
        if nct <= tolerance:
            out.append((numeral, nct))
    return out


def segments(phrase: Phrase, cutoff: float):
    """Per-beat (sounding set, bass, tolerance) judged at the beat attack
    point; notes struck mid-segment are invisible to chord selection."""
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


def beat_candidates(phrase: Phrase, config: RuleConfig = RuleConfig()):
    mode = phrase.key.mode
    return [
        segment_candidates(s, b, tol, mode)
        for s, b, tol in segments(phrase, config.strong_beat_cutoff)
    ]


def harmonic_readings(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> list[HarmonicReading]:
    """Beam search, best-k per candidate, over the brute-force candidates."""
    per_seg = beat_candidates(phrase, config)
    if any(not c for c in per_seg):
        return []
    k = grammar.max_readings
    beams = [[(nct, (i,))] for i, (_, nct) in enumerate(per_seg[0])]
    for seg_i in range(1, len(per_seg)):
        nxt = [[] for _ in per_seg[seg_i]]
        for j, (numeral, nct) in enumerate(per_seg[seg_i]):
            merged = []
            for i, (prev, _) in enumerate(per_seg[seg_i - 1]):
                if not grammar.allows(prev.root, numeral.root):
                    continue
                for cost, path in beams[i]:
                    merged.append((cost + nct, path + (j,)))
            nxt[j] = heapq.nsmallest(k, merged, key=lambda cp: cp[0])
        beams = nxt
    finals = heapq.nsmallest(k, (p for beam in beams for p in beam), key=lambda cp: cp[0])
    return [
        HarmonicReading(tuple(per_seg[i][j][0] for i, j in enumerate(path)), cost)
        for cost, path in finals
    ]


def boundary_roots(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> tuple[frozenset[int], frozenset[int]]:
    """First/last roots over all readings, by forward and backward
    reachability over candidate index sets."""
    per_seg = beat_candidates(phrase, config)
    if any(not c for c in per_seg):
        return frozenset(), frozenset()
    fwd = [set(range(len(per_seg[0])))]
    for i in range(1, len(per_seg)):
        prev_roots = {per_seg[i - 1][j][0].root for j in fwd[-1]}
        fwd.append(
            {
                j
                for j, (numeral, _) in enumerate(per_seg[i])
                if any(grammar.allows(r, numeral.root) for r in prev_roots)
            }
        )
    bwd = [set(range(len(per_seg[-1]))) & fwd[-1]]
    for i in range(len(per_seg) - 2, -1, -1):
        next_roots = {per_seg[i + 1][j][0].root for j in bwd[0]}
        bwd.insert(
            0,
            {j for j in fwd[i] if any(grammar.allows(per_seg[i][j][0].root, r) for r in next_roots)},
        )
    if any(not s for s in bwd):
        return frozenset(), frozenset()
    starts = frozenset(per_seg[0][j][0].root for j in bwd[0])
    ends = frozenset(per_seg[-1][j][0].root for j in bwd[-1])
    return starts, ends


def reject_oracle(
    phrase: Phrase,
    grammar: ProgressionGrammar = ProgressionGrammar(),
    config: RuleConfig = RuleConfig(),
) -> RejectionResult:
    """Rejection composed from the brute-force rules and analysis; a
    phrase with a placeholder event is rejected before either."""
    if any(e.degree is None and e.pitch is None for e in phrase.events):
        return RejectionResult(False, None, (PLACEHOLDER,))
    violations = tuple(oracle(phrase, config))
    if violations:
        return RejectionResult(False, None, tuple(str(v) for v in violations), violations)
    readings = harmonic_readings(phrase, grammar, config)
    if not readings:
        return RejectionResult(False, None, (NO_READING,))
    starts, ends = boundary_roots(phrase, grammar, config)
    treble = final_treble_degree(phrase)
    entry = CatalogEntry(
        start_roots=starts,
        end_roots=ends,
        final_root=readings[0].numerals[-1].root,
        final_treble=treble,
        mode=phrase.key.mode,
        cadence=classify_cadence(readings[0], treble),
    )
    return RejectionResult(True, entry, ())
