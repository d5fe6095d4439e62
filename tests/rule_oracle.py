"""Brute-force hard-rule checker: the reference the evaluator in
gradus.kernels / gradus.rules is tested against.

One rule per function, written over Degree objects and graph nodes with
plain loops, so that each rule reads as its musical statement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from gradus.graph import GraphNode, merge_tied
from gradus.phrase import Phrase, metric_strength
from gradus.pitch import Degree
from gradus.rules import RuleConfig, Violation

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
