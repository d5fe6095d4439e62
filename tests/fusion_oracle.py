"""Plain references for pitch realization and MIDI note events: what
gradus.fusion.realize_pitches and gradus.midi.score_note_events are
tested against.

Both are written as the rules read. Realization spells every octave of
each note's degree as a Pitch and picks among them, note by note, with
no table kept between notes. Note events are computed with Fraction
arithmetic: each phrase's ticks per beat follow its own meter, and the
next phrase starts at the previous phrase's bar-aligned end in ticks.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from gradus.errors import PhraseValidationError, SpellingError
from gradus.midi import TICKS_PER_QUARTER
from gradus.phrase import Phrase
from gradus.pitch import realize_degree


def realize_pitches(phrase: Phrase, profiles) -> Phrase:
    """Per voice: the opening note takes the in-range octave nearest the
    central pitch; a later note takes the in-range placement within a
    major second of the previous pitch (the nearest, then the lower),
    else the placement nearest the central pitch, then nearest the
    previous pitch, then the lower."""
    for v in range(len(phrase.voices)):
        if v not in profiles:
            raise PhraseValidationError(f"no voice profile for voice {v}")
    events = list(phrase.events)
    for v in range(len(phrase.voices)):
        profile = profiles[v]
        prev = None
        for idx, e in enumerate(phrase.events):
            if e.voice != v:
                continue
            if e.pitch is not None:
                prev = e.pitch
                continue
            if e.degree is None:
                raise PhraseValidationError(
                    f"voice {phrase.voices[v]!r} at onset {e.onset}: placeholder event"
                )
            if e.degree.is_rest:
                continue
            spelled = realize_degree(e.degree, phrase.key, 4)
            octaves = [replace(spelled, octave=o) for o in range(9)]
            feasible = [c for c in octaves if profile.low.midi <= c.midi <= profile.high.midi]
            if not feasible:
                raise SpellingError(
                    f"degree {e.degree} unrealizable in range of voice "
                    f"{phrase.voices[v]!r} at onset {e.onset}"
                )
            central = profile.central.midi
            if prev is None:
                chosen = min(feasible, key=lambda c: (abs(c.midi - central), c.midi))
            else:
                steps = [c for c in feasible if abs(c.midi - prev.midi) <= 2]
                if steps:
                    chosen = min(steps, key=lambda c: (abs(c.midi - prev.midi), c.midi))
                else:
                    chosen = min(
                        feasible,
                        key=lambda c: (abs(c.midi - central), abs(c.midi - prev.midi), c.midi),
                    )
            events[idx] = replace(e, degree=None, pitch=chosen)
            prev = chosen
    return replace(phrase, events=tuple(events))


def score_note_events(score) -> list[tuple[int, int, int, int]]:
    """(voice, start_tick, duration_tick, midi_pitch) for every note. A
    start or duration off the tick grid is refused, naming it in beats
    of its phrase's meter, counted from where the phrase's beats would
    begin."""
    out = []
    offset = Fraction(0)  # ticks
    for phrase in score.phrases:
        per_beat = Fraction(4 * TICKS_PER_QUARTER, phrase.meter[1])
        for e in phrase.events:
            if e.is_rest:
                continue
            if e.pitch is None:
                raise PhraseValidationError(
                    "score is not realized; run pitch realization before rendering"
                )
            start = offset + e.onset * per_beat
            duration = e.duration * per_beat
            for ticks in (start, duration):
                if ticks.denominator != 1:
                    raise PhraseValidationError(
                        f"duration {ticks / per_beat} not representable at 480 tpq"
                    )
            out.append((e.voice, int(start), int(duration), e.pitch.midi))
        offset += phrase.n_bars * phrase.bar_length * per_beat
    if not out:
        raise PhraseValidationError("score has no notes to render")
    return out
