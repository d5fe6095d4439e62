"""Plain references for pitch realization, MIDI note events and MIDI
files: what gradus.fusion.realize_pitches, gradus.midi.score_note_events
and gradus.midi.write_midi are tested against.

Each is written as the rules read. Realization spells every octave of
each note's degree as a Pitch and picks among them, note by note, with
no table kept between notes. Note events are computed with Fraction
arithmetic: each phrase's ticks per beat follow its own meter, and the
next phrase starts at the previous phrase's bar-aligned end in ticks,
which must be a whole tick.
A MIDI file is written note by note from those events: each voice's
note-ons and note-offs over the whole score are sorted and encoded in
one pass.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from gradus.errors import PhraseValidationError, SpellingError
from gradus.midi import TEMPO_US_PER_QUARTER, TICKS_PER_QUARTER, VELOCITY, _vlq
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
    """(voice, start_tick, duration_tick, midi_pitch) for every note. Each
    phrase starts at the bar line its predecessor ends on, which must lie
    on the tick grid even when the phrase holds rests alone; a note's
    start or duration must too. A refusal names the bar line, or the
    note's start or duration, in beats of its phrase's meter, a start or
    bar line counted from the score start."""
    out = []
    offset = Fraction(0)  # ticks
    for phrase in score.phrases:
        if offset.denominator != 1:  # per_beat is still the predecessor's
            raise PhraseValidationError(f"duration {offset / per_beat} not representable at 480 tpq")
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


def _track_bytes(events: list[tuple[int, int, int]], channel: int, with_tempo: bool) -> bytes:
    """events: (tick, kind, pitch) with kind 1=on, 0=off."""
    # Offs sort before ons at the same tick so repeated notes re-strike.
    events = sorted(events, key=lambda e: (e[0], e[1]))
    data = bytearray()
    if with_tempo:
        data += _vlq(0) + bytes([0xFF, 0x51, 0x03])
        data += TEMPO_US_PER_QUARTER.to_bytes(3, "big")
    clock = 0
    for tick, kind, pitch in events:
        data += _vlq(tick - clock)
        clock = tick
        status = (0x90 if kind else 0x80) | (channel & 0x0F)
        data += bytes([status, pitch, VELOCITY if kind else 0])
    data += _vlq(0) + bytes([0xFF, 0x2F, 0x00])
    return bytes(data)


def midi_bytes(score) -> bytes:
    """The MIDI file of the score: a format-1 header, then one track per
    voice of the score's widest phrase, the tempo meta in the first."""
    notes = score_note_events(score)
    n_voices = max(len(p.voices) for p in score.phrases)
    per_voice: list[list[tuple[int, int, int]]] = [[] for _ in range(n_voices)]
    for voice, start, dur, pitch in notes:
        per_voice[voice].append((start, 1, pitch))
        per_voice[voice].append((start + dur, 0, pitch))
    header = b"MThd" + (6).to_bytes(4, "big")
    header += (1).to_bytes(2, "big") + n_voices.to_bytes(2, "big")
    header += TICKS_PER_QUARTER.to_bytes(2, "big")
    body = bytearray(header)
    for voice, events in enumerate(per_voice):
        track = _track_bytes(events, channel=voice, with_tempo=voice == 0)
        body += b"MTrk" + len(track).to_bytes(4, "big") + track
    return bytes(body)
