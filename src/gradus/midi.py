"""Minimal standard MIDI file writer and reparser.

Format 1, 480 ticks per quarter note, a fixed 500000 us/quarter tempo
meta in the first track, one track per voice with channel = voice index
and velocity 80. The reparser exists so emitted files can be verified
tick-exactly in round-trip tests.

A score is written from per-phrase track fragments: ``phrase_tracks``
encodes a phrase's notes, per voice, as track events in ticks from the
phrase's first bar line, and ``write_midi`` joins each voice's fragments
with one delta per seam. A phrase depends on nothing before it but its
tick offset, so fusion encodes each realized phrase once per library
and hands the fragments to ``write_midi`` on the ``Score``; any other
score's phrases are encoded as it is written.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import PhraseParseError, PhraseValidationError
from .phrase import Phrase

if TYPE_CHECKING:  # fusion imports this module to encode what it realizes
    from .fusion import Score

TICKS_PER_QUARTER = 480
TEMPO_US_PER_QUARTER = 500000
VELOCITY = 80

_TEMPO = bytes([0x00, 0xFF, 0x51, 0x03]) + TEMPO_US_PER_QUARTER.to_bytes(3, "big")
_END_OF_TRACK = bytes([0x00, 0xFF, 0x2F, 0x00])


def _vlq(value: int) -> bytes:
    """Variable-length quantity encoding."""
    if value < 0:
        raise PhraseValidationError("negative delta time")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def _beats_to_ticks(beats: Fraction, den: int, offset: int = 0) -> int:
    """offset + beats * 4 * TICKS_PER_QUARTER / den, which must be a whole
    number of ticks; offset is in ticks. A refusal names the beat counted
    from the offset, in beats of den."""
    ticks, rem = divmod(beats.numerator * 4 * TICKS_PER_QUARTER, beats.denominator * den)
    if rem:
        beats += Fraction(offset * den, 4 * TICKS_PER_QUARTER)
        raise PhraseValidationError(f"duration {beats} not representable at 480 tpq")
    return offset + ticks


def _phrase_note_events(phrase: Phrase, offset: int) -> list[tuple[int, int, int, int]]:
    """``score_note_events`` of one phrase that begins offset ticks into
    the score, but a phrase without notes gives an empty list."""
    den = phrase.meter[1]
    out = []
    for e in phrase.events:
        if e.is_rest:
            continue
        if e.pitch is None:
            raise PhraseValidationError(
                "score is not realized; run pitch realization before rendering"
            )
        out.append(
            (
                e.voice,
                _beats_to_ticks(e.onset, den, offset),
                _beats_to_ticks(e.duration, den),
                e.pitch.midi,
            )
        )
    return out


def score_note_events(score: Score) -> list[tuple[int, int, int, int]]:
    """(voice, start_tick, duration_tick, midi_pitch) for every note; each
    phrase begins at the bar boundary after its predecessor, in ticks, so
    phrases in different meters follow each other without a gap."""
    out = []
    offset = 0  # ticks
    for i, phrase in enumerate(score.phrases):
        if i:
            prev = score.phrases[i - 1]
            offset = _beats_to_ticks(prev.n_bars * prev.bar_length, prev.meter[1], offset)
        out += _phrase_note_events(phrase, offset)
    if not out:
        raise PhraseValidationError("score has no notes to render")
    return out


class PhraseTracks(NamedTuple):
    """One phrase's notes as MIDI track fragments, in ticks from the
    phrase's first bar line."""

    phrase: Phrase  # the phrase object encoded; its fragments serve no other
    # Per voice: (first event tick, last event tick, the events' bytes from
    # the first status byte on, inner deltas encoded), or None with no note.
    voices: tuple[Optional[tuple[int, int, bytes]], ...]
    length: Optional[int]  # bar-aligned length in ticks; None if off the tick grid


def phrase_tracks(phrase: Phrase) -> PhraseTracks:
    """Encode a phrase's notes per voice. Raises what ``score_note_events``
    raises for the phrase's notes, or ValueError for a pitch outside a
    byte."""
    per_voice: list[list[tuple[int, int, int]]] = [[] for _ in phrase.voices]
    for voice, start, dur, pitch in _phrase_note_events(phrase, 0):
        per_voice[voice] += ((start, 1, pitch), (start + dur, 0, pitch))
    voices = []
    for channel, events in enumerate(per_voice):
        if not events:
            voices.append(None)
            continue
        # Offs sort before ons at the same tick so repeated notes re-strike.
        events.sort(key=lambda e: (e[0], e[1]))
        data = bytearray()
        clock = first = events[0][0]
        for tick, on, pitch in events:
            data += _vlq(tick - clock)
            clock = tick
            data += bytes([(0x90 if on else 0x80) | (channel & 0x0F), pitch, VELOCITY if on else 0])
        # The first event's delta, 0, gives way to the one its seam needs.
        voices.append((first, clock, bytes(data[1:])))
    try:
        length = _beats_to_ticks(phrase.n_bars * phrase.bar_length, phrase.meter[1])
    except PhraseValidationError:  # only a phrase with one after it needs its length
        length = None
    return PhraseTracks(phrase, tuple(voices), length)


def write_midi(score: Score, path: str | Path) -> None:
    """Write the score as a MIDI file, joining its phrases' fragments: the
    ones the score carries for its very phrase objects, others encoded
    here. Refuses what ``score_note_events`` refuses, with its message."""
    parts = []
    for k, phrase in enumerate(score.phrases):
        part = score.tracks[k] if k < len(score.tracks) else None
        if part is None or part.phrase is not phrase:
            try:
                part = phrase_tracks(phrase)
            except (PhraseValidationError, ValueError):
                score_note_events(score)  # the score's own refusal comes first
                raise
        parts.append(part)
    offsets = [0]
    for part in parts[:-1]:
        if part.length is None:
            break
        offsets.append(offsets[-1] + part.length)
    if len(offsets) < len(parts) or not any(any(part.voices) for part in parts):
        score_note_events(score)  # raises: a bar line off the tick grid, or no notes
    n_voices = max(len(part.voices) for part in parts)
    chunks = [
        b"MThd", (6).to_bytes(4, "big"), (1).to_bytes(2, "big"), n_voices.to_bytes(2, "big"),
        TICKS_PER_QUARTER.to_bytes(2, "big"),
    ]
    for voice in range(n_voices):
        track = [_TEMPO] if voice == 0 else []
        clock = 0
        for offset, part in zip(offsets, parts):
            fragment = part.voices[voice] if voice < len(part.voices) else None
            if fragment is not None:
                first, last, data = fragment
                track += (_vlq(offset + first - clock), data)
                clock = offset + last
        track.append(_END_OF_TRACK)
        body = b"".join(track)
        chunks += (b"MTrk", len(body).to_bytes(4, "big"), body)
    Path(path).write_bytes(b"".join(chunks))


def read_midi_notes(path: str | Path) -> list[list[tuple[int, int, int]]]:
    """Per track, sorted (pitch, onset_tick, duration_tick) triples. A
    file cut short, in a chunk or in an event, is refused."""
    raw = Path(path).read_bytes()
    if len(raw) < 14 or raw[:4] != b"MThd" or int.from_bytes(raw[4:8], "big") != 6:
        raise PhraseParseError("not a standard MIDI file")
    n_tracks = int.from_bytes(raw[10:12], "big")
    pos = 14
    tracks = []
    for _ in range(n_tracks):
        if raw[pos : pos + 4] != b"MTrk":
            raise PhraseParseError("missing MTrk chunk")
        length = int.from_bytes(raw[pos + 4 : pos + 8], "big")
        if pos + 8 + length > len(raw):
            raise PhraseParseError("MTrk chunk runs past the end of the file")
        chunk = raw[pos + 8 : pos + 8 + length]
        pos += 8 + length
        try:
            tracks.append(_parse_track(chunk))
        except IndexError:  # an event read past the chunk
            raise PhraseParseError(_CUT_EVENT) from None
    return tracks


_CUT_EVENT = "MIDI event cut short by the end of its track"


def _read_vlq(chunk: bytes, i: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = chunk[i]
        i += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, i


def _parse_track(chunk: bytes) -> list[tuple[int, int, int]]:
    i = 0
    clock = 0
    open_notes: dict[tuple[int, int], int] = {}
    notes = []
    status = 0
    while i < len(chunk):
        delta, i = _read_vlq(chunk, i)
        clock += delta
        byte = chunk[i]
        if byte & 0x80:
            status = byte
            i += 1
        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x90, 0x80):
            pitch, vel = chunk[i], chunk[i + 1]
            i += 2
            key = (channel, pitch)
            if kind == 0x90 and vel > 0:
                open_notes[key] = clock
            elif key in open_notes:
                start = open_notes.pop(key)
                notes.append((pitch, start, clock - start))
        elif kind in (0xA0, 0xB0, 0xE0):
            i += 2
        elif kind in (0xC0, 0xD0):
            i += 1
        elif status == 0xFF:
            meta_len, j = _read_vlq(chunk, i + 1)
            i = j + meta_len
        elif status in (0xF0, 0xF7):
            sys_len, j = _read_vlq(chunk, i)
            i = j + sys_len
        else:
            raise PhraseParseError(f"unhandled MIDI status {status:#x}")
    if i > len(chunk):  # the last event's data runs past the chunk
        raise PhraseParseError(_CUT_EVENT)
    return sorted((p, on, dur) for p, on, dur in notes)
