"""Minimal standard MIDI file writer and reparser.

Format 1, 480 ticks per quarter note, a fixed 500000 us/quarter tempo
meta in the first track, one track per voice with channel = voice index
and velocity 80. The reparser exists so emitted files can be verified
tick-exactly in round-trip tests.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .errors import PhraseParseError, PhraseValidationError
from .fusion import Score

TICKS_PER_QUARTER = 480
TEMPO_US_PER_QUARTER = 500000
VELOCITY = 80


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


def score_note_events(score: Score) -> list[tuple[int, int, int, int]]:
    """(voice, start_tick, duration_tick, midi_pitch) for every note; each
    phrase begins at the bar boundary after its predecessor, in ticks, so
    phrases in different meters follow each other without a gap."""
    out = []
    offset = 0  # ticks
    for i, phrase in enumerate(score.phrases):
        den = phrase.meter[1]
        if i:
            prev = score.phrases[i - 1]
            offset = _beats_to_ticks(prev.n_bars * prev.bar_length, prev.meter[1], offset)
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


def write_midi(score: Score, path: str | Path) -> None:
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
    Path(path).write_bytes(bytes(body))


def read_midi_notes(path: str | Path) -> list[list[tuple[int, int, int]]]:
    """Per track, sorted (pitch, onset_tick, duration_tick) triples."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MThd" or int.from_bytes(raw[4:8], "big") != 6:
        raise PhraseParseError("not a standard MIDI file")
    n_tracks = int.from_bytes(raw[10:12], "big")
    pos = 14
    tracks = []
    for _ in range(n_tracks):
        if raw[pos : pos + 4] != b"MTrk":
            raise PhraseParseError("missing MTrk chunk")
        length = int.from_bytes(raw[pos + 4 : pos + 8], "big")
        chunk = raw[pos + 8 : pos + 8 + length]
        pos += 8 + length
        tracks.append(_parse_track(chunk))
    return tracks


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
    return sorted((p, on, dur) for p, on, dur in notes)
