"""Phrase model, on-disk phrase format, and rhythm skeleton sampling.

Onsets and durations are exact fractions in units of the meter's
denominator note (a "beat"), so a quarter note in 4/4 and an eighth note
in 6/8 both have duration 1. Bar length equals the meter numerator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import PhraseParseError, PhraseValidationError, _get
from .pitch import (
    Degree,
    Interval,
    KeyContext,
    Pitch,
    degree_of,
    parse_degree,
    parse_key,
    parse_pitch,
)


@dataclass(frozen=True)
class NoteEvent:
    """One scored event: a pitched note, a degree-encoded note, a rest, or
    (in rhythm skeletons) a placeholder with neither."""

    voice: int
    onset: Fraction
    duration: Fraction
    degree: Optional[Degree] = None
    pitch: Optional[Pitch] = None
    tie: bool = False  # continuation of the previous event in this voice

    def __post_init__(self):
        if self.duration <= 0:
            raise PhraseValidationError(f"duration must be positive, got {self.duration}")
        if self.onset < 0:
            raise PhraseValidationError(f"onset must be non-negative, got {self.onset}")
        if self.voice < 0:
            raise PhraseValidationError(f"voice must be non-negative, got {self.voice}")
        if self.degree is not None and self.pitch is not None:
            raise PhraseValidationError("event carries both a degree and a pitch")

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration

    @property
    def is_rest(self) -> bool:
        return self.degree is not None and self.degree.is_rest

    def degree_in(self, key: KeyContext) -> Optional[Degree]:
        """Degree content regardless of encoding; None for placeholders."""
        if self.degree is not None:
            return self.degree
        if self.pitch is not None:
            return degree_of(self.pitch, key)
        return None


@dataclass(frozen=True)
class Phrase:
    key: KeyContext
    meter: tuple[int, int]
    voices: tuple[str, ...]
    events: tuple[NoteEvent, ...]
    cadence_annotation: Optional[str] = None
    structural: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # End of the last event, set once at construction; not compared or hashed.
    span: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.voices) < 1:
            raise PhraseValidationError("phrase needs at least one voice")
        if not self.events:
            raise PhraseValidationError("phrase has no events")
        num, den = self.meter
        if num < 1 or den < 1:
            raise PhraseValidationError(f"bad meter {self.meter}")
        # Canonical event order: by onset, then voice.
        ordered = tuple(sorted(self.events, key=lambda e: (e.onset, e.voice)))
        object.__setattr__(self, "events", ordered)
        for e in ordered:
            if e.voice >= len(self.voices):
                raise PhraseValidationError(f"event voice {e.voice} out of range")
        for v in range(len(self.voices)):
            own = [e for e in ordered if e.voice == v]
            for a, b in zip(own, own[1:]):
                if b.onset < a.end:
                    raise PhraseValidationError(
                        f"overlapping events in voice {self.voices[v]!r} at onset {b.onset}"
                    )
        span = max(e.end for e in ordered)
        if span <= 0:
            raise PhraseValidationError("phrase has zero span")
        object.__setattr__(self, "span", span)

    @property
    def bar_length(self) -> Fraction:
        return Fraction(self.meter[0])

    @property
    def n_bars(self) -> int:
        full, rem = divmod(self.span, self.bar_length)
        return int(full) + (1 if rem else 0)

    def is_realized(self) -> bool:
        return all(e.pitch is not None or e.is_rest for e in self.events)


def _derived(obj, **changes):
    """A copy of a phrase or event with some fields changed, made without
    the constructor's sort and checks. Callers derive from valid objects
    and vouch for the rest: an event keeps a positive duration, gets a
    non-negative onset and at most one of degree and pitch; a phrase's
    events come in canonical order, fit its voices, do not overlap and
    end at its ``span``."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **changes)
    return out


def _frac(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PhraseParseError(f"cannot parse {what} {text!r} as a fraction") from None


def parse_phrase(document: str) -> Phrase:
    """Parse phrase JSON text; unknown fields are ignored."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PhraseParseError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return phrase_from_dict(obj)


def _event_from_dict(ev: dict, where: str) -> NoteEvent:
    """One event object, each field of its JSON type: a voice is an
    integer, onset, duration, degree and pitch are strings, a tie is true
    or false."""
    if not isinstance(ev, dict):
        raise PhraseParseError(f"{where} must be a JSON object, not {ev!r}")
    if "pitch" in ev and "degree" in ev:
        raise PhraseParseError(f"{where} carries both 'pitch' and 'degree'")
    get = partial(_get, ev, where=where, error=PhraseParseError)
    degree, pitch = get("degree", str, default=None), get("pitch", str, default=None)
    return NoteEvent(
        voice=get("voice", int),
        onset=_frac(get("onset", str), f"{where} onset"),
        duration=_frac(get("duration", str), f"{where} duration"),
        degree=None if degree is None else parse_degree(degree),
        pitch=None if pitch is None else parse_pitch(pitch),
        tie=get("tie", bool, default=False),
    )


def _int_pair(value, what: str) -> tuple[int, int]:
    """A JSON list of two integers; a bool or a float is refused."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise PhraseParseError(f"{what} must be a list of two integers, not {value!r}")
    return value[0], value[1]


def phrase_from_dict(obj: dict) -> Phrase:
    """A phrase object, each field of its JSON type: the key is an object
    of the strings tonic and mode, the meter a list of two integers, the
    voices a list of strings, the cadence a string and the structural
    edges a list of [a, b] lists of event indices."""
    if not isinstance(obj, dict):
        raise PhraseParseError(f"phrase must be a JSON object, not {obj!r}")
    get = partial(_get, where="phrase", error=PhraseParseError)
    key_obj = get(obj, "key", dict)
    tonic, mode = (get(key_obj, name, str, where="key object") for name in ("tonic", "mode"))
    voices = tuple(get(obj, "voices", list))
    if not all(isinstance(v, str) for v in voices):
        raise PhraseParseError(f"phrase voices must be strings, not {list(voices)!r}")
    raw_events = get(obj, "events", list)
    events = tuple(_event_from_dict(ev, f"event {i}") for i, ev in enumerate(raw_events))
    structural = tuple(
        _int_pair(edge, f"malformed structural edge list: edge {i}")
        for i, edge in enumerate(get(obj, "structural", list, default=[]))
    )
    for a, b in structural:
        if not (0 <= a < len(events) and 0 <= b < len(events)):
            raise PhraseParseError(f"structural edge ({a}, {b}) references a missing event")
    return Phrase(
        key=parse_key(tonic, mode),
        meter=_int_pair(get(obj, "meter", list), "phrase meter"),
        voices=voices,
        events=events,
        cadence_annotation=get(obj, "cadence", str, default=None),
        structural=structural,
    )


def phrase_to_dict(phrase: Phrase) -> dict:
    events = []
    for e in phrase.events:
        ev: dict = {"voice": e.voice, "onset": str(e.onset), "duration": str(e.duration)}
        if e.pitch is not None:
            ev["pitch"] = str(e.pitch)
        elif e.degree is not None:
            ev["degree"] = str(e.degree)
        if e.tie:
            ev["tie"] = True
        events.append(ev)
    out = {
        "key": {"tonic": phrase.key.tonic_name, "mode": phrase.key.mode},
        "meter": list(phrase.meter),
        "voices": list(phrase.voices),
        "events": events,
    }
    if phrase.cadence_annotation:
        out["cadence"] = phrase.cadence_annotation
    if phrase.structural:
        out["structural"] = [list(p) for p in phrase.structural]
    return out


def serialize_phrase(phrase: Phrase) -> str:
    return json.dumps(phrase_to_dict(phrase), indent=2) + "\n"


def load_corpus(directory: str | Path) -> list[Phrase]:
    """Load every *.phrase.json in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.phrase.json"))
    if not paths:
        raise PhraseParseError(f"no *.phrase.json files in {directory}")
    phrases = []
    for p in paths:
        try:
            phrases.append(parse_phrase(p.read_text()))
        except (PhraseParseError, PhraseValidationError) as exc:
            raise type(exc)(f"{p.name}: {exc}") from exc
    return phrases


def metric_strength(onset: Fraction | int, meter: tuple[int, int]) -> float:
    """Accent weight of a beat position; periodic with the bar length."""
    num, _ = meter
    pos = onset % num
    if pos.denominator != 1:
        return 0.125
    beat = int(pos)
    if beat == 0:
        return 1.0
    if num == 4 and beat == 2:
        return 0.5
    return 0.25


def transpose_phrase(phrase: Phrase, interval: Interval) -> Phrase:
    """Shift a phrase by a diatonic interval; degrees are key-relative and
    therefore unchanged, pitches and the key move together."""
    new_key = interval.apply_to_key(phrase.key)
    events = tuple(
        e if e.pitch is None else _derived(e, pitch=interval.apply(e.pitch)) for e in phrase.events
    )
    return _derived(phrase, key=new_key, events=events)


def strip_to_skeleton(phrase: Phrase) -> Phrase:
    """Erase all pitch/degree content, keeping rhythm, voices, and ties."""
    events = tuple(replace(e, degree=None, pitch=None) for e in phrase.events)
    return replace(phrase, events=events, cadence_annotation=None, structural=())


def split_measures(phrase: Phrase) -> list[tuple[NoteEvent, ...]]:
    """Events per bar, onsets rebased to the bar; events crossing a barline
    are split with a tie on the continuation."""
    bar = phrase.bar_length
    bars: list[list[NoteEvent]] = [[] for _ in range(phrase.n_bars)]
    for e in phrase.events:
        start = e.onset
        remaining = e.duration
        tie = e.tie
        while remaining > 0:
            idx = int(start // bar)
            local = start - idx * bar
            chunk = min(remaining, bar - local)
            bars[idx].append(replace(e, onset=local, duration=chunk, tie=tie))
            start += chunk
            remaining -= chunk
            tie = True
    return [tuple(b) for b in bars]


def sample_rhythm(
    corpus: Sequence[Phrase],
    mode: str,
    rng: np.random.Generator,
    measures: int = 2,
) -> Phrase:
    """Draw a rhythmic skeleton from a corpus with the given generator;
    there is no unseeded draw.

    ``whole-phrase`` strips a uniformly drawn phrase. ``measure-mix``
    concatenates uniformly drawn bars, with the final bar drawn from the
    pool of phrase-ending bars so cadential rhythm stays idiomatic.
    """
    if not corpus:
        raise PhraseValidationError("empty corpus")
    if mode == "whole-phrase":
        src = corpus[int(rng.integers(len(corpus)))]
        return strip_to_skeleton(src)
    if mode != "measure-mix":
        raise PhraseValidationError(f"unknown rhythm sampling mode {mode!r}")
    if measures < 1:
        raise PhraseValidationError("measure-mix needs at least one measure")
    ref = corpus[int(rng.integers(len(corpus)))]
    pool = [p for p in corpus if p.meter == ref.meter and len(p.voices) == len(ref.voices)]
    split = [(p, split_measures(p)) for p in pool]
    all_bars = [bar for _, bars in split for bar in bars if bar]
    ending_bars = [(p, bars[-1]) for p, bars in split if bars[-1]]
    if not all_bars or not ending_bars:
        raise PhraseValidationError("corpus has no usable measures")
    chosen: list[tuple[NoteEvent, ...]] = [
        all_bars[int(rng.integers(len(all_bars)))] for _ in range(measures - 1)
    ]
    final_src, final_bar = ending_bars[int(rng.integers(len(ending_bars)))]
    chosen.append(final_bar)
    bar = ref.bar_length
    events = []
    for i, bar_events in enumerate(chosen):
        for e in bar_events:
            events.append(replace(e, onset=e.onset + i * bar, degree=None, pitch=None))
    # Ties into a fresh bar no longer continue anything; drop leading tie flags.
    events = [replace(e, tie=False) if e.onset % bar == 0 and e.tie else e for e in events]
    return Phrase(
        key=final_src.key,
        meter=ref.meter,
        voices=ref.voices,
        events=tuple(events),
    )
