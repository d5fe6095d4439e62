import bisect
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gradus.cli import main
from gradus.errors import PhraseParseError, PhraseValidationError, SpellingError
from gradus.fusion import Score, default_profiles, default_templates, fuse, realize_pitches
from gradus.library import PhraseLibrary
from gradus.midi import (
    TICKS_PER_QUARTER,
    PhraseTracks,
    _read_vlq,
    _vlq,
    read_midi_notes,
    phrase_tracks,
    score_note_events,
    write_midi,
)
from gradus.pitch import parse_key
from gradus.rules import ProgressionGrammar

import fusion_oracle
from conftest import CORPUS_DIR, make_phrase, outcome, random_degree_phrase


def _written(score, path):
    write_midi(score, path)
    return path.read_bytes()


def _score_of(phrase):
    return Score(home_key=phrase.key, phrases=(realize_pitches(phrase, default_profiles(phrase.voices)),))


def test_vlq_round_trip():
    for value in (0, 1, 127, 128, 255, 16383, 16384, 100000):
        data = _vlq(value)
        got, end = _read_vlq(data, 0)
        assert got == value
        assert end == len(data)


def test_one_note_midi():
    score = _score_of(make_phrase([(0, 0, 1, "1")], voices=("treble",)))
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "one.mid")
        write_midi(score, path)
        tracks = read_midi_notes(path)
    assert len(tracks) == 1
    assert tracks[0] == [(72, 0, TICKS_PER_QUARTER)]  # C5: the tonic placement nearest central G4


def test_rests_emit_no_notes():
    score = _score_of(make_phrase([(0, 0, 1, "rest"), (0, 1, 1, "1")], voices=("treble",)))
    events = score_note_events(score)
    assert len(events) == 1
    assert events[0][1] == TICKS_PER_QUARTER  # onset after the rest


def test_empty_score_error():
    score = _score_of(make_phrase([(0, 0, 1, "rest")], voices=("treble",)))
    with pytest.raises(PhraseValidationError):
        score_note_events(score)


def test_unrealized_score_error():
    phrase = make_phrase([(0, 0, 1, "1")], voices=("treble",))
    score = Score(home_key=phrase.key, phrases=(phrase,))
    with pytest.raises(PhraseValidationError, match="realiz"):
        score_note_events(score)


def test_unrepresentable_duration():
    phrase = make_phrase([(0, 0, "1/7", "1")], voices=("treble",))
    score = Score(home_key=phrase.key, phrases=(realize_pitches(phrase, default_profiles(("t",))),))
    with pytest.raises(PhraseValidationError):
        score_note_events(score)


def test_round_trip_fused_fixture(corpus, tmp_path):
    library, _ = PhraseLibrary.build(corpus)
    score, _ = fuse(
        default_templates()[0], library, default_profiles(("treble", "bass")),
        ProgressionGrammar(), np.random.default_rng(3), parse_key("C", "major"),
    )
    path = tmp_path / "fused.mid"
    write_midi(score, path)
    tracks = read_midi_notes(path)
    want = [[] for _ in range(2)]
    for voice, start, dur, pitch in score_note_events(score):
        want[voice].append((pitch, start, dur))
    for voice in range(2):
        assert tracks[voice] == sorted(want[voice])


def _fused(library, seed):
    score, _ = fuse(
        default_templates()[0], library, default_profiles(("treble", "bass")),
        ProgressionGrammar(), np.random.default_rng(seed), parse_key("C", "major"),
    )
    return score


def test_carried_fragments_leave_equality_hash_and_repr(corpus):
    # perfbench keys its re-check by hash(score); the fragments a fused
    # score carries, and those the library keeps, must not reach it.
    library, _ = PhraseLibrary.build(corpus)
    before = (repr(library), hash(library))
    score = _fused(library, 3)
    assert len(score.tracks) == 3 and all(t.phrase is p for t, p in zip(score.tracks, score.phrases))
    bare = Score(home_key=score.home_key, phrases=score.phrases)
    assert (score, hash(score), repr(score)) == (bare, hash(bare), repr(bare))
    assert library.realized and library == PhraseLibrary(library.entries)
    assert (repr(library), hash(library)) == before


def test_replaced_phrases_never_reuse_carried_fragments(corpus, tmp_path):
    # A score copied with other phrases keeps the first score's fragments;
    # write_midi joins one only for the phrase object it was encoded from.
    library, _ = PhraseLibrary.build(corpus)
    score, other = _fused(library, 3), _fused(library, 11)
    own = _written(score, tmp_path / "replaced.mid")
    for phrases in (other.phrases, score.phrases[::-1], score.phrases[:2], score.phrases[1:]):
        moved = replace(score, phrases=phrases)
        assert moved.tracks is score.tracks
        assert _written(moved, tmp_path / "replaced.mid") == fusion_oracle.midi_bytes(moved) != own


def test_unencodable_phrase_fuses_without_fragments(corpus, tmp_path):
    # In a meter of sevenths a beat is 1920/7 ticks, so every phrase has
    # notes off the tick grid: fusion keeps each phrase it realizes with
    # no fragments, and write_midi gives the reference refusal.
    library, dropped = PhraseLibrary.build([replace(p, meter=(p.meter[0], 7)) for p in corpus])
    assert not dropped
    score = _fused(library, 3)
    assert score.tracks == (None, None, None)
    assert len(library.realized) == 3 and all(t is None for _, t in library.realized.values())
    want = outcome(fusion_oracle.score_note_events, score)
    assert want[0] is PhraseValidationError and want[1].endswith("not representable at 480 tpq")
    assert outcome(write_midi, score, tmp_path / "odd.mid") == want
    assert not (tmp_path / "odd.mid").exists()


def test_every_cut_of_a_midi_file_is_refused(tmp_path):
    # The example fuse's score.mid cut at every byte: a header, a chunk or
    # an event cut short is a parse error, never an IndexError or a
    # silent partial parse.
    example = CORPUS_DIR.parent / "config.example.json"
    assert main(["fuse", "--config", str(example), "--library", str(CORPUS_DIR), "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "score.mid").read_bytes()
    assert len(read_midi_notes(tmp_path / "score.mid")) == 2
    cut = tmp_path / "cut.mid"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        with pytest.raises(PhraseParseError):
            read_midi_notes(cut)


@pytest.mark.parametrize("events", [
    bytes([0x00, 0x90, 0x3C]),  # a note-on without its velocity
    bytes([0x00, 0x90, 0x3C, 0x50, 0x81]),  # a delta cut inside its VLQ
    bytes([0x00, 0xFF, 0x2F, 0x05, 0x00]),  # a meta event longer than the track
    bytes([0x00, 0xC0]),  # a program change without its program
])
def test_event_cut_inside_its_track_is_refused(tmp_path, events):
    header = b"MThd" + (6).to_bytes(4, "big") + bytes([0, 1, 0, 1]) + TICKS_PER_QUARTER.to_bytes(2, "big")
    path = tmp_path / "cut.mid"
    path.write_bytes(header + b"MTrk" + len(events).to_bytes(4, "big") + events)
    with pytest.raises(PhraseParseError, match="^MIDI event cut short by the end of its track$"):
        read_midi_notes(path)


def test_meter_denominator_scaling():
    # In 6/8 a "beat" is an eighth: 240 ticks.
    phrase = make_phrase([(0, 0, 1, "1"), (0, 1, 2, "2")], voices=("treble",), meter=(6, 8))
    score = _score_of(phrase)
    events = score_note_events(score)
    assert events[0][2] == 240
    assert events[1][1] == 240 and events[1][2] == 480


def test_repeated_pitch_restrikes(tmp_path):
    phrase = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "1"), (0, 2, 1, "1")], voices=("t",))
    score = _score_of(phrase)
    path = tmp_path / "re.mid"
    write_midi(score, path)
    (track,) = read_midi_notes(path)
    assert len(track) == 3
    assert [t[1] for t in track] == [0, 480, 960]
    assert all(t[2] == 480 for t in track)


def test_mixed_meters_follow_without_a_gap(tmp_path):
    # A 6/8 bar is six eighths, 1440 ticks: the 4/4 phrase after it starts
    # there, and the 6/8 phrase after that one 4/4 bar (1920 ticks) later.
    waltz = _score_of(make_phrase([(0, 0, 6, "1")], voices=("treble",), meter=(6, 8))).phrases[0]
    common = _score_of(make_phrase([(0, 0, 4, "3")], voices=("treble",))).phrases[0]
    score = Score(home_key=waltz.key, phrases=(waltz, common, waltz))
    events = score_note_events(score)
    assert [e[1:3] for e in events] == [(0, 1440), (1440, 1920), (3360, 1440)]
    path = tmp_path / "mixed.mid"
    write_midi(score, path)
    assert read_midi_notes(path) == [sorted((e[3], e[1], e[2]) for e in events)]


def test_off_grid_onset_is_named_in_beats_from_the_score_start():
    # A note after a rest of a seventh of a beat starts between ticks; the
    # refusal names its onset counted from the start of the score.
    bar = _score_of(make_phrase([(0, 0, 4, "1")], voices=("treble",))).phrases[0]
    odd = _score_of(make_phrase([(0, 0, "1/7", "rest"), (0, "1/7", 1, "1")], voices=("treble",))).phrases[0]
    score = Score(home_key=bar.key, phrases=(bar, odd))
    with pytest.raises(PhraseValidationError, match="^duration 29/7 not representable at 480 tpq$"):
        score_note_events(score)
    assert outcome(score_note_events, score) == outcome(fusion_oracle.score_note_events, score)


def _all_rests(rng, n_voices):
    """A phrase of rests alone: one or two bars in a random meter."""
    meter = ((4, 4), (3, 4), (6, 8))[int(rng.integers(3))]
    span = meter[0] * int(rng.integers(1, 3))
    return make_phrase([(v, 0, span, "rest") for v in range(n_voices)], meter=meter,
                       voices=("treble", "alto", "tenor"))


def _stretched(rng, phrase):
    """phrase in a meter of thirds, fifths or sevenths, two to five
    beats a bar, each onset and duration stretched so that a beat of the
    original lasts a whole note: its notes keep to the tick grid or leave
    it as before, while a bar line in sevenths falls between ticks unless
    it closes a multiple of seven beats."""
    den = (3, 5, 7)[int(rng.integers(3))]
    events = tuple(replace(e, onset=den * e.onset, duration=den * e.duration) for e in phrase.events)
    return replace(phrase, meter=(int(rng.integers(2, 6)), den), events=events)


def _bar_lines(score):
    """The tick of each bar line that a phrase after the first starts at,
    as a Fraction: between ticks if the meter before it is in sevenths."""
    lines, offset = [], Fraction(0)
    for p in score.phrases[:-1]:
        offset += p.n_bars * p.bar_length * Fraction(4 * TICKS_PER_QUARTER, p.meter[1])
        lines.append(offset)
    return lines


def _restrike(prev, phrase):
    """phrase, its first note in voice 0 moved onto the pitch of prev's
    last note in voice 0, or phrase itself if either is a rest or has no
    pitch."""
    last = [e for e in prev.events if e.voice == 0][-1]
    k, first = next((k, e) for k, e in enumerate(phrase.events) if e.voice == 0)
    if last.pitch is None or first.pitch is None:
        return phrase
    events = list(phrase.events)
    events[k] = replace(first, pitch=last.pitch)
    return replace(phrase, events=tuple(events))


def _seam_cases(score, notes):
    """The cases of a written score that joining fragments must get right."""
    meters = {p.meter for p in score.phrases}
    cases = {
        "mixed meters": len(meters) > 1,
        "fewer voices": len({len(p.voices) for p in score.phrases}) > 1,
        "all-rest middle": any(p.is_realized() and all(e.is_rest for e in p.events)
                               for p in score.phrases[1:-1]),
    }
    seams = [int(line) for line in _bar_lines(score)]
    ends = {(v, start + dur, pitch) for v, start, dur, pitch in notes}
    cases["restrike at a seam"] = any(
        (v, start, pitch) in ends for v, start, _, pitch in notes if start in seams
    )
    # Per voice and phrase with a note there: its first and last tick.
    spans: dict[tuple[int, int], list[int]] = {}
    for v, start, dur, _ in notes:
        first_last = spans.setdefault((v, bisect.bisect_right(seams, start)), [start, start + dur])
        first_last[1] = start + dur
    joins = sorted(spans.items())
    cases["seam delta >= 128"] = any(
        v == w and b[0] - a[1] >= 128 for ((v, _), a), ((w, _), b) in zip(joins, joins[1:])
    )
    return [case for case, seen in cases.items() if seen]


def test_bar_line_off_the_tick_grid_is_refused_only_before_a_phrase(tmp_path):
    # In 3/7 a note of seven beats lasts 1920 ticks, but the phrase's three
    # bars of three sevenths end between ticks: a phrase after it has no
    # start, even one of rests alone, whose bar lines a file would place
    # if anything followed, so only a score that ends with it can be
    # written.
    odd = _score_of(make_phrase([(0, 0, 7, "1")], voices=("treble",), meter=(3, 7))).phrases[0]
    bar = _score_of(make_phrase([(0, 0, 4, "3")], voices=("treble",))).phrases[0]
    rests = make_phrase([(0, 0, 4, "rest")], voices=("treble",))
    path = tmp_path / "score.mid"
    # A refusal names the bar line in sevenths from the score start.
    for phrases, refusal in (
        ((odd,), None),
        ((bar, odd), None),
        ((odd, bar), "duration 9 not representable at 480 tpq"),
        ((odd, rests), "duration 9 not representable at 480 tpq"),
        ((bar, odd, bar), "duration 16 not representable at 480 tpq"),
        ((bar, odd, rests, bar), "duration 16 not representable at 480 tpq"),
    ):
        score = Score(home_key=bar.key, phrases=phrases)
        want = (PhraseValidationError, refusal) if refusal else fusion_oracle.midi_bytes(score)
        for carried in ((), tuple(phrase_tracks(p) for p in phrases)):
            assert outcome(_written, replace(score, tracks=carried), path) == want
        if refusal:
            assert outcome(score_note_events, score) == want
            assert outcome(fusion_oracle.score_note_events, score) == want


def test_note_events_match_reference(tmp_path):
    # Scores of one to three phrases in mixed meters and numbers of voices:
    # some with notes off the tick grid, some not realized, some of rests
    # alone, some in meters whose beat is no power-of-two part of a whole
    # note, and some opening on the pitch the phrase before closed on.
    # The same note events and the same MIDI bytes, written with or
    # without fragments carried on the score, or the same error and
    # message.
    rng = np.random.default_rng(12)
    kinds, cases = {}, {}
    path = tmp_path / "score.mid"
    for _ in range(1000):
        phrases = []
        for _ in range(int(rng.integers(1, 4))):
            n_voices = int(rng.integers(1, 4))
            if rng.random() < 0.2:
                p = _all_rests(rng, n_voices)
            else:
                p = random_degree_phrase(rng, n_voices)
                if rng.random() < 0.95:
                    try:
                        p = realize_pitches(p, default_profiles(p.voices))
                    except SpellingError:
                        continue
                    if phrases and rng.random() < 0.5:
                        p = _restrike(phrases[-1], p)
            phrases.append(_stretched(rng, p) if rng.random() < 0.3 else p)
        if not phrases:
            continue
        score = Score(home_key=phrases[0].key, phrases=tuple(phrases))
        lines = _bar_lines(score)
        off_grid = next((k for k, line in enumerate(lines) if line.denominator != 1), None)
        if off_grid is not None:
            after = score.phrases[off_grid + 1]
            kind = "before rests" if all(e.is_rest for e in after.events) else "before notes"
            kinds[kind] = kinds.get(kind, 0) + 1
        got = outcome(score_note_events, score)
        assert got == outcome(fusion_oracle.score_note_events, score)
        want = outcome(fusion_oracle.midi_bytes, score)
        assert outcome(_written, score, path) == want
        carried = tuple(outcome(phrase_tracks, p) for p in phrases)
        carried = tuple(t if isinstance(t, PhraseTracks) else None for t in carried)
        assert outcome(_written, replace(score, tracks=carried), path) == want
        kind = got[1].split()[0] if isinstance(got, tuple) else "events"
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "events":
            for case in _seam_cases(score, got):
                cases[case] = cases.get(case, 0) + 1
    assert kinds["events"] >= 400 and kinds["duration"] >= 150 and kinds["score"] >= 80, kinds
    assert kinds["before notes"] >= 30 and kinds["before rests"] >= 5, kinds
    assert len(cases) == 5 and min(cases.values()) >= 20, cases
