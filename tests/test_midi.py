import numpy as np
import pytest

from gradus.errors import PhraseValidationError, SpellingError
from gradus.fusion import Score, default_profiles, default_templates, fuse, realize_pitches
from gradus.library import PhraseLibrary
from gradus.midi import (
    TICKS_PER_QUARTER,
    _read_vlq,
    _vlq,
    read_midi_notes,
    score_note_events,
    write_midi,
)
from gradus.pitch import parse_key
from gradus.rules import ProgressionGrammar

import fusion_oracle
from conftest import make_phrase, outcome, random_degree_phrase


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


def test_note_events_match_reference():
    # Scores of one to three realized phrases in mixed meters, some with
    # notes off the tick grid, and some not realized: the same events, or
    # the same error and message.
    rng = np.random.default_rng(12)
    kinds = {}
    for _ in range(400):
        n_voices = int(rng.integers(1, 4))
        phrases = []
        for _ in range(int(rng.integers(1, 4))):
            p = random_degree_phrase(rng, n_voices)
            if rng.random() < 0.95:
                try:
                    p = realize_pitches(p, default_profiles(p.voices))
                except SpellingError:
                    continue
            phrases.append(p)
        if not phrases:
            continue
        score = Score(home_key=phrases[0].key, phrases=tuple(phrases))
        got = outcome(score_note_events, score)
        assert got == outcome(fusion_oracle.score_note_events, score)
        kind = got[1].split()[0] if isinstance(got, tuple) else "events"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["events"] >= 200 and kinds["duration"] >= 60 and kinds["score"] >= 20
