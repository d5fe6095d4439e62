import pytest

from gradus.errors import SpellingError
from gradus.pitch import (
    DEGREES,
    Degree,
    Interval,
    KeyContext,
    REST,
    degree_of,
    parse_degree,
    parse_key,
    parse_pitch,
    realize_degree,
)

MAJOR_TONICS = ["C", "G", "D", "A", "E", "B", "F#", "Db", "Ab", "Eb", "Bb", "F"]
MINOR_TONICS = ["A", "E", "B", "F#", "C#", "G#", "Eb", "Bb", "F", "C", "G", "D"]


def test_midi_values():
    assert parse_pitch("C4").midi == 60
    assert parse_pitch("A4").midi == 69
    assert parse_pitch("F#3").midi == 54
    assert parse_pitch("Bb2").midi == 46
    assert parse_pitch("C##5").midi == 74
    assert str(parse_pitch("Ebb4")) == "Ebb4"


def test_degree_vocabulary_closed():
    assert len(DEGREES) == 18
    assert DEGREES[-1] == REST
    for bad in ("#3", "b4", "#7", "b1"):
        with pytest.raises(SpellingError):
            parse_degree(bad)


def test_degree_of_examples(c_major):
    assert degree_of(parse_pitch("E4"), c_major) == Degree(3)
    assert degree_of(parse_pitch("F#4"), c_major) == Degree(4, 1)
    assert degree_of(parse_pitch("G#4"), parse_key("C#", "major")) == Degree(5)


def test_degree_of_minor_uses_major_reference():
    a_minor = parse_key("A", "minor")
    assert degree_of(parse_pitch("C5"), a_minor) == parse_degree("b3")
    assert degree_of(parse_pitch("G#4"), a_minor) == Degree(7)  # leading tone
    assert degree_of(parse_pitch("G4"), a_minor) == parse_degree("b7")


def test_degree_of_rejects_out_of_vocabulary(c_major):
    with pytest.raises(SpellingError):
        degree_of(parse_pitch("Ebb4"), c_major)  # double-flat 3


def test_realize_examples(c_major):
    assert realize_degree(Degree(3), c_major, 4) == parse_pitch("E4")
    assert realize_degree(parse_degree("b7"), parse_key("G", "major"), 3) == parse_pitch("F3")
    with pytest.raises(SpellingError):
        realize_degree(REST, c_major, 4)


def test_round_trip_all_degrees_all_keys():
    # 17 pitch degrees x 24 keys, exhaustive.
    keys = [parse_key(t, "major") for t in MAJOR_TONICS]
    keys += [parse_key(t, "minor") for t in MINOR_TONICS]
    assert len(keys) == 24
    checked = 0
    for key in keys:
        for degree in DEGREES[:-1]:
            assert degree_of(realize_degree(degree, key, 4), key) == degree
            checked += 1
    assert checked == 17 * 24


def test_interval_between_and_apply():
    c, g = parse_key("C", "major"), parse_key("G", "major")
    p5 = Interval.between(c, g)
    assert (p5.letter_shift, p5.semitones) == (4, 7)
    assert p5.apply(parse_pitch("C4")) == parse_pitch("G4")
    assert p5.apply(parse_pitch("B3")) == parse_pitch("F#4")
    assert p5.apply_to_key(c) == g


def test_key_validation():
    with pytest.raises(SpellingError):
        KeyContext("G", 1, "major")  # G# major is not a signature root
    with pytest.raises(SpellingError):
        parse_key("C", "dorian")
