import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradus import phrase as phrase_module
from gradus.errors import PhraseParseError, PhraseValidationError
from gradus.phrase import (
    Phrase,
    load_corpus,
    metric_strength,
    parse_phrase,
    sample_rhythm,
    serialize_phrase,
    split_measures,
    strip_to_skeleton,
    transpose_phrase,
)
from gradus.pitch import Degree, Interval, parse_key

from conftest import CORPUS_DIR, counting, make_phrase

DATA = Path(__file__).parent / "data"

MINIMAL = json.dumps(
    {
        "key": {"tonic": "C", "mode": "major"},
        "meter": [4, 4],
        "voices": ["melody"],
        "events": [{"voice": 0, "onset": "0", "duration": "1", "degree": "1"}],
    }
)


def test_parse_minimal_document():
    p = parse_phrase(MINIMAL)
    assert len(p.events) == 1
    assert p.events[0].degree == Degree(1)
    assert p.span == 1


def test_parse_rejects_overlap():
    doc = json.loads(MINIMAL)
    doc["events"].append({"voice": 0, "onset": "1/2", "duration": "1", "degree": "2"})
    with pytest.raises(PhraseValidationError, match="melody"):
        parse_phrase(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(PhraseParseError, match="line"):
        parse_phrase("{ not json")


def test_parse_rejects_pitch_and_degree():
    doc = json.loads(MINIMAL)
    doc["events"][0]["pitch"] = "C4"
    with pytest.raises(PhraseParseError):
        parse_phrase(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value,error,message",
    [
        ("voice", -1, PhraseValidationError, "voice must be non-negative"),
        ("voice", 0.7, PhraseParseError, "key 'voice' must be an integer"),
        ("voice", True, PhraseParseError, "key 'voice' must be an integer"),
        ("voice", "0", PhraseParseError, "key 'voice' must be an integer"),
        ("tie", "false", PhraseParseError, "key 'tie' must be true or false"),
        ("tie", 0, PhraseParseError, "key 'tie' must be true or false"),
    ],
    ids=["negative-voice", "float-voice", "bool-voice", "string-voice", "string-tie", "int-tie"],
)
def test_parse_refuses_coerced_event_fields(field, value, error, message):
    # A voice is a JSON integer >= 0 and a tie a JSON boolean; nothing is
    # rounded, wrapped into the bass or read as truthy.
    doc = json.loads(MINIMAL)
    doc["events"][0][field] = value
    with pytest.raises(error, match=message):
        parse_phrase(json.dumps(doc))


def test_parse_reads_typed_event_fields():
    doc = json.loads(MINIMAL)
    doc["events"].append({"voice": 0, "onset": "1", "duration": "1", "degree": "1", "tie": True})
    doc["events"].append({"voice": 0, "onset": "2", "duration": "1", "degree": "2", "tie": False})
    p = parse_phrase(json.dumps(doc))
    assert [e.tie for e in p.events] == [False, True, False]


def test_unknown_fields_ignored():
    doc = json.loads(MINIMAL)
    doc["composer"] = "unknown"
    doc["events"][0]["fingering"] = 3
    assert len(parse_phrase(json.dumps(doc)).events) == 1


def test_sample_eight_event_file():
    p = parse_phrase((DATA / "sample_eight.phrase.json").read_text())
    assert len(p.events) == 8
    assert p.span == 4


def test_parse_serialize_parse_fixed_point():
    for path in sorted(CORPUS_DIR.glob("*.phrase.json")):
        p1 = parse_phrase(path.read_text())
        text = serialize_phrase(p1)
        p2 = parse_phrase(text)
        assert p1 == p2
        assert serialize_phrase(p2) == text


def test_metric_strength_table():
    assert metric_strength(Fraction(0), (4, 4)) == 1.0
    assert metric_strength(Fraction(2), (4, 4)) == 0.5
    assert metric_strength(Fraction(1), (4, 4)) == 0.25
    assert metric_strength(Fraction(3), (4, 4)) == 0.25
    assert metric_strength(Fraction(3, 2), (4, 4)) == 0.125
    assert metric_strength(Fraction(0), (3, 4)) == 1.0
    assert metric_strength(Fraction(1), (3, 4)) == 0.25
    assert metric_strength(Fraction(2), (3, 4)) == 0.25
    assert metric_strength(Fraction(0), (6, 8)) == 1.0
    assert metric_strength(Fraction(3), (6, 8)) == 0.25


@given(
    onset=st.fractions(min_value=0, max_value=100),
    bars=st.integers(min_value=1, max_value=5),
    num=st.sampled_from([2, 3, 4, 6]),
)
def test_metric_strength_periodic(onset, bars, num):
    assert metric_strength(onset, (num, 4)) == metric_strength(onset + bars * num, (num, 4))


def test_transpose_group_action(corpus):
    p = corpus[0]
    up5 = Interval(4, 7)
    down5 = Interval(-4, -7)
    assert transpose_phrase(p, Interval(0, 0)) == p
    assert transpose_phrase(transpose_phrase(p, up5), down5) == p
    assert transpose_phrase(p, up5).key == parse_key("G", "major")


def test_transpose_moves_pitches():
    p = make_phrase([(0, 0, 1, None)])
    from dataclasses import replace

    from gradus.pitch import parse_pitch

    p = replace(p, events=(replace(p.events[0], pitch=parse_pitch("E4")),))
    q = transpose_phrase(p, Interval(4, 7))
    assert q.events[0].pitch == parse_pitch("B4")


def test_span_is_stored_at_construction(corpus):
    # The span is set once in __post_init__; every way of making a phrase
    # recomputes it from the events it ends up with.
    from dataclasses import replace

    def end(p):
        return max(e.end for e in p.events)

    for p in corpus:
        assert p.span == end(p) and p.span > 0
        first_bar = replace(p, events=tuple(e for e in p.events if e.end <= p.bar_length))
        assert first_bar.span == end(first_bar) < p.span
        moved = transpose_phrase(p, Interval(4, 7))
        assert moved.span == end(moved) == p.span
    with pytest.raises(ValueError):
        replace(corpus[0], span=Fraction(1))  # not a constructor argument


def test_span_leaves_equality_and_hash_alone(corpus):
    p = corpus[3]
    again = parse_phrase(serialize_phrase(p))
    assert again == p and hash(again) == hash(p)
    assert "span" not in repr(p)
    # A phrase in another key has the same span but is a different phrase.
    moved = transpose_phrase(p, Interval(1, 2))
    assert moved.span == p.span and moved != p


def test_skeleton_has_no_pitch_content(corpus):
    for p in corpus[:5]:
        skel = strip_to_skeleton(p)
        assert all(e.degree is None and e.pitch is None for e in skel.events)
        assert [(e.voice, e.onset, e.duration) for e in skel.events] == [
            (e.voice, e.onset, e.duration) for e in p.events
        ]


def test_sample_rhythm_whole_phrase_single_corpus(corpus):
    rng = np.random.default_rng(0)
    skel = sample_rhythm(corpus[:1], "whole-phrase", rng)
    assert skel == strip_to_skeleton(corpus[0])


def test_sample_rhythm_empty_corpus():
    with pytest.raises(PhraseValidationError):
        sample_rhythm([], "whole-phrase", np.random.default_rng(0))


def test_measure_mix_final_bar_is_cadential():
    # Corpus of two 2-bar phrases: 4 possible (first, last) draws; the last
    # bar must always come from the phrase-ending pool.
    a = make_phrase(
        [(0, 0, 4, "1"), (0, 4, 2, "2"), (0, 6, 2, "1")], voices=("treble",)
    )
    b = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 3, "4"), (0, 4, 4, "5")], voices=("treble",)
    )
    ending_rhythms = set()
    for p in (a, b):
        bar = split_measures(p)[-1]
        ending_rhythms.add(tuple((e.onset, e.duration) for e in bar))
    seen = set()
    for seed in range(40):
        skel = sample_rhythm([a, b], "measure-mix", np.random.default_rng(seed), measures=2)
        assert skel.n_bars == 2
        last_bar = [e for e in skel.events if e.onset >= 4]
        rhythm = tuple((e.onset - 4, e.duration) for e in last_bar)
        assert rhythm in ending_rhythms
        assert all(e.degree is None and e.pitch is None for e in skel.events)
        seen.add(rhythm)
    assert len(seen) == 2  # both ending bars eventually drawn


# Per (seed, measures): the key, meter and each voice's onset+duration
# list of the measure-mix skeletons drawn from the shipped corpus when each
# pool phrase was split three times a draw.
MEASURE_MIX_SKELETONS = [
    (0, 2, "G major", (4, 4), ("0+1/2 1/2+1/2 1+1 2+2 4+1 5+1 6+2", "0+1 1+1 2+1 3+1 4+1 5+1 6+2")),
    (1, 2, "D major", (4, 4), ("0+1 1+1 2+2 4+1 5+1 6+2", "0+1 1+1 2+2 4+1 5+1 6+2")),
    (2, 3, "C major", (3, 4), ("0+1 1+2 3+1 4+1/2 9/2+1/2 5+1 6+1 7+2", "0+1 1+2 3+1 4+1 5+1 6+1 7+2")),
    (3, 1, "C major", (3, 4), ("0+1 1+2", "0+1 1+2")),
    (4, 4, "A minor", (4, 4), ("0+1 1+1 2+2 4+1 5+1 6+2 8+1 9+1 10+2 12+1 13+1 14+2",) * 2),
]


@pytest.mark.parametrize("seed,measures,key,meter,voices", MEASURE_MIX_SKELETONS)
def test_measure_mix_splits_each_pool_phrase_once(corpus, monkeypatch, seed, measures, key, meter, voices):
    calls = {"split": 0}
    monkeypatch.setattr(phrase_module, "split_measures", counting(calls, "split", split_measures))
    skel = sample_rhythm(corpus, "measure-mix", np.random.default_rng(seed), measures=measures)
    pool = [p for p in corpus if p.meter == skel.meter and len(p.voices) == len(skel.voices)]
    assert calls["split"] == len(pool)
    assert (str(skel.key), skel.meter) == (key, meter)
    assert not any(e.tie for e in skel.events)
    assert tuple(
        " ".join(f"{e.onset}+{e.duration}" for e in skel.events if e.voice == v) for v in range(len(skel.voices))
    ) == voices


def test_split_measures_splits_crossing_events():
    p = make_phrase([(0, 0, 3, "1"), (0, 3, 2, "2"), (0, 5, 3, "3")], voices=("treble",))
    bars = split_measures(p)
    assert len(bars) == 2
    assert [str(e.duration) for e in bars[0]] == ["3", "1"]
    assert bars[1][0].tie  # continuation of the crossing event
    assert bars[1][0].duration == 1


def test_load_corpus_counts():
    corpus = load_corpus(CORPUS_DIR)
    assert len(corpus) == 20
