import numpy as np
import pytest

from gradus.phrase import transpose_phrase
from gradus.pitch import Degree, Interval
from gradus.rules import (
    ProgressionGrammar,
    RuleConfig,
    all_violations,
    analyze_harmony,
    chord_tones,
    feasible_boundary_roots,
    reject,
    rule_loss,
)

from conftest import make_phrase
from counterpoint_fixtures import FIXTURES
from rule_oracle import dissonance_check, find_parallels, repetition_flags


# -- detectors on the labeled fixture suite ------------------------------

@pytest.mark.parametrize("name,phrase,expected", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_fixture_suite(name, phrase, expected):
    violations = all_violations(phrase)
    if expected is None:
        assert violations == []
    else:
        assert len(violations) == 1
        assert violations[0].rule == expected


def test_parallel_fifths_spec_example():
    # C+G moving to D+A over two voices.
    p = make_phrase([(0, 0, 1, "5"), (0, 1, 1, "6"), (1, 0, 1, "1"), (1, 1, 1, "2")])
    out = find_parallels(p)
    assert [v.rule for v in out] == ["parallel-fifths"]


def test_oblique_motion_exempt():
    # C+G to E+G: the upper voice holds its tone.
    p = make_phrase([(0, 0, 1, "5"), (0, 1, 1, "5"), (1, 0, 1, "1"), (1, 1, 1, "3")])
    assert find_parallels(p) == []


def test_parallel_octaves_spec_example():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "2"), (1, 0, 1, "1"), (1, 1, 1, "2")])
    assert [v.rule for v in find_parallels(p)] == ["parallel-octaves"]


def test_single_voice_no_parallels():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "5")], voices=("m",))
    assert find_parallels(p) == []
    assert dissonance_check(p) == []


def test_dissonance_examples():
    second = make_phrase([(0, 0, 4, "2"), (1, 0, 4, "1")])
    assert [v.rule for v in dissonance_check(second)] == [
        "strong-beat-second", "strong-beat-second",  # beats 1 and 3 both strong
    ]
    fourth = make_phrase([(0, 0, 1, "4"), (0, 1, 3, "3"), (1, 0, 4, "1")])
    assert [v.rule for v in dissonance_check(fourth)] == ["strong-beat-fourth"]
    offbeat = make_phrase(
        [(0, 0, 1, "3"), (0, 1, "1/2", "2"), (0, "3/2", "1/2", "4"), (0, 2, 2, "3"),
         (1, 0, 4, "1")]
    )
    assert dissonance_check(offbeat) == []


def test_upper_voice_fourths_exempt():
    p = make_phrase(
        [(0, 0, 4, "1"), (1, 0, 4, "5"), (2, 0, 4, "1")],
        voices=("treble", "alto", "bass"),
    )
    # 1^ over 5^ between treble and alto is a fourth, but only intervals
    # against the bass are checked: both upper voices are octaves/fifths
    # over the bass 1^.
    assert dissonance_check(p) == []


def test_repetition_threshold_config():
    p = make_phrase([(0, i, 1, "5") for i in range(3)], voices=("m",))
    assert repetition_flags(p) == []
    assert len(repetition_flags(p, RuleConfig(repetition_threshold=3))) == 1


def test_rule_loss_additive_and_monotone():
    clean = make_phrase([(0, 0, 1, "3"), (0, 1, 3, "2"), (1, 0, 1, "1"), (1, 1, 3, "5")])
    assert rule_loss(clean) == 0
    one = make_phrase([(0, 0, 1, "5"), (0, 1, 3, "6"), (1, 0, 1, "1"), (1, 1, 3, "2")])
    assert rule_loss(one) == 1
    # Adding an unrelated strong-beat second on top can only add loss.
    worse = make_phrase(
        [(0, 0, 1, "5"), (0, 1, 1, "6"), (0, 2, 2, "2"),
         (1, 0, 1, "1"), (1, 1, 1, "2"), (1, 2, 2, "1")]
    )
    assert rule_loss(worse) >= rule_loss(one)


def test_rule_toggles():
    p = make_phrase([(0, 0, 1, "5"), (0, 1, 3, "6"), (1, 0, 1, "1"), (1, 1, 3, "2")])
    assert rule_loss(p, RuleConfig(parallels=False)) == 0


# -- harmonic analysis ----------------------------------------------------

def test_tonic_triad_reads_as_I():
    readings = analyze_harmony(make_phrase([(0, 0, 4, "3"), (1, 0, 4, "1")]))
    assert readings
    best = readings[0]
    assert all(n.root == 1 and n.inversion == "root" for n in best.numerals)


def test_dominant_to_tonic_reading():
    p = make_phrase(
        [(0, 0, 1, "7"), (0, 1, 1, "2"), (0, 2, 2, "1"),
         (1, 0, 2, "5"), (1, 2, 2, "1")]
    )
    readings = analyze_harmony(p)
    assert readings
    roots = [tuple(n.root for n in r.numerals) for r in readings]
    assert any(r[:2] == (5, 5) and r[-1] == 1 for r in roots)
    for r in roots:  # the barred retrogression can never appear
        assert (5, 4) not in list(zip(r, r[1:]))


def test_whole_tone_cluster_unreadable():
    p = make_phrase(
        [(0, 0, 4, "1"), (1, 0, 4, "2"), (2, 0, 4, "#4")],
        voices=("a", "b", "c"),
    )
    assert analyze_harmony(p) == []


def test_analysis_soundness_random(corpus):
    grammar = ProgressionGrammar()
    rng = np.random.default_rng(0)
    from gradus.graph import rebuild_phrase, merge_tied
    from gradus.phrase import strip_to_skeleton
    from gradus.pitch import DEGREES

    checked = 0
    for p in corpus[:4]:
        skel = strip_to_skeleton(p)
        n = len(merge_tied(skel))
        for _ in range(10):
            degrees = [DEGREES[i] for i in rng.integers(0, 18, n)]
            phrase = rebuild_phrase(skel, degrees)
            for reading in analyze_harmony(phrase, grammar):
                for a, b in zip(reading.numerals, reading.numerals[1:]):
                    assert grammar.allows(a.root, b.root)
                    assert (a.root, b.root) != (5, 4)
                checked += 1
    assert checked >= 0  # soundness holds over whatever was readable


def test_grammar_exclusions():
    g = ProgressionGrammar()
    assert not g.allows(5, 4)  # the named retrogression
    assert not g.allows(4, 1)  # PD cannot fall back to T in this table
    assert g.allows(5, 1) and g.allows(5, 6) and g.allows(1, 4) and g.allows(2, 5)
    assert 4 not in g.successors(5)
    assert (5, 4) not in g.transitions


def test_chord_tables():
    assert {str(d) for d in chord_tones(1, "major")} == {"1", "3", "5"}
    assert {str(d) for d in chord_tones(1, "minor")} == {"1", "b3", "5"}
    assert {str(d) for d in chord_tones(5, "minor")} == {"5", "7", "2"}  # raised leading tone
    assert {str(d) for d in chord_tones(5, "major", seventh=True)} == {"5", "7", "2", "4"}


def test_transposition_invariance(corpus):
    up4 = Interval(3, 5)
    for p in corpus[:6]:
        q = transpose_phrase(p, up4)
        assert rule_loss(q) == rule_loss(p)
        assert reject(q).accepted == reject(p).accepted


def test_determinism(corpus):
    p = corpus[0]
    assert all_violations(p) == all_violations(p)
    a = analyze_harmony(p)
    b = analyze_harmony(p)
    assert [(r.numerals, r.non_chord_tones) for r in a] == [
        (r.numerals, r.non_chord_tones) for r in b
    ]
    assert reject(p) == reject(p)


# -- rejection and cataloging ----------------------------------------------

def test_reject_clean_progression():
    p = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "4"), (0, 2, 1, "2"), (0, 3, 1, "3"),
         (1, 0, 1, "1"), (1, 1, 1, "4"), (1, 2, 1, "5"), (1, 3, 1, "1")]
    )
    result = reject(p)
    assert result.accepted
    assert result.entry.final_root == 1
    assert 1 in result.entry.end_roots
    assert result.entry.cadence == "authentic"
    assert result.entry.final_treble == Degree(3)


def test_reject_parallel_octaves():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 3, "2"), (1, 0, 1, "1"), (1, 1, 3, "2")])
    result = reject(p)
    assert not result.accepted
    assert any("parallel-octaves" in r for r in result.reasons)


def test_reject_unreadable():
    p = make_phrase([(0, 0, 4, "1"), (1, 0, 4, "#4")])
    result = reject(p)
    assert not result.accepted
    assert result.reasons == ("no harmonic reading",)


def test_no_accepted_phrase_has_violations(corpus):
    for p in corpus:
        r = reject(p)
        assert r.accepted
        assert rule_loss(p) == 0


def test_perfect_authentic_needs_treble_tonic():
    pac = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "2"), (0, 2, 2, "1"),
         (1, 0, 1, "1"), (1, 1, 1, "5"), (1, 2, 2, "1")]
    )
    entry = reject(pac).entry
    assert entry.cadence == "perfect_authentic"
    iac = make_phrase(
        [(0, 0, 1, "1"), (0, 1, 1, "2"), (0, 2, 2, "3"),
         (1, 0, 1, "1"), (1, 1, 1, "5"), (1, 2, 2, "1")]
    )
    entry = reject(iac).entry
    assert entry.cadence == "authentic"


def test_feasible_boundaries_subset_of_candidates(corpus):
    for p in corpus[:6]:
        starts, ends = feasible_boundary_roots(p)
        assert starts and ends
        assert all(1 <= r <= 7 for r in starts | ends)
