import gc
import hashlib
import itertools
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradus import fusion
from gradus import pitch as pitch_module
from gradus.cli import main
from gradus.errors import FusionInfeasibleError, PhraseValidationError, SpellingError
from gradus.fusion import (
    TemplateSlot,
    UrsatzTemplate,
    VoiceProfile,
    concatenate_degrees,
    default_profiles,
    default_templates,
    fuse,
    globalize_degree,
    local_key_context,
    localize_degree,
    pivot_root,
    pivot_select,
    realize_pitches,
    sample_structure,
    score_from_dict,
    score_to_dict,
    templates_from_json,
)
from gradus.graph import merge_tied, rebuild_phrase
from gradus.library import PhraseLibrary
from gradus.midi import phrase_tracks, write_midi
from gradus.phrase import NoteEvent, Phrase, strip_to_skeleton, transpose_phrase
from gradus.pitch import (
    DEGREE_INDEX, DEGREES, Degree, Interval, Pitch, parse_degree, parse_key, parse_pitch, realize_degree,
)
from gradus.rules import (
    CADENCES, CatalogEntry, ProgressionGrammar, RuleConfig, cadence_satisfies, reject, rule_loss,
)

import fusion_oracle
from conftest import CORPUS_DIR, counting, make_phrase, outcome, random_degree_phrase


def profiles2():
    return default_profiles(("treble", "bass"))


# -- pitch realization ----------------------------------------------------

def test_realize_stepwise_chain():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "2"), (0, 2, 1, "3")], voices=("treble",))
    prof = {0: VoiceProfile("treble", parse_pitch("C4"), parse_pitch("C3"), parse_pitch("C6"))}
    out = realize_pitches(p, prof)
    assert [str(e.pitch) for e in out.events] == ["C4", "D4", "E4"]


def test_realize_leap_falls_back_to_central():
    # 1^ then 5^ around central C4: G3 (5 semitones away) beats G4 (7 away).
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "5")], voices=("treble",))
    prof = {0: VoiceProfile("treble", parse_pitch("C4"), parse_pitch("C3"), parse_pitch("C6"))}
    out = realize_pitches(p, prof)
    assert [str(e.pitch) for e in out.events] == ["C4", "G3"]


def test_realize_prefers_step_over_central():
    # A stepwise walk away from the central pitch must never be yanked
    # back by the central fallback: B4 wins over the central-adjacent B3.
    p = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "4"), (0, 2, 1, "5"), (0, 3, 1, "6"), (0, 4, 1, "7")],
        voices=("treble",),
    )
    prof = {0: VoiceProfile("treble", parse_pitch("C4"), parse_pitch("C3"), parse_pitch("C6"))}
    out = realize_pitches(p, prof)
    assert [str(e.pitch) for e in out.events] == ["E4", "F4", "G4", "A4", "B4"]


def test_realize_rests_pass_through():
    p = make_phrase([(0, 0, 1, "rest"), (0, 1, 1, "1")], voices=("treble",))
    out = realize_pitches(p, profiles2())
    assert out.events[0].is_rest
    assert out.events[1].pitch is not None


def test_realize_range_error_names_voice_and_onset():
    p = make_phrase([(0, 0, 1, "1")], voices=("treble",))
    prof = {0: VoiceProfile("treble", parse_pitch("C#4"), parse_pitch("C#4"), parse_pitch("D4"))}
    with pytest.raises(SpellingError, match="treble.*onset 0"):
        realize_pitches(p, prof)


def test_realize_missing_profile():
    p = make_phrase([(0, 0, 1, "1"), (1, 0, 1, "1")])
    with pytest.raises(PhraseValidationError):
        realize_pitches(p, {0: profiles2()[0]})


def test_realize_choice_rule_holds_on_random_lines(c_major):
    # Re-derive the rule per consecutive pair: either a stepwise placement
    # was taken (<= 2 semitones) or the note is the in-range placement
    # nearest the central pitch.
    rng = np.random.default_rng(0)
    prof = profiles2()[0]
    for _ in range(60):
        degrees = rng.integers(0, 17, size=20)
        from gradus.pitch import DEGREES

        events = [(0, i, 1, str(DEGREES[int(d)])) for i, d in enumerate(degrees)]
        p = make_phrase(events, voices=("treble",))
        out = realize_pitches(p, {0: prof})
        pitches = [e.pitch for e in out.events]
        for prev, cur in zip(pitches, pitches[1:]):
            step = abs(cur.midi - prev.midi) <= 2
            if not step:
                feasible = [
                    12 * o + cur.midi % 12
                    for o in range(11)
                    if prof.low.midi <= 12 * o + cur.midi % 12 <= prof.high.midi
                ]
                best = min(abs(mm - prof.central.midi) for mm in feasible)
                assert abs(cur.midi - prof.central.midi) == best


def test_voice_profile_validation():
    with pytest.raises(PhraseValidationError):
        VoiceProfile("x", parse_pitch("C6"), parse_pitch("C4"), parse_pitch("C5"))


# -- templates -------------------------------------------------------------

def test_default_templates_content():
    three = default_templates()[0]
    assert [s.local_key for s in three.slots] == [1, 5, 1]
    assert [s.cadence for s in three.slots] == ["authentic", "authentic", "perfect_authentic"]
    assert [s.final_treble for s in three.slots] == [Degree(3), Degree(2), Degree(1)]


def test_template_validation():
    with pytest.raises(PhraseValidationError):
        UrsatzTemplate("bad", (TemplateSlot(1, "authentic", Degree(3)),))
    with pytest.raises(PhraseValidationError):
        UrsatzTemplate(
            "bad",
            (TemplateSlot(1, "authentic", Degree(3)), TemplateSlot(5, "authentic", Degree(1))),
        )


def test_sample_structure():
    templates = default_templates()
    rng = np.random.default_rng(0)
    assert sample_structure(templates[:1], rng) == templates[0]
    with pytest.raises(PhraseValidationError):
        sample_structure([], rng)


def test_templates_from_json_roundtrip():
    data = [
        {
            "name": "3-line",
            "slots": [
                {"local_key": "I", "cadence": "authentic", "final_treble_degree": "3"},
                {"local_key": "V", "cadence": "authentic", "final_treble_degree": "2"},
                {"local_key": 1, "cadence": "perfect_authentic", "final_treble_degree": "1"},
            ],
        }
    ]
    (tmpl,) = templates_from_json(data)
    assert tmpl == default_templates()[0]


def test_templates_from_json_bare_slot_list():
    slots = [
        {"local_key": "I", "cadence": "authentic", "final_treble_degree": "3"},
        {"local_key": "I", "cadence": "perfect_authentic", "final_treble_degree": "1"},
    ]
    (tmpl,) = templates_from_json(slots)
    assert len(tmpl.slots) == 2
    assert tmpl.slots[1].cadence == "perfect_authentic"


# -- pivots ------------------------------------------------------------------

def test_pivot_arithmetic():
    assert pivot_root(1, 1, 5) == 4  # home I heard in the dominant is IV
    assert pivot_root(1, 1, 1) == 1  # no modulation
    assert pivot_root(5, 1, 1) == 5  # dominant-key tonic heard at home is V
    assert pivot_root(1, 5, 4) == 2  # home V against the subdominant


def test_localize_degree():
    home = parse_key("C", "major")
    assert localize_degree(Degree(2), home, 5) == Degree(5)
    assert localize_degree(Degree(1), home, 5) == Degree(4)
    assert local_key_context(home, 5) == parse_key("G", "major")


def _slot1_phrase():
    return make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "4"), (0, 2, 1, "2"), (0, 3, 1, "3"),
         (1, 0, 1, "1"), (1, 1, 1, "4"), (1, 2, 1, "5"), (1, 3, 1, "1")]
    )


def _slot2_phrase():
    return make_phrase(
        [(0, 0, 1, "2"), (0, 1, 1, "3"), (0, 2, 1, "7"), (0, 3, 1, "5"),
         (1, 0, 1, "5"), (1, 1, 1, "1"), (1, 2, 1, "5"), (1, 3, 1, "1")]
    )


def _slot3_phrase():
    return make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "6"), (0, 2, 1, "2"), (0, 3, 1, "1"),
         (1, 0, 1, "1"), (1, 1, 1, "4"), (1, 2, 1, "5"), (1, 3, 1, "1")]
    )


def _slot_fitting(entry, local_key, home):
    """A slot in local_key whose cadence and closing treble the entry
    satisfies, so that only the pivot filter can drop it."""
    assert entry.cadence in ("authentic", "perfect_authentic")
    return TemplateSlot(local_key, "authentic", globalize_degree(entry.final_treble, home, local_key))


def test_pivot_select_dominant_target():
    library, dropped = PhraseLibrary.build([_slot1_phrase(), _slot2_phrase(), _slot3_phrase()])
    assert not dropped
    grammar = ProgressionGrammar()
    home = parse_key("C", "major")
    entry = library[0][1]
    slot = _slot_fitting(library[1][1], 5, home)
    candidates = pivot_select(entry, 1, 5, library, grammar, home, slot)
    # pivot IV: successors are the predominant/dominant family; only the
    # V-opening phrase qualifies.
    assert pivot_root(1, entry.final_root, 5) == 4
    assert all(library[i][1].start_roots & grammar.successors(4) for i in candidates)
    assert 1 in candidates


def test_pivot_select_identity_target():
    library, _ = PhraseLibrary.build([_slot1_phrase(), _slot3_phrase()])
    grammar = ProgressionGrammar()
    home = parse_key("C", "major")
    entry = library[0][1]
    candidates = pivot_select(entry, 1, 1, library, grammar, home, _slot_fitting(entry, 1, home))
    assert candidates  # phrases starting on successors of I qualify
    assert pivot_root(1, entry.final_root, 1) == 1
    assert all(library[i][1].start_roots & grammar.successors(1) for i in candidates)
    assert all(Interval.between(library[i][0].key, home).semitones == 0 for i in candidates)


def _iv_opening_phrase():
    return make_phrase(
        [(0, 0, 1, "6"), (0, 1, 1, "7"), (0, 2, 2, "1"),
         (1, 0, 1, "4"), (1, 1, 1, "5"), (1, 2, 2, "1")]
    )


def test_pivot_select_empty():
    # A dominant-class pivot cannot lead into a predominant opening, so a
    # library of IV-opening phrases yields no candidates.
    library, dropped = PhraseLibrary.build([_iv_opening_phrase()])
    assert not dropped
    grammar = ProgressionGrammar()
    home = parse_key("C", "major")
    entry = library[0][1]
    candidates = pivot_select(entry, 5, 1, library, grammar, home, _slot_fitting(entry, 1, home))
    assert pivot_root(5, entry.final_root, 1) == 5
    assert candidates == []


# -- fusion -------------------------------------------------------------------

def test_fuse_three_line():
    library, dropped = PhraseLibrary.build([_slot1_phrase(), _slot2_phrase(), _slot3_phrase()])
    assert not dropped
    home = parse_key("C", "major")
    score, plan = fuse(
        default_templates()[0], library, profiles2(), ProgressionGrammar(),
        np.random.default_rng(0), home,
    )
    assert plan.phrase_indices == (0, 1, 2)  # the only feasible assignment
    assert [str(p.key) for p in score.phrases] == ["C major", "G major", "C major"]
    assert (plan.transpositions[1].letter_shift, plan.transpositions[1].semitones) == (4, 7)
    assert plan.pivots == (None, 4, 5)
    final_treble = [e for e in score.phrases[-1].events if e.voice == 0][-1]
    from gradus.pitch import degree_of

    assert degree_of(final_treble.pitch, home) == Degree(1)
    for phrase in score.phrases:
        assert phrase.is_realized()
        assert rule_loss(phrase) == 0


def test_fuse_missing_slot1_treble_fails_at_slot_1():
    library, _ = PhraseLibrary.build([_slot2_phrase(), _slot3_phrase()])
    home = parse_key("C", "major")
    with pytest.raises(FusionInfeasibleError) as err:
        fuse(
            default_templates()[0], library, profiles2(), ProgressionGrammar(),
            np.random.default_rng(0), home,
        )
    assert err.value.slot_index == 1


def test_fuse_empty_library():
    # 1-based like every other failure: the first slot has no candidates.
    with pytest.raises(FusionInfeasibleError) as err:
        fuse(
            default_templates()[0], PhraseLibrary(()), profiles2(), ProgressionGrammar(),
            np.random.default_rng(0), parse_key("C", "major"),
        )
    assert err.value.slot_index == 1


def test_fuse_corpus_library(corpus):
    library, _ = PhraseLibrary.build(corpus)
    home = parse_key("C", "major")
    score, plan = fuse(
        default_templates()[0], library, profiles2(), ProgressionGrammar(),
        np.random.default_rng(42), home,
    )
    assert [_localkey(p, home) for p in score.phrases] == [1, 5, 1]
    chosen = [library[i][0] for i in plan.phrase_indices]
    concat = concatenate_degrees(chosen, home, [1, 5, 1])
    assert rule_loss(concat) == 0


def _localkey(phrase, home):
    from gradus.pitch import degree_of, realize_degree

    return degree_of(realize_degree(Degree(1), phrase.key, 4), home).number


def test_concatenate_degrees_globalizes():
    from gradus.pitch import Interval

    home = parse_key("C", "major")
    a = _slot1_phrase()
    b = transpose_phrase(_slot2_phrase(), Interval(4, 7))
    full = concatenate_degrees([a, b], home, [1, 5])
    assert full.span == 8  # two one-bar phrases, bar-aligned
    # the transposed phrase's local 5^ re-expresses as global 2^
    last = [e for e in full.events if e.voice == 0][-1]
    assert last.degree == Degree(2)


def test_score_serialization_roundtrip(corpus):
    library, _ = PhraseLibrary.build(corpus)
    home = parse_key("C", "major")
    score, _ = fuse(
        default_templates()[0], library, profiles2(), ProgressionGrammar(),
        np.random.default_rng(7), home,
    )
    again = score_from_dict(json.loads(json.dumps(score_to_dict(score))))
    assert again == score


def _dead_end_library(corpus):
    library, dropped = PhraseLibrary.build([corpus[15]] * 40 + [corpus[0], corpus[2], corpus[1]])
    assert not dropped
    return library


def test_fuse_finds_plan_behind_many_dead_ends(corpus):
    # Forty copies of the 3/4 phrase 15_c fit slot 1, but no 3/4 phrase
    # can follow them; the only plan is 00_c, 02_c, 01_c at the end. The
    # search must get past all forty dead ends whatever order a seed
    # gives them.
    library = _dead_end_library(corpus)
    for seed in range(20):
        _, plan = fuse(
            default_templates()[0], library, profiles2(), ProgressionGrammar(),
            np.random.default_rng(seed), parse_key("C", "major"),
        )
        assert plan.phrase_indices == (40, 41, 42), seed


def _fits(template, library, grammar, home, prefix, i):
    """Whether library phrase i passes the filters of the slot after the
    prefix (a tuple of library indices)."""
    phrase, entry = library[i]
    slots = template.slots
    slot = slots[len(prefix)]
    if prefix:
        prev = slots[len(prefix) - 1]
        pivot = pivot_root(prev.local_key, library[prefix[-1]][1].final_root, slot.local_key)
        starts = grammar.successors(pivot)
        if phrase.meter != library[prefix[0]][0].meter:
            return False
    else:
        starts = grammar.start_roots
    return (
        entry.mode == home.mode
        and bool(entry.start_roots & starts)
        and cadence_satisfies(entry.cadence, slot.cadence)
        and entry.final_treble == localize_degree(slot.final_treble, home, slot.local_key)
    )


class _CountingRng:
    """A generator that counts its permutation draws: one per visited
    slot state of the search."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def permutation(self, n):
        self.draws += 1
        return self.rng.permutation(n)


def test_fuse_builds_each_slot_state_once(corpus, monkeypatch):
    # Each slot's candidates depend only on (slot, previous final root,
    # first phrase's meter). The slot layers are built forward, each
    # reachable state once, so a search that revisits such a state, as it
    # does once per dead end here, selects no pivots again. The library
    # keeps the layers: the first request on it builds each state once,
    # later requests build none and draw as on a fresh library.
    library = _dead_end_library(corpus)
    template, home, grammar = default_templates()[0], parse_key("C", "major"), ProgressionGrammar()
    states, prefixes = set(), [()]
    for depth in range(1, len(template.slots)):
        prefixes = [p + (i,) for p in prefixes for i in range(len(library))
                    if _fits(template, library, grammar, home, p, i)]
        states |= {(depth, library[p[-1]][1].final_root, library[p[0]][0].meter) for p in prefixes}
    calls = {"pivot_select": 0}
    monkeypatch.setattr(fusion, "pivot_select", counting(calls, "pivot_select", fusion.pivot_select))
    visited = 0
    for seed in range(20):
        calls["pivot_select"] = 0
        fresh_rng = _CountingRng(seed)
        fresh = fuse(template, PhraseLibrary(library.entries), profiles2(), grammar, fresh_rng, home)
        assert calls["pivot_select"] == len(states), seed
        calls["pivot_select"] = 0
        rng = _CountingRng(seed)
        assert fuse(template, library, profiles2(), grammar, rng, home) == fresh
        assert calls["pivot_select"] == (len(states) if seed == 0 else 0), seed
        assert rng.draws == fresh_rng.draws
        assert rng.rng.bit_generator.state == fresh_rng.rng.bit_generator.state
        visited += rng.draws
    # The searches revisit each state many times over (469 draws, 3 states).
    assert visited > 100 * len(states)


def test_fuse_leaves_no_cyclic_garbage(corpus):
    # What fuse builds must go when it returns or raises, not when the
    # cycle collector next runs: a service answering many requests would
    # hold every recent request's search state. The second infeasible
    # request is answered from the library's memo of the first's verdict,
    # which keeps no exception and so no traceback.
    library = _dead_end_library(corpus)
    home, grammar = parse_key("C", "major"), ProgressionGrammar()
    three_line, five_line = default_templates()
    gc.collect()
    gc.disable()
    try:
        fuse(three_line, library, profiles2(), grammar, np.random.default_rng(0), home)
        after_fused = gc.collect()
        after_infeasible = []
        for seed in (0, 1):
            with pytest.raises(FusionInfeasibleError, match="slot 1$"):
                fuse(five_line, library, profiles2(), grammar, np.random.default_rng(seed), home)
            after_infeasible.append(gc.collect())
    finally:
        gc.enable()
    assert (after_fused, after_infeasible) == (0, [0, 0])
    assert library.layers[five_line, grammar, home] == (1, "no feasible phrase assignment for slot 1")


def _brute_force_fusion(template, library, grammar, home, rule_config):
    """Every slot assignment that passes the slot filters, the pivot
    successors, the shared meter and rule_loss == 0, found by trying all
    len(library) ** slots of them; the 1-based slot a failed search
    reports: one past the longest prefix passing the filters, at most the
    last slot; the length of that longest prefix; and the indices in some
    assignment passing the filters."""
    slots = template.slots
    plans, longest, checked = [], 0, set()
    for assignment in itertools.product(range(len(library)), repeat=len(slots)):
        k = 0
        while k < len(slots) and _fits(template, library, grammar, home, assignment[:k], assignment[k]):
            k += 1
        longest = max(longest, k)
        if k < len(slots):
            continue
        checked.update(assignment)
        chosen = [library[i][0] for i in assignment]
        try:
            full = concatenate_degrees(chosen, home, [s.local_key for s in slots])
        except (PhraseValidationError, SpellingError):
            continue
        if rule_loss(full, rule_config) == 0:
            plans.append(assignment)
    return plans, min(longest, len(slots) - 1) + 1, longest, checked


def _template(name, *slots):
    return {
        "name": name,
        "slots": [
            {"local_key": key, "cadence": cadence, "final_treble_degree": treble}
            for key, cadence, treble in slots
        ],
    }


def test_fuse_matches_brute_force(corpus):
    # Small random libraries of corpus phrases (both meters, both modes,
    # repeats): fuse succeeds exactly when brute force finds a plan, with
    # a plan brute force found and the same plan for the same seed; a
    # failure names the slot brute force names, and draws nothing from the
    # rng when no assignment passes the filters. The libraries repeat a few
    # phrases each, so that one meter or one dead end can fill a slot.
    # About 30% of the requests fuse under a repetition threshold of 2,
    # which most whole assignments of corpus phrases break, so the final
    # rule check rejects some of them. Half the libraries end with a copy
    # of one of their phrases with one event made a placeholder, under the
    # phrase's catalog entry: it passes every filter the phrase passes, has
    # no tick arrays, and no plan may use it.
    full, dropped = PhraseLibrary.build(corpus)
    assert not dropped
    a, pac = "authentic", "perfect_authentic"
    templates = templates_from_json([
        _template("3-line", ("I", a, "3"), ("V", a, "2"), ("I", pac, "1")),
        _template("5-line", ("I", a, "5"), ("V", a, "2"), ("I", pac, "1")),
        _template("I-IV-I", ("I", a, "3"), ("IV", a, "2"), ("I", pac, "1")),
        _template("I-I", ("I", a, "3"), ("I", pac, "1")),
        _template("minor I-I", ("I", a, "b3"), ("I", pac, "1")),
        _template("minor 5-line", ("I", a, "5"), ("V", a, "2"), ("I", pac, "1")),
    ])
    strict = RuleConfig(repetition_threshold=2)
    grammar = ProgressionGrammar()
    rng, marks = np.random.default_rng(0), np.random.default_rng(1)
    fused, failed_at, unfillable, placeholders_checked = [], [], 0, 0
    for _ in range(300):
        pool = rng.choice(len(full), size=rng.integers(3, 11), replace=False)
        entries = [full[int(i)] for i in rng.choice(pool, size=rng.integers(3, 13))]
        placeholder = None
        if marks.random() < 0.5:
            phrase, entry = entries[int(marks.integers(len(entries)))]
            events = list(phrase.events)
            k = int(marks.integers(len(events)))
            events[k] = replace(events[k], degree=None, pitch=None)
            placeholder = len(entries)
            entries.append((replace(phrase, events=tuple(events)), entry))
        library = PhraseLibrary(tuple(entries))
        template = templates[int(rng.integers(len(templates)))]
        home = parse_key("A", "minor") if template.name.startswith("minor") else parse_key("C", "major")
        rules = strict if rng.random() < 0.3 else RuleConfig()
        plans, slot, longest, checked = _brute_force_fusion(template, library, grammar, home, rules)
        placeholders_checked += placeholder in checked
        seed = int(rng.integers(2**31))

        def run(request_rng):
            return fuse(template, library, profiles2(), grammar, request_rng, home, rules)

        counting = _CountingRng(seed)
        if plans:
            _, plan = run(np.random.default_rng(seed))
            assert plan.phrase_indices in plans and placeholder not in plan.phrase_indices
            assert run(counting)[1] == plan
            fused.append(template.name)
        else:
            with pytest.raises(FusionInfeasibleError) as err:
                run(counting)
            assert err.value.slot_index == slot
            failed_at.append(slot)
        if longest < len(template.slots):
            assert counting.draws == 0
            unfillable += 1
        else:
            assert counting.draws > 0
    # Both outcomes, in both modes, failures at every slot depth, and
    # failures both before the first draw and at the final rule check.
    assert len(fused) >= 20 and "minor I-I" in fused
    assert {1, 2, 3} <= set(failed_at)
    assert 0 < unfillable < len(failed_at)
    assert placeholders_checked >= 10


def _random_libraries(full, rng, n):
    """n small libraries of corpus entries, with repeats, as the
    brute-force check draws them; every other one has its catalog entries
    redrawn, so that every cadence class and more closing treble degrees
    and start harmonies occur than the corpus has."""
    trebles = [None] + [parse_degree(d) for d in ("1", "2", "3", "b3", "5", "#4")]
    for k in range(n):
        pool = rng.choice(len(full), size=rng.integers(3, 11), replace=False)
        entries = [full[int(i)] for i in rng.choice(pool, size=rng.integers(3, 13))]
        if k % 2:
            entries = [
                (p, replace(
                    e,
                    start_roots=frozenset(int(r) for r in rng.choice(range(1, 8), size=rng.integers(1, 4))),
                    cadence=CADENCES[int(rng.integers(len(CADENCES)))],
                    final_treble=trebles[int(rng.integers(len(trebles)))],
                ))
                for p, e in entries
            ]
        yield PhraseLibrary(tuple(entries))


def _fitting(template, library, grammar, home, prefix):
    """The indices, in library order, of the phrases _fits passes after
    the prefix."""
    return [i for i in range(len(library)) if _fits(template, library, grammar, home, prefix, i)]


def test_candidate_lists_match_library_scan(corpus):
    # Every slot state (slot, previous final root, meter) of the shipped
    # templates, in both modes, over random libraries: the candidate lists
    # are the indices, in library order, that the brute-force filter _fits
    # passes after a prefix reaching that state. Each library ends with
    # one prefix entry per (meter, final root), whose empty start roots
    # keep it out of every list.
    full, _ = PhraseLibrary.build(corpus)
    grammar = ProgressionGrammar()
    rng = np.random.default_rng(3)
    meters = sorted({p.meter for p, _ in full}) + [(2, 4)]
    states = [(meter, root) for meter in meters for root in range(1, 8)]
    prefixes = tuple(
        (
            make_phrase([(0, 0, 1, "1")], meter=meter),
            CatalogEntry(frozenset(), frozenset(), root, None, "major", "other"),
        )
        for meter, root in states
    )
    checked = nonempty = 0
    for library in _random_libraries(full, rng, 60):
        library = PhraseLibrary(library.entries + prefixes)
        first_prefix = len(library) - len(prefixes)
        for home in (parse_key("C", "major"), parse_key("A", "minor")):
            for template in default_templates():
                slots = template.slots
                got = fusion._opening_candidates(library, grammar.start_roots, home, slots[0])
                assert got == _fitting(template, library, grammar, home, ())
                for slot_i in range(1, len(slots)):
                    prev, slot = slots[slot_i - 1], slots[slot_i]
                    for k, (meter, root) in enumerate(states):
                        prefix = (first_prefix + k,) * slot_i
                        antecedent = library[prefix[-1]][1]
                        args = (antecedent, prev.local_key, slot.local_key, library, grammar, home)
                        got = pivot_select(*args, slot, meter)
                        assert got == _fitting(template, library, grammar, home, prefix)
                        checked += 1
                        nonempty += bool(got)
    assert checked == 10080 and nonempty > 500


def test_library_caches_are_neither_compared_nor_hashed(corpus):
    library, _ = PhraseLibrary.build(corpus[:6])
    again = PhraseLibrary(library.entries)
    assert again == library and hash(again) == hash(library)
    assert not any(name in repr(library) for name in ("ticks", "layers", "realized"))
    empty = PhraseLibrary(())
    assert (empty.ticks, empty.layers, empty.realized) == ((), {}, {})
    # Nor are the memos fusion fills.
    fuse(default_templates()[0], library, profiles2(), ProgressionGrammar(),
         np.random.default_rng(0), parse_key("C", "major"))
    assert library.layers and library.realized and not again.layers and not again.realized
    assert again == library and hash(again) == hash(library) and repr(again) == repr(library)


def test_build_drops_phrases_with_placeholders(corpus):
    # A placeholder event is a rejection reason, not an error that stops
    # the catalog: the other phrases are cataloged as without it.
    first, *rest = corpus[3].events
    holed = replace(corpus[3], events=(replace(first, degree=None, pitch=None), *rest))
    skeleton = strip_to_skeleton(corpus[5])
    library, dropped = PhraseLibrary.build([corpus[0], holed, corpus[1], skeleton, corpus[2]])
    assert [(p, r.reasons, r.entry) for p, r in dropped] == [
        (holed, ("placeholder event",), None), (skeleton, ("placeholder event",), None)
    ]
    assert library == PhraseLibrary.build(corpus[:3])[0]


# -- derivation without re-validation -------------------------------------

def _revalidated(p):
    """p rebuilt through the validating constructors, which sort and check."""
    events = tuple(
        NoteEvent(e.voice, e.onset, e.duration, e.degree, e.pitch, e.tie) for e in reversed(p.events)
    )
    return Phrase(p.key, p.meter, p.voices, events, p.cadence_annotation, p.structural)


def _assert_as_validated(p):
    q = _revalidated(p)
    assert type(p) is Phrase and all(type(e) is NoteEvent for e in p.events)
    assert p == q and p.events == q.events  # same events, in canonical order
    assert p.span == q.span


def test_derived_phrases_equal_validated_ones(corpus):
    home = parse_key("C", "major")
    profiles = profiles2()
    realized = []
    for p in corpus:
        for shift in FIVE_KEYS:
            moved = transpose_phrase(p, Interval(*shift))
            _assert_as_validated(moved)
            pitched = realize_pitches(moved, profiles)
            _assert_as_validated(pitched)
            back = transpose_phrase(pitched, Interval(-shift[0], -shift[1]))
            _assert_as_validated(back)
            assert back.key == p.key
            realized.append(pitched)
    rng = np.random.default_rng(11)
    joined = 0
    for _ in range(200):
        picks = [corpus[int(i)] for i in rng.integers(len(corpus), size=rng.integers(1, 4))]
        picks = [p for p in picks if p.meter == picks[0].meter]
        if rng.random() < 0.5:
            picks = [realized[int(rng.integers(len(realized)))]] + picks[1:]
            picks = [p for p in picks if p.meter == picks[0].meter]
        local_keys = [int(k) for k in rng.choice([1, 4, 5], size=len(picks))]
        try:
            full = concatenate_degrees(picks, home, local_keys)
        except SpellingError:
            continue
        _assert_as_validated(full)
        joined += 1
    assert joined > 150
    # Rebuilt phrases, on pitched phrases and on their skeletons, with and
    # without placeholder holes.
    for p in corpus + realized[:: len(FIVE_KEYS)]:
        skeleton = strip_to_skeleton(p)
        degrees = [DEGREES[i] for i in rng.integers(len(DEGREES), size=len(merge_tied(p)))]
        holes = [None if rng.random() < 0.3 else d for d in degrees]
        for source, degs in itertools.product((p, skeleton), (degrees, holes)):
            rebuilt = rebuild_phrase(source, degs)
            _assert_as_validated(rebuilt)
            assert [nd.degree for nd in merge_tied(rebuilt)] == degs


def test_concatenate_refuses_mismatches_and_keeps_span():
    home = parse_key("C", "major")
    two = _slot1_phrase()
    three = make_phrase(
        [(0, 0, 4, "3"), (1, 0, 4, "1"), (2, 0, 4, "1")], voices=("treble", "alto", "bass")
    )
    waltz = make_phrase([(0, 0, 3, "3"), (1, 0, 3, "1")], meter=(3, 4))
    with pytest.raises(PhraseValidationError, match="share a meter"):
        concatenate_degrees([two, waltz], home, [1, 1])
    with pytest.raises(PhraseValidationError, match="event voice 2 out of range"):
        concatenate_degrees([two, three], home, [1, 1])
    # Fewer voices in a later phrase fit the first phrase's voice list.
    _assert_as_validated(concatenate_degrees([three, two], home, [1, 1]))
    # A last phrase that stops short of its barline ends the span there.
    short = make_phrase([(0, 0, 3, "3"), (1, 0, 3, "1")])
    full = concatenate_degrees([two, short], home, [1, 1])
    _assert_as_validated(full)
    assert full.span == 7
    with pytest.raises(PhraseValidationError):
        concatenate_degrees([], home, [])


# Plans that fuse gave, per request seed, for the corpus in five keys
# (catalog_fuse's library) before its slot candidate lists were memoised;
# a change to the search's speed must not move any of them.
GOLDEN_PLANS = Path(__file__).resolve().parent / "data" / "fusion_plans.json"
FIVE_KEYS = ((0, 0), (4, 7), (3, 5), (1, 2), (5, 9))


def _five_key_library(corpus):
    encoded = [
        replace(p, events=tuple(replace(e, degree=e.degree_in(p.key), pitch=None) for e in p.events))
        for p in corpus
    ]
    phrases = [transpose_phrase(p, Interval(*s)) for s in FIVE_KEYS for p in encoded]
    library, dropped = PhraseLibrary.build(phrases)
    assert not dropped
    return library


def _request(library, templates, seed):
    """One request as gradus fuse serves it: a stream draws the template,
    then drives the search."""
    rng = np.random.default_rng(seed)
    template = sample_structure(templates, rng)
    out = {"seed": seed, "template": template.name}
    try:
        _, plan = fuse(template, library, profiles2(), ProgressionGrammar(), rng, parse_key("C", "major"))
    except FusionInfeasibleError as exc:
        out["infeasible"] = exc.slot_index
    else:
        assert plan.template == template
        out["plan"] = plan.to_dict()
    return out


def _golden_templates():
    a, pac = "authentic", "perfect_authentic"
    return templates_from_json([
        _template("3-line", ("I", a, "3"), ("V", a, "2"), ("I", pac, "1")),
        _template("5-line", ("I", a, "5"), ("V", a, "2"), ("I", pac, "1")),
        _template("I-IV-I", ("I", a, "3"), ("IV", a, "2"), ("I", pac, "1")),
    ])


def test_fuse_plans_golden(corpus):
    library = _five_key_library(corpus)
    assert len(library) == 100
    templates = _golden_templates()
    golden = json.loads(GOLDEN_PLANS.read_text())
    assert [_request(library, templates, g["seed"]) for g in golden] == golden
    # Every template is drawn; as in catalog_fuse, only 3-line can be
    # filled, so the other two exercise the search's exhaustion.
    outcomes = {(g["template"], g.get("infeasible")) for g in golden}
    assert outcomes == {("3-line", None), ("5-line", 1), ("I-IV-I", 2)}


# SHA-256 of the MIDI file of each fused request in fusion_plans.json,
# served in seed order from one library, and of the score.mid that
# gradus fuse writes with the example config, as the per-note MIDI
# writer wrote them; a change to how MIDI is written must not move them.
GOLDEN_MIDI = Path(__file__).resolve().parent / "data" / "fusion_midi.json"


def test_fused_midi_golden(corpus, tmp_path):
    library = _five_key_library(corpus)
    templates = _golden_templates()
    got = {}
    for g in json.loads(GOLDEN_PLANS.read_text()):
        rng = np.random.default_rng(g["seed"])
        template = sample_structure(templates, rng)
        if "plan" not in g:
            continue
        score, _ = fuse(template, library, profiles2(), ProgressionGrammar(), rng, parse_key("C", "major"))
        write_midi(score, tmp_path / "request.mid")
        got[str(g["seed"])] = hashlib.sha256((tmp_path / "request.mid").read_bytes()).hexdigest()
    example = CORPUS_DIR.parent / "config.example.json"
    argv = ["fuse", "--config", str(example), "--library", str(CORPUS_DIR), "--out", str(tmp_path / "fuse")]
    assert main(argv) == 0
    got["example"] = hashlib.sha256((tmp_path / "fuse" / "score.mid").read_bytes()).hexdigest()
    assert got == json.loads(GOLDEN_MIDI.read_text())


def test_shared_library_answers_as_a_fresh_one(corpus, tmp_path, monkeypatch):
    # One library serves a stream of mixed requests and fills its memos
    # as it goes. Each answer equals the same request's on a fresh
    # library: plan, score and MIDI bytes, or the error's type, slot and
    # message. Three templates cannot be filled from this library, and
    # minor I-I fails its final rule check under a repetition threshold
    # of 2. The treble of the narrow profiles spans C4-A4, so phrases that
    # need a B there fail to realize.
    library = _five_key_library(corpus)
    a, pac = "authentic", "perfect_authentic"
    templates = templates_from_json([
        _template("3-line", ("I", a, "3"), ("V", a, "2"), ("I", pac, "1")),
        _template("5-line", ("I", a, "5"), ("V", a, "2"), ("I", pac, "1")),
        _template("I-IV-I", ("I", a, "3"), ("IV", a, "2"), ("I", pac, "1")),
        _template("minor I-I", ("I", a, "b3"), ("I", pac, "1")),
        _template("minor 5-line", ("I", a, "5"), ("V", a, "2"), ("I", pac, "1")),
    ])
    homes = {
        "major": (parse_key("C", "major"), parse_key("G", "major")),
        "minor": (parse_key("A", "minor"), parse_key("E", "minor")),
    }
    narrow = {**profiles2(), 0: VoiceProfile("treble", parse_pitch("E4"), parse_pitch("C4"), parse_pitch("A4"))}
    grammar = ProgressionGrammar()
    realizations = []  # per realize_pitches call: whether it returned
    realize = fusion.realize_pitches

    def recorded(phrase, profiles):
        realizations.append(False)
        out = realize(phrase, profiles)
        realizations[-1] = True
        return out

    monkeypatch.setattr(fusion, "realize_pitches", recorded)

    def answer(lib, template, home, profiles, config, seed):
        try:
            score, plan = fuse(template, lib, profiles, grammar, np.random.default_rng(seed), home, config)
        except (FusionInfeasibleError, SpellingError) as exc:
            return type(exc), getattr(exc, "slot_index", None), str(exc)
        write_midi(score, tmp_path / "score.mid")
        return plan, score, (tmp_path / "score.mid").read_bytes()

    rng = np.random.default_rng(5)
    outcomes, layer_keys, stored = Counter(), set(), 0
    for _ in range(300):
        template = templates[int(rng.integers(len(templates)))]
        home = homes["minor" if template.name.startswith("minor") else "major"][int(rng.integers(2))]
        profiles = (profiles2(), narrow)[int(rng.integers(2))]
        config = (RuleConfig(), RuleConfig(repetition_threshold=2))[int(rng.integers(2))]
        request = (template, home, profiles, config, int(rng.integers(2**31)))
        want = answer(PhraseLibrary(library.entries), *request)
        realizations.clear()
        got = answer(library, *request)
        assert got == want, request
        # Every realization made here missed the memo, and each one that
        # returned, and only those, added an entry.
        stored += sum(realizations)
        assert len(library.realized) == stored
        layer_keys.add((template, grammar, home))
        assert set(library.layers) == layer_keys
        outcomes[got[0].__name__ if isinstance(got[0], type) else "fused"] += 1
    assert min(outcomes[k] for k in ("fused", "FusionInfeasibleError", "SpellingError")) >= 20, outcomes
    assert any(isinstance(v, tuple) for v in library.layers.values())
    for (i, t, voicing), (phrase, tracks) in library.realized.items():
        assert phrase == realize(transpose_phrase(library[i][0], t), dict(voicing))
        assert tracks.phrase is phrase and tracks == phrase_tracks(phrase)


# -- plan checks on integer ticks -------------------------------------------

ALL_KEYS = [
    parse_key(root, mode)
    for mode, roots in (("major", pitch_module._MAJOR_ROOTS), ("minor", pitch_module._MINOR_ROOTS))
    for root in sorted(roots)
]
RULE_CONFIGS = (
    RuleConfig(),
    RuleConfig(parallels=False),
    RuleConfig(dissonance=False),
    RuleConfig(repetition=False),
    RuleConfig(repetition_threshold=2),
    RuleConfig(strong_beat_cutoff=0.25),
    RuleConfig(strong_beat_cutoff=1.0),
)
_ANY_ENTRY = CatalogEntry(frozenset({1}), frozenset({1}), 1, Degree(1), "major", "other")


def test_home_classes_match_globalize_degree():
    # Every key of both modes, every local key: the table gives the class
    # globalize_degree gives, and -1 exactly where it raises. It is built
    # once per key pair, and no caller can change it.
    unspellable = 0
    for home in ALL_KEYS:
        for local in range(1, 8):
            table = fusion._home_classes(home, local)
            assert table.shape == (len(DEGREES),)
            assert fusion._home_classes(parse_key(home.tonic_name, home.mode), local) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
            for c, d in enumerate(DEGREES):
                try:
                    want = DEGREE_INDEX[globalize_degree(d, home, local)]
                except SpellingError:
                    want = -1
                    unspellable += 1
                assert table[c] == want, (str(home), local, str(d))
    assert unspellable > 100


def _loss_by_phrase(library, indices, home, local_keys, config):
    """The oracle of fuse's plan check: the hard violation count of the
    concatenated degree phrase, None where the concatenation is refused."""
    try:
        full = concatenate_degrees([library[i][0] for i in indices], home, local_keys)
    except (PhraseValidationError, SpellingError):
        return None
    return rule_loss(full, config)


def _three_voices(p):
    """p with its treble doubled as a middle voice."""
    events = [replace(e, voice=2) if e.voice == 1 else e for e in p.events]
    events += [replace(e, voice=1) for e in p.events if e.voice == 0]
    return Phrase(p.key, p.meter, ("treble", "alto", "bass"), tuple(events))


def _tie_heads(p, rng, head=0.4, inner=0.15):
    """p with the first event of a voice tied (to whatever ends where a
    fused score puts it) with probability head, and an event that starts
    where the one before it in its voice ends tied to it with probability
    inner."""
    events, last_end = [], {}
    for e in p.events:
        if (e.voice not in last_end and rng.random() < head) or (
            last_end.get(e.voice) == e.onset and rng.random() < inner
        ):
            e = replace(e, tie=True)
        events.append(e)
        last_end[e.voice] = e.end
    return replace(p, events=tuple(events))


def _cut_short(p, beats):
    """p without its last beats, so that it stops short of its barline."""
    cut = p.span - beats
    events = tuple(replace(e, duration=min(e.duration, cut - e.onset)) for e in p.events if e.onset < cut)
    return replace(p, events=events)


def _varied_phrase(corpus, rng):
    """A corpus phrase, sometimes in three voices or a beat or half a beat
    short of its last barline, transposed, with a few nodes given other
    degrees (rests included), and with ties added."""
    p = corpus[int(rng.integers(len(corpus)))]
    if rng.random() < 0.2:
        p = _three_voices(p)
    if rng.random() < 0.3:
        p = _cut_short(p, (Fraction(1, 2), Fraction(1))[int(rng.integers(2))])
    if rng.random() < 0.5:
        p = transpose_phrase(p, Interval(*FIVE_KEYS[int(rng.integers(len(FIVE_KEYS)))]))
    if rng.random() < 0.5:
        degrees = [nd.degree for nd in merge_tied(p)]
        for i in rng.integers(len(degrees), size=rng.integers(1, 3)):
            degrees[i] = DEGREES[int(rng.integers(len(DEGREES)))]
        p = rebuild_phrase(p, degrees)
    return _tie_heads(p, rng)


def _seam_joins(library, indices, home, local_keys):
    """How many nodes a fused score loses to ties across its seams."""
    phrases = [library[i][0] for i in indices]
    try:
        full = concatenate_degrees(phrases, home, local_keys)
    except (PhraseValidationError, SpellingError):
        return 0
    return sum(len(merge_tied(p)) for p in phrases) - len(merge_tied(full))


def _check_plans(library, rng, n, homes):
    """n random plans over the library, each counted by _plan_loss and by
    the oracle; returns the numbers of clean, broken, refused and
    seam-joined plans."""
    clean = broken = refused = joined = 0
    for _ in range(n):
        indices = [int(i) for i in rng.integers(len(library), size=rng.integers(1, 4))]
        local_keys = [int(k) for k in rng.integers(1, 8, size=len(indices))]
        home = homes[int(rng.integers(len(homes)))]
        config = RULE_CONFIGS[int(rng.integers(len(RULE_CONFIGS)))]
        got = fusion._plan_loss(library, indices, home, local_keys, config)
        assert got == _loss_by_phrase(library, indices, home, local_keys, config), (indices, local_keys, home)
        clean += got == 0
        broken += bool(got)
        refused += got is None
        joined += _seam_joins(library, indices, home, local_keys) > 0
    return clean, broken, refused, joined


def test_plan_check_matches_concatenated_rule_loss_on_five_key_library(corpus):
    # catalog_fuse's library: every local key, homes in both modes (and in
    # keys whose local keys cannot all be spelled), every rule switch.
    library = _five_key_library(corpus)
    assert all(t is not None for t in library.ticks)
    rng = np.random.default_rng(17)
    homes = [parse_key("C", "major"), parse_key("A", "minor")] + ALL_KEYS
    clean, broken, refused, _ = _check_plans(library, rng, 600, homes)
    assert clean >= 200 and broken >= 50 and refused >= 100


def test_plan_check_matches_concatenated_rule_loss_on_varied_libraries(corpus):
    # Small libraries of varied phrases: both meters (a mismatch refuses
    # the plan), a third voice after two (refused) or before them (kept),
    # a phrase whose next one starts at the barline after its end,
    # changed degrees and rests, ties within phrases and on the first note
    # of a voice, which join across a seam when the note before ends on it.
    rng = np.random.default_rng(29)
    homes = [parse_key("C", "major"), parse_key("A", "minor"), parse_key("Eb", "major")]
    totals = np.zeros(4, dtype=int)
    for _ in range(60):
        phrases = [_varied_phrase(corpus, rng) for _ in range(int(rng.integers(3, 9)))]
        library = PhraseLibrary(tuple((p, _ANY_ENTRY) for p in phrases))
        totals += _check_plans(library, rng, 25, homes)
    clean, broken, refused, joined = totals
    assert clean >= 300 and broken >= 300 and refused >= 300 and joined >= 200


def test_plan_check_joins_ties_across_seams_as_merge_tied_does():
    # Bars of one note; with a threshold of 2, two notes of one degree in
    # a row break the repetition rule unless a tie makes them one node,
    # which keeps the degree of its first note.
    home = parse_key("C", "major")

    def bar(degree, tie=False, voice=0):
        event = NoteEvent(voice, Fraction(0), Fraction(4), parse_degree(degree), tie=tie)
        return Phrase(home, (4, 4), ("treble", "bass"), (event,))

    bars = (
        bar("3"), bar("3", tie=True), bar("5", tie=True), bar("5"),
        bar("3", voice=1, tie=True), bar("3", voice=1),
    )
    library = PhraseLibrary(tuple((p, _ANY_ENTRY) for p in bars))
    runs = RuleConfig(repetition_threshold=2, parallels=False, dissonance=False)
    cases = {  # plan: (violations, seam joins)
        (0, 0): (1, 0),  # 3 3
        (0, 1): (0, 1),  # 3~3: one node
        (1, 0): (1, 0),  # a leading tie joins nothing: 3 3
        (0, 1, 1): (0, 2),  # 3~3~3
        (0, 2, 3): (0, 1),  # 3~5 is a 3, then 5
        (3, 2): (0, 1),  # 5~5
        (3, 2, 3): (1, 1),  # 5~5 5
        (0, 4, 5): (1, 0),  # treble 3, then bass ~3 3: a tie joins nothing in another voice
    }
    for plan, (loss, joins) in cases.items():
        local_keys = [1] * len(plan)
        assert _seam_joins(library, plan, home, local_keys) == joins, plan
        assert _loss_by_phrase(library, plan, home, local_keys, runs) == loss, plan
        assert fusion._plan_loss(library, plan, home, local_keys, runs) == loss, plan


def test_plan_check_refuses_ticks_beyond_int64_as_rule_loss_does():
    # Each entry's own grid fits int64; the lcm of their ticks over the
    # fused span does not, and both checks refuse it with the grid's error:
    # over three entries, whose offsets still fit int64, over four, whose
    # offsets do not, and over five, whose scales do not either.
    entries = []
    for den in (1000003, 1000033, 1000037, 1000039, 1000081):
        q = Fraction(1, den)
        events = (NoteEvent(0, Fraction(0), q, Degree(1)), NoteEvent(0, q, 4 - q, Degree(3)))
        entries.append((Phrase(parse_key("C", "major"), (4, 4), ("treble",), events), _ANY_ENTRY))
    library = PhraseLibrary(tuple(entries))
    assert all(t is not None for t in library.ticks)
    home = parse_key("C", "major")
    assert fusion._plan_loss(library, (0, 1), home, [1, 1], RuleConfig()) == 0
    assert fusion._plan_loss(library, (0,) * 5, home, [1] * 5, RuleConfig()) == 0
    for plan in ((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)):
        local_keys = [1] * len(plan)
        with pytest.raises(PhraseValidationError, match="too fine for the rule grid") as got:
            fusion._plan_loss(library, plan, home, local_keys, RuleConfig())
        with pytest.raises(PhraseValidationError) as want:
            _loss_by_phrase(library, plan, home, local_keys, RuleConfig())
        assert str(got.value) == str(want.value)


def test_plan_check_refuses_entries_without_ticks(corpus):
    # A placeholder event or a pitch with no degree in its key leaves an
    # entry without ticks, and every plan with it is refused, as
    # concatenate_degrees refuses it. A grid too fine for int64 is refused
    # when the library is made, with the error reject gives.
    home = parse_key("C", "major")
    skeleton = strip_to_skeleton(corpus[0])
    first, *rest = corpus[0].events
    unspellable = replace(corpus[0], events=(replace(first, degree=None, pitch=parse_pitch("E#5")), *rest))
    library = PhraseLibrary(tuple((p, _ANY_ENTRY) for p in (corpus[0], skeleton, unspellable)))
    assert library.ticks[0] is not None and library.ticks[1:] == (None, None)
    for plan in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 2), (1, 2)):
        local_keys = [1] * len(plan)
        assert _loss_by_phrase(library, plan, home, local_keys, RuleConfig()) is None, plan
        assert fusion._plan_loss(library, plan, home, local_keys, RuleConfig()) is None, plan
    fine = [
        NoteEvent(0, Fraction(k), Fraction(1, den), Degree(1))
        for k, den in ((0, 1000003), (1, 1000033), (2, 1000037))
    ]
    too_fine = Phrase(home, (4, 4), ("treble",), (*fine, NoteEvent(0, Fraction(9), Fraction(1), Degree(1))))
    with pytest.raises(PhraseValidationError, match="too fine for the rule grid") as got:
        PhraseLibrary(((corpus[0], _ANY_ENTRY), (too_fine, _ANY_ENTRY)))
    with pytest.raises(PhraseValidationError) as want:
        reject(too_fine)
    assert str(got.value) == str(want.value)


# -- realization against its reference ---------------------------------------

_SHARPS = tuple(zip("CCDDEFFGGAAB", (0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0)))


def _sharp_spelled(midi):
    return Pitch(*_SHARPS[midi % 12], midi // 12 - 1)


def _random_profiles(rng, n_voices):
    """Default profiles, or random ones, some too narrow for every degree,
    now and then missing a voice."""
    if rng.random() < 0.4:
        profiles = default_profiles(("treble", "alto", "tenor", "bass")[:n_voices])
    else:
        profiles = {}
        for v in range(n_voices):
            low = int(rng.integers(36, 72))
            high = low + int(rng.integers(0, 20))
            central = int(rng.integers(low, high + 1))
            profiles[v] = VoiceProfile(str(v), *(_sharp_spelled(m) for m in (central, low, high)))
    if rng.random() < 0.05:
        profiles.pop(int(rng.integers(n_voices)))
    return profiles


def test_realize_matches_reference():
    # Random phrases in keys with sharps and flats, with rests, now and
    # then a placeholder or an already pitched note, under default and
    # random voice ranges: the same phrases, or the same error and message.
    rng = np.random.default_rng(8)
    kinds = {}
    for _ in range(500):
        n_voices = int(rng.integers(1, 5))
        p = random_degree_phrase(rng, n_voices)
        if rng.random() < 0.3:
            events = list(p.events)
            i = int(rng.integers(len(events)))
            if rng.random() < 0.2:
                events[i] = replace(events[i], degree=None)
            elif not events[i].is_rest:
                spelled = realize_degree(events[i].degree, p.key, int(rng.integers(2, 6)))
                events[i] = replace(events[i], degree=None, pitch=spelled)
            p = replace(p, events=tuple(events))
        profiles = _random_profiles(rng, n_voices)
        got = outcome(realize_pitches, p, profiles)
        assert got == outcome(fusion_oracle.realize_pitches, p, profiles)
        kind = got[0].__name__ if isinstance(got, tuple) else "realized"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["realized"] >= 200 and kinds["SpellingError"] >= 100 and kinds["PhraseValidationError"] >= 20
