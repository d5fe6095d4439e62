"""The kernels, and the hard-rule evaluator checked against the
brute-force rule checker in rule_oracle.py."""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from gradus import kernels
from gradus.graph import merge_tied, rebuild_phrase
from gradus.phrase import NoteEvent, Phrase, strip_to_skeleton
from gradus.pitch import DEGREE_INDEX, DEGREES, NUM_DEGREE_CLASSES, parse_degree, parse_key
from gradus.rules import RuleConfig, _time_grid, all_violations, build_rule_context, degree_indices

from conftest import counting
from rule_oracle import oracle, time_grid

SINGLE_RULE_CONFIGS = (
    RuleConfig(parallels=True, dissonance=False, repetition=False),
    RuleConfig(parallels=False, dissonance=True, repetition=False),
    RuleConfig(parallels=False, dissonance=False, repetition=True),
)
RECORD_CONFIGS = (RuleConfig(), RuleConfig(repetition_threshold=2)) + SINGLE_RULE_CONFIGS
ALL_RULES = {"parallel-fifths", "parallel-octaves", "strong-beat-second", "strong-beat-fourth", "repetition"}


def test_categorical_sample_degenerate_rows():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    u = np.array([0.999999, 0.0])
    assert np.array_equal(kernels.categorical_sample(probs, u), [0, 2])


def test_reverse_mixture_zero_support_columns():
    # Clean classes with zero cumulative mass at x^t must contribute nothing.
    phat = np.array([[0.5, 0.5]])
    xt = np.array([1], dtype=np.int64)
    q_prev = np.array([[1.0, 0.0], [0.0, 1.0]])
    q_t = np.array([[0.5, 0.5], [0.0, 1.0]])
    q_cum = np.array([[0.5, 0.5], [0.0, 1.0]])
    out = kernels.reverse_mixture(phat, xt, q_prev, q_t, q_cum)
    # class 0 contributes via q_cum[0,1]=0.5; both classes have support here
    assert out.shape == (1, 2)
    assert np.all(out >= 0)


def _random_degree_assignment(rng, n):
    return rng.integers(0, NUM_DEGREE_CLASSES, size=n).astype(np.int64)


# Three classes: drawn from these, random phrases break every rule often
# enough to exercise each report path.
_PALETTE = np.array([DEGREE_INDEX[parse_degree(d)] for d in ("1", "4", "5")])


def _rule_heavy_assignment(rng, n):
    return rng.choice(_PALETTE, size=n).astype(np.int64)


def test_violation_counter_matches_reference(corpus):
    rng = np.random.default_rng(42)
    config = RuleConfig()
    for p in corpus[:8]:
        skeleton = strip_to_skeleton(p)
        ctx = build_rule_context(skeleton, config)
        for _ in range(25):
            deg = _random_degree_assignment(rng, ctx.n_nodes)
            phrase = rebuild_phrase(skeleton, [DEGREES[i] for i in deg])
            want = len(oracle(phrase, config))
            assert ctx.score(deg) == want
            got = kernels.count_violations(
                deg, ctx.arrays,
                kernels.pair_tables(
                    [d.letter_offset if not d.is_rest else -1 for d in DEGREES],
                    [d.semis if not d.is_rest else -1 for d in DEGREES],
                ),
                config.repetition_threshold,
            )
            assert got == want


def test_violation_counter_toggles(corpus):
    rng = np.random.default_rng(9)
    skeleton = strip_to_skeleton(corpus[0])
    full = build_rule_context(skeleton, RuleConfig())
    deg = _random_degree_assignment(rng, full.n_nodes)
    total = full.score(deg)
    parts = 0
    for cfg in SINGLE_RULE_CONFIGS:
        parts += build_rule_context(skeleton, cfg).score(deg)
    assert parts == total
    assert total == len(oracle(rebuild_phrase(skeleton, [DEGREES[i] for i in deg])))


def test_switched_off_rules_give_empty_masks(corpus):
    skeleton = strip_to_skeleton(corpus[0])
    ctx = build_rule_context(skeleton, RuleConfig(parallels=False, dissonance=False, repetition=False))
    deg = _rule_heavy_assignment(np.random.default_rng(3), ctx.n_nodes)
    masks = kernels.violation_masks(*ctx._kernel_args(deg))
    assert all(mask.size == 0 for mask in masks)
    assert ctx.score(deg) == 0


def test_score_evaluates_each_assignment_once(corpus, monkeypatch):
    # Guidance scores many candidates whose assignments repeat; a repeat
    # gives the first result without running the evaluator again.
    skeleton = strip_to_skeleton(corpus[4])
    ctx = build_rule_context(skeleton)
    rng = np.random.default_rng(8)
    degs = [_rule_heavy_assignment(rng, ctx.n_nodes) for _ in range(5)]
    degs.append(degs[1].copy())
    calls = {"eval": 0}
    monkeypatch.setattr(kernels, "count_violations", counting(calls, "eval", kernels.count_violations))
    first = [ctx.score(d) for d in degs]
    again = [ctx.score(list(d)) for d in reversed(degs)]
    assert again == first[::-1]
    assert calls["eval"] == len({d.tobytes() for d in degs}) == 5
    assert first == [len(oracle(rebuild_phrase(skeleton, [DEGREES[i] for i in d]))) for d in degs]
    assert len(set(first)) > 1


def test_degree_indices_matches_graph_order(corpus):
    p = corpus[0]
    idx = degree_indices(p)
    nodes = merge_tied(p)
    assert len(idx) == len(nodes)
    for i, nd in enumerate(nodes):
        assert DEGREES[idx[i]] == nd.degree


def _random_skeleton(rng):
    """Structurally varied skeleton: 1-3 voices, mixed meters, rests and
    off-beat subdivisions included via duration choices."""
    n_voices = int(rng.integers(1, 4))
    meter = (4, 4) if rng.random() < 0.7 else (3, 4)
    bars = int(rng.integers(1, 3))
    span = meter[0] * bars
    events = []
    for v in range(n_voices):
        t = Fraction(0)
        while t < span:
            dur = Fraction(int(rng.choice([1, 1, 1, 2, 4]))) if rng.random() < 0.8 else Fraction(1, 2)
            dur = min(dur, Fraction(span) - t)
            if rng.random() < 0.9:  # 10% gaps of silence
                events.append(NoteEvent(voice=v, onset=t, duration=dur))
            t += dur
    if not events:
        events.append(NoteEvent(voice=0, onset=Fraction(0), duration=Fraction(1)))
    return Phrase(
        key=parse_key("C", "major"), meter=meter,
        voices=("treble", "alto", "bass")[:n_voices], events=tuple(events),
    )


def _tie_some(skeleton, rng):
    """The skeleton with about a third of the notes that directly follow
    another note in their voice tied to it."""
    events, last_end = [], {}
    for e in skeleton.events:
        if last_end.get(e.voice) == e.onset and rng.random() < 0.35:
            e = replace(e, tie=True)
        events.append(e)
        last_end[e.voice] = e.end
    return replace(skeleton, events=tuple(events))


def test_time_grid_matches_oracle(corpus):
    # The grid fill walks each node's own rows; the oracle tests every node
    # against every grid time.
    rng = np.random.default_rng(577)
    skeletons = [strip_to_skeleton(p) for p in corpus]
    skeletons += [_tie_some(_random_skeleton(rng), rng) for _ in range(80)]
    assert any(e.tie for s in skeletons for e in s.events)
    assert any(e.duration.denominator > 1 for s in skeletons for e in s.events)
    silences = 0
    for skeleton in skeletons:
        for cutoff in (0.25, 0.5, 1.0):
            got = _time_grid(skeleton, cutoff)
            assert got == time_grid(skeleton, cutoff)
            silences += sum(row.count(-1) for row in got[2])
    assert silences > 0


def test_violation_counter_matches_reference_random_structures():
    rng = np.random.default_rng(2718)
    config = RuleConfig()
    for _ in range(40):
        skeleton = _random_skeleton(rng)
        ctx = build_rule_context(skeleton, config)
        for _ in range(10):
            deg = _random_degree_assignment(rng, ctx.n_nodes)
            phrase = rebuild_phrase(skeleton, [DEGREES[i] for i in deg])
            want = len(oracle(phrase, config))
            assert ctx.score(deg) == want
            got = kernels.count_violations(
                deg, ctx.arrays,
                kernels.pair_tables(
                    [d.letter_offset if not d.is_rest else -1 for d in DEGREES],
                    [d.semis if not d.is_rest else -1 for d in DEGREES],
                ),
                config.repetition_threshold,
            )
            assert got == want


def _check_records(skeleton, rng, seen):
    """all_violations must give the oracle's records, order included, and
    score() their number; some nodes are left as placeholders."""
    n = len(merge_tied(skeleton))
    for draw in (_random_degree_assignment, _rule_heavy_assignment):
        deg = draw(rng, n)
        degrees = [DEGREES[i] for i in deg]
        phrase = rebuild_phrase(skeleton, degrees)
        holes = rebuild_phrase(skeleton, [None if rng.random() < 0.2 else d for d in degrees])
        for cfg in RECORD_CONFIGS:
            want = oracle(phrase, cfg)
            assert all_violations(phrase, cfg) == want
            assert build_rule_context(skeleton, cfg).score(deg) == len(want)
            assert all_violations(holes, cfg) == oracle(holes, cfg)
            seen.update(v.rule for v in want)


def test_all_violations_records_match_oracle():
    rng = np.random.default_rng(1618)
    seen: set[str] = set()
    for _ in range(60):
        _check_records(_random_skeleton(rng), rng, seen)
    assert seen == ALL_RULES


def test_all_violations_records_match_oracle_on_corpus(corpus):
    rng = np.random.default_rng(31)
    seen: set[str] = set()
    for p in corpus:
        _check_records(strip_to_skeleton(p), rng, seen)
    assert seen == ALL_RULES
