import numpy as np
import pytest

from gradus import graph as graph_module
from gradus.errors import PhraseValidationError
from gradus.graph import (
    EDGE_CLASSES,
    FeatureFlags,
    build_graph,
    merge_tied,
    rebuild_phrase,
    rhythm_features,
)
from gradus.phrase import strip_to_skeleton
from gradus.pitch import NUM_DEGREE_CLASSES, Degree, parse_degree

from conftest import counting, make_phrase


def edge(graph, i, j):
    return EDGE_CLASSES[graph.ec[i, j]]


def test_two_note_single_voice_is_treble_chain():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "2")], voices=("melody",))
    g = build_graph(p)
    non_none = [
        (i, j, edge(g, i, j))
        for i in range(2)
        for j in range(2)
        if edge(g, i, j) != "none"
    ]
    assert non_none == [(0, 1, "treble-voice")]


def test_onset_edges_bidirectional():
    p = make_phrase([(0, 0, 1, "3"), (1, 0, 1, "1")])
    g = build_graph(p)
    assert edge(g, 0, 1) == "onset"
    assert edge(g, 1, 0) == "onset"


def test_bass_whole_note_sustains():
    p = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "2"), (0, 2, 1, "1"), (0, 3, 1, "2"), (1, 0, 4, "1")]
    )
    g = build_graph(p)
    bass = next(i for i, nd in enumerate(g.nodes) if nd.voice == 1)
    sustains = [j for j in range(g.n) if edge(g, bass, j) == "sustain"]
    onsets = [j for j in range(g.n) if edge(g, bass, j) == "onset"]
    assert len(sustains) == 3
    assert len(onsets) == 1  # the simultaneous first treble note


def test_one_hot_validity(corpus):
    # A corpus graph holds one class in 0..17 per node, a skeleton's graph
    # holds -1 for every node, and with_x refuses a vector of another length.
    for p in corpus:
        g = build_graph(p)
        assert g.x.shape == (g.n,) and g.x.min() >= 0 and g.x.max() < NUM_DEGREE_CLASSES
        assert g.has_labels
        assert g.ec.shape == (g.n, g.n) and g.ec.min() >= 0 and g.ec.max() < len(EDGE_CLASSES)
        skeleton = build_graph(strip_to_skeleton(p))
        assert np.array_equal(skeleton.x, np.full(g.n, -1)) and not skeleton.has_labels
        for bad in (np.zeros(g.n + 1, dtype=np.int64), np.zeros((2, g.n - 1), dtype=np.int64)):
            with pytest.raises(PhraseValidationError):
                g.with_x(bad)


def test_build_graph_deterministic(corpus):
    a = build_graph(corpus[0])
    b = build_graph(corpus[0])
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.ec, b.ec)
    assert np.array_equal(a.R, b.R)


def test_inner_voices_get_plain_forward():
    p = make_phrase(
        [
            (0, 0, 1, "1"), (0, 1, 1, "2"),
            (1, 0, 1, "3"), (1, 1, 1, "4"),
            (2, 0, 1, "5"), (2, 1, 1, "6"),
        ],
        voices=("treble", "alto", "bass"),
    )
    g = build_graph(p)
    chains = {}
    for v in range(3):
        nodes = [i for i, nd in enumerate(g.nodes) if nd.voice == v]
        chains[v] = edge(g, nodes[0], nodes[1])
    assert chains == {0: "treble-voice", 1: "forward", 2: "bass-voice"}


def test_structural_edges_yield_to_surface():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "2"), (0, 2, 1, "3")], voices=("m",))
    from dataclasses import replace

    annotated = replace(p, structural=((0, 2), (0, 1)))
    g = build_graph(annotated)
    assert edge(g, 0, 2) == "structural"  # no surface relation between 0 and 2
    assert edge(g, 0, 1) == "treble-voice"  # surface wins


def test_tied_events_merge():
    p = make_phrase([(0, 0, 2, "1"), (0, 2, 2, "1"), (1, 0, 4, "1")])
    from dataclasses import replace

    events = list(p.events)
    tied_idx = next(i for i, e in enumerate(events) if e.voice == 0 and e.onset == 2)
    events[tied_idx] = replace(events[tied_idx], tie=True)
    p = replace(p, events=tuple(events))
    g = build_graph(p)
    assert g.n == 2
    treble = next(nd for nd in g.nodes if nd.voice == 0)
    assert treble.duration == 4
    assert len(treble.event_indices) == 2


def test_rhythm_features_values():
    # Durations and offsets in bars of 4/4.
    p = make_phrase([(0, 0, 1, "1"), (0, 2, 2, "5")], voices=("m",))
    r = rhythm_features(p)
    assert np.allclose(r[0], [0.25, 0.0, 1.0])
    assert np.allclose(r[1], [0.5, 0.5, 0.5])


def test_rhythm_features_ablation():
    p = make_phrase([(0, 0, 1, "1")], voices=("m",))
    assert rhythm_features(p, FeatureFlags.none()).shape == (1, 0)
    assert rhythm_features(p, FeatureFlags(duration=False, offset=True, strength=False)).shape == (1, 1)
    g = build_graph(p, FeatureFlags.none())
    assert g.R.shape == (1, 0)
    assert g.r_names == ()


def test_build_graph_merges_tied_notes_once(corpus, monkeypatch):
    # The rhythm columns read the nodes build_graph has already merged,
    # and equal the columns rhythm_features merges for itself.
    calls = {"merge": 0}
    monkeypatch.setattr(graph_module, "merge_tied", counting(calls, "merge", merge_tied))
    flag_sets = (FeatureFlags(), FeatureFlags.none(), FeatureFlags(duration=False))
    graphs = [build_graph(p, flags) for p in corpus for flags in flag_sets]
    assert calls["merge"] == len(graphs)
    for g, (p, flags) in zip(graphs, [(p, f) for p in corpus for f in flag_sets]):
        assert np.array_equal(g.R, rhythm_features(p, flags))


def test_rebuild_phrase_round_trip(corpus):
    for p in corpus[:6]:
        g = build_graph(p)
        degrees = [nd.degree for nd in g.nodes]
        rebuilt = rebuild_phrase(strip_to_skeleton(p), degrees)
        assert rebuilt == p
        g2 = build_graph(rebuilt)
        assert np.array_equal(g2.ec, g.ec)
        assert np.array_equal(g2.R, g.R)


def test_rebuild_phrase_length_mismatch(corpus):
    skel = strip_to_skeleton(corpus[0])
    n = len(merge_tied(skel))
    with pytest.raises(PhraseValidationError):
        rebuild_phrase(skel, [Degree(1)] * (n - 1))


def test_rebuild_can_make_rests():
    skel = strip_to_skeleton(make_phrase([(0, 0, 1, "1"), (0, 1, 1, "2")], voices=("m",)))
    rebuilt = rebuild_phrase(skel, [parse_degree("rest"), Degree(5)])
    assert rebuilt.events[0].is_rest
    assert rebuilt.events[1].degree == Degree(5)


def test_zero_event_phrase_rejected():
    from gradus.phrase import Phrase
    from gradus.pitch import parse_key

    with pytest.raises(PhraseValidationError):
        Phrase(key=parse_key("C", "major"), meter=(4, 4), voices=("m",), events=())

