from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradus.denoiser import Denoiser, DenoiserHyperparams, train
from gradus.errors import GradusError
from gradus.graph import build_graph
from gradus.phrase import NoteEvent, Phrase, load_corpus
from gradus.pitch import DEGREES, parse_key
from gradus.schedule import NoiseSchedule, marginals

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def make_phrase(events, key=("C", "major"), meter=(4, 4), voices=("treble", "bass")):
    """events: (voice, onset, duration, degree-string-or-None) tuples."""
    from gradus.pitch import parse_degree

    evs = []
    for voice, onset, dur, deg in events:
        evs.append(
            NoteEvent(
                voice=voice,
                onset=Fraction(onset),
                duration=Fraction(dur),
                degree=parse_degree(deg) if deg is not None else None,
            )
        )
    return Phrase(
        key=parse_key(*key), meter=meter, voices=voices[: 1 + max(e.voice for e in evs)],
        events=tuple(evs),
    )


_METERS = ((4, 4), (3, 4), (6, 8), (2, 2), (3, 8), (5, 16))
_DURATIONS = tuple(Fraction(d) for d in ("1", "1", "2", "1/2", "3/2", "1/3", "2/3", "3"))
_KEYS = (
    ("C", "major"), ("G", "major"), ("Eb", "major"), ("C#", "major"),
    ("A", "minor"), ("F#", "minor"), ("Bb", "minor"),
)


def random_degree_phrase(rng, n_voices):
    """A phrase of random rhythm and degrees in a random key and meter:
    rests, triplets, now and then a seventh of a beat (no whole number of
    MIDI ticks) and a last bar left short of the barline."""
    meter = _METERS[int(rng.integers(len(_METERS)))]
    span = meter[0] * int(rng.integers(1, 3)) - int(rng.random() < 0.3)
    events = []
    for v in range(n_voices):
        t = Fraction(0)
        while t < span:
            d = _DURATIONS[int(rng.integers(len(_DURATIONS)))] if rng.random() > 0.02 else Fraction(1, 7)
            d = min(d, span - t)
            events.append(NoteEvent(v, t, d, DEGREES[int(rng.integers(len(DEGREES)))]))
            t += d
    return Phrase(
        key=parse_key(*_KEYS[int(rng.integers(len(_KEYS)))]), meter=meter,
        voices=("treble", "alto", "tenor", "bass")[:n_voices], events=tuple(events),
    )


def outcome(fn, *args):
    """fn's result, or the type and message of the GradusError it raised."""
    try:
        return fn(*args)
    except GradusError as exc:
        return type(exc), str(exc)


def counting(calls, key, fn):
    """fn, wrapped to add one to calls[key] per call."""

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def corpus_marginal(corpus):
    return marginals(corpus)


@pytest.fixture(scope="session")
def schedule():
    return NoiseSchedule()


@pytest.fixture(scope="session")
def toy_model(corpus, corpus_marginal, schedule):
    """One trained toy model shared by sampler and acceptance tests."""
    hp = DenoiserHyperparams.toy()
    graphs = [build_graph(p) for p in corpus]
    den = Denoiser(hp)
    result = train(den, graphs, schedule, corpus_marginal, np.random.default_rng(1))
    return den, result


@pytest.fixture()
def c_major():
    return parse_key("C", "major")
