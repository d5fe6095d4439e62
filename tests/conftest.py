from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradus.denoiser import Denoiser, DenoiserHyperparams, train
from gradus.graph import build_graph
from gradus.phrase import NoteEvent, Phrase, load_corpus
from gradus.pitch import parse_key
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
