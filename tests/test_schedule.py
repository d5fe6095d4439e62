import itertools

import numpy as np
import pytest

from gradus import schedule as schedule_module
from gradus.errors import PhraseValidationError
from gradus.pitch import DEGREE_INDEX, Degree
from gradus.schedule import (
    NoiseSchedule,
    cosine_alpha_bar,
    forward_sample,
    marginals,
    posterior,
    q_step,
    qbar,
)

from conftest import counting, make_phrase

# Independently evaluated from the squared-cosine formula before the
# schedule module existed (T=100, s=0.008).
ALPHA_BAR_50 = 0.49384359044063775


def brute_posterior(x0, xt, t, schedule, m):
    """Path-enumeration oracle: joint of (x^{t-1}, x^t) via products of
    single-step matrices only, then conditioned. Independent of the
    closed-form cumulative matrix used by the implementation."""
    k = len(m)
    qs = [q_step(schedule.alpha_at(tau), m) for tau in range(1, t + 1)]
    joint = np.zeros(k)  # over x^{t-1} with x^t fixed
    for path in itertools.product(range(k), repeat=t - 1):
        states = (x0,) + path
        prob = 1.0
        for a, b, q in zip(states, states[1:], qs):
            prob *= q[a, b]
        prob *= qs[-1][states[-1], xt]
        joint[states[-1]] += prob
    total = joint.sum()
    return np.zeros(k) if total <= 0 else joint / total


def test_cosine_endpoints():
    assert cosine_alpha_bar(0) == 1.0
    assert cosine_alpha_bar(100) <= 1e-12


def test_cosine_midpoint_frozen_value():
    assert cosine_alpha_bar(50) == pytest.approx(ALPHA_BAR_50, abs=1e-15)


def test_cosine_rejects_out_of_range():
    with pytest.raises(PhraseValidationError):
        cosine_alpha_bar(101)


def test_schedule_invariants(schedule):
    assert schedule.alpha_bar[0] == 1.0
    assert schedule.alpha_bar[-1] <= 1e-12
    assert np.all(np.diff(schedule.alpha_bar) < 0)
    assert np.all((schedule.alpha >= 0) & (schedule.alpha <= 1))


def test_qbar_limits():
    m = np.array([0.5, 0.3, 0.2])
    assert np.allclose(qbar(1.0, m), np.eye(3))
    assert np.allclose(qbar(0.0, m), np.tile(m, (3, 1)))


def test_qbar_hand_value():
    m = np.array([0.5, 0.3, 0.2])
    q = qbar(0.4, m)
    assert np.allclose(q[0], [0.7, 0.18, 0.12])
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)


def test_qbar_rejects_bad_marginal():
    with pytest.raises(PhraseValidationError):
        qbar(0.5, np.array([0.5, 0.6]))


def test_transition_tables_match_builders(corpus_marginal, monkeypatch):
    # Every kept matrix is the one qbar/q_step builds for its step; each
    # marginal gets its own tables, built once.
    sched = NoiseSchedule()
    other = np.random.default_rng(5).dirichlet(np.ones(18))
    kept = []
    for m in (corpus_marginal, other):
        tables = sched.transitions(m)
        kept.append(tables)
        assert len(tables.qbar) == sched.T + 1 and len(tables.q_step) == sched.T
        for t in range(sched.T + 1):
            assert np.array_equal(tables.qbar[t], qbar(float(sched.alpha_bar[t]), m))
        for t in range(1, sched.T + 1):
            assert np.array_equal(tables.q_step[t - 1], q_step(sched.alpha_at(t), m))
    a, b = kept
    assert a is not b
    assert not np.array_equal(a.qbar[50], b.qbar[50])
    calls = {"build": 0, "validate": 0}
    monkeypatch.setattr(
        schedule_module, "transition_matrix",
        counting(calls, "build", schedule_module.transition_matrix),
    )
    monkeypatch.setattr(
        schedule_module, "validate_marginal",
        counting(calls, "validate", schedule_module.validate_marginal),
    )
    # A kept marginal, passed again as an array, a copy or a list, is a hit
    # that neither validates nor builds.
    for m, tables in ((corpus_marginal, a), (corpus_marginal.copy(), a), (other, b), (list(other), b)):
        assert sched.transitions(m) is tables
    assert calls == {"build": 0, "validate": 0}
    # Only a validated marginal is kept: an invalid one is refused every
    # time, and a kept marginal's bytes under another shape or dtype are
    # validated as new input, and refused.
    bad = np.array([0.5, 0.6])
    for m in (bad, bad, corpus_marginal.reshape(2, 9), corpus_marginal[None], corpus_marginal.view(np.int64)):
        with pytest.raises(PhraseValidationError):
            sched.transitions(m)
    assert calls == {"build": 0, "validate": 5}


def test_chapman_kolmogorov(schedule):
    rng = np.random.default_rng(3)
    m = rng.dirichlet(np.ones(18))
    for t in range(1, schedule.T + 1):
        lhs = qbar(float(schedule.alpha_bar[t]), m)
        rhs = qbar(float(schedule.alpha_bar[t - 1]), m) @ q_step(schedule.alpha_at(t), m)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_forward_sample_t0_identity(schedule):
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, 18, size=12)
    m = np.full(18, 1 / 18)
    assert np.array_equal(forward_sample(x0, 0, schedule, m, rng), x0)


def test_forward_sample_rows_one_hot(schedule):
    rng = np.random.default_rng(1)
    m = rng.dirichlet(np.ones(18))
    x0 = rng.integers(0, 18, size=30)
    for t in (1, 37, 100):
        xt = forward_sample(x0, t, schedule, m, rng)
        assert xt.shape == (30,) and xt.min() >= 0 and xt.max() < 18


def test_forward_sample_terminal_matches_marginal(schedule):
    # At t=T the node distribution must be the marginal, within 3-sigma
    # binomial bounds over 1e5 draws.
    rng = np.random.default_rng(7)
    m = np.array([0.5, 0.3, 0.15, 0.05])
    n = 100_000
    x0 = np.zeros(n, dtype=np.int64)  # all mass on one class; the prior must wash it out
    xt = forward_sample(x0, schedule.T, schedule, m, rng)
    counts = np.bincount(xt, minlength=4)
    for c in range(4):
        sigma = np.sqrt(n * m[c] * (1 - m[c]))
        assert abs(counts[c] - n * m[c]) < 3 * sigma


def test_posterior_t1_collapses_to_x0(schedule):
    m = np.full(4, 0.25)
    for x0 in range(4):
        for xt in range(4):
            post = posterior(xt, x0, 1, schedule, m)
            expected = np.zeros(4)
            expected[x0] = 1.0
            assert np.allclose(post, expected)


def test_posterior_rejects_t0(schedule):
    with pytest.raises(PhraseValidationError):
        posterior(0, 0, 0, schedule, np.full(18, 1 / 18))


def test_posterior_matches_brute_force_exhaustive():
    rng = np.random.default_rng(11)
    for k in (2, 3, 4):
        for T in (2, 3, 5):
            schedule = NoiseSchedule(T=T)
            for m in (np.full(k, 1 / k), rng.dirichlet(np.ones(k))):
                for t in range(1, T + 1):
                    for x0 in range(k):
                        for xt in range(k):
                            got = posterior(xt, x0, t, schedule, m)
                            want = brute_posterior(x0, xt, t, schedule, m)
                            assert np.max(np.abs(got - want)) < 1e-10
                            total = got.sum()
                            assert total == 0.0 or abs(total - 1.0) < 1e-12


def test_posterior_zero_support_case():
    # A zero-marginal class is unreachable: conditioning on landing there
    # from elsewhere has empty support and returns the zero vector.
    schedule = NoiseSchedule(T=4)
    m = np.array([0.6, 0.4, 0.0])
    post = posterior(2, 0, 3, schedule, m)
    assert np.array_equal(post, np.zeros(3))


def test_marginals_hand_counts():
    a = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "1"), (0, 2, 1, "1")], voices=("m",))
    b = make_phrase([(0, 0, 1, "5")], voices=("m",))
    m = marginals([a, b])
    assert m[DEGREE_INDEX[Degree(1)]] == pytest.approx(0.75)
    assert m[DEGREE_INDEX[Degree(5)]] == pytest.approx(0.25)
    assert m.sum() == pytest.approx(1.0)


def test_marginals_one_hot_single_class():
    p = make_phrase([(0, 0, 1, "1"), (0, 1, 1, "1")], voices=("m",))
    m = marginals([p])
    expected = np.zeros(18)
    expected[DEGREE_INDEX[Degree(1)]] = 1.0
    assert np.array_equal(m, expected)


def test_marginals_corpus_sums_to_one(corpus_marginal):
    assert corpus_marginal.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginals_empty_corpus():
    with pytest.raises(PhraseValidationError):
        marginals([])
