import copy

import numpy as np
import pytest


from gradus import sampler
from gradus import schedule as schedule_module
from gradus.denoiser import Denoiser
from gradus.errors import PhraseValidationError
from gradus.graph import build_graph, rebuild_phrase
from gradus.phrase import sample_rhythm, strip_to_skeleton
from gradus.pitch import DEGREES
from gradus.rules import RuleContext, build_rule_context
from gradus.sampler import (
    GuidanceConfig,
    generate_library,
    generate_phrase,
    reverse_mixture,
    reverse_step,
    sample_noise_x,
    scg_reverse_step,
)
from gradus.schedule import NoiseSchedule, posterior

from conftest import counting
from rule_oracle import oracle


def _one_hot(indices, k):
    X = np.zeros((len(indices), k))
    X[np.arange(len(indices)), indices] = 1.0
    return X


def test_guidance_config_validation():
    with pytest.raises(PhraseValidationError):
        GuidanceConfig(K=0)


def test_reverse_step_one_hot_phat_reduces_to_posterior(schedule):
    # With p_hat concentrated on class c the mixture is exactly the
    # posterior for x0 = c.
    m = np.array([0.5, 0.3, 0.2])
    k = 3
    for t in (1, 5, 60):
        for c in range(k):
            for z in range(k):
                phat = _one_hot([c], k)
                mix = reverse_mixture(np.array([z]), t, phat, schedule, m)
                post = posterior(z, c, t, schedule, m)
                total = mix.sum()
                if total > 0:
                    assert np.allclose(mix[0] / total, post, atol=1e-12)


def test_reverse_mixture_matches_brute_force(schedule):
    rng = np.random.default_rng(0)
    m = np.array([0.5, 0.3, 0.2])
    k = 3
    for t in (1, 2, 17, 100):
        phat = rng.dirichlet(np.ones(k), size=5)
        xt_idx = rng.integers(0, k, size=5)
        mix = reverse_mixture(xt_idx, t, phat, schedule, m)
        for i in range(5):
            want = np.zeros(k)
            for c in range(k):
                want += phat[i, c] * posterior(int(xt_idx[i]), c, t, schedule, m)
            assert np.max(np.abs(mix[i] - want)) < 1e-10


def test_reverse_step_output_one_hot(schedule):
    rng = np.random.default_rng(1)
    m = np.full(18, 1 / 18)
    phat = rng.dirichlet(np.ones(18), size=12)
    xt = rng.integers(0, 18, 12)
    out = reverse_step(xt, 50, phat, schedule, m, rng)
    assert out.shape == (12,) and out.min() >= 0 and out.max() < 18


def test_reverse_step_empty_support_raises(schedule):
    # x^t sits in a zero-marginal state that no predicted clean class can
    # reach: the whole mixture vanishes and that is an invariant failure.
    m = np.array([0.7, 0.3, 0.0])
    phat = _one_hot([0], 3)
    xt = np.array([2])  # unreachable state under this marginal
    with pytest.raises(PhraseValidationError):
        reverse_step(xt, 60, phat, NoiseSchedule(), m, np.random.default_rng(0))


def test_scg_k1_bitwise_identical(schedule):
    m = np.full(18, 1 / 18)
    cfg = GuidanceConfig(K=1, seed=0)
    for trial in range(100):
        rng_state = np.random.default_rng(trial)
        phat = rng_state.dirichlet(np.ones(18), size=6)
        xt = rng_state.integers(0, 18, 6)
        t = int(rng_state.integers(1, schedule.T + 1))
        a = reverse_step(xt, t, phat, schedule, m, np.random.default_rng(1000 + trial))
        b = scg_reverse_step(
            xt, t, phat, schedule, m, cfg, np.random.default_rng(1000 + trial),
            score_candidates=lambda cands: [0.0] * len(cands),
        )
        assert np.array_equal(a, b)


def test_scg_argmin_contract(schedule):
    # A rule forbidding any class but 0 on node 0: the kept candidate can
    # never violate more than the rejected ones. The scored stack is the K
    # draws that K sequential reverse steps make from the same stream.
    m = np.full(3, 1 / 3)
    phat = np.full((6, 3), 1 / 3)
    xt = np.array([1, 2, 0, 1, 2, 0])

    def forbid(cand):
        return float(cand[0] != 0)

    for K in (2, 8):
        cfg = GuidanceConfig(K=K, seed=0)
        scored = []

        def score(cands):
            scored.append(cands.copy())
            return [forbid(c) for c in cands]

        rng = np.random.default_rng(5)
        kept = scg_reverse_step(xt, 40, phat, schedule, m, cfg, rng, score)
        rng2 = np.random.default_rng(5)
        cands = [reverse_step(xt, 40, phat, schedule, m, rng2) for _ in range(K)]
        losses = [forbid(c) for c in cands]
        assert len(scored) == 1
        assert np.array_equal(scored[0], np.stack(cands))
        assert rng.random() == rng2.random()
        assert forbid(kept) == min(losses)
        assert np.array_equal(kept, cands[losses.index(min(losses))])


def test_scg_reduces_expected_rule_loss(schedule):
    # Monte Carlo on a 2-node toy: guided selection can only improve the
    # expected loss under the forbidding rule.
    m = np.full(4, 0.25)
    phat = np.full((2, 4), 0.25)
    xt = np.array([0, 1])

    def loss(cand):
        return float(cand[0] == 3) + float(cand[1] == 3)

    totals = {}
    for K in (1, 8):
        cfg = GuidanceConfig(K=K, seed=0)
        total = 0.0
        for trial in range(500):
            rng = np.random.default_rng(trial)
            kept = scg_reverse_step(
                xt, 30, phat, schedule, m, cfg, rng, lambda cands: [loss(c) for c in cands]
            )
            total += loss(kept)
        totals[K] = total / 500
    assert totals[8] <= totals[1]


def test_sample_noise_x_matches_marginal(schedule):
    rng = np.random.default_rng(3)
    m = np.array([0.6, 0.3, 0.1])
    x = sample_noise_x(30_000, m, rng)
    freq = np.bincount(x, minlength=len(m)) / len(x)
    assert np.max(np.abs(freq - m)) < 0.01


def test_generate_phrase_preserves_skeleton(corpus, schedule, corpus_marginal, toy_model):
    den, result = toy_model
    skel = sample_rhythm(corpus, "whole-phrase", np.random.default_rng(4))
    out = generate_phrase(
        skel, den, result.params, schedule, corpus_marginal, GuidanceConfig(K=2, seed=9)
    )
    assert out.meter == skel.meter
    assert out.voices == skel.voices
    assert [(e.voice, e.onset, e.duration, e.tie) for e in out.events] == [
        (e.voice, e.onset, e.duration, e.tie) for e in skel.events
    ]
    assert all(e.degree is not None for e in out.events)


def test_generate_phrase_deterministic(corpus, schedule, corpus_marginal, toy_model):
    den, result = toy_model
    skel = strip_to_skeleton(corpus[1])
    cfg = GuidanceConfig(K=2, seed=21)
    a = generate_phrase(skel, den, result.params, schedule, corpus_marginal, cfg)
    b = generate_phrase(skel, den, result.params, schedule, corpus_marginal, cfg)
    assert a == b


def test_generate_library_seeds(corpus, schedule, corpus_marginal, toy_model):
    den, result = toy_model
    lib1 = generate_library(
        corpus, den, result.params, schedule, corpus_marginal, 2, GuidanceConfig(K=1, seed=7)
    )
    lib1_again = generate_library(
        corpus, den, result.params, schedule, corpus_marginal, 2, GuidanceConfig(K=1, seed=7)
    )
    lib2 = generate_library(
        corpus, den, result.params, schedule, corpus_marginal, 2, GuidanceConfig(K=1, seed=8)
    )
    assert lib1 == lib1_again
    assert lib1 != lib2
    assert len(lib1) == 2


def test_generate_library_b1(corpus, schedule, corpus_marginal, toy_model):
    den, result = toy_model
    lib = generate_library(
        corpus, den, result.params, schedule, corpus_marginal, 1, GuidanceConfig(K=1, seed=0)
    )
    assert len(lib) == 1


def test_generate_library_order_independent(corpus, schedule, corpus_marginal, toy_model):
    # Phrase b is a pure function of its spawned stream: recomputing it in
    # isolation reproduces the in-library result.
    den, result = toy_model
    cfg = GuidanceConfig(K=1, seed=31)
    lib = generate_library(
        corpus, den, result.params, schedule, corpus_marginal, 3, cfg
    )
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    rng = np.random.default_rng(streams[2])
    skel = sample_rhythm(corpus, "whole-phrase", rng, measures=2)
    alone = generate_phrase(
        skel, den, result.params, schedule, corpus_marginal, cfg, rng=rng
    )
    assert alone == lib[2]


def _per_candidate_guided_phrase(skeleton, den, params, schedule, m, config, rng):
    """Reference guided sampler: a forward pass per step, then K draws
    from K reverse steps, each scored by a forward pass of its own; the
    first least-violating candidate wins."""
    graph = build_graph(skeleton)
    ctx = build_rule_context(skeleton)

    def score(cand, t_prev):
        if t_prev >= 1:
            deg = np.argmax(den.forward(graph.with_x(cand), t_prev, params).p_hat, axis=1)
        else:
            deg = cand
        return float(ctx.score(deg.astype(np.int64)))

    x = sample_noise_x(graph.n, m, rng)
    for t in range(schedule.T, 0, -1):
        p_hat = den.forward(graph.with_x(x), t, params).p_hat
        best, best_loss = None, None
        for _ in range(config.K):
            cand = reverse_step(x, t, p_hat, schedule, m, rng)
            cand_loss = score(cand, t - 1)
            if best_loss is None or cand_loss < best_loss:
                best, best_loss = cand, cand_loss
        x = best
    return rebuild_phrase(skeleton, [DEGREES[i] for i in x])


@pytest.mark.parametrize("K", [2, 8, 16])
@pytest.mark.parametrize(
    "source,seed", [(1, 3), (8, 11), (15, 29), (0, 101), (4, 7919), (12, 5), (19, 2024)]
)
def test_generate_phrase_matches_per_candidate_oracle(
    corpus, schedule, corpus_marginal, toy_model, K, source, seed
):
    den, result = toy_model
    skel = strip_to_skeleton(corpus[source])
    cfg = GuidanceConfig(K=K, seed=seed)
    want = _per_candidate_guided_phrase(
        skel, den, result.params, schedule, corpus_marginal, cfg, np.random.default_rng(seed)
    )
    got = generate_phrase(skel, den, result.params, schedule, corpus_marginal, cfg)
    assert got == want


@pytest.mark.parametrize("K", [1, 8])
def test_generate_phrase_costs_t_passes(corpus, schedule, corpus_marginal, toy_model, monkeypatch, K):
    # One reverse mixture per step, whatever K is. Unguided, one denoiser
    # pass per step. Guided, one pass per step for the first-drawn
    # candidate alone, and one more for the step's other distinct
    # candidates when the first one's clean estimate breaks a rule (the
    # last step scores the candidates themselves, with no pass). Those
    # steps are counted independently: each step's K draws are repeated as
    # K reverse steps on a copy of its stream, and the first draw's
    # estimate is checked by the brute-force rule oracle. The
    # per-candidate reference makes (K+1)T-K passes and KT mixtures. The
    # transition matrices are built once per schedule and marginal, so a
    # second phrase builds none.
    den, result = toy_model
    forward, step = Denoiser.forward, sampler.scg_reverse_step
    steps = []  # per guided step: its inputs and a copy of its stream before the draws

    def recording(xt, t, p_hat, sched, m, config, rng, score_candidates=None):
        if score_candidates is not None:
            steps.append((xt.copy(), t, p_hat.copy(), config.K, copy.deepcopy(rng)))
        return step(xt, t, p_hat, sched, m, config, rng, score_candidates)

    monkeypatch.setattr(sampler, "scg_reverse_step", recording)
    calls = {"forward": 0, "mixture": 0, "build": 0}
    monkeypatch.setattr(Denoiser, "forward", counting(calls, "forward", Denoiser.forward))
    monkeypatch.setattr(sampler, "reverse_mixture", counting(calls, "mixture", sampler.reverse_mixture))
    monkeypatch.setattr(
        schedule_module, "transition_matrix",
        counting(calls, "build", schedule_module.transition_matrix),
    )
    for source, seed, max_builds in ((2, 4, 2 * schedule.T + 1), (5, 6, 0)):
        skel = strip_to_skeleton(corpus[source])
        steps.clear()
        generate_phrase(skel, den, result.params, schedule, corpus_marginal, GuidanceConfig(K=K, seed=seed))
        counted = dict(calls)
        graph = build_graph(skel)
        second_passes = 0
        for xt, t, p_hat, k, rng in steps:
            cands = [reverse_step(xt, t, p_hat, schedule, corpus_marginal, rng) for _ in range(k)]
            if t == 1:
                continue
            est = forward(den, graph.with_x(cands[0]), t - 1, result.params).p_hat
            first = rebuild_phrase(skel, [DEGREES[i] for i in np.argmax(est, axis=1)])
            others = any(not np.array_equal(c, cands[0]) for c in cands)
            second_passes += bool(oracle(first)) and others
        assert len(steps) == (schedule.T if K > 1 else 0)
        assert counted["forward"] == schedule.T + second_passes
        assert counted["mixture"] == schedule.T
        assert counted["build"] <= max_builds
        if K > 1:
            assert 0 < second_passes < schedule.T - 1
        calls.update(forward=0, mixture=0, build=0)


def test_generate_phrase_forwards_distinct_candidates(
    corpus, schedule, corpus_marginal, toy_model, monkeypatch
):
    # Each guided step forwards its first-drawn candidate alone, as its
    # first pass; a second pass, when there is one, stacks the step's other
    # distinct candidates. No candidate is forwarded twice in a step, and
    # each forwarded candidate is scored once, right after its pass.
    # Repeated draws, and every draw after a first one at loss 0, are never
    # forwarded, so fewer rows are forwarded than the steps drew distinct
    # candidates (counted from the stacks the scorer receives).
    den, result = toy_model
    K = 8
    events = []  # ("forward", t, candidate rows) and ("score",), in call order
    distinct = {}  # t - 1 -> the distinct candidates drawn at step t
    forward, score, step = Denoiser.forward, RuleContext.score, sampler.scg_reverse_step

    def recording(self, graph, t, params, want_cache=False, consts=None):
        if graph.x.ndim == 2:
            events.append(("forward", t, [c.tobytes() for c in graph.x]))
        return forward(self, graph, t, params, want_cache, consts)

    def scoring(self, degrees):
        events.append(("score",))
        return score(self, degrees)

    def drawing(xt, t, p_hat, sched, m, config, rng, score_candidates=None):
        def scorer(cands):
            distinct[t - 1] = {c.tobytes() for c in cands}
            return score_candidates(cands)

        return step(xt, t, p_hat, sched, m, config, rng, scorer)

    monkeypatch.setattr(Denoiser, "forward", recording)
    monkeypatch.setattr(RuleContext, "score", scoring)
    monkeypatch.setattr(sampler, "scg_reverse_step", drawing)
    skel = strip_to_skeleton(corpus[2])
    generate_phrase(skel, den, result.params, schedule, corpus_marginal, GuidanceConfig(K=K, seed=4))

    passes: dict[int, list[list[bytes]]] = {}
    at = [i for i, e in enumerate(events) if e[0] == "forward"]
    for i, j in zip(at, at[1:] + [len(events)]):
        _, t, rows = events[i]
        passes.setdefault(t, []).append(rows)
        scored = events[i + 1 : j]
        assert scored[: len(rows)] == [("score",)] * len(rows)
        # Only the last step, which forwards nothing, scores after the last pass.
        assert len(scored) == len(rows) or j == len(events)
    assert sorted(passes) == list(range(1, schedule.T))
    for t, stacks in passes.items():
        assert len(stacks[0]) == 1 and len(stacks) <= 2
        rows = [r for stack in stacks for r in stack]
        assert len(set(rows)) == len(rows), f"step {t + 1} forwards a candidate twice"
        assert set(rows) <= distinct[t]
    forwarded = sum(len(r) for stacks in passes.values() for r in stacks)
    assert forwarded < sum(len(distinct[t]) for t in passes)
    assert any(len(stacks) == 2 for stacks in passes.values())


# Degree strings per voice that generate_phrase gave (K=8, T=100, the toy
# model) before its transition matrices, rule tables and candidate draws
# were precomputed; precomputing must not change a generated phrase.
GOLDEN_PHRASES = [
    (0, 101, ("3 6 1 b7 3 4", "1 1 2 1 #2 2")),
    (14, 7, ("3 4 7 4 1 5 5 3 3 1 3 #5", "1 4 3 4 3 3 7 3 #6 1 1 3 5")),
    (18, 2024, ("1 1 1 3 3 3 #6", "1 #6 2 5 3 2 1")),
]


@pytest.mark.parametrize("source,seed,voices", GOLDEN_PHRASES)
def test_generate_phrase_golden(corpus, schedule, corpus_marginal, toy_model, source, seed, voices):
    den, result = toy_model
    skel = strip_to_skeleton(corpus[source])
    out = generate_phrase(skel, den, result.params, schedule, corpus_marginal, GuidanceConfig(K=8, seed=seed))
    got = tuple(
        " ".join(str(e.degree) for e in out.events if e.voice == v) for v in range(len(out.voices))
    )
    assert got == voices
