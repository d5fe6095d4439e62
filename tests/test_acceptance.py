"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its elapsed time and asserting its stated tolerance
and runtime budget. Run with `pytest tests/test_acceptance.py -s`."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chisquare

from gradus.denoiser import Denoiser, DenoiserHyperparams, FlatGrads, train
from gradus.errors import FusionInfeasibleError
from gradus.fusion import default_profiles, default_templates, fuse
from gradus.graph import FeatureFlags, build_graph, merge_tied, rebuild_phrase
from gradus.library import PhraseLibrary
from gradus.midi import read_midi_notes, score_note_events, write_midi
from gradus.phrase import strip_to_skeleton
from gradus.pitch import DEGREES, Degree, degree_of, parse_key, parse_pitch
from gradus.rules import ProgressionGrammar, all_violations, analyze_harmony, rule_loss
from gradus.sampler import GuidanceConfig, generate_library, reverse_mixture, reverse_step, scg_reverse_step
from gradus.schedule import NoiseSchedule, cosine_alpha_bar, posterior, q_step, qbar
from gradus.fusion import VoiceProfile, realize_pitches

from conftest import make_phrase
from counterpoint_fixtures import FIXTURES
from test_schedule import brute_posterior


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {number:02d} {name:<28s} FAIL  {elapsed:8.3f}s (budget {budget_s:g}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {number:02d} {name:<28s} PASS  {elapsed:8.3f}s (budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_schedule_endpoints():
    with criterion(1, "schedule-endpoints", 1.0):
        schedule = NoiseSchedule(T=100, s=0.008)
        assert abs(schedule.alpha_bar[0] - 1.0) <= 1e-12
        assert abs(schedule.alpha_bar[100]) <= 1e-12
        assert np.all(np.diff(schedule.alpha_bar) < 0)
        assert cosine_alpha_bar(0) == 1.0


def test_criterion_02_transition_algebra():
    with criterion(2, "transition-algebra", 5.0):
        schedule = NoiseSchedule(T=100, s=0.008)
        rng = np.random.default_rng(2024)
        m = rng.dirichlet(np.ones(18))
        for t in range(1, 101):
            qb_t = qbar(float(schedule.alpha_bar[t]), m)
            qb_prev = qbar(float(schedule.alpha_bar[t - 1]), m)
            q_t = q_step(schedule.alpha_at(t), m)
            assert np.max(np.abs(qb_t - qb_prev @ q_t)) < 1e-10
            for mat in (qb_t, qb_prev, q_t):
                assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-12
                assert np.all((mat >= 0) & (mat <= 1))


def test_criterion_03_posterior_oracle():
    with criterion(3, "posterior-oracle", 10.0):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4):
            for T in (1, 2, 3, 4, 5):
                schedule = NoiseSchedule(T=T)
                m = rng.dirichlet(np.ones(k))
                for t in range(1, T + 1):
                    for x0 in range(k):
                        for xt in range(k):
                            got = posterior(xt, x0, t, schedule, m)
                            want = brute_posterior(x0, xt, t, schedule, m)
                            assert np.max(np.abs(got - want)) < 1e-10


def test_criterion_04_reverse_mixture_sampling():
    with criterion(4, "reverse-mixture-sampling", 30.0):
        schedule = NoiseSchedule()
        m = np.array([0.5, 0.3, 0.2])
        phat_row = np.array([0.2, 0.5, 0.3])
        t = 40
        n = 100_000
        for z in range(3):
            xt = np.full(n, z)
            phat = np.tile(phat_row, (n, 1))
            out = reverse_step(xt, t, phat, schedule, m, np.random.default_rng(400 + z))
            counts = np.bincount(out, minlength=3)
            mix = reverse_mixture(xt[:1], t, phat_row[None, :], schedule, m)[0]
            expected = n * mix / mix.sum()
            result = chisquare(counts, expected)
            assert result.pvalue > 0.001, f"chi-square p={result.pvalue} at x_t={z}"


def test_criterion_05_gradient_check():
    with criterion(5, "gradient-check", 60.0):
        hp = DenoiserHyperparams(layers=2, hidden_dim=8, heads=2, T=10, epochs=1)
        phrase = make_phrase(
            [(0, 0, 1, "3"), (0, 1, 1, "2"), (0, 2, 2, "1"), (1, 0, 4, "1")]
        )
        graph = build_graph(phrase)
        den = Denoiser(hp)
        params = den.init_params(np.random.default_rng(5), graph.R.shape[1])
        gnoisy = graph.with_x(np.array([5, 0, 17, 2]))
        x0 = graph.x
        _, grads = den.backward(gnoisy, 3, params, x0, FlatGrads(params))
        h = 1e-5
        worst = 0.0
        for name, w in params.items():
            fd = np.zeros_like(w)
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + h
                up = Denoiser.loss(den.forward(gnoisy, 3, params), x0)
                w[idx] = orig - h
                down = Denoiser.loss(den.forward(gnoisy, 3, params), x0)
                w[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            scale = max(np.max(np.abs(fd)), np.max(np.abs(grads[name])), 1e-12)
            rel = np.max(np.abs(fd - grads[name])) / scale
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}: relative error {rel:.3e}"
        print(f"    worst tensor relative error {worst:.3e}")


def test_criterion_06_training_and_ablation(corpus, schedule, corpus_marginal):
    with criterion(6, "training-and-ablation", 600.0):
        hp = DenoiserHyperparams.toy()
        outcomes = {}
        for seed in (1, 2, 3):
            for label, flags in (("full", FeatureFlags()), ("noR", FeatureFlags.none())):
                graphs = [build_graph(p, flags) for p in corpus]
                result = train(Denoiser(hp), graphs, schedule, corpus_marginal,
                               np.random.default_rng(seed))
                outcomes[(seed, label)] = result.history
        # Sanity on the canonical seed: >= 30% validation drop.
        hist = outcomes[(1, "full")]
        drop = 1.0 - hist[-1][2] / hist[0][2]
        print(f"    seed 1 val loss {hist[0][2]:.4f} -> {hist[-1][2]:.4f} (drop {drop:.1%})")
        assert drop >= 0.30
        # Ablation direction on >= 2 of the 3 fixed seeds.
        wins = 0
        for seed in (1, 2, 3):
            full = outcomes[(seed, "full")][-1][2]
            nor = outcomes[(seed, "noR")][-1][2]
            wins += nor > full
            print(f"    seed {seed}: full-R {full:.4f}  no-R {nor:.4f}")
        assert wins >= 2, f"no-R beat full-R on {3 - wins} of 3 seeds"


def test_criterion_07_scg_degeneracy(schedule):
    with criterion(7, "scg-k1-degeneracy", 10.0):
        m = np.full(18, 1 / 18)
        cfg = GuidanceConfig(K=1, seed=0)
        for trial in range(100):
            state = np.random.default_rng(trial)
            phat = state.dirichlet(np.ones(18), size=5)
            xt = state.integers(0, 18, 5)
            t = int(state.integers(1, 101))
            a = reverse_step(xt, t, phat, schedule, m, np.random.default_rng(7000 + trial))
            b = scg_reverse_step(
                xt, t, phat, schedule, m, cfg, np.random.default_rng(7000 + trial),
                score_candidates=lambda cands: [0.0] * len(cands),
            )
            assert np.array_equal(a, b)


def test_criterion_08_counterpoint_oracle():
    with criterion(8, "counterpoint-oracle", 1.0):
        assert len(FIXTURES) == 20
        clean = sum(1 for _, _, expected in FIXTURES if expected is None)
        assert clean == 10
        for name, phrase, expected in FIXTURES:
            violations = all_violations(phrase)
            if expected is None:
                assert violations == [], f"{name}: spurious {violations}"
            else:
                assert len(violations) == 1, f"{name}: {violations}"
                assert violations[0].rule == expected, f"{name}: {violations[0].rule}"


def test_criterion_09_harmonic_soundness(corpus):
    with criterion(9, "harmonic-soundness", 30.0):
        grammar = ProgressionGrammar()
        rng = np.random.default_rng(9)
        diatonic = [i for i, d in enumerate(DEGREES) if not d.is_rest and d.alter == 0]
        count = 0
        for trial in range(200):
            src = corpus[trial % len(corpus)]
            skeleton = strip_to_skeleton(src)
            n = len(merge_tied(skeleton))
            pool = diatonic if trial % 2 == 0 else list(range(18))
            degrees = [DEGREES[int(i)] for i in rng.choice(pool, size=n)]
            phrase = rebuild_phrase(skeleton, degrees)
            for reading in analyze_harmony(phrase, grammar):
                count += 1
                roots = [numeral.root for numeral in reading.numerals]
                for a, b in zip(roots, roots[1:]):
                    assert grammar.allows(a, b)
                    assert (a, b) != (5, 4), "V -> IV must never be produced"
        print(f"    {count} readings checked across 200 phrases")


def test_criterion_10_end_to_end_fusion(corpus, schedule, corpus_marginal):
    with criterion(10, "end-to-end-fusion", 900.0):
        from dataclasses import replace

        from gradus.fusion import concatenate_degrees, localize_degree
        from gradus.rules import cadence_satisfies

        # A longer-trained desk checkpoint (toy architecture, full-scale
        # epoch count) so the accepted library can actually cover slots.
        hp = replace(DenoiserHyperparams.toy(), epochs=150)
        den = Denoiser(hp)
        graphs = [build_graph(p) for p in corpus]
        result = train(den, graphs, schedule, corpus_marginal, np.random.default_rng(1))
        B = 40
        cfg = GuidanceConfig(K=8, seed=42)
        phrases = generate_library(
            corpus, den, result.params, schedule, corpus_marginal, B, cfg
        )
        assert len(phrases) == B
        library, dropped = PhraseLibrary.build(phrases)
        rate = len(dropped) / B
        print(f"    rejection rate {rate:.1%} over B={B} "
              f"(reported for comparison; corpus-dependent)")
        home = parse_key("C", "major")
        template = default_templates()[0]
        profiles = default_profiles(("treble", "bass"))
        grammar = ProgressionGrammar()
        coverage = []
        for slot in template.slots:
            required = localize_degree(slot.final_treble, home, slot.local_key)
            coverage.append(
                sum(
                    1
                    for _, entry in library
                    if entry.mode == home.mode
                    and cadence_satisfies(entry.cadence, slot.cadence)
                    and entry.final_treble == required
                )
            )
        print(f"    accepted {len(library)}, per-slot candidate counts {coverage}")

        def try_fuse():
            return fuse(template, library, profiles, grammar,
                        np.random.default_rng(cfg.seed), home)

        try:
            score, plan = try_fuse()
        except FusionInfeasibleError as first:
            with pytest.raises(FusionInfeasibleError) as second:
                try_fuse()
            assert second.value.slot_index == first.slot_index
            print(f"    fusion infeasible at slot {first.slot_index}, deterministically")
            return
        assert all(c >= 1 for c in coverage)
        score2, plan2 = try_fuse()
        assert plan2 == plan
        keys = [degree_of(parse_pitch(str(p.key.tonic_name) + "4"), home).number
                for p in score.phrases]
        assert keys == [1, 5, 1], f"key trajectory {keys}"
        chosen = [library[i][0] for i in plan.phrase_indices]
        assert rule_loss(concatenate_degrees(chosen, home, keys)) == 0
        final_treble = [e for e in score.phrases[-1].events if e.voice == 0][-1]
        assert degree_of(final_treble.pitch, home) == Degree(1)
        print(f"    fused score from generated phrases {plan.phrase_indices}")


def test_criterion_11_midi_round_trip(corpus, tmp_path):
    with criterion(11, "midi-round-trip", 1.0):
        library, _ = PhraseLibrary.build(corpus)
        score, _ = fuse(
            default_templates()[0], library, default_profiles(("treble", "bass")),
            ProgressionGrammar(), np.random.default_rng(11), parse_key("C", "major"),
        )
        path = tmp_path / "acceptance.mid"
        write_midi(score, path)
        tracks = read_midi_notes(path)
        want = [[], []]
        for voice, start, dur, pitch in score_note_events(score):
            want[voice].append((pitch, start, dur))
        for voice in range(2):
            assert tracks[voice] == sorted(want[voice])


def test_criterion_12_realization_property(c_major):
    with criterion(12, "realization-property", 10.0):
        rng = np.random.default_rng(12)
        profile = VoiceProfile("treble", parse_pitch("G4"), parse_pitch("C4"), parse_pitch("G5"))
        pitch_degrees = [d for d in DEGREES if not d.is_rest]
        for _ in range(500):
            length = int(rng.integers(2, 24))
            degrees = [pitch_degrees[int(i)] for i in rng.integers(0, 17, length)]
            events = [(0, i, 1, str(d)) for i, d in enumerate(degrees)]
            phrase = make_phrase(events, voices=("treble",))
            out = realize_pitches(phrase, {0: profile})
            pitches = [e.pitch for e in out.events]
            for prev, cur in zip(pitches, pitches[1:]):
                if abs(cur.midi - prev.midi) <= 2:
                    continue
                feasible = [
                    midi for midi in range(profile.low.midi, profile.high.midi + 1)
                    if midi % 12 == cur.midi % 12
                ]
                best = min(abs(midi - profile.central.midi) for midi in feasible)
                assert abs(cur.midi - profile.central.midi) == best
