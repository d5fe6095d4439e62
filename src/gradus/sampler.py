"""Reverse-diffusion inference with optional rule-guided candidate selection.

Node classes are integer vectors throughout: the noise draw, every
reverse step and every guidance candidate. Each reverse step samples
nodes independently from the exact posterior mixture. Guidance draws K
candidate steps from that mixture, scores candidates' one-step clean
estimates against the hard counterpoint rules, and keeps the first
least-violating candidate; K=1 reduces to the unguided step, bit for
bit, under a shared random stream. Scoring is lazy: the first-drawn
candidate is forwarded and scored alone, and a loss of 0 makes it the
winner at once. Otherwise one more denoiser pass takes the step's other
distinct candidates, stacked in first-drawn order (the K draws often
repeat an assignment), and each is scored once. The winner's estimate is
the next step's prediction, so a phrase costs T passes plus at most one
for each step whose first candidate breaks a rule, whatever K is. The
forward pass's graph constants are built once per phrase, before the
first step; the schedule keeps the transition tables per marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .denoiser import Denoiser
from .errors import PhraseValidationError
from .graph import FeatureFlags, build_graph, rebuild_phrase
from .phrase import Phrase, sample_rhythm
from .pitch import DEGREES
from .rules import RuleConfig, build_rule_context
# The transition matrices come from NoiseSchedule.transitions; qbar and
# q_step stay importable from here, as perfbench/tracer.py wraps them here.
from .schedule import NoiseSchedule, q_step, qbar, validate_marginal  # noqa: F401


@dataclass(frozen=True)
class GuidanceConfig:
    """K=1 disables guidance; scoring always uses hard violation counts."""

    K: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise PhraseValidationError("guidance needs K >= 1")


def reverse_mixture(
    xt: np.ndarray,
    t: int,
    p_hat: np.ndarray,
    schedule: NoiseSchedule,
    m: np.ndarray,
) -> np.ndarray:
    """Per-node unnormalized distribution over x^{t-1}, marginalizing the
    network's clean-class predictions through the exact posterior."""
    if not 1 <= t <= schedule.T:
        raise PhraseValidationError(f"reverse step undefined at t={t}")
    tables = schedule.transitions(m)
    return kernels.reverse_mixture(
        p_hat, xt, tables.qbar[t - 1], tables.q_step[t - 1], tables.qbar[t]
    )


def _reverse_probs(
    xt: np.ndarray,
    t: int,
    p_hat: np.ndarray,
    schedule: NoiseSchedule,
    m: np.ndarray,
) -> np.ndarray:
    """Per-node distribution of x^{t-1}: the reverse mixture, normalized."""
    mix = reverse_mixture(xt, t, p_hat, schedule, m)
    totals = mix.sum(axis=1)
    if np.any(totals <= 0.0):
        bad = int(np.argmin(totals))
        raise PhraseValidationError(
            f"node {bad} has empty reverse support at t={t}; "
            "schedule and marginal are inconsistent"
        )
    return mix / totals[:, None]


def reverse_step(
    xt: np.ndarray,
    t: int,
    p_hat: np.ndarray,
    schedule: NoiseSchedule,
    m: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The classes x^{t-1}, one draw per node from the reverse mixture."""
    probs = _reverse_probs(xt, t, p_hat, schedule, m)
    return kernels.categorical_sample(probs, rng.random(len(xt)))


def scg_reverse_step(
    xt: np.ndarray,
    t: int,
    p_hat: np.ndarray,
    schedule: NoiseSchedule,
    m: np.ndarray,
    config: GuidanceConfig,
    rng: np.random.Generator,
    score_candidates: Optional[Callable[[np.ndarray], Sequence[float]]] = None,
) -> np.ndarray:
    """Best-of-K guided reverse step.

    The K candidates are drawn from one reverse mixture with one (K, n)
    block of uniforms, which consumes the stream exactly as K calls of
    ``reverse_step`` would.
    score_candidates receives them as a (K, n) stack of class vectors and
    returns K rule losses; ties keep the first-drawn candidate so runs are
    reproducible.
    """
    if config.K == 1 or score_candidates is None:
        return reverse_step(xt, t, p_hat, schedule, m, rng)
    probs = _reverse_probs(xt, t, p_hat, schedule, m)
    cands = kernels.categorical_sample(probs, rng.random((config.K, len(xt))))
    return cands[int(np.argmin(score_candidates(cands)))]


def sample_noise_x(n: int, m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. class draws from the marginal: the t=T starting point."""
    probs = np.tile(validate_marginal(m), (n, 1))
    return kernels.categorical_sample(probs, rng.random(n))


def generate_phrase(
    skeleton: Phrase,
    denoiser: Denoiser,
    params: dict[str, np.ndarray],
    schedule: NoiseSchedule,
    m: np.ndarray,
    config: GuidanceConfig,
    rule_config: RuleConfig = RuleConfig(),
    flags: FeatureFlags = FeatureFlags(),
    rng: Optional[np.random.Generator] = None,
) -> Phrase:
    """Denoise a rhythm skeleton into a degree-encoded phrase.

    The skeleton's rhythm, voices, and meter pass through unchanged; only
    node classes are inferred.
    """
    graph = build_graph(skeleton, flags)
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    ctx = build_rule_context(skeleton, rule_config) if config.K > 1 else None
    consts = denoiser.constants(graph, params, config.K)
    estimates = {}  # a scored candidate's row bytes -> the p_hat of its clean estimate

    def estimate(x: np.ndarray, t: int) -> np.ndarray:
        return denoiser.forward(graph.with_x(x), t, params, consts=consts).p_hat

    def score(t_prev: int, cands: np.ndarray) -> np.ndarray:
        """Rule losses of the candidates' one-step clean estimates, +inf
        for every candidate not scored; keeps each estimate in
        ``estimates``, as the winner's is the next step's prediction.

        The first-drawn candidate is forwarded alone and scored. A loss
        of 0 is the least possible and ties keep the first-drawn
        candidate, so it wins and no other candidate is forwarded or
        scored. Otherwise the other distinct candidates are forwarded as
        one stack, in first-drawn order, and each is scored once; a
        repeated draw stays +inf, as it cannot win over its first
        occurrence. A dict on the row bytes costs microseconds a step
        where np.unique(axis=0) costs a millisecond."""
        losses = np.full(len(cands), np.inf)
        rows = [0]
        while rows:
            deg = cands[rows]
            if t_prev >= 1:
                probs = estimate(deg, t_prev)
                estimates.update(zip([cands[i].tobytes() for i in rows], probs))
                deg = np.argmax(probs, axis=2)
            losses[rows] = [ctx.score(d) for d in deg]
            if rows != [0] or losses[0] == 0:
                break
            seen = {cands[0].tobytes(): 0}
            rows = [i for i, c in enumerate(cands[1:], 1) if seen.setdefault(c.tobytes(), i) == i]
        return losses

    x = sample_noise_x(graph.n, m, rng)
    for t in range(schedule.T, 0, -1):
        # The winner's estimate from scoring; none at t=T or when unguided.
        p_hat = estimates.get(x.tobytes())
        if p_hat is None:
            p_hat = estimate(x, t)
        estimates.clear()
        scorer = partial(score, t - 1) if ctx is not None else None
        x = scg_reverse_step(x, t, p_hat, schedule, m, config, rng, scorer)
    return rebuild_phrase(skeleton, [DEGREES[i] for i in x])


def generate_library(
    corpus: Sequence[Phrase],
    denoiser: Denoiser,
    params: dict[str, np.ndarray],
    schedule: NoiseSchedule,
    m: np.ndarray,
    B: int,
    config: GuidanceConfig,
    skeleton_mode: str = "whole-phrase",
    measures: int = 2,
    rule_config: RuleConfig = RuleConfig(),
    flags: FeatureFlags = FeatureFlags(),
) -> list[Phrase]:
    """Generate B phrases from independently drawn skeletons.

    Every phrase owns a private random stream spawned from the master
    seed, so results do not depend on execution order.
    """
    if B < 1:
        raise PhraseValidationError("library size must be at least 1")
    streams = np.random.SeedSequence(config.seed).spawn(B)
    out = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        skeleton = sample_rhythm(corpus, skeleton_mode, rng, measures=measures)
        out.append(
            generate_phrase(
                skeleton, denoiser, params, schedule, m, config,
                rule_config=rule_config, flags=flags, rng=rng,
            )
        )
    return out
