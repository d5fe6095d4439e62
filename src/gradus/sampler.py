"""Reverse-diffusion inference with optional rule-guided candidate selection.

Node classes are integer vectors throughout: the noise draw, every
reverse step and every guidance candidate. Each reverse step samples
nodes independently from the exact posterior mixture. Guidance draws K
candidate steps from that mixture, scores each candidate's one-step
clean estimate against the hard counterpoint rules, and keeps the
least-violating candidate; K=1 reduces to the unguided step, bit for
bit, under a shared random stream. The K estimates come
from one denoiser pass over the step's distinct candidates, stacked in
first-drawn order (the K draws often repeat an assignment), and the
winner's estimate is the next step's prediction, so a phrase costs T
passes whatever K is. The transition matrices are the schedule's
tables, built once per schedule and marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def score(cands: np.ndarray, t_prev: int) -> np.ndarray:
        """Rule losses of the candidates' one-step clean estimates; keeps
        the winner's prediction, which the next step needs anyway.

        Each distinct candidate is forwarded once, in first-drawn order,
        and ``inv`` maps every candidate to its row of that stack. A dict
        on the row bytes costs microseconds a step where np.unique(axis=0)
        costs a millisecond. Every candidate is still scored; repeats are
        memo hits in ``ctx.score``."""
        nonlocal p_hat
        if t_prev >= 1:
            slot: dict[bytes, int] = {}
            inv = [slot.setdefault(c.tobytes(), len(slot)) for c in cands]
            rows = [inv.index(j) for j in range(len(slot))]
            stack = denoiser.forward(graph.with_x(cands[rows]), t_prev, params).p_hat
            deg = np.argmax(stack, axis=2)[inv]
        else:
            deg = cands
        losses = np.array([float(ctx.score(d)) for d in deg])
        if t_prev >= 1:
            # np.argmin keeps the first minimum, as scg_reverse_step does.
            p_hat = stack[inv[int(np.argmin(losses))]]
        return losses

    x = sample_noise_x(graph.n, m, rng)
    p_hat = denoiser.forward(graph.with_x(x), schedule.T, params).p_hat
    for t in range(schedule.T, 0, -1):
        scorer = (lambda cands, tp=t - 1: score(cands, tp)) if ctx is not None else None
        x = scg_reverse_step(x, t, p_hat, schedule, m, config, rng, scorer)
        if ctx is None and t > 1:
            p_hat = denoiser.forward(graph.with_x(x), t - 1, params).p_hat
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
