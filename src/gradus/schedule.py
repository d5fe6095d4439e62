"""Closed-form diffusion math: cosine schedule, marginal-noise transition
matrices, forward corruption of node-class vectors, and the exact
categorical posterior.

The cumulative coefficient follows the squared-cosine convention
abar(t) = f(t)/f(0) with f(t) = cos(((t/T + s)/(1 + s)) * pi/2)^2, so
abar runs from 1 at t=0 to 0 at t=T and the per-step alpha(t) is the
ratio abar(t)/abar(t-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import PhraseValidationError
from .graph import merge_tied
from .phrase import Phrase
from .pitch import DEGREE_INDEX, NUM_DEGREE_CLASSES

DEFAULT_T = 100
DEFAULT_S = 0.008


def cosine_alpha_bar(t: int, T: int = DEFAULT_T, s: float = DEFAULT_S) -> float:
    """Cumulative signal coefficient at step t."""
    if not 0 <= t <= T:
        raise PhraseValidationError(f"step {t} outside 0..{T}")

    def f(step: float) -> float:
        return math.cos(((step / T + s) / (1 + s)) * (math.pi / 2)) ** 2

    return min(1.0, max(0.0, f(t) / f(0)))


class TransitionTables(NamedTuple):
    """A schedule's transition matrices under one marginal, each the
    matrix ``qbar``/``q_step`` returns for its step."""

    qbar: tuple[np.ndarray, ...]  # qbar[t]: x^0 -> x^t, for t in 0..T
    q_step: tuple[np.ndarray, ...]  # q_step[t - 1]: x^(t-1) -> x^t, for t in 1..T


# Marginals whose tables a schedule keeps; each set is about 0.5 MB at T=100.
_TABLES_KEPT = 4


@dataclass(frozen=True)
class NoiseSchedule:
    T: int = DEFAULT_T
    s: float = DEFAULT_S
    alpha_bar: np.ndarray = field(init=False, repr=False)
    alpha: np.ndarray = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.T < 1:
            raise PhraseValidationError("schedule needs T >= 1")
        if self.s == -1:  # the cosine's argument divides by 1 + s
            raise PhraseValidationError("schedule_s must not be -1")
        abar = np.array([cosine_alpha_bar(t, self.T, self.s) for t in range(self.T + 1)])
        alpha = abar[1:] / abar[:-1]
        # abar[T] underflows to ~0; the final ratio stays within [0, 1].
        alpha = np.clip(alpha, 0.0, 1.0)
        object.__setattr__(self, "alpha_bar", abar)
        object.__setattr__(self, "alpha", alpha)
        if not np.all(np.diff(abar) < 0):
            raise PhraseValidationError("alpha_bar must be strictly decreasing")

    def alpha_at(self, t: int) -> float:
        """Single-step coefficient alpha(t) for t in 1..T."""
        if not 1 <= t <= self.T:
            raise PhraseValidationError(f"step {t} outside 1..{self.T}")
        return float(self.alpha[t - 1])

    def transitions(self, m: np.ndarray) -> TransitionTables:
        """Every step's transition matrices under marginal m, built on the
        first request; the schedule keeps the tables of the last
        ``_TABLES_KEPT`` marginals it built. A marginal is kept under its
        dtype, shape and bytes as passed, and only once it has passed
        validation, so a kept one is not validated again."""
        m = np.asarray(m)
        key = (m.dtype.str, m.shape, m.tobytes())
        tables = self._tables.get(key)
        if tables is None:
            m = validate_marginal(m)
            if len(self._tables) >= _TABLES_KEPT:
                del self._tables[next(iter(self._tables))]
            tables = self._tables[key] = TransitionTables(
                qbar=tuple(qbar(float(ab), m) for ab in self.alpha_bar),
                q_step=tuple(q_step(self.alpha_at(t), m) for t in range(1, self.T + 1)),
            )
            for q in tables.qbar + tables.q_step:
                q.setflags(write=False)  # handed to every caller
        return tables


def validate_marginal(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 1 or np.any(m < 0) or not math.isclose(m.sum(), 1.0, abs_tol=1e-9):
        raise PhraseValidationError("marginal must be a probability vector")
    return m


def transition_matrix(coef: float, m: np.ndarray) -> np.ndarray:
    """coef * I + (1 - coef) * 1 m' with rows renormalized."""
    m = validate_marginal(m)
    if not 0.0 <= coef <= 1.0:
        raise PhraseValidationError(f"coefficient {coef} outside [0, 1]")
    q = coef * np.eye(len(m)) + (1.0 - coef) * np.outer(np.ones(len(m)), m)
    return q / q.sum(axis=1, keepdims=True)


def qbar(alpha_bar_t: float, m: np.ndarray) -> np.ndarray:
    """Cumulative transition matrix for a given abar(t)."""
    return transition_matrix(alpha_bar_t, m)


def q_step(alpha_t: float, m: np.ndarray) -> np.ndarray:
    """Single-step transition matrix for a given alpha(t)."""
    return transition_matrix(alpha_t, m)


def marginals(corpus: Sequence[Phrase]) -> np.ndarray:
    """Empirical node-class frequencies over the corpus graphs.

    Classes never observed keep probability exactly zero, so the noise
    process can never transition into them.
    """
    if not corpus:
        raise PhraseValidationError("empty corpus")
    counts = np.zeros(NUM_DEGREE_CLASSES)
    for phrase in corpus:
        for node in merge_tied(phrase):
            if node.degree is None:
                raise PhraseValidationError("marginals need degree-encoded phrases")
            counts[DEGREE_INDEX[node.degree]] += 1
    return counts / counts.sum()


def forward_sample(
    x0: np.ndarray,
    t: int,
    schedule: NoiseSchedule,
    m: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt a vector of clean node classes to step t; edges are frozen
    elsewhere."""
    if t == 0:
        return x0.copy()
    return kernels.categorical_sample(schedule.transitions(m).qbar[t][x0], rng.random(len(x0)))


def posterior(
    xt: int,
    x0: int,
    t: int,
    schedule: NoiseSchedule,
    m: np.ndarray,
) -> np.ndarray:
    """Exact q(x^{t-1} | x^0, x^t) as a probability vector.

    Returns the all-zero vector when q(x^t | x^0) = 0, mirroring the
    excluded-support case of the reverse model.
    """
    if not 1 <= t <= schedule.T:
        raise PhraseValidationError(f"posterior undefined at t={t}")
    m = validate_marginal(m)
    qb_prev = qbar(float(schedule.alpha_bar[t - 1]), m)
    q_t = q_step(schedule.alpha_at(t), m)
    num = qb_prev[x0, :] * q_t[:, xt]
    total = num.sum()
    if total <= 0.0:
        return np.zeros_like(num)
    return num / total
