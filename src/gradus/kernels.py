"""Hot inner-loop kernels, vectorized in numpy.

The categorical draw and the reverse mixture run once per node per
diffusion step; the draw also takes a (K, n) block of uniforms, for K
draws per node from one cumsum.

``violation_masks`` is the one statement of the hard counterpoint rules.
It reads a skeleton's grid as ``SkeletonArrays``, which
``rules._skeleton_arrays`` derives from grid rows for every rule reader
(once per skeleton, and once per plan that fusion checks, from the rows
of its entries, each laid once per library), and looks up what a pair of
degree classes means to a rule in ``PairTables``, built once from the
classes' letter and semitone offsets, so scoring a degree assignment
takes gathers and comparisons, with no interval arithmetic. Guidance
scores its candidates with ``count_violations``, the sum of the masks
(the first-drawn candidate each step, and the others only when that one
breaks a rule), and ``rules.all_violations`` turns the same masks into
located reports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# There is no compiled path. perfbench/run.py records this flag in the
# machine block of every benchmark result, so it stays, always False.
USE_NUMBA = False


# ----------------------------------------------------------------------
# categorical sampling: one draw per row of a row-stochastic matrix
# ----------------------------------------------------------------------

def categorical_sample(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row; u holds one uniform (0,1) number per row,
    or a (K, rows) block of them for K draws per row from one cumsum."""
    cum = np.cumsum(probs, axis=1)
    idx = (u[..., None] >= cum).sum(axis=-1)
    return np.minimum(idx, probs.shape[1] - 1).astype(np.int64)


# ----------------------------------------------------------------------
# reverse-diffusion mixture: sum_c phat[i,c] * q(x^{t-1} | x0=c, x^t=z_i)
# ----------------------------------------------------------------------

def reverse_mixture(
    phat: np.ndarray,
    xt: np.ndarray,
    qbar_prev: np.ndarray,
    q_t: np.ndarray,
    qbar_t: np.ndarray,
) -> np.ndarray:
    """Unnormalized categorical mixture over x^{t-1} for every node.

    Clean classes c with q(x^t | x0=c) = 0 contribute nothing.
    """
    denom = qbar_t[:, xt].T  # (n, K)
    w = np.divide(phat, denom, out=np.zeros_like(phat), where=denom > 0.0)
    return (w @ qbar_prev) * q_t[:, xt].T


# ----------------------------------------------------------------------
# hard-rule evaluator over a precomputed rhythm-grid context
# ----------------------------------------------------------------------
#
# The grid of a skeleton holds all attack onsets plus the integer beats;
# at each grid moment every voice is sounding one node or is silent.

_EMPTY = np.zeros(0, dtype=bool)
_EMPTY.setflags(write=False)  # shared by every switched-off rule's mask

# Codes in PairTables; 0 means the pair breaks no rule.
FIFTH, OCTAVE = 1, 2
SECOND, FOURTH = 1, 2


@lru_cache(maxsize=None)
def voice_pairs(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower voice of each pair a < b, in row-major order."""
    return np.triu_indices(v, 1)


class PairTables(NamedTuple):
    """What each (upper, lower) pair of degree classes means to the rules.

    Indexed by class, with one extra last row and column for a silent
    voice; a rest or a silence is in no interval.
    """

    parallel: np.ndarray  # (C+1, C+1): FIFTH, OCTAVE (unisons included) or 0
    dissonance: np.ndarray  # (C+1, C+1): SECOND, FOURTH above the bass or 0
    pitched: np.ndarray  # (C,): the class is not the rest


def pair_tables(letters, semis) -> PairTables:
    """Tables for classes with these letter and semitone offsets above the
    tonic; -1 marks the rest class."""
    lt = np.append(np.asarray(letters, dtype=np.int64), -1)
    st = np.append(np.asarray(semis, dtype=np.int64), -1)
    ell = (lt[:, None] - lt[None, :]) % 7
    ess = (st[:, None] - st[None, :]) % 12
    ok = (lt >= 0)[:, None] & (lt >= 0)[None, :]
    parallel = np.where(ok & (ell == 4) & (ess == 7), FIFTH, 0)
    parallel[ok & (ell == 0) & (ess == 0)] = OCTAVE
    dissonance = np.where(ok & (ell == 1) & ((ess == 1) | (ess == 2)), SECOND, 0)
    dissonance[ok & (ell == 3) & ((ess == 5) | (ess == 6))] = FOURTH
    tables = PairTables(parallel, dissonance, lt[:-1] >= 0)
    for table in tables:
        table.setflags(write=False)  # shared by every rule context
    return tables


class SkeletonArrays(NamedTuple):
    """A skeleton's grid in the form the evaluators read: node indices per
    grid moment, with ``n_nodes`` standing for a silent voice (the padded
    degree vector holds the silent class there). The hard rules read the
    attack and strong-beat moments, the harmony pass the integer beats."""

    sounding: np.ndarray  # (m, v): node sounding in each voice; the bass is the last voice
    attacked: np.ndarray  # (m, v): the voice attacks the node it sounds at that moment
    pair_upper: np.ndarray  # (m, pairs): sounding in the upper voice of each pair, ``voice_pairs`` order
    pair_lower: np.ndarray  # (m, pairs): sounding in its lower voice
    pair_attacked: np.ndarray  # (m-1, pairs): both voices of the pair attack at moment s+1
    strong_upper: np.ndarray  # (m, v-1): sounding in the upper voices on strong moments, else silent
    strong_bass: np.ndarray  # (m, 1): sounding in the bass
    chains: np.ndarray  # node indices voice by voice, in time order
    voice_starts: np.ndarray  # positions in ``chains``, after the first, where a new voice begins
    beat_sounding: np.ndarray  # (beats, v): node sounding in each voice at each integer beat
    beat_strong: np.ndarray  # (beats,): the beat is strong


class ViolationMasks(NamedTuple):
    """Per-rule hits of one degree assignment; a rule switched off is empty.

    Voice pairs (a, b), a < b, are rows in ``voice_pairs`` order; the bass
    is the last voice.
    """

    fifths: np.ndarray  # (pairs, m-1): parallel fifths moving into grid moment s+1
    octaves: np.ndarray  # (pairs, m-1): parallel octaves, likewise
    seconds: np.ndarray  # (m, v-1): upper voice a second above the bass on a strong moment
    fourths: np.ndarray  # (m, v-1): likewise a fourth
    repetition: np.ndarray  # (len(chains),): at a run's start, its length if it reaches the threshold


def violation_masks(
    degrees: np.ndarray, sk: SkeletonArrays, tables: PairTables, config
) -> ViolationMasks:
    """Parallel perfect fifths/octaves where both voices attack a changed
    degree, seconds/fourths against the bass on strong moments (upper-voice
    pairs are exempt), and maximal runs of one pitched degree per voice.
    ``config`` is a ``rules.RuleConfig``: its ``parallels``, ``dissonance``
    and ``repetition`` switches and its ``repetition_threshold``."""
    # Index n_nodes, a silent voice, reads the silent class C.
    padded = np.empty(len(degrees) + 1, dtype=degrees.dtype)
    padded[:-1] = degrees
    padded[-1] = len(tables.pitched)

    fifths = octaves = seconds = fourths = repetition = _EMPTY
    if config.parallels:
        du = padded[sk.pair_upper]
        dl = padded[sk.pair_lower]
        code = tables.parallel[du, dl]
        kept = (
            sk.pair_attacked
            & (du[1:] != du[:-1])
            & (dl[1:] != dl[:-1])
            & (code[1:] == code[:-1])
        )
        fifths = (kept & (code[1:] == FIFTH)).T
        octaves = (kept & (code[1:] == OCTAVE)).T

    if config.dissonance and sk.sounding.shape[1] >= 2:
        code = tables.dissonance[padded[sk.strong_upper], padded[sk.strong_bass]]
        seconds = code == SECOND
        fourths = code == FOURTH

    if config.repetition:
        seq = degrees[sk.chains]
        n = len(seq)
        starts_run = np.ones(n, dtype=bool)
        starts_run[1:] = seq[1:] != seq[:-1]
        starts_run[sk.voice_starts] = True
        starts = np.flatnonzero(starts_run)
        lengths = np.append(starts[1:], n) - starts
        kept = (lengths >= config.repetition_threshold) & tables.pitched[seq[starts]]
        repetition = np.zeros(n, dtype=np.int64)
        repetition[starts[kept]] = lengths[kept]

    return ViolationMasks(fifths, octaves, seconds, fourths, repetition)


def count_violations(degrees: np.ndarray, sk: SkeletonArrays, tables: PairTables, config) -> int:
    """Total hard-rule violations: the hits of ``violation_masks``."""
    return int(sum(map(np.count_nonzero, violation_masks(degrees, sk, tables, config))))
