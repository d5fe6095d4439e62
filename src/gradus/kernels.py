"""Hot inner-loop kernels, vectorized in numpy.

The categorical draw and the reverse mixture run once per node per
diffusion step. ``violation_masks`` is the one statement of the hard
counterpoint rules: guidance scores each of its K candidates per step with
``count_violations``, the sum of the masks, and ``rules.all_violations``
turns the same masks into located reports.
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
    """Inverse-CDF draw per row; u is one uniform (0,1) number per row."""
    cum = np.cumsum(probs, axis=1)
    idx = (u[:, None] >= cum).sum(axis=1)
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
# Inputs describe a fixed skeleton: a time grid of all attack onsets plus
# the strong-beat positions. Per grid moment and voice, `sounding` holds
# the covering node index (or -1) and `attacked` whether that node starts
# there. `letters`/`semis` map degree class indices to pitch offsets, with
# -1 marking the rest class. `chains` concatenates per-voice node chains
# with `chain_offsets` delimiting voices. This lets a candidate degree
# assignment be scored with pure integer arithmetic.

_EMPTY = np.zeros(0, dtype=bool)
_EMPTY.setflags(write=False)  # shared by every switched-off rule's mask


@lru_cache(maxsize=None)
def voice_pairs(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower voice of each pair a < b, in row-major order."""
    return np.triu_indices(v, 1)


class ViolationMasks(NamedTuple):
    """Per-rule hits of one degree assignment; a rule switched off is empty.

    Voice pairs (a, b), a < b, are rows in ``voice_pairs`` order; the bass
    is the last voice.
    """

    fifths: np.ndarray  # (pairs, m-1): parallel fifths moving into grid moment s+1
    octaves: np.ndarray  # (pairs, m-1): parallel octaves, likewise
    seconds: np.ndarray  # (m, v-1): upper voice a second above the bass on a strong moment
    fourths: np.ndarray  # (m, v-1): likewise a fourth
    repetition: np.ndarray  # (len(chains),): start of a run reaching the threshold


def violation_masks(
    degrees: np.ndarray,
    sounding: np.ndarray,
    attacked: np.ndarray,
    strong: np.ndarray,
    letters: np.ndarray,
    semis: np.ndarray,
    chains: np.ndarray,
    chain_offsets: np.ndarray,
    rep_threshold: int,
    check_parallels: int = 1,
    check_dissonance: int = 1,
    check_repetition: int = 1,
) -> ViolationMasks:
    """Parallel perfect fifths/octaves where both voices attack a changed
    degree, seconds/fourths against the bass on strong moments (upper-voice
    pairs are exempt), and maximal runs of one pitched degree per voice."""
    v = sounding.shape[1]
    # Per grid moment and voice; the -1 appended to each per-node table is
    # what a silent voice (sounding == -1) reads.
    deg = np.append(degrees, -1)[sounding]
    pl = np.append(letters[degrees], -1)[sounding]
    ps = np.append(semis[degrees], -1)[sounding]
    pitched = pl >= 0

    fifths = octaves = seconds = fourths = repetition = _EMPTY
    if check_parallels:
        a, b = voice_pairs(v)
        ell = (pl[:, a] - pl[:, b]) % 7
        ess = (ps[:, a] - ps[:, b]) % 12
        ok = pitched[:, a] & pitched[:, b]
        p5 = ok & (ell == 4) & (ess == 7)
        p8 = ok & (ell == 0) & (ess == 0)
        moved = (attacked[1:] != 0) & (deg[1:] != deg[:-1])
        both_moved = moved[:, a] & moved[:, b]
        fifths = (p5[1:] & p5[:-1] & both_moved).T
        octaves = (p8[1:] & p8[:-1] & both_moved).T

    if check_dissonance and v >= 2:
        ell = (pl[:, :-1] - pl[:, -1:]) % 7
        ess = (ps[:, :-1] - ps[:, -1:]) % 12
        ok = (strong != 0)[:, None] & pitched[:, :-1] & pitched[:, -1:]
        seconds = ok & (ell == 1) & ((ess == 1) | (ess == 2))
        fourths = ok & (ell == 3) & ((ess == 5) | (ess == 6))

    if check_repetition:
        seq = degrees[chains]
        n = len(seq)
        starts_run = np.ones(n, dtype=bool)
        starts_run[1:] = seq[1:] != seq[:-1]
        voice_starts = chain_offsets[:-1]
        starts_run[voice_starts[voice_starts < n]] = True
        starts = np.flatnonzero(starts_run)
        lengths = np.append(starts[1:], n) - starts
        repetition = np.zeros(n, dtype=bool)
        repetition[starts[(lengths >= rep_threshold) & (letters[seq[starts]] >= 0)]] = True

    return ViolationMasks(fifths, octaves, seconds, fourths, repetition)


def count_violations(*args, **kwargs) -> int:
    """Total hard-rule violations: the hits of ``violation_masks``."""
    return int(sum(map(np.count_nonzero, violation_masks(*args, **kwargs))))
