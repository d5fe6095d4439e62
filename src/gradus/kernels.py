"""Hot inner-loop kernels, vectorized in numpy.

The categorical draw and the reverse mixture run once per node per
diffusion step; the draw also takes a (K, n) block of uniforms, for K
draws per node from one cumsum.

``violation_masks`` is the one statement of the hard counterpoint rules.
It reads a skeleton's grid as ``SkeletonArrays``, built once per skeleton,
and looks up what a pair of degree classes means to a rule in
``PairTables``, built once from the classes' letter and semitone offsets,
so scoring a degree assignment takes gathers and comparisons, with no
interval arithmetic. Guidance scores each of its K candidates per step with
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
# The grid of a skeleton holds all attack onsets plus the strong beats;
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
    """A skeleton's grid in the form the evaluator reads: node indices per
    grid moment, with ``n_nodes`` standing for a silent voice (the padded
    degree vector holds the silent class there)."""

    sounding: np.ndarray  # (m, v): node sounding in each voice; the bass is the last voice
    pair_upper: np.ndarray  # (m, pairs): sounding in the upper voice of each pair, ``voice_pairs`` order
    pair_lower: np.ndarray  # (m, pairs): sounding in its lower voice
    pair_attacked: np.ndarray  # (m-1, pairs): both voices of the pair attack at moment s+1
    strong_upper: np.ndarray  # (m, v-1): sounding in the upper voices on strong moments, else silent
    strong_bass: np.ndarray  # (m, 1): sounding in the bass
    chains: np.ndarray  # node indices voice by voice, in time order
    voice_starts: np.ndarray  # positions in ``chains`` where a voice begins


def skeleton_arrays(sounding, attacked, strong, chains, chain_offsets) -> SkeletonArrays:
    """From the node covering each voice at each grid moment (-1 where the
    voice is silent), whether it starts there, which moments are strong,
    and the voices' node chains delimited by ``chain_offsets``."""
    n_nodes = len(chains)
    sounding = np.array(sounding, dtype=np.int64)
    sounding[sounding < 0] = n_nodes
    attacked_next = np.array(attacked, dtype=bool)[1:]
    upper, lower = voice_pairs(sounding.shape[1])
    strong = np.array(strong, dtype=bool)[:, None]
    starts = np.asarray(chain_offsets[:-1], dtype=np.int64)
    return SkeletonArrays(
        sounding=sounding,
        pair_upper=sounding[:, upper],
        pair_lower=sounding[:, lower],
        pair_attacked=attacked_next[:, upper] & attacked_next[:, lower],
        strong_upper=np.where(strong, sounding[:, :-1], n_nodes),
        strong_bass=sounding[:, -1:],
        chains=np.asarray(chains, dtype=np.int64),
        voice_starts=starts[starts < n_nodes],
    )


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
    sk: SkeletonArrays,
    tables: PairTables,
    rep_threshold: int,
    check_parallels: int = 1,
    check_dissonance: int = 1,
    check_repetition: int = 1,
) -> ViolationMasks:
    """Parallel perfect fifths/octaves where both voices attack a changed
    degree, seconds/fourths against the bass on strong moments (upper-voice
    pairs are exempt), and maximal runs of one pitched degree per voice."""
    # Index n_nodes, a silent voice, reads the silent class C.
    padded = np.append(degrees, len(tables.pitched))

    fifths = octaves = seconds = fourths = repetition = _EMPTY
    if check_parallels:
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

    if check_dissonance and sk.sounding.shape[1] >= 2:
        code = tables.dissonance[padded[sk.strong_upper], padded[sk.strong_bass]]
        seconds = code == SECOND
        fourths = code == FOURTH

    if check_repetition:
        seq = degrees[sk.chains]
        n = len(seq)
        starts_run = np.ones(n, dtype=bool)
        starts_run[1:] = seq[1:] != seq[:-1]
        starts_run[sk.voice_starts] = True
        starts = np.flatnonzero(starts_run)
        lengths = np.append(starts[1:], n) - starts
        repetition = np.zeros(n, dtype=bool)
        repetition[starts[(lengths >= rep_threshold) & tables.pitched[seq[starts]]]] = True

    return ViolationMasks(fifths, octaves, seconds, fourths, repetition)


def count_violations(*args, **kwargs) -> int:
    """Total hard-rule violations: the hits of ``violation_masks``."""
    return int(sum(map(np.count_nonzero, violation_masks(*args, **kwargs))))
