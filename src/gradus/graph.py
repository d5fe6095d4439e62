"""Heterogeneous score graphs: a class index per node, an edge class per
node pair and rhythm features, with durations and offsets in bars.

Edges are derived purely from rhythm and voice structure, so they are
identical for a phrase and its skeleton and stay frozen throughout
diffusion. Tied continuations are merged into single nodes first: one
sounding event, one node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import PhraseValidationError
from .phrase import Phrase, _derived, metric_strength
from .pitch import DEGREE_INDEX, Degree

EDGE_CLASSES = (
    "forward",
    "treble-voice",
    "bass-voice",
    "onset",
    "sustain",
    "structural",
    "none",
)
NUM_EDGE_CLASSES = len(EDGE_CLASSES)
EDGE_INDEX = {name: i for i, name in enumerate(EDGE_CLASSES)}
_FORWARD, _TREBLE, _BASS, _ONSET, _SUSTAIN, _STRUCTURAL, _NONE = range(7)

R_FEATURES = ("duration", "offset", "strength")


@dataclass(frozen=True)
class FeatureFlags:
    """Which rhythm feature columns enter R; ablations switch columns off."""

    duration: bool = True
    offset: bool = True
    strength: bool = True

    @staticmethod
    def none() -> "FeatureFlags":
        return FeatureFlags(False, False, False)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n in R_FEATURES if getattr(self, n))


@dataclass(frozen=True)
class GraphNode:
    """A merged sounding event: head event plus any tied continuations."""

    voice: int
    onset: Fraction
    duration: Fraction
    event_indices: tuple[int, ...]
    degree: Optional[Degree]

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration


@dataclass(frozen=True)
class ScoreGraph:
    x: np.ndarray  # (n,) int64 node classes (-1 for skeletons) or a (K, n) stack
    ec: np.ndarray  # (n, n) int64 edge class indices, frozen
    R: np.ndarray  # (n, |features|), durations and offsets in bars
    r_names: tuple[str, ...]
    nodes: tuple[GraphNode, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def has_labels(self) -> bool:
        return bool((self.x >= 0).all())

    def with_x(self, x: np.ndarray) -> "ScoreGraph":
        """The same graph with node classes x: one (n,) vector or a (K, n)
        stack of candidates sharing these edges and rhythm."""
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise PhraseValidationError(f"x shape {x.shape} does not fit {self.n} nodes")
        return _derived(self, x=x)


def merge_tied(phrase: Phrase) -> list[GraphNode]:
    """Collapse tie chains into single nodes, in canonical event order."""
    nodes: list[GraphNode] = []
    open_by_voice: dict[int, int] = {}  # voice -> index into nodes of last node
    for i, e in enumerate(phrase.events):
        prev = open_by_voice.get(e.voice)
        if e.tie and prev is not None and nodes[prev].end == e.onset:
            old = nodes[prev]
            nodes[prev] = replace(
                old,
                duration=old.duration + e.duration,
                event_indices=old.event_indices + (i,),
            )
            continue
        nodes.append(
            GraphNode(
                voice=e.voice,
                onset=e.onset,
                duration=e.duration,
                event_indices=(i,),
                degree=e.degree_in(phrase.key),
            )
        )
        open_by_voice[e.voice] = len(nodes) - 1
    return nodes


def rhythm_features(phrase: Phrase, flags: FeatureFlags = FeatureFlags()) -> np.ndarray:
    """Per-node rhythm feature rows in the order given by flags.names;
    durations and offsets are in bars."""
    return _rhythm_columns(phrase, merge_tied(phrase), flags)


def _rhythm_columns(phrase: Phrase, nodes: Sequence[GraphNode], flags: FeatureFlags) -> np.ndarray:
    """``rhythm_features`` of the phrase's merged nodes, ``nodes``."""
    cols = []
    bar = phrase.bar_length
    if flags.duration:
        cols.append([float(nd.duration) / float(bar) for nd in nodes])
    if flags.offset:
        cols.append([float(nd.onset % bar) / float(bar) for nd in nodes])
    if flags.strength:
        cols.append([metric_strength(nd.onset, phrase.meter) for nd in nodes])
    if not cols:
        return np.zeros((len(nodes), 0))
    return np.array(cols, dtype=np.float64).T


def build_graph(phrase: Phrase, flags: FeatureFlags = FeatureFlags()) -> ScoreGraph:
    """Build the frozen graph of a phrase or skeleton.

    Edge precedence, applied per ordered node pair: surface relations
    (onset/sustain/forward family) beat structural annotations, and voice
    labels beat plain forward. The top voice's chain is labeled
    treble-voice and the bottom voice's chain bass-voice.
    """
    nodes = merge_tied(phrase)
    n = len(nodes)
    if n == 0:
        raise PhraseValidationError("phrase has no events")

    ec = np.full((n, n), _NONE, dtype=np.int64)
    top, bottom = 0, len(phrase.voices) - 1

    # Structural first so every surface relation can overwrite it.
    event_to_node = {}
    for ni, nd in enumerate(nodes):
        for ei in nd.event_indices:
            event_to_node[ei] = ni
    for a, b in phrase.structural:
        if a not in event_to_node or b not in event_to_node:
            raise PhraseValidationError(f"structural edge ({a},{b}) references missing event")
        na, nb = event_to_node[a], event_to_node[b]
        if na != nb:
            ec[na, nb] = _STRUCTURAL

    for v in range(len(phrase.voices)):
        chain = [i for i, nd in enumerate(nodes) if nd.voice == v]
        label = _TREBLE if v == top else (_BASS if v == bottom else _FORWARD)
        for a, b in zip(chain, chain[1:]):
            ec[a, b] = label

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if nodes[i].onset == nodes[j].onset:
                ec[i, j] = _ONSET
            elif nodes[i].onset < nodes[j].onset < nodes[i].end:
                ec[i, j] = _SUSTAIN

    x = np.full(n, -1, dtype=np.int64)
    if all(nd.degree is not None for nd in nodes):
        x[:] = [DEGREE_INDEX[nd.degree] for nd in nodes]

    return ScoreGraph(
        x=x,
        ec=ec,
        R=_rhythm_columns(phrase, nodes, flags),
        r_names=flags.names,
        nodes=tuple(nodes),
    )


def rebuild_phrase(skeleton: Phrase, degrees: Sequence[Degree]) -> Phrase:
    """Write per-node degree classes back onto a rhythm skeleton. Only the
    degrees change, so the events keep the skeleton's order and checks."""
    nodes = merge_tied(skeleton)
    if len(degrees) != len(nodes):
        raise PhraseValidationError(
            f"{len(degrees)} degrees for {len(nodes)} graph nodes"
        )
    per_event: dict[int, Degree] = {}
    for nd, deg in zip(nodes, degrees):
        for ei in nd.event_indices:
            per_event[ei] = deg
    events = tuple(
        _derived(e, degree=per_event[i], pitch=None)
        for i, e in enumerate(skeleton.events)
    )
    return _derived(skeleton, events=events)


def graph_to_adjacency(graph: ScoreGraph) -> dict:
    """Debug dump: nodes with their rhythm data plus all non-none edges."""
    ec = graph.ec
    nodes = [
        {
            "voice": nd.voice,
            "onset": str(nd.onset),
            "duration": str(nd.duration),
            "degree": str(nd.degree) if nd.degree is not None else None,
        }
        for nd in graph.nodes
    ]
    edges = [
        {"from": int(i), "to": int(j), "class": EDGE_CLASSES[ec[i, j]]}
        for i in range(graph.n)
        for j in range(graph.n)
        if ec[i, j] != _NONE
    ]
    return {"nodes": nodes, "edges": edges, "r_names": list(graph.r_names)}
