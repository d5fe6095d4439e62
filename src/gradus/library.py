"""Catalog of accepted phrases with the boundary features that drive
structure-template fusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import SpellingError
from .graph import merge_tied
from .phrase import Phrase
from .pitch import DEGREE_INDEX
from .rules import (
    CatalogEntry, NodeTicks, ProgressionGrammar, RejectionResult, RuleConfig, _node_ticks, reject,
)


class EntryTicks(NamedTuple):
    """An entry's merged nodes on integer ticks, with what fusion needs to
    stack entries' grid rows in order: no phrase is rebuilt."""

    nodes: NodeTicks
    classes: np.ndarray  # per node: the degree class of its head event, in the entry's key
    heads: tuple[tuple[int, int], ...]  # (voice, node) of each node that starts the entry with a tied note
    tails: dict  # voice -> its node that ends on the entry's last bar line
    event_classes: np.ndarray  # the distinct degree classes of all events, tied continuations included
    n_voices: int  # one more than the highest voice with an event
    beats: int  # bar-aligned length, in beats


def entry_ticks(phrase: Phrase) -> Optional[EntryTicks]:
    """The phrase's ``EntryTicks``; None if an event has no degree content
    in the phrase's key (a placeholder, or a pitch with no degree). A grid
    too fine for int64 raises PhraseValidationError, as ``reject`` does."""
    try:
        degrees = [e.degree_in(phrase.key) for e in phrase.events]
    except SpellingError:
        return None
    if None in degrees:
        return None
    nodes = merge_tied(phrase)
    ticks = _node_ticks(nodes, phrase.span)
    beats = phrase.n_bars * phrase.meter[0]
    tied = np.array([phrase.events[nd.event_indices[0]].tie for nd in nodes])
    heads = np.flatnonzero(tied & (ticks.start == 0))
    tails = np.flatnonzero(ticks.end == beats * ticks.tick)
    return EntryTicks(
        nodes=ticks,
        classes=np.array([DEGREE_INDEX[nd.degree] for nd in nodes]),
        heads=tuple(zip(ticks.voice[heads].tolist(), heads.tolist())),
        tails=dict(zip(ticks.voice[tails].tolist(), tails.tolist())),
        event_classes=np.array(sorted({DEGREE_INDEX[d] for d in degrees})),
        n_voices=int(ticks.voice.max()) + 1,
        beats=beats,
    )


@dataclass(frozen=True)
class PhraseLibrary:
    entries: tuple[tuple[Phrase, CatalogEntry], ...]
    # Per entry, its ``entry_ticks``, for fusion to check a plan on.
    # Built at construction; not compared or hashed.
    ticks: tuple = field(init=False, repr=False, compare=False)
    # Fusion's request-independent work, filled by ``fusion.fuse`` as
    # requests need it and bounded by the distinct keys requests bring;
    # not compared or hashed. (template, grammar, home) -> the template's
    # slot layers, or (slot index, message) where they are infeasible:
    layers: dict = field(init=False, repr=False, compare=False)
    # (entry index, transposition, profile items) -> the realized phrase
    # and its ``midi.PhraseTracks``, or None where it cannot be encoded:
    realized: dict = field(init=False, repr=False, compare=False)
    # (entry index, voice count, strong-beat cutoff) -> the entry's grid
    # rows for fusion's plan check (``fusion._entry_rows``):
    rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ticks", tuple(entry_ticks(p) for p, _ in self.entries))
        object.__setattr__(self, "layers", {})
        object.__setattr__(self, "realized", {})
        object.__setattr__(self, "rows", {})

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[Phrase, CatalogEntry]:
        return self.entries[i]

    def __iter__(self) -> Iterator[tuple[Phrase, CatalogEntry]]:
        return iter(self.entries)

    @staticmethod
    def build(
        phrases: Iterable[Phrase],
        grammar: ProgressionGrammar = ProgressionGrammar(),
        config: RuleConfig = RuleConfig(),
    ) -> tuple["PhraseLibrary", list[tuple[Phrase, RejectionResult]]]:
        """Catalog the phrases that pass rejection; return the rest with
        their rejection reasons."""
        kept: list[tuple[Phrase, CatalogEntry]] = []
        dropped: list[tuple[Phrase, RejectionResult]] = []
        for p in phrases:
            result = reject(p, grammar, config)
            if result.accepted and result.entry is not None:
                kept.append((p, result.entry))
            else:
                dropped.append((p, result))
        return PhraseLibrary(tuple(kept)), dropped
