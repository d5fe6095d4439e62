"""Catalog of accepted phrases, indexed by the boundary features that
drive structure-template fusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import SpellingError
from .phrase import Phrase
from .pitch import DEGREE_INDEX, Degree
from .rules import CatalogEntry, ProgressionGrammar, RejectionResult, RuleConfig, _node_ticks, reject


class EntryTicks(NamedTuple):
    """An entry's merged nodes on integer ticks, ``tick`` to the beat, in
    the form fusion lays them end to end: no phrase is rebuilt."""

    tick: int
    voice: np.ndarray  # per node
    start: np.ndarray  # per node, in ticks
    end: np.ndarray  # per node, in ticks
    classes: np.ndarray  # per node: the degree class of its head event, in the entry's key
    tied: np.ndarray  # per node: its head event is tied, so it joins a node ending where it starts
    event_classes: np.ndarray  # the distinct degree classes of all events, tied continuations included
    n_voices: int  # one more than the highest voice with an event
    length: int  # bar-aligned length, in ticks
    span: int  # end of the last event, in ticks


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
    tick, nodes, voice, start, end = _node_ticks(phrase)
    return EntryTicks(
        tick=tick,
        voice=voice,
        start=start,
        end=end,
        classes=np.array([DEGREE_INDEX[nd.degree] for nd in nodes]),
        tied=np.array([phrase.events[nd.event_indices[0]].tie for nd in nodes]),
        event_classes=np.array(sorted({DEGREE_INDEX[d] for d in degrees})),
        n_voices=int(voice.max()) + 1,
        length=phrase.n_bars * phrase.meter[0] * tick,
        span=int(phrase.span * tick),
    )


@dataclass(frozen=True)
class PhraseLibrary:
    entries: tuple[tuple[Phrase, CatalogEntry], ...]
    # (mode, start root, cadence, final treble) -> indices of the entries
    # with those features, in library order; an entry appears under each
    # of its start roots. Built at construction; not compared or hashed.
    index: dict = field(init=False, repr=False, compare=False)
    # Per entry, its ``entry_ticks``, for fusion to check a plan on.
    # Built at construction; not compared or hashed.
    ticks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[tuple, list[int]] = {}
        for i, (_, e) in enumerate(self.entries):
            for root in e.start_roots:
                index.setdefault((e.mode, root, e.cadence, e.final_treble), []).append(i)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ticks", tuple(entry_ticks(p) for p, _ in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> tuple[Phrase, CatalogEntry]:
        return self.entries[i]

    def __iter__(self) -> Iterator[tuple[Phrase, CatalogEntry]]:
        return iter(self.entries)

    def lookup(
        self,
        mode: str,
        starts: Collection[int],
        endings: Collection[tuple[str, Optional[Degree]]],
    ) -> list[int]:
        """Indices, in library order, of the entries in the mode with a
        start root in starts and a (cadence, final treble) pair in endings."""
        hits: set[int] = set()
        for r in starts:
            for c, t in endings:
                hits.update(self.index.get((mode, r, c, t), ()))
        return sorted(hits)

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
