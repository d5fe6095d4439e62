"""Catalog of accepted phrases, indexed by the boundary features that
drive structure-template fusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Optional

from .phrase import Phrase
from .pitch import Degree
from .rules import CatalogEntry, ProgressionGrammar, RejectionResult, RuleConfig, reject


@dataclass(frozen=True)
class PhraseLibrary:
    entries: tuple[tuple[Phrase, CatalogEntry], ...]
    # (mode, start root, cadence, final treble) -> indices of the entries
    # with those features, in library order; an entry appears under each
    # of its start roots. Built at construction; not compared or hashed.
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[tuple, list[int]] = {}
        for i, (_, e) in enumerate(self.entries):
            for root in e.start_roots:
                index.setdefault((e.mode, root, e.cadence, e.final_treble), []).append(i)
        object.__setattr__(self, "index", index)

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
