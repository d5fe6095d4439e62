"""Catalog of accepted phrases, indexed by the boundary features that
drive structure-template fusion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .phrase import Phrase
from .rules import CatalogEntry, ProgressionGrammar, RejectionResult, RuleConfig, reject


@dataclass(frozen=True)
class PhraseLibrary:
    entries: tuple[tuple[Phrase, CatalogEntry], ...]

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
