"""Pitch realization, background structure templates, and phrase fusion
via pivot-chord reinterpretation.

Fusion fills template slots from the phrase catalog: the first slot by
cadence and closing treble degree, later slots by reinterpreting the
previous slot's final harmony in the new local key and demanding the
next phrase start on a grammar successor of that pivot. The assembled
degree score is re-checked against the hard rules before realization,
from the library's per-entry nodes on integer ticks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import FusionInfeasibleError, PhraseValidationError, SpellingError
from .library import EntryTicks, PhraseLibrary
from .phrase import NoteEvent, Phrase, _derived, phrase_from_dict, phrase_to_dict, transpose_phrase
from .pitch import (
    DEGREE_INDEX,
    DEGREES,
    Degree,
    Interval,
    KeyContext,
    Pitch,
    degree_of,
    parse_degree,
    parse_key,
    realize_degree,
)
from .rules import CADENCES, CatalogEntry, ProgressionGrammar, RuleConfig, cadence_satisfies, tick_loss

# The plan check reads tick arrays, not phrases; rule_loss stays importable
# from here, as perfbench/tracer.py wraps it here.
from .rules import rule_loss  # noqa: F401


@dataclass(frozen=True)
class VoiceProfile:
    name: str
    central: Pitch
    low: Pitch
    high: Pitch

    def __post_init__(self):
        if not self.low.midi <= self.central.midi <= self.high.midi:
            raise PhraseValidationError(
                f"voice {self.name!r}: central pitch outside its hard range"
            )


def default_profiles(voices: Sequence[str]) -> dict[int, VoiceProfile]:
    """Treble and bass constants per the shipped defaults; inner voices sit
    around middle C."""
    profiles = {}
    last = len(voices) - 1
    for v, name in enumerate(voices):
        if v == 0:
            profiles[v] = VoiceProfile(name, Pitch("G", 0, 4), Pitch("C", 0, 4), Pitch("G", 0, 5))
        elif v == last:
            profiles[v] = VoiceProfile(name, Pitch("C", 0, 3), Pitch("E", 0, 2), Pitch("C", 0, 4))
        else:
            profiles[v] = VoiceProfile(name, Pitch("C", 0, 4), Pitch("F", 0, 3), Pitch("F", 0, 5))
    return profiles


def realize_pitches(phrase: Phrase, profiles: dict[int, VoiceProfile]) -> Phrase:
    """Assign octaves by stepwise preference with a central-pitch fallback.

    Per voice: the opening note takes the in-range octave nearest the
    central pitch. Each later note takes an in-range placement within a
    major second of the previous pitch when one exists (the smallest such
    interval, ties downward); otherwise the in-range placement nearest
    the central pitch (ties toward the previous pitch, then downward).
    Placements are chosen as MIDI numbers; only the chosen ones are spelled.
    """
    for v in range(len(phrase.voices)):
        if v not in profiles:
            raise PhraseValidationError(f"no voice profile for voice {v}")
    realized: dict[int, NoteEvent] = {}
    spelled_of: dict[Degree, Pitch] = {}  # each degree spelled at octave 4
    for v in range(len(phrase.voices)):
        profile = profiles[v]
        low, high, central = profile.low.midi, profile.high.midi, profile.central.midi
        prev: Optional[int] = None
        # Per degree: its in-range MIDI numbers, ascending, and the pitch
        # spelled at each one chosen so far.
        placements: dict[Degree, tuple[list[int], dict[int, Pitch]]] = {}
        for idx, e in enumerate(phrase.events):
            if e.voice != v:
                continue
            if e.pitch is not None:
                realized[idx] = e
                prev = e.pitch.midi
                continue
            if e.degree is None:
                raise PhraseValidationError(
                    f"voice {phrase.voices[v]!r} at onset {e.onset}: placeholder event"
                )
            if e.degree.is_rest:
                realized[idx] = e
                continue
            got = placements.get(e.degree)
            if got is None:
                spelled = spelled_of.get(e.degree)
                if spelled is None:
                    spelled = spelled_of[e.degree] = realize_degree(e.degree, phrase.key, 4)
                midi = spelled.midi
                feasible = [m for m in range(midi - 48, midi + 49, 12) if low <= m <= high]
                got = placements[e.degree] = (feasible, {})
            feasible, pitches = got
            if not feasible:
                raise SpellingError(
                    f"degree {e.degree} unrealizable in range of voice "
                    f"{phrase.voices[v]!r} at onset {e.onset}"
                )
            # feasible ascends, so min keeps the lowest of tied placements.
            if prev is None:
                chosen = min(feasible, key=lambda m: abs(m - central))
            else:
                # Placements lie an octave apart, so at most one is a step away.
                steps = [m for m in feasible if abs(m - prev) <= 2]
                if steps:
                    chosen = steps[0]
                else:
                    chosen = min(feasible, key=lambda m: (abs(m - central), abs(m - prev)))
            pitch = pitches.get(chosen)
            if pitch is None:
                spelled = spelled_of[e.degree]
                octave = 4 + (chosen - spelled.midi) // 12
                pitch = pitches[chosen] = Pitch(spelled.step, spelled.alter, octave)
            realized[idx] = _derived(e, degree=None, pitch=pitch)
            prev = chosen
    events = tuple(realized[i] for i in range(len(phrase.events)))
    return _derived(phrase, events=events)


# ----------------------------------------------------------------------
# Background structure templates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateSlot:
    local_key: int  # scale-degree root of the slot's key, relative to home
    cadence: str  # "authentic" | "perfect_authentic"
    final_treble: Degree  # required closing treble degree, in the home frame

    def __post_init__(self):
        if not 1 <= self.local_key <= 7:
            raise PhraseValidationError(f"local key degree {self.local_key} out of range")
        if self.cadence not in ("authentic", "perfect_authentic"):
            raise PhraseValidationError(f"unknown cadence requirement {self.cadence!r}")


@dataclass(frozen=True)
class UrsatzTemplate:
    name: str
    slots: tuple[TemplateSlot, ...]

    def __post_init__(self):
        if len(self.slots) < 2:
            raise PhraseValidationError("template needs at least two slots")
        if self.slots[-1].local_key != 1:
            raise PhraseValidationError("final slot must cadence in the home key")


def default_templates() -> tuple[UrsatzTemplate, ...]:
    """The descending third-line I-V-I skeleton, plus a fifth-line variant
    collapsed to three phrases with a relaxed interior slot."""
    three_line = UrsatzTemplate(
        name="3-line",
        slots=(
            TemplateSlot(1, "authentic", Degree(3)),
            TemplateSlot(5, "authentic", Degree(2)),
            TemplateSlot(1, "perfect_authentic", Degree(1)),
        ),
    )
    five_line = UrsatzTemplate(
        name="5-line",
        slots=(
            TemplateSlot(1, "authentic", Degree(5)),
            TemplateSlot(5, "authentic", Degree(2)),
            TemplateSlot(1, "perfect_authentic", Degree(1)),
        ),
    )
    return (three_line, five_line)


def sample_structure(templates: Sequence[UrsatzTemplate], rng: np.random.Generator) -> UrsatzTemplate:
    """One template, drawn uniformly with one rng.integers call."""
    if not templates:
        raise PhraseValidationError("no templates to sample")
    return templates[int(rng.integers(len(templates)))]


# ----------------------------------------------------------------------
# Pivot selection and fusion
# ----------------------------------------------------------------------

def local_key_context(home: KeyContext, local_root: int) -> KeyContext:
    """Key whose tonic is the given scale degree of the home key."""
    if local_root == 1:
        return home
    tonic = realize_degree(Degree(local_root), home, 4)
    return KeyContext(tonic.step, tonic.alter, home.mode)


def localize_degree(global_degree: Degree, home: KeyContext, local_root: int) -> Degree:
    """Re-express a home-frame degree relative to a local key."""
    if local_root == 1:
        return global_degree
    pitch = realize_degree(global_degree, home, 4)
    return degree_of(pitch, local_key_context(home, local_root))


def globalize_degree(local_degree: Degree, home: KeyContext, local_root: int) -> Degree:
    if local_degree.is_rest or local_root == 1:
        return local_degree
    pitch = realize_degree(local_degree, local_key_context(home, local_root), 4)
    return degree_of(pitch, home)


def pivot_root(prev_local_key: int, prev_end_root: int, new_local_key: int) -> int:
    """Reinterpret the previous slot's closing harmony in the new key.

    Both the harmony and the keys are named by scale-degree roots, so the
    pivot is plain mod-7 position arithmetic: a closing I of the home key
    heard against the dominant key becomes IV.
    """
    home_position = (prev_local_key - 1 + prev_end_root - 1) % 7
    return (home_position - (new_local_key - 1)) % 7 + 1


def pivot_select(
    antecedent: CatalogEntry,
    prev_local_key: int,
    new_local_key: int,
    library: PhraseLibrary,
    grammar: ProgressionGrammar,
    home: KeyContext,
    slot: TemplateSlot,
    meter: Optional[tuple[int, int]] = None,
) -> list[int]:
    """Library phrases able to follow the antecedent in the new local key:
    their feasible start harmonies must include a grammar successor of the
    pivot reinterpretation of the antecedent's final harmony. The slot and
    a meter narrow them as in ``_opening_candidates``."""
    pivot = pivot_root(prev_local_key, antecedent.final_root, new_local_key)
    return _opening_candidates(library, grammar.successors(pivot), home, slot, meter)


def _opening_candidates(
    library: PhraseLibrary,
    starts: frozenset[int],
    home: KeyContext,
    slot: TemplateSlot,
    meter: Optional[tuple[int, int]] = None,
) -> list[int]:
    """Indices, in library order, of the library phrases in the home mode
    whose feasible start harmonies meet starts, with a cadence satisfying
    the slot's and the slot's closing treble degree, read from the library
    index. Given a meter, only phrases in that meter."""
    treble = localize_degree(slot.final_treble, home, slot.local_key)
    endings = [(c, treble) for c in CADENCES if cadence_satisfies(c, slot.cadence)]
    hits = library.lookup(home.mode, starts, endings)
    if meter is None:
        return hits
    return [i for i in hits if library[i][0].meter == meter]


@dataclass(frozen=True)
class FusionPlan:
    template: UrsatzTemplate
    phrase_indices: tuple[int, ...]
    transpositions: tuple[Interval, ...]
    pivots: tuple[Optional[int], ...]  # pivot numeral root per seam; None for slot 0

    def to_dict(self) -> dict:
        return {
            "template": self.template.name,
            "slots": [
                {
                    "local_key": s.local_key,
                    "cadence": s.cadence,
                    "final_treble_degree": str(s.final_treble),
                }
                for s in self.template.slots
            ],
            "phrase_indices": list(self.phrase_indices),
            "transpositions": [[t.letter_shift, t.semitones] for t in self.transpositions],
            "pivots": list(self.pivots),
        }


@dataclass(frozen=True)
class Score:
    home_key: KeyContext
    phrases: tuple[Phrase, ...]


def score_to_dict(score: Score) -> dict:
    return {
        "home_key": {"tonic": score.home_key.tonic_name, "mode": score.home_key.mode},
        "phrases": [phrase_to_dict(p) for p in score.phrases],
    }


def score_from_dict(obj: dict) -> Score:
    try:
        home = parse_key(obj["home_key"]["tonic"], obj["home_key"]["mode"])
        phrases = tuple(phrase_from_dict(p) for p in obj["phrases"])
    except (KeyError, TypeError) as exc:
        raise PhraseValidationError(f"malformed score document: {exc}") from exc
    if not phrases:
        raise PhraseValidationError("score has no phrases")
    return Score(home_key=home, phrases=phrases)


_ROMAN_TO_ROOT = {"I": 1, "II": 2, "III": 3, "IV": 4, "V": 5, "VI": 6, "VII": 7}


def templates_from_json(data: list) -> tuple[UrsatzTemplate, ...]:
    """Template file format: a JSON list of slots
    {local_key, cadence, final_treble_degree} describing one template, or
    a list of {name, slots} objects describing several."""
    if not isinstance(data, list):
        raise PhraseValidationError("template file must hold a JSON list")
    if data and isinstance(data[0], dict) and "local_key" in data[0]:
        data = [{"name": "template-0", "slots": data}]
    out = []
    for ti, tmpl in enumerate(data):
        if not isinstance(tmpl, dict) or not isinstance(tmpl.get("slots"), list):
            raise PhraseValidationError(f"template {ti} has no slot list")
        slots = []
        for si, slot in enumerate(tmpl["slots"]):
            where = f"template {ti} slot {si}"
            for key in ("local_key", "cadence", "final_treble_degree"):
                if not isinstance(slot, dict) or key not in slot:
                    raise PhraseValidationError(f"{where} has no {key!r}")
            lk, treble = slot["local_key"], slot["final_treble_degree"]
            if isinstance(lk, str):
                lk = _ROMAN_TO_ROOT.get(lk.upper())
            if not isinstance(lk, int) or isinstance(lk, bool):
                raise PhraseValidationError(f"bad local_key in {where}: {slot['local_key']!r}")
            if not isinstance(treble, str):
                raise PhraseValidationError(f"bad final_treble_degree in {where}: {treble!r}")
            slots.append(
                TemplateSlot(
                    local_key=lk,
                    cadence=slot["cadence"],
                    final_treble=parse_degree(treble),
                )
            )
        out.append(UrsatzTemplate(name=str(tmpl.get("name", f"template-{ti}")), slots=tuple(slots)))
    return tuple(out)


def concatenate_degrees(phrases: Sequence[Phrase], home: KeyContext, local_keys: Sequence[int]) -> Phrase:
    """Single home-frame degree phrase: each slot phrase is re-expressed in
    global degrees and appended at the next bar boundary.

    Each phrase's events are in canonical order and end by its bar-aligned
    length, so the appended events stay in canonical order without a sort.
    A phrase with an event in a voice the first phrase lacks is refused,
    as the phrase constructor would refuse it."""
    if not phrases:
        raise PhraseValidationError("nothing to concatenate")
    meter = phrases[0].meter
    n_voices = len(phrases[0].voices)
    events = []
    offset = Fraction(0)
    for phrase, local in zip(phrases, local_keys):
        if phrase.meter != meter:
            raise PhraseValidationError("fused phrases must share a meter")
        global_of: dict[Degree, Degree] = {}
        for e in phrase.events:
            d = e.degree_in(phrase.key)
            if d is None:
                raise PhraseValidationError("cannot fuse placeholder events")
            g = global_of.get(d)
            if g is None:
                g = global_of[d] = globalize_degree(d, home, local)
            events.append(_derived(e, onset=e.onset + offset, degree=g, pitch=None))
        span = offset + phrase.span
        offset += phrase.n_bars * phrase.bar_length
    if not events:
        raise PhraseValidationError("phrase has no events")
    for e in events:
        if e.voice >= n_voices:
            raise PhraseValidationError(f"event voice {e.voice} out of range")
    return _derived(
        phrases[0], key=home, events=tuple(events), span=span, cadence_annotation=None, structural=()
    )


@functools.lru_cache(maxsize=None)
def _home_classes(home: KeyContext, local_root: int) -> np.ndarray:
    """Per degree class in the local key, its class in the home frame, as
    ``globalize_degree`` re-expresses it, or -1 where that raises
    SpellingError. Built once per key pair (at most 30 home keys by 7
    local keys) and read-only, as every caller shares it."""
    table = np.full(len(DEGREES), -1)
    for c, d in enumerate(DEGREES):
        try:
            table[c] = DEGREE_INDEX[globalize_degree(d, home, local_root)]
        except SpellingError:
            pass
    table.flags.writeable = False
    return table


def _join_ties(voice, start, end, classes, tied):
    """``merge_tied`` on nodes given as arrays: a node whose head event is
    tied joins the node before it in its voice when that one ends where it
    starts, and the joined node keeps the first node's start and class and
    takes the last one's end. The nodes come out by voice, then time."""
    order = np.lexsort((start, voice))
    v, s, e = voice[order], start[order], end[order]
    joins = np.zeros(len(order), dtype=bool)
    joins[1:] = tied[order][1:] & (v[1:] == v[:-1]) & (e[:-1] == s[1:])
    heads = np.flatnonzero(~joins)
    last = np.append(heads[1:] - 1, len(order) - 1)
    kept = order[heads]
    return voice[kept], start[kept], e[last], classes[kept]


def _plan_loss(
    library: PhraseLibrary,
    indices: Sequence[int],
    home: KeyContext,
    local_keys: Sequence[int],
    rule_config: RuleConfig,
) -> Optional[int]:
    """``rule_loss(concatenate_degrees(...))`` of the entries at indices in
    the local keys, or None where ``concatenate_degrees`` refuses them.
    The entries' ``EntryTicks`` are laid end to end at their bar offsets
    on the lcm of their ticks, their classes mapped into the home frame
    and ties across a seam joined, so no phrase is built. An entry with no
    ``EntryTicks`` has a placeholder event or a pitch with no degree in
    its key, which ``concatenate_degrees`` refuses, so its plans get None."""
    parts: list[Optional[EntryTicks]] = [library.ticks[i] for i in indices]
    if any(part is None for part in parts):
        return None
    phrases = [library[i][0] for i in indices]
    meter, n_voices = phrases[0].meter, len(phrases[0].voices)
    maps = [_home_classes(home, local) for local in local_keys]
    for phrase, part, table in zip(phrases, parts, maps):
        if phrase.meter != meter or part.n_voices > n_voices or (table[part.event_classes] < 0).any():
            return None
    tick = math.lcm(*(part.tick for part in parts))
    scales = [tick // part.tick for part in parts]
    offsets = [0]
    for part, scale in zip(parts, scales):
        offsets.append(offsets[-1] + part.length * scale)
    n_beats = -(-(offsets[-2] + parts[-1].span * scales[-1]) // tick)
    voice = np.concatenate([part.voice for part in parts])
    try:
        start = np.concatenate([part.start * k + o for part, k, o in zip(parts, scales, offsets)])
        end = np.concatenate([part.end * k + o for part, k, o in zip(parts, scales, offsets)])
    except OverflowError:  # a scale or an offset past int64: tick_loss refuses this grid
        start = end = np.zeros_like(voice)
    classes = np.concatenate([table[part.classes] for part, table in zip(parts, maps)])
    tied = np.concatenate([part.tied for part in parts])
    if tied.any():
        voice, start, end, classes = _join_ties(voice, start, end, classes, tied)
    return tick_loss(classes, tick, voice, start, end, meter, n_beats, n_voices, rule_config)


def _slot_layers(
    template: UrsatzTemplate,
    library: PhraseLibrary,
    grammar: ProgressionGrammar,
    home: KeyContext,
) -> list[dict]:
    """Per template slot, the reachable slot states and each one's
    candidate list, built forward. Layer 0 maps None to the opening
    candidates; layer k + 1 maps each (final root, meter) of a candidate
    in layer k to the candidates that may follow it, which share its
    meter, so the key also carries the first phrase's meter. Raises
    FusionInfeasibleError for the first slot whose states all have empty
    lists: an exhaustive search would visit exactly those states and fail
    there."""
    slots = template.slots
    layers = [{None: _opening_candidates(library, grammar.start_roots, home, slots[0])}]
    while any(layers[-1].values()):
        if len(layers) == len(slots):
            return layers
        prev_key, slot = slots[len(layers) - 1].local_key, slots[len(layers)]
        layer: dict[tuple, list[int]] = {}
        for candidates in layers[-1].values():
            for i in candidates:
                phrase, entry = library[i]
                state = (entry.final_root, phrase.meter)
                if state not in layer:
                    layer[state] = pivot_select(
                        entry, prev_key, slot.local_key, library, grammar, home, slot, phrase.meter
                    )
        layers.append(layer)
    raise FusionInfeasibleError(len(layers), f"no feasible phrase assignment for slot {len(layers)}")


def _shuffled(candidates: list[int], rng: np.random.Generator) -> Iterator[int]:
    """The candidates in the order of one permutation drawn from rng."""
    return iter([candidates[k] for k in rng.permutation(len(candidates)).tolist()])


def fuse(
    template: UrsatzTemplate,
    library: PhraseLibrary,
    profiles: dict[int, VoiceProfile],
    grammar: ProgressionGrammar,
    rng: np.random.Generator,
    home: KeyContext,
    rule_config: RuleConfig = RuleConfig(),
) -> tuple[Score, FusionPlan]:
    """Fill every template slot from the library, verify the seams and the
    whole degree score, then realize concrete pitches.

    A slot state's candidates depend only on the slot, the previous
    phrase's final root and the first phrase's meter. So the template's
    slot layers are built forward first, each reachable state's list once,
    from the library's index (``_slot_layers``). If some layer's lists are
    all empty, no assignment can pass the filters, and FusionInfeasibleError
    names that slot before anything is drawn from rng.

    Otherwise the search is a complete depth-first search over the built
    lists: it tries every candidate of every slot, so FusionInfeasibleError
    means no slot assignment passes the filters and the final rule check.
    Each visited slot state draws one permutation of its candidates (in
    library order) from rng, in preorder, so a seed fixes the plan. The
    error reports the deepest slot whose candidates all ran out, 1-based
    as in template prose.

    The final rule check of a filled template is ``_plan_loss`` on the
    library's per-entry tick arrays alone: the verdict of ``rule_loss`` on
    the ``concatenate_degrees`` phrase, without building it. An entry
    without tick arrays fails that check in every plan, and each local
    key's classes reach the home frame through a table built once per
    key pair.
    """
    slots = template.slots
    layers = _slot_layers(template, library, grammar, home)
    local_keys = [s.local_key for s in slots]
    # path holds the phrases chosen for the slots before the one whose
    # shuffled candidates are on top of the stack.
    path: list[int] = []
    stack = [_shuffled(layers[0][None], rng)]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            if path:
                path.pop()
        elif len(stack) < len(slots):
            phrase, entry = library[i]
            path.append(i)
            stack.append(_shuffled(layers[len(path)][entry.final_root, phrase.meter], rng))
        elif _plan_loss(library, path + [i], home, local_keys, rule_config) == 0:
            path.append(i)
            break
    else:
        raise FusionInfeasibleError(len(slots), f"no feasible phrase assignment for slot {len(slots)}")

    transpositions = tuple(
        Interval.between(library[i][0].key, local_key_context(home, s.local_key))
        for i, s in zip(path, slots)
    )
    transposed = [transpose_phrase(library[i][0], t) for i, t in zip(path, transpositions)]
    realized = tuple(realize_pitches(p, profiles) for p in transposed)
    plan = FusionPlan(
        template=template,
        phrase_indices=tuple(path),
        transpositions=transpositions,
        pivots=(None,) + tuple(
            pivot_root(prev.local_key, library[i][1].final_root, s.local_key)
            for i, prev, s in zip(path, slots, slots[1:])
        ),
    )
    return Score(home_key=home, phrases=realized), plan
