"""Spelled pitches, key contexts, and the closed scale-degree vocabulary.

Degrees are measured against the major scale of the tonic regardless of
mode, so the minor third is always ``b3`` and the leading tone is always
``7``. This gives a single reference frame for both modes; the degree set
is closed at 17 pitch categories plus ``rest``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpellingError

LETTERS = "CDEFGAB"
_LETTER_INDEX = {c: i for i, c in enumerate(LETTERS)}
_LETTER_SEMIS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
MAJOR_SCALE_SEMIS = (0, 2, 4, 5, 7, 9, 11)

_ALTER_SUFFIX = {-2: "bb", -1: "b", 0: "", 1: "#", 2: "##"}
_SUFFIX_ALTER = {v: k for k, v in _ALTER_SUFFIX.items()}


@dataclass(frozen=True, order=True)
class Pitch:
    """A spelled pitch in scientific notation (C4 = middle C = MIDI 60)."""

    step: str
    alter: int
    octave: int

    def __post_init__(self):
        if self.step not in _LETTER_INDEX:
            raise SpellingError(f"unknown pitch letter {self.step!r}")
        if not -2 <= self.alter <= 2:
            raise SpellingError(f"alteration {self.alter} beyond double accidentals")

    @property
    def midi(self) -> int:
        return (self.octave + 1) * 12 + _LETTER_SEMIS[self.step] + self.alter

    @property
    def pitch_class(self) -> int:
        return self.midi % 12

    @property
    def diatonic_index(self) -> int:
        """Absolute letter position; C0 = 0, D0 = 1, ... used for transposition."""
        return self.octave * 7 + _LETTER_INDEX[self.step]

    def __str__(self) -> str:
        return f"{self.step}{_ALTER_SUFFIX[self.alter]}{self.octave}"


def parse_pitch(text: str) -> Pitch:
    """Parse spellings like ``E4``, ``F#3``, ``Bb2``, ``C##5``."""
    s = text.strip()
    if len(s) < 2:
        raise SpellingError(f"cannot parse pitch {text!r}")
    step = s[0].upper()
    i = 1
    while i < len(s) and s[i] in "#b":
        i += 1
    suffix = s[1:i]
    if suffix not in _SUFFIX_ALTER:
        raise SpellingError(f"cannot parse accidental in {text!r}")
    try:
        octave = int(s[i:])
    except ValueError:
        raise SpellingError(f"cannot parse octave in {text!r}") from None
    return Pitch(step, _SUFFIX_ALTER[suffix], octave)


def _wrap_alter(raw: int) -> int:
    """Map a semitone discrepancy onto the balanced range -6..5."""
    return (raw + 6) % 12 - 6


# Standard key-signature roots (circle of fifths, up to 7 accidentals).
_MAJOR_ROOTS = {"C", "G", "D", "A", "E", "B", "F#", "C#", "F", "Bb", "Eb", "Ab", "Db", "Gb", "Cb"}
_MINOR_ROOTS = {"A", "E", "B", "F#", "C#", "G#", "D#", "A#", "D", "G", "C", "F", "Bb", "Eb", "Ab"}


@dataclass(frozen=True)
class KeyContext:
    """Tonic spelling plus mode; the reference frame for all scale degrees."""

    tonic_step: str
    tonic_alter: int
    mode: str  # "major" | "minor"

    def __post_init__(self):
        if self.mode not in ("major", "minor"):
            raise SpellingError(f"unknown mode {self.mode!r}")
        name = self.tonic_step + _ALTER_SUFFIX.get(self.tonic_alter, "?")
        roots = _MAJOR_ROOTS if self.mode == "major" else _MINOR_ROOTS
        if name not in roots:
            raise SpellingError(f"{name} is not a valid {self.mode}-key signature root")

    @property
    def tonic_pc(self) -> int:
        return (_LETTER_SEMIS[self.tonic_step] + self.tonic_alter) % 12

    @property
    def tonic_name(self) -> str:
        return self.tonic_step + _ALTER_SUFFIX[self.tonic_alter]

    def __str__(self) -> str:
        return f"{self.tonic_name} {self.mode}"


def parse_key(tonic: str, mode: str) -> KeyContext:
    step = tonic[:1].upper()
    alter = _SUFFIX_ALTER.get(tonic[1:], None)
    if alter is None:
        raise SpellingError(f"cannot parse key tonic {tonic!r}")
    return KeyContext(step, alter, mode)


@dataclass(frozen=True, order=True)
class Degree:
    """One of the 17 pitch categories, or the rest category.

    ``number`` is the diatonic position 1..7 and ``alter`` a chromatic
    inflection of the major-scale step. The rest category is the singleton
    ``REST`` (number 0).
    """

    number: int
    alter: int = 0

    def __post_init__(self):
        if self.number == 0 and self.alter == 0:
            return  # rest
        if not (1 <= self.number <= 7 and self.alter in (-1, 0, 1)):
            raise SpellingError(f"degree ({self.number}, {self.alter}) out of vocabulary")
        if (self.number, self.alter) in _EXCLUDED_DEGREES:
            raise SpellingError(
                f"degree {_degree_name(self.number, self.alter)} is an excluded enharmonic spelling"
            )

    @property
    def is_rest(self) -> bool:
        return self.number == 0

    @property
    def semis(self) -> int:
        """Semitones above the tonic, 0..11."""
        if self.is_rest:
            raise SpellingError("rest carries no pitch content")
        return (MAJOR_SCALE_SEMIS[self.number - 1] + self.alter) % 12

    @property
    def letter_offset(self) -> int:
        if self.is_rest:
            raise SpellingError("rest carries no pitch content")
        return self.number - 1

    def __str__(self) -> str:
        if self.is_rest:
            return "rest"
        return _degree_name(self.number, self.alter)


def _degree_name(number: int, alter: int) -> str:
    prefix = {-1: "b", 0: "", 1: "#"}[alter]
    return f"{prefix}{number}"


# Enharmonically redundant spellings that are not part of the vocabulary.
_EXCLUDED_DEGREES = {(3, 1), (4, -1), (7, 1), (1, -1)}

REST = Degree(0, 0)

# Canonical category order: ascending chromatic listing, rest last.
DEGREES = (
    Degree(1), Degree(1, 1), Degree(2, -1), Degree(2), Degree(2, 1),
    Degree(3, -1), Degree(3), Degree(4), Degree(4, 1), Degree(5, -1),
    Degree(5), Degree(5, 1), Degree(6, -1), Degree(6), Degree(6, 1),
    Degree(7, -1), Degree(7), REST,
)
NUM_DEGREE_CLASSES = len(DEGREES)  # 18
DEGREE_INDEX = {d: i for i, d in enumerate(DEGREES)}
REST_INDEX = DEGREE_INDEX[REST]

# Lookup tables for array kernels: letter offset and semitone offset per
# category index; -1 marks the rest class.
DEGREE_LETTER = tuple(d.letter_offset if not d.is_rest else -1 for d in DEGREES)
DEGREE_SEMIS = tuple(d.semis if not d.is_rest else -1 for d in DEGREES)


def parse_degree(text: str) -> Degree:
    s = text.strip()
    if s == "rest":
        return REST
    alter = 0
    if s and s[0] in "#b":
        alter = 1 if s[0] == "#" else -1
        s = s[1:]
    try:
        number = int(s)
    except ValueError:
        raise SpellingError(f"cannot parse degree {text!r}") from None
    return Degree(number, alter)


def degree_of(pitch: Pitch, key: KeyContext) -> Degree:
    """Global scale degree of a spelled pitch relative to the key's tonic."""
    letter_off = (_LETTER_INDEX[pitch.step] - _LETTER_INDEX[key.tonic_step]) % 7
    number = letter_off + 1
    expected = MAJOR_SCALE_SEMIS[letter_off]
    actual = (pitch.pitch_class - key.tonic_pc) % 12
    alter = _wrap_alter(actual - expected)
    if alter not in (-1, 0, 1) or (number, alter) in _EXCLUDED_DEGREES:
        raise SpellingError(f"{pitch} has no degree spelling in {key}")
    return Degree(number, alter)


def realize_degree(degree: Degree, key: KeyContext, octave: int) -> Pitch:
    """Spell a degree in a key at a literal octave; inverse of degree_of."""
    if degree.is_rest:
        raise SpellingError("rest cannot be realized as a pitch")
    letter_i = (_LETTER_INDEX[key.tonic_step] + degree.letter_offset) % 7
    step = LETTERS[letter_i]
    target_pc = (key.tonic_pc + degree.semis) % 12
    alter = _wrap_alter(target_pc - _LETTER_SEMIS[step])
    if not -2 <= alter <= 2:
        raise SpellingError(f"degree {degree} unspellable in {key}")
    return Pitch(step, alter, octave)


@dataclass(frozen=True)
class Interval:
    """A directed transposition: diatonic letter shift plus exact semitones."""

    letter_shift: int
    semitones: int

    @staticmethod
    def between(src: KeyContext, dst: KeyContext) -> "Interval":
        """Upward interval (within one octave) carrying src's tonic to dst's."""
        letters = (_LETTER_INDEX[dst.tonic_step] - _LETTER_INDEX[src.tonic_step]) % 7
        semis = (dst.tonic_pc - src.tonic_pc) % 12
        return Interval(letters, semis)

    def apply(self, pitch: Pitch) -> Pitch:
        di = pitch.diatonic_index + self.letter_shift
        step = LETTERS[di % 7]
        octave = di // 7
        target_midi = pitch.midi + self.semitones
        alter = target_midi - ((octave + 1) * 12 + _LETTER_SEMIS[step])
        if not -2 <= alter <= 2:
            raise SpellingError(f"transposing {pitch} by {self} is unspellable")
        return Pitch(step, alter, octave)

    def apply_to_key(self, key: KeyContext) -> KeyContext:
        letter_i = (_LETTER_INDEX[key.tonic_step] + self.letter_shift) % 7
        step = LETTERS[letter_i]
        target_pc = (key.tonic_pc + self.semitones) % 12
        alter = _wrap_alter(target_pc - _LETTER_SEMIS[step])
        return KeyContext(step, alter, key.mode)
